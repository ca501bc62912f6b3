// The unified metrics exporter: EngineStats + histogram snapshots +
// per-relation/per-stream attribution rendered as canonical JSON and as
// Prometheus text exposition format, both walking the rows of the metric
// table (obs/metrics.h), so the two outputs can never drift.
//
// `JsonWriter` is the small building block the benches and examples use
// instead of hand-rolled string concatenation: automatic comma placement,
// string escaping, stable number formatting (doubles rendered with
// enough digits to round-trip, never in scientific notation — every line
// stays `jq`/`python -m json.tool` clean).
#ifndef RAR_OBS_EXPORT_H_
#define RAR_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/stats.h"
#include "obs/obs.h"
#include "relational/schema.h"

namespace rar {

/// \brief Minimal streaming JSON builder (objects/arrays, escaped
/// strings, canonical numbers). Not validating — callers balance their
/// Begin/End pairs; every Key must precede exactly one value.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);

  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(bool v);
  JsonWriter& Value(const char* v);
  JsonWriter& Value(const std::string& v);
  /// Splices a pre-rendered JSON fragment (e.g. TraceBuffer::DumpJson).
  JsonWriter& Raw(const std::string& json);

  /// Key + value in one call.
  template <typename T>
  JsonWriter& Field(const std::string& key, const T& v) {
    Key(key);
    return Value(v);
  }

  const std::string& str() const { return out_; }

  static std::string Escape(const std::string& s);

 private:
  void Separate();

  std::string out_;
  /// One entry per open container: true once the first element landed.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

/// \brief Everything the exporter renders. `schema` (optional) turns
/// per-relation attribution indices into relation names; `trace_json`
/// (optional) is embedded verbatim under "trace".
struct MetricsExport {
  EngineStats stats;
  ObsSnapshot obs;
  const Schema* schema = nullptr;
  std::string trace_json;
};

/// Canonical JSON document: {"engine":{...},"streams":{...},
/// "latency":{<name>:{count,mean,p50,p90,p99,max}},"trace":[...]}.
std::string ExportMetricsJson(const MetricsExport& m);

/// Prometheus text exposition format: counters as `rar_<name>_total`,
/// attribution vectors with a `relation` label, histograms as summaries
/// (`_count`/`_sum`/quantile series); every family opens with its
/// `# HELP` and `# TYPE` lines. Endpoint-ready: serve the string as
/// text/plain and a Prometheus scraper ingests it as-is.
std::string ExportMetricsPrometheus(const MetricsExport& m);

/// Appends one histogram as {"count":..,"mean":..,"p50":..,"p90":..,
/// "p99":..,"max":..} — the value the writer is currently positioned for
/// (after Key, or as an array element).
void AppendHistogramJson(JsonWriter* w, const HistogramSnapshot& h);

}  // namespace rar

#endif  // RAR_OBS_EXPORT_H_
