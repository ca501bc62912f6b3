#include "obs/export.h"

#include <cmath>
#include <cstdio>

namespace rar {

// ------------------------------------------------------------ JsonWriter

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  if (!has_element_.empty() && has_element_.back()) out_ += ',';
  if (!has_element_.empty()) has_element_.back() = true;
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_element_.empty() && has_element_.back()) out_ += ',';
  if (!has_element_.empty()) has_element_.back() = true;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  Separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  Separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  Separate();
  // JSON has no NaN/Inf tokens; a degenerate histogram snapshot (e.g. an
  // empty percentile) must not break a strict parser downstream.
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  // Fixed-point, trimmed: deterministic, never scientific, always a
  // decimal point (stays a JSON number and survives strict parsers).
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  std::string s(buf);
  size_t last = s.find_last_not_of('0');
  if (last != std::string::npos) {
    if (s[last] == '.') ++last;  // keep one digit after the point
    s.erase(last + 1);
  }
  out_ += s;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(const char* v) {
  Separate();
  out_ += '"';
  out_ += Escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  Separate();
  out_ += '"';
  out_ += Escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  Separate();
  out_ += json;
  return *this;
}

std::string JsonWriter::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --------------------------------------------------- shared metric rows
//
// Both renderers walk these rows, generated from the metric table
// (obs/metrics.h), so a metric shows up in JSON and Prometheus together.

namespace {

enum class MetricKind { kCounter, kGauge };

struct CounterRow {
  const char* name;
  uint64_t EngineStats::*member;
  MetricKind kind;
  const char* help;
};

struct HistogramRow {
  const char* name;
  HistogramSnapshot ObsSnapshot::*member;
  const char* help;
};

#define RAR_COUNTER_ROW(member, name, kind, backing, help) \
  {name, &EngineStats::member, MetricKind::k##kind, help},
#define RAR_HISTOGRAM_ROW(member, help) {#member, &ObsSnapshot::member, help},

constexpr CounterRow kEngineRows[] = {RAR_ENGINE_METRICS(RAR_COUNTER_ROW)};
constexpr CounterRow kStreamRows[] = {RAR_STREAM_METRICS(RAR_COUNTER_ROW)};
constexpr CounterRow kPersistRows[] = {RAR_PERSIST_METRICS(RAR_COUNTER_ROW)};
constexpr CounterRow kServerRows[] = {RAR_SERVER_METRICS(RAR_COUNTER_ROW)};
constexpr HistogramRow kHistogramRows[] = {
    RAR_HISTOGRAM_METRICS(RAR_HISTOGRAM_ROW)};

/// Attribution label of slot `i` of a by-relation vector whose trailing
/// slot is the Adom component.
std::string RelationLabel(const Schema* schema, size_t i, size_t size) {
  if (i + 1 == size) return "adom";
  if (schema != nullptr && i < schema->num_relations()) {
    return schema->relation(static_cast<RelationId>(i)).name;
  }
  return "r" + std::to_string(i);
}

void AppendAttribution(JsonWriter* w, const Schema* schema,
                       const std::vector<uint64_t>& by_relation) {
  w->BeginObject();
  for (size_t i = 0; i < by_relation.size(); ++i) {
    w->Field(RelationLabel(schema, i, by_relation.size()), by_relation[i]);
  }
  w->EndObject();
}

}  // namespace

void AppendHistogramJson(JsonWriter* w, const HistogramSnapshot& h) {
  w->BeginObject()
      .Field("count", h.count)
      .Field("mean", h.mean())
      .Field("p50", h.Percentile(50))
      .Field("p90", h.Percentile(90))
      .Field("p99", h.Percentile(99))
      .Field("max", h.max)
      .EndObject();
}

std::string ExportMetricsJson(const MetricsExport& m) {
  JsonWriter w;
  auto fields = [&](const auto& rows) {
    for (const CounterRow& row : rows) w.Field(row.name, m.stats.*row.member);
  };
  w.BeginObject();

  w.Key("engine").BeginObject();
  fields(kEngineRows);
  w.Field("cache_hit_rate", m.stats.cache_hit_rate());
  w.Field("mean_ir_decider_ns", m.stats.mean_ir_decider_ns());
  w.Field("mean_ltr_decider_ns", m.stats.mean_ltr_decider_ns());
  w.Key("invalidations_by_relation");
  AppendAttribution(&w, m.schema, m.stats.invalidations_by_relation);
  w.EndObject();

  w.Key("streams").BeginObject();
  fields(kStreamRows);
  w.Key("rechecks_by_relation");
  AppendAttribution(&w, m.schema, m.stats.stream_rechecks_by_relation);
  w.EndObject();

  w.Key("persist").BeginObject();
  fields(kPersistRows);
  w.EndObject();

  w.Key("server").BeginObject();
  fields(kServerRows);
  w.EndObject();

  w.Key("latency").BeginObject();
  for (const HistogramRow& row : kHistogramRows) {
    w.Key(row.name);
    AppendHistogramJson(&w, m.obs.*row.member);
  }
  w.EndObject();

  if (!m.trace_json.empty()) w.Key("trace").Raw(m.trace_json);

  w.EndObject();
  return w.str();
}

std::string ExportMetricsPrometheus(const MetricsExport& m) {
  std::string out;
  out.reserve(16384);
  auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  auto family = [&](const std::string& name, const char* type,
                    const std::string& help) {
    line("# HELP " + name + " " + help);
    line("# TYPE " + name + " " + type);
  };
  auto counters = [&](const std::string& prefix, const auto& rows) {
    for (const CounterRow& row : rows) {
      const bool gauge = row.kind == MetricKind::kGauge;
      const std::string name = prefix + row.name + (gauge ? "" : "_total");
      family(name, gauge ? "gauge" : "counter", row.help);
      line(name + " " + std::to_string(m.stats.*row.member));
    }
  };
  auto by_relation = [&](const std::string& name, const char* help,
                         const std::vector<uint64_t>& values) {
    if (values.empty()) return;
    family(name, "counter", help);
    for (size_t i = 0; i < values.size(); ++i) {
      line(name + "{relation=\"" + RelationLabel(m.schema, i, values.size()) +
           "\"} " + std::to_string(values[i]));
    }
  };

  counters("rar_engine_", kEngineRows);
  counters("rar_stream_", kStreamRows);
  counters("rar_persist_", kPersistRows);
  counters("rar_server_", kServerRows);

  by_relation("rar_engine_invalidations_by_relation_total",
              "Stale cache-entry drops by the footprint component that "
              "moved; adom is active-domain growth.",
              m.stats.invalidations_by_relation);
  by_relation("rar_stream_rechecks_by_relation_total",
              "Stream rechecks by the applied relation that triggered them; "
              "adom is registration or active-domain growth.",
              m.stats.stream_rechecks_by_relation);

  for (const HistogramRow& row : kHistogramRows) {
    const HistogramSnapshot& h = m.obs.*row.member;
    const std::string name = "rar_" + std::string(row.name);
    family(name, "summary", row.help);
    line(name + "{quantile=\"0.5\"} " + std::to_string(h.Percentile(50)));
    line(name + "{quantile=\"0.9\"} " + std::to_string(h.Percentile(90)));
    line(name + "{quantile=\"0.99\"} " + std::to_string(h.Percentile(99)));
    line(name + "_sum " + std::to_string(h.sum));
    line(name + "_count " + std::to_string(h.count));
    family(name + "_max", "gauge", "Largest sample of " + name + ".");
    line(name + "_max " + std::to_string(h.max));
  }
  return out;
}

}  // namespace rar
