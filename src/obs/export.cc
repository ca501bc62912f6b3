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
// Both renderers walk these tables, so a metric added here shows up in
// JSON and Prometheus simultaneously — the "cannot drift" contract.

namespace {

struct CounterRow {
  const char* name;
  uint64_t value;
  bool gauge;  ///< current level rather than a monotone total
};

std::vector<CounterRow> EngineRows(const EngineStats& s) {
  return {
      {"ir_checks", s.ir_checks, false},
      {"ltr_checks", s.ltr_checks, false},
      {"uncached_ir_checks", s.uncached_ir_checks, false},
      {"uncached_ltr_checks", s.uncached_ltr_checks, false},
      {"cache_hits", s.cache_hits, false},
      {"cache_misses", s.cache_misses, false},
      {"sticky_hits", s.sticky_hits, false},
      {"cross_epoch_hits", s.cross_epoch_hits, false},
      {"stale_invalidations", s.stale_invalidations, false},
      {"wf_rejections", s.wf_rejections, false},
      {"certainty_reuse", s.certainty_reuse, false},
      {"producible_reuse", s.producible_reuse, false},
      {"producible_recomputes", s.producible_recomputes, false},
      {"epoch_advances", s.epoch_advances, false},
      {"adom_advances", s.adom_advances, false},
      {"facts_applied", s.facts_applied, false},
      {"responses_applied", s.responses_applied, false},
      {"overlapped_applies", s.overlapped_applies, false},
      {"overlapped_checks", s.overlapped_checks, false},
      {"batch_calls", s.batch_calls, false},
      {"batch_items", s.batch_items, false},
      {"ir_time_ns", s.ir_time_ns, false},
      {"ltr_time_ns", s.ltr_time_ns, false},
      {"cache_entries", s.cache_entries, true},
      {"cache_evictions", s.cache_evictions, false},
      {"frontier_pending", s.frontier_pending, true},
      {"frontier_performed", s.frontier_performed, true},
  };
}

std::vector<CounterRow> StreamRows(const EngineStats& s) {
  return {
      {"registered", s.streams_registered, true},
      {"subscriptions", s.stream_subscriptions, true},
      {"bindings", s.stream_bindings, true},
      {"new_bindings", s.stream_new_bindings, false},
      {"rechecks", s.stream_rechecks, false},
      {"skips", s.stream_skips, false},
      {"sticky_skips", s.stream_sticky_skips, false},
      {"events", s.stream_events, false},
      {"value_gate_skips", s.stream_value_gate_skips, false},
      {"value_gate_fallback_adom", s.stream_value_gate_fallback_adom, false},
      {"value_gate_fallback_dependent_ltr",
       s.stream_value_gate_fallback_dependent_ltr, false},
      {"value_gate_fallback_unconstrained",
       s.stream_value_gate_fallback_unconstrained, false},
      {"value_gate_semijoin_rechecks", s.stream_value_gate_semijoin, false},
      {"value_gate_newborn_rechecks", s.stream_value_gate_newborn, false},
      {"retained_evicted", s.stream_retained_evicted, false},
  };
}

std::vector<CounterRow> ServerRows(const EngineStats& s) {
  return {
      {"sessions_opened", s.server_sessions_opened, false},
      {"sessions_resumed", s.server_sessions_resumed, false},
      {"sessions_retired", s.server_sessions_retired, false},
      {"sessions_reaped", s.server_sessions_reaped, false},
      {"sessions_shed", s.server_sessions_shed, false},
      {"sessions_active", s.server_sessions_active, true},
      {"requests", s.server_requests, false},
      {"requests_hello", s.server_requests_hello, false},
      {"requests_register_query", s.server_requests_register_query, false},
      {"requests_register_stream", s.server_requests_register_stream, false},
      {"requests_apply", s.server_requests_apply, false},
      {"requests_poll", s.server_requests_poll, false},
      {"requests_acknowledge", s.server_requests_acknowledge, false},
      {"requests_snapshot", s.server_requests_snapshot, false},
      {"requests_metrics", s.server_requests_metrics, false},
      {"requests_ping", s.server_requests_ping, false},
      {"errors", s.server_errors, false},
      {"bad_frames", s.server_bad_frames, false},
      {"applies_shed", s.server_applies_shed, false},
      {"cursor_evictions", s.server_cursor_evictions, false},
      {"backlog_high_water", s.server_backlog_high_water, true},
      {"dedup_hits", s.server_dedup_hits, false},
      {"dedup_stale", s.server_dedup_stale, false},
      {"deadline_rejections", s.server_deadline_rejections, false},
      {"drain_sheds", s.server_drain_sheds, false},
      {"sessions_recovered", s.server_sessions_recovered, false},
  };
}

std::vector<CounterRow> PersistRows(const EngineStats& s) {
  return {
      {"wal_records", s.wal_records, false},
      {"wal_bytes", s.wal_bytes, false},
      {"wal_fsyncs", s.wal_fsyncs, false},
      {"wal_commit_batches", s.wal_commit_batches, false},
      {"wal_commit_waiters", s.wal_commit_waiters, false},
      {"snapshots_written", s.snapshots_written, false},
      {"snapshot_bytes", s.snapshot_bytes, true},
      {"replay_records", s.replay_records, false},
      {"replay_facts", s.replay_facts, false},
      {"wal_truncated_tails", s.wal_truncated_tails, false},
  };
}

struct HistRow {
  const char* name;
  const HistogramSnapshot* h;
};

std::vector<HistRow> HistRows(const ObsSnapshot& o) {
  return {
      {"ir_decider_ns", &o.ir_decider_ns},
      {"ltr_decider_ns", &o.ltr_decider_ns},
      {"apply_ns", &o.apply_ns},
      {"batch_ns", &o.batch_ns},
      {"wave_ns", &o.wave_ns},
      {"wave_width", &o.wave_width},
      {"queue_wait_ns", &o.queue_wait_ns},
      {"source_ns", &o.source_ns},
      {"wal_fsync_ns", &o.wal_fsync_ns},
      {"wal_commit_ns", &o.wal_commit_ns},
      {"server_request_ns", &o.server_request_ns},
      {"server_apply_ns", &o.server_apply_ns},
      {"server_poll_ns", &o.server_poll_ns},
      {"server_register_ns", &o.server_register_ns},
  };
}

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
  w.BeginObject();

  w.Key("engine").BeginObject();
  for (const CounterRow& row : EngineRows(m.stats)) {
    w.Field(row.name, row.value);
  }
  w.Field("apply_admission_rejections", m.stats.apply_admission_rejections);
  w.Field("cache_hit_rate", m.stats.cache_hit_rate());
  w.Field("mean_ir_decider_ns", m.stats.mean_ir_decider_ns());
  w.Field("mean_ltr_decider_ns", m.stats.mean_ltr_decider_ns());
  w.Key("invalidations_by_relation");
  AppendAttribution(&w, m.schema, m.stats.invalidations_by_relation);
  w.EndObject();

  w.Key("streams").BeginObject();
  for (const CounterRow& row : StreamRows(m.stats)) {
    w.Field(row.name, row.value);
  }
  w.Key("rechecks_by_relation");
  AppendAttribution(&w, m.schema, m.stats.stream_rechecks_by_relation);
  w.EndObject();

  w.Key("persist").BeginObject();
  for (const CounterRow& row : PersistRows(m.stats)) {
    w.Field(row.name, row.value);
  }
  w.EndObject();

  w.Key("server").BeginObject();
  for (const CounterRow& row : ServerRows(m.stats)) {
    w.Field(row.name, row.value);
  }
  w.EndObject();

  w.Key("latency").BeginObject();
  for (const HistRow& row : HistRows(m.obs)) {
    w.Key(row.name);
    AppendHistogramJson(&w, *row.h);
  }
  w.EndObject();

  if (!m.trace_json.empty()) w.Key("trace").Raw(m.trace_json);

  w.EndObject();
  return w.str();
}

std::string ExportMetricsPrometheus(const MetricsExport& m) {
  std::string out;
  out.reserve(4096);
  auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  auto counter = [&](const std::string& name, uint64_t value, bool gauge) {
    line("# TYPE " + name + (gauge ? " gauge" : " counter"));
    line(name + " " + std::to_string(value));
  };

  for (const CounterRow& row : EngineRows(m.stats)) {
    counter("rar_engine_" + std::string(row.name) +
                (row.gauge ? "" : "_total"),
            row.value, row.gauge);
  }
  for (const CounterRow& row : StreamRows(m.stats)) {
    counter("rar_stream_" + std::string(row.name) +
                (row.gauge ? "" : "_total"),
            row.value, row.gauge);
  }
  for (const CounterRow& row : PersistRows(m.stats)) {
    counter("rar_persist_" + std::string(row.name) +
                (row.gauge ? "" : "_total"),
            row.value, row.gauge);
  }
  counter("rar_engine_apply_admission_rejections_total",
          m.stats.apply_admission_rejections, false);
  for (const CounterRow& row : ServerRows(m.stats)) {
    counter("rar_server_" + std::string(row.name) +
                (row.gauge ? "" : "_total"),
            row.value, row.gauge);
  }

  if (!m.stats.invalidations_by_relation.empty()) {
    line("# TYPE rar_engine_invalidations_by_relation_total counter");
    const auto& inv = m.stats.invalidations_by_relation;
    for (size_t i = 0; i < inv.size(); ++i) {
      line("rar_engine_invalidations_by_relation_total{relation=\"" +
           RelationLabel(m.schema, i, inv.size()) + "\"} " +
           std::to_string(inv[i]));
    }
  }
  if (!m.stats.stream_rechecks_by_relation.empty()) {
    line("# TYPE rar_stream_rechecks_by_relation_total counter");
    const auto& rc = m.stats.stream_rechecks_by_relation;
    for (size_t i = 0; i < rc.size(); ++i) {
      line("rar_stream_rechecks_by_relation_total{relation=\"" +
           RelationLabel(m.schema, i, rc.size()) + "\"} " +
           std::to_string(rc[i]));
    }
  }

  for (const HistRow& row : HistRows(m.obs)) {
    const std::string name = "rar_" + std::string(row.name);
    line("# TYPE " + name + " summary");
    line(name + "{quantile=\"0.5\"} " + std::to_string(row.h->Percentile(50)));
    line(name + "{quantile=\"0.9\"} " + std::to_string(row.h->Percentile(90)));
    line(name + "{quantile=\"0.99\"} " +
         std::to_string(row.h->Percentile(99)));
    line(name + "_sum " + std::to_string(row.h->sum));
    line(name + "_count " + std::to_string(row.h->count));
    line("# TYPE " + name + "_max gauge");
    line(name + "_max " + std::to_string(row.h->max));
  }
  return out;
}

}  // namespace rar
