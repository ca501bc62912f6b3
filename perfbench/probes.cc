#include "probes.h"

#include <algorithm>

namespace perfbench {

size_t& ThreadSlot() {
  thread_local size_t slot = kNoSlot;
  return slot;
}

ApplyProbe::ApplyProbe(Tracer* tracer, size_t slots, size_t applies_per_slot,
                       size_t polls_per_slot)
    : tracer_(tracer) {
  slots_.reserve(slots);
  for (size_t i = 0; i < slots; ++i) {
    Slot s;
    s.engine_apply = Samples(applies_per_slot);
    s.wave = Samples(applies_per_slot);
    s.handle_apply = Samples(applies_per_slot);
    s.handle_poll = Samples(polls_per_slot);
    slots_.push_back(std::move(s));
  }
}

void ApplyProbe::EnterApply(uint64_t request_id) {
  const size_t i = ThreadSlot();
  if (i >= slots_.size()) return;
  Slot& s = slots_[i];
  s.engine_span = tracer_->Begin(i, "engine.apply", request_id);
  s.entry_ns = NowNs();
}

void ApplyProbe::LeaveApply() {
  const size_t i = ThreadSlot();
  if (i >= slots_.size()) return;
  Slot& s = slots_[i];
  if (s.engine_span != 0) tracer_->End(i, s.engine_span);
  s.engine_span = 0;
  s.entry_ns = 0;
}

void ApplyProbe::FirstListener() {
  const size_t i = ThreadSlot();
  if (i >= slots_.size()) return;
  Slot& s = slots_[i];
  const uint64_t now = NowNs();
  if (s.entry_ns != 0) s.engine_apply.Add(now - s.entry_ns);
  if (s.engine_span != 0) tracer_->End(i, s.engine_span);
  s.engine_span = 0;
  s.entry_ns = 0;
  s.wave_span = tracer_->Begin(i, "stream.wave");
  s.wave_start_ns = NowNs();
}

void ApplyProbe::SecondListener() {
  const size_t i = ThreadSlot();
  if (i >= slots_.size()) return;
  Slot& s = slots_[i];
  if (s.wave_start_ns != 0) s.wave.Add(NowNs() - s.wave_start_ns);
  if (s.wave_span != 0) tracer_->End(i, s.wave_span);
  s.wave_span = 0;
  s.wave_start_ns = 0;
}

rar::Result<rar::WireFrame> TimedLoopback::Call(rar::MessageType type,
                                                std::string_view payload,
                                                const rar::CallContext& ctx) {
  const uint64_t id =
      ctx.request_id != 0 ? ctx.request_id : next_request_id_++;
  std::string wire;
  rar::EncodeWireFrame(id, type, payload, &wire, ctx.deadline_unix_ms);
  size_t offset = 0;
  rar::WireFrame request;
  std::string error;
  if (rar::ParseWireFrame(wire, &offset, &request, &error) !=
      rar::FrameParse::kFrame) {
    return rar::Status::Internal("loopback frame failed to round-trip: " +
                                 error);
  }

  const size_t slot = ThreadSlot();
  const bool apply = type == rar::MessageType::kApply;
  const bool poll = type == rar::MessageType::kPoll;
  const char* name =
      apply ? "server.apply" : (poll ? "server.poll" : "server.other");
  // Spans only under a caller's open span: callers choose which of their
  // ops to trace.
  Tracer* tracer = probe_->tracer();
  const bool spanned = tracer->Current(slot) != 0;
  const uint64_t span = spanned ? tracer->Begin(slot, name, id) : 0;
  const uint64_t t0 = NowNs();
  if (apply && spanned) probe_->EnterApply(id);
  const std::string response_bytes = server_->HandleFrame(request);
  if (apply && spanned) probe_->LeaveApply();
  const uint64_t ns = NowNs() - t0;
  if (spanned) tracer->End(slot, span);
  if (slot < probe_->size()) {
    ApplyProbe::Slot& s = probe_->slot(slot);
    s.last_handle_ns = ns;
    if (apply) s.handle_apply.Add(ns);
    if (poll) s.handle_poll.Add(ns);
  }

  offset = 0;
  rar::WireFrame response;
  if (rar::ParseWireFrame(response_bytes, &offset, &response, &error) !=
      rar::FrameParse::kFrame) {
    return rar::Status::Internal("server response failed to parse: " + error);
  }
  if (response.request_id != id) {
    return rar::Status::Internal("response id mismatch");
  }
  return response;
}

}  // namespace perfbench

namespace perfbench {

rar::HistogramSnapshot HistogramDelta(const rar::HistogramSnapshot& before,
                                      const rar::HistogramSnapshot& after) {
  rar::HistogramSnapshot d = after;
  d.count -= std::min(before.count, after.count);
  d.sum -= std::min(before.sum, after.sum);
  for (size_t i = 0; i < d.buckets.size() && i < before.buckets.size(); ++i) {
    d.buckets[i] -= std::min(before.buckets[i], d.buckets[i]);
  }
  return d;
}

void AddCounterMetrics(const rar::EngineStats& before,
                       const rar::EngineStats& after,
                       const rar::ObsSnapshot& obs_before,
                       const rar::ObsSnapshot& obs_after, RoundResult* out) {
  auto d = [](uint64_t b, uint64_t a) {
    return static_cast<double>(a >= b ? a - b : 0);
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  auto p50_us = [&](const rar::HistogramSnapshot& b,
                    const rar::HistogramSnapshot& a) {
    return static_cast<double>(HistogramDelta(b, a).Percentile(50)) / 1e3;
  };
  auto& m = out->metrics;
  const double applies = d(before.responses_applied, after.responses_applied);
  const double rechecks = d(before.stream_rechecks, after.stream_rechecks);
  const double hits = d(before.cache_hits, after.cache_hits);
  const double misses = d(before.cache_misses, after.cache_misses);
  const double ir_runs = d(before.uncached_ir_checks, after.uncached_ir_checks);
  const double ltr_runs =
      d(before.uncached_ltr_checks, after.uncached_ltr_checks);
  const double fsyncs = d(before.wal_fsyncs, after.wal_fsyncs);

  m["server.errors"] = d(before.server_errors, after.server_errors);
  m["server.dedup_hits"] = d(before.server_dedup_hits, after.server_dedup_hits);

  m["stream.rechecks"] = rechecks;
  m["stream.rechecks_per_apply"] = ratio(rechecks, applies);
  m["stream.gate_skips_per_apply"] = ratio(
      d(before.stream_value_gate_skips, after.stream_value_gate_skips),
      applies);
  m["stream.events_per_recheck"] =
      ratio(d(before.stream_events, after.stream_events), rechecks);
  m["stream.dependent_ltr_fallbacks"] =
      d(before.stream_value_gate_fallback_dependent_ltr,
        after.stream_value_gate_fallback_dependent_ltr);
  m["stream.streams"] = static_cast<double>(after.streams_registered);
  m["stream.bindings"] = static_cast<double>(after.stream_bindings);

  m["engine.applies"] = applies;
  m["engine.cache_probes"] = hits + misses;
  m["engine.cache_hit_rate"] = ratio(hits, hits + misses);
  m["engine.cache_evictions"] =
      d(before.cache_evictions, after.cache_evictions);
  m["engine.queue_wait_us.p50"] =
      p50_us(obs_before.queue_wait_ns, obs_after.queue_wait_ns);
  m["engine.new_fact_share"] =
      ratio(d(before.facts_applied, after.facts_applied), applies);

  m["relevance.ir_runs"] = ir_runs;
  m["relevance.ltr_runs"] = ltr_runs;
  m["relevance.ir_mean_us"] =
      ratio(d(before.ir_time_ns, after.ir_time_ns) / 1e3, ir_runs);
  m["relevance.ltr_mean_us"] =
      ratio(d(before.ltr_time_ns, after.ltr_time_ns) / 1e3, ltr_runs);

  m["persist.fsyncs"] = fsyncs;
  m["persist.records_per_fsync"] =
      ratio(d(before.wal_records, after.wal_records), fsyncs);
  m["persist.commit_us.p50"] =
      p50_us(obs_before.wal_commit_ns, obs_after.wal_commit_ns);
  m["persist.fsync_us.p50"] =
      p50_us(obs_before.wal_fsync_ns, obs_after.wal_fsync_ns);
  m["persist.wal_bytes_per_apply"] =
      ratio(d(before.wal_bytes, after.wal_bytes), applies);
  m["persist.snapshots"] =
      d(before.snapshots_written, after.snapshots_written);
}

void AddSpanMetrics(const Tracer& tracer, RoundResult* out) {
  const std::vector<Span> spans = tracer.Collect();
  double traced_ops = 0;
  for (const Span& s : spans) traced_ops += s.parent == 0 ? 1 : 0;
  auto& m = out->metrics;
  for (const auto& [layer, ns] : LayerSelfNs(spans)) {
    m["self." + layer + "_us"] =
        traced_ops == 0 ? 0 : static_cast<double>(ns) / 1e3 / traced_ops;
  }
  m["obs.spans"] = static_cast<double>(spans.size());
  m["obs.spans_dropped"] = static_cast<double>(tracer.dropped());
}

}  // namespace perfbench
