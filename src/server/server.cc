#include "server/server.h"

#include <chrono>
#include <thread>

#include "obs/export.h"
#include "obs/histogram.h"

namespace rar {

namespace {

// Sentinel meaning "handler succeeded"; real codes start at kBadFrame=1.
constexpr WireErrorCode kNoError = static_cast<WireErrorCode>(0);

void MaxInto(std::atomic<uint64_t>& gauge, uint64_t v) {
  uint64_t cur = gauge.load(std::memory_order_relaxed);
  while (cur < v &&
         !gauge.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Scoped in-flight mutation count for the drain protocol: increment
/// *before* the draining check (seq_cst on both sides), so a mutation
/// that raced past the flag is still visible to BeginDrain's quiesce.
class MutationGuard {
 public:
  explicit MutationGuard(std::atomic<uint64_t>* c) : c_(c) {
    c_->fetch_add(1, std::memory_order_seq_cst);
  }
  ~MutationGuard() { c_->fetch_sub(1, std::memory_order_seq_cst); }
  MutationGuard(const MutationGuard&) = delete;
  MutationGuard& operator=(const MutationGuard&) = delete;

 private:
  std::atomic<uint64_t>* c_;
};

}  // namespace

SessionServer::SessionServer(RelevanceEngine* engine,
                             RelevanceStreamRegistry* registry,
                             ServerOptions options)
    : SessionServer(std::make_unique<DurableSession>(engine, registry),
                    options) {}

SessionServer::SessionServer(std::unique_ptr<DurableSession> store,
                             ServerOptions options)
    : SessionServer(store.get(), options) {
  owned_store_ = std::move(store);
}

SessionServer::SessionServer(DurableSession* durable, ServerOptions options)
    : store_(durable), options_(options) {
  store_->SizeDedupWindows(options_.dedup_window);
  // Sessions the store recovered from its directory (none without a log).
  counters_.Bump(counters_.server_sessions_recovered,
                 store_->num_server_sessions());
  store_->engine().AddApplyListener(this);
}

SessionServer::~SessionServer() { store_->engine().RemoveApplyListener(this); }

uint64_t SessionServer::UnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string SessionServer::HandleFrame(const WireFrame& frame) {
  const uint64_t t0 = MonotonicNs();
  counters_.Bump(counters_.server_requests);

  WireError err;
  err.code = kNoError;
  std::string payload;
  MessageType response_type = MessageType::kError;

  EngineObservability& obs = engine().obs();
  if (frame.deadline_unix_ms != 0 && UnixMs() > frame.deadline_unix_ms) {
    // The client has already given up on this frame; doing the work would
    // only burn server time on a response nobody is waiting for.
    counters_.Bump(counters_.server_deadline_rejections);
    err.code = WireErrorCode::kDeadlineExceeded;
    err.message = "deadline expired before dispatch";
  } else {
    switch (frame.type) {
      case MessageType::kHello:
        counters_.Bump(counters_.server_requests_hello);
        payload = HandleHello(frame, &err);
        response_type = MessageType::kHelloOk;
        break;
      case MessageType::kRegisterQuery:
        counters_.Bump(counters_.server_requests_register_query);
        payload = HandleRegisterQuery(frame, &err);
        response_type = MessageType::kRegisterQueryOk;
        obs.server_register_ns.Record(MonotonicNs() - t0);
        break;
      case MessageType::kRegisterStream:
        counters_.Bump(counters_.server_requests_register_stream);
        payload = HandleRegisterStream(frame, &err);
        response_type = MessageType::kRegisterStreamOk;
        obs.server_register_ns.Record(MonotonicNs() - t0);
        break;
      case MessageType::kApply:
        counters_.Bump(counters_.server_requests_apply);
        payload = HandleApply(frame, &err);
        response_type = MessageType::kApplyOk;
        obs.server_apply_ns.Record(MonotonicNs() - t0);
        break;
      case MessageType::kPoll:
        counters_.Bump(counters_.server_requests_poll);
        payload = HandlePoll(frame, &err);
        response_type = MessageType::kPollOk;
        obs.server_poll_ns.Record(MonotonicNs() - t0);
        break;
      case MessageType::kAcknowledge:
        counters_.Bump(counters_.server_requests_acknowledge);
        payload = HandleAcknowledge(frame, &err);
        response_type = MessageType::kAcknowledgeOk;
        break;
      case MessageType::kSnapshot:
        counters_.Bump(counters_.server_requests_snapshot);
        payload = HandleSnapshot(frame, &err);
        response_type = MessageType::kSnapshotOk;
        break;
      case MessageType::kMetrics:
        counters_.Bump(counters_.server_requests_metrics);
        payload = HandleMetrics(frame, &err);
        response_type = MessageType::kMetricsOk;
        break;
      case MessageType::kGoodbye:
        payload = HandleGoodbye(frame, &err);
        response_type = MessageType::kGoodbyeOk;
        break;
      case MessageType::kPing:
        counters_.Bump(counters_.server_requests_ping);
        payload = HandlePing(frame, &err);
        response_type = MessageType::kPingOk;
        break;
      default:
        // The frame parser maps intact frames with an unknown type byte to
        // kError with the raw byte as payload; any response type landing
        // here is equally unanswerable.
        err.code = WireErrorCode::kUnknownType;
        err.message = "server does not speak this message type";
        break;
    }
  }

  obs.server_request_ns.Record(MonotonicNs() - t0);

  std::string out;
  if (err.code != kNoError) {
    counters_.Bump(counters_.server_errors);
    EncodeWireFrame(frame.request_id, MessageType::kError,
                    EncodeWireError(err), &out);
  } else {
    EncodeWireFrame(frame.request_id, response_type, payload, &out);
  }
  return out;
}

void SessionServer::NoteBadFrame() {
  counters_.Bump(counters_.server_bad_frames);
  counters_.Bump(counters_.server_errors);
}

void SessionServer::ShedDraining(WireError* error) {
  counters_.Bump(counters_.server_drain_sheds);
  error->code = WireErrorCode::kShuttingDown;
  error->retry_after_ms = options_.drain_retry_after_ms;
  error->message = "server is draining; retry against another replica";
}

std::string SessionServer::Answer(Result<DurableSession::Outcome> outcome,
                                  MessageType type, WireError* error) {
  if (!outcome.ok()) {
    if (outcome.status().code() == StatusCode::kResourceExhausted) {
      // Engine apply admission shed the request: typed backoff, not a
      // failure — the client retries after retry_after_ms.
      counters_.Bump(counters_.server_applies_shed);
      error->code = WireErrorCode::kRetryLater;
      error->retry_after_ms = options_.retry_after_ms;
    } else {
      error->code = WireErrorCode::kBadRequest;
    }
    error->message = outcome.status().ToString();
    return "";
  }
  switch (outcome->verdict) {
    case DedupWindow::Verdict::kHit:
      if (outcome->type != static_cast<uint8_t>(type)) {
        error->code = WireErrorCode::kBadRequest;
        error->message =
            "request id was already used by a different message type";
        return "";
      }
      counters_.Bump(counters_.server_dedup_hits);
      break;
    case DedupWindow::Verdict::kStale:
      counters_.Bump(counters_.server_dedup_stale);
      error->code = WireErrorCode::kStaleRequest;
      error->message =
          "request id predates the dedup window: the original completed "
          "long ago; re-issuing it would risk a double-apply";
      return "";
    case DedupWindow::Verdict::kFresh:
      break;
  }
  return std::move(outcome).value().response;
}

std::shared_ptr<SessionServer::Session> SessionServer::FindSession(
    const SessionToken& token, WireError* error) {
  std::shared_ptr<Session> session =
      store_->FindServerSession(token.session_id, token.nonce);
  if (session == nullptr) {
    error->code = WireErrorCode::kUnknownSession;
    error->message = "unknown session token (bad nonce, reaped, or retired)";
  }
  return session;
}

bool SessionServer::ResolveStream(Session& session, uint32_t handle,
                                  StreamId* sid, WireError* error) {
  std::lock_guard<std::mutex> lock(session.mu);
  if (handle >= session.streams.size()) {
    error->code = WireErrorCode::kNotFound;
    error->message = "unknown stream handle " + std::to_string(handle);
    return false;
  }
  *sid = session.streams[handle];
  return true;
}

std::string SessionServer::HandleHello(const WireFrame& frame,
                                       WireError* error) {
  HelloRequest req;
  Status st = DecodeHelloRequest(frame.payload, &req);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  if (req.protocol_version != kWireProtocolVersion) {
    error->code = WireErrorCode::kVersionMismatch;
    error->detail = kWireProtocolVersion;
    error->message = "server speaks wire protocol version " +
                     std::to_string(kWireProtocolVersion);
    return "";
  }

  // Resume path: the token must match exactly (id + nonce) — a stale or
  // forged nonce gets kUnknownSession, never someone else's session.
  // Resumes are allowed while draining: an existing client needs its
  // session to poll out remaining events and say Goodbye.
  if (req.resume.session_id != 0 || req.resume.nonce != 0) {
    std::shared_ptr<Session> session = FindSession(req.resume, error);
    if (session == nullptr) return "";
    counters_.Bump(counters_.server_sessions_resumed);
    HelloResponse resp;
    resp.token = {session->id, session->nonce};
    resp.resumed = true;
    std::lock_guard<std::mutex> lock(session->mu);
    resp.num_streams = static_cast<uint32_t>(session->streams.size());
    resp.num_queries = static_cast<uint32_t>(session->query_regs.size());
    resp.next_request_id = session->dedup.next_free_id();
    return EncodeHelloResponse(resp);
  }

  if (draining()) {
    ShedDraining(error);
    return "";
  }

  // Fresh session: reap first so idle sessions do not hold admission slots.
  ReapIdleSessions();
  Result<std::shared_ptr<Session>> session =
      store_->OpenServerSession(options_.max_sessions);
  if (!session.ok()) {
    error->code = WireErrorCode::kInternal;
    error->message = session.status().ToString();
    return "";
  }
  if (*session == nullptr) {
    counters_.Bump(counters_.server_sessions_shed);
    error->code = WireErrorCode::kRetryLater;
    error->retry_after_ms = options_.retry_after_ms;
    error->message = "session admission: " +
                     std::to_string(options_.max_sessions) +
                     " sessions already live; retry later";
    return "";
  }
  counters_.Bump(counters_.server_sessions_opened);

  HelloResponse resp;
  resp.token = {(*session)->id, (*session)->nonce};
  resp.resumed = false;
  return EncodeHelloResponse(resp);
}

std::string SessionServer::HandleRegisterQuery(const WireFrame& frame,
                                               WireError* error) {
  MutationGuard inflight(&inflight_mutations_);
  if (draining()) {
    ShedDraining(error);
    return "";
  }
  SessionToken token;
  UnionQuery query;
  Status st = DecodeRegisterQueryRequest(engine().schema(), frame.payload,
                                         &token, &query);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<Session> session = FindSession(token, error);
  if (session == nullptr) return "";
  return Answer(store_->RegisterQueryTagged(*session, frame.request_id, query),
                frame.type, error);
}

std::string SessionServer::HandleRegisterStream(const WireFrame& frame,
                                                WireError* error) {
  MutationGuard inflight(&inflight_mutations_);
  if (draining()) {
    ShedDraining(error);
    return "";
  }
  SessionToken token;
  UnionQuery query;
  StreamOptions opts;
  Status st = DecodeRegisterStreamRequest(engine().schema(), frame.payload,
                                          &token, &query, &opts);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<Session> session = FindSession(token, error);
  if (session == nullptr) return "";

  // Server-side stream policy: cursors must be resumable (reconnect), and
  // the backlog cap only ever tightens — a client cannot opt out of the
  // server's memory bound.
  opts.retain_events = true;
  if (options_.max_backlog_events > 0 &&
      (opts.retain_cap == 0 || opts.retain_cap > options_.max_backlog_events)) {
    opts.retain_cap = options_.max_backlog_events;
  }
  return Answer(
      store_->RegisterStreamTagged(*session, frame.request_id, query, opts),
      frame.type, error);
}

std::string SessionServer::HandleApply(const WireFrame& frame,
                                       WireError* error) {
  MutationGuard inflight(&inflight_mutations_);
  if (draining()) {
    ShedDraining(error);
    return "";
  }
  SessionToken token;
  Access access;
  std::vector<Fact> response;
  Status st = DecodeApplyRequest(engine().schema(), engine().access_methods(),
                                 frame.payload, &token, &access, &response);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<Session> session = FindSession(token, error);
  if (session == nullptr) return "";
  return Answer(
      store_->ApplyTagged(*session, frame.request_id, access, response),
      frame.type, error);
}

std::string SessionServer::HandlePoll(const WireFrame& frame,
                                      WireError* error) {
  SessionToken token;
  uint32_t handle = 0;
  uint64_t cursor = 0;
  Status st = DecodePollRequest(frame.payload, &token, &handle, &cursor);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<Session> session = FindSession(token, error);
  StreamId sid;
  if (session == nullptr || !ResolveStream(*session, handle, &sid, error)) {
    return "";
  }

  // The poll reports the backlog and the eviction horizon it read under
  // its own hold of the stream mutex: no second lookup, and the horizon
  // named is the one that failed the poll.
  RelevanceStreamRegistry::PollState polled;
  Result<StreamDelta> delta = store_->PollAfter(sid, cursor, &polled);
  if (!delta.ok()) {
    if (delta.status().code() == StatusCode::kFailedPrecondition) {
      // Retention cap dropped events this cursor still needed: tell the
      // client where the horizon is so it can re-snapshot and resume.
      counters_.Bump(counters_.server_cursor_evictions);
      error->code = WireErrorCode::kCursorEvicted;
      error->detail = polled.evicted_through;
    } else {
      error->code = WireErrorCode::kBadRequest;
    }
    error->message = delta.status().ToString();
    return "";
  }
  // The backlog gauge: what the retention cap (max_backlog_events) holds.
  MaxInto(counters_.server_backlog_high_water, polled.retained);
  return EncodePollResponse(engine().schema(), *delta);
}

std::string SessionServer::HandleAcknowledge(const WireFrame& frame,
                                             WireError* error) {
  // Acks are mutations (they advance the durable cursor) but are *not*
  // shed while draining: winding a subscriber down is exactly what drain
  // is for. The guard still counts them so the quiesce covers an ack in
  // flight; each durable ack is individually fsynced (WaitDurable), so
  // one arriving after the drain flush is durable on its own.
  MutationGuard inflight(&inflight_mutations_);
  SessionToken token;
  uint32_t handle = 0;
  uint64_t upto = 0;
  Status st = DecodeAckRequest(frame.payload, &token, &handle, &upto);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<Session> session = FindSession(token, error);
  StreamId sid;
  if (session == nullptr || !ResolveStream(*session, handle, &sid, error)) {
    return "";
  }
  st = store_->Acknowledge(sid, upto);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
  }
  return "";
}

std::string SessionServer::HandleSnapshot(const WireFrame& frame,
                                          WireError* error) {
  SessionToken token;
  uint32_t handle = 0;
  Status st = DecodeSnapshotRequest(frame.payload, &token, &handle);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<Session> session = FindSession(token, error);
  StreamId sid;
  if (session == nullptr || !ResolveStream(*session, handle, &sid, error)) {
    return "";
  }
  return EncodeSnapshotResponse(engine().schema(),
                                store_->streams().Snapshot(sid));
}

std::string SessionServer::HandleMetrics(const WireFrame& frame,
                                         WireError* error) {
  SessionToken token;
  MetricsFormat format = MetricsFormat::kJson;
  Status st = DecodeMetricsRequest(frame.payload, &token, &format);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<Session> session = FindSession(token, error);
  if (session == nullptr) return "";

  // engine().stats() folds in this server's ContributeStats, so the
  // rar_server_* rows ride the same exposition as the engine's.
  MetricsExport metrics;
  metrics.stats = engine().stats();
  metrics.obs = engine().obs().Snapshot();
  metrics.schema = &engine().schema();
  return format == MetricsFormat::kPrometheus
             ? ExportMetricsPrometheus(metrics)
             : ExportMetricsJson(metrics);
}

std::string SessionServer::HandleGoodbye(const WireFrame& frame,
                                         WireError* error) {
  SessionToken token;
  Status st = DecodeGoodbyeRequest(frame.payload, &token);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  if (!store_->RetireServerSession(token.session_id, token.nonce)) {
    error->code = WireErrorCode::kUnknownSession;
    error->message = "unknown session token";
    return "";
  }
  counters_.Bump(counters_.server_sessions_retired);
  return "";
}

std::string SessionServer::HandlePing(const WireFrame& frame,
                                      WireError* error) {
  SessionToken token;
  Status st = DecodePingRequest(frame.payload, &token);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  // FindSession refreshes the idle clock — the heartbeat's whole job.
  std::shared_ptr<Session> session = FindSession(token, error);
  if (session == nullptr) return "";

  PingResponse resp;
  resp.draining = draining();
  resp.server_unix_ms = UnixMs();
  return EncodePingResponse(resp);
}

size_t SessionServer::ReapIdleSessions() {
  if (options_.idle_timeout_ms == 0) return 0;
  const size_t reaped =
      store_->ReapIdleServerSessions(options_.idle_timeout_ms);
  counters_.Bump(counters_.server_sessions_reaped, reaped);
  return reaped;
}

Status SessionServer::BeginDrain() {
  draining_.store(true, std::memory_order_seq_cst);
  // Every mutator increments inflight before checking the flag, so once
  // the count reads zero here, no shed-exempt mutation predating the flag
  // is still running.
  while (inflight_mutations_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return store_->Flush();
}

void SessionServer::ContributeStats(EngineStats* stats) const {
  counters_.FoldInto(stats);
  stats->server_sessions_active += num_sessions();
}

}  // namespace rar
