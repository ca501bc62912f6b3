#include "server/server.h"

#include <chrono>
#include <thread>

#include "obs/export.h"
#include "obs/histogram.h"

namespace rar {

namespace {

// Sentinel meaning "handler succeeded"; real codes start at kBadFrame=1.
constexpr WireErrorCode kNoError = static_cast<WireErrorCode>(0);

void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

void MaxInto(std::atomic<uint64_t>& gauge, uint64_t v) {
  uint64_t cur = gauge.load(std::memory_order_relaxed);
  while (cur < v &&
         !gauge.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string EncodeHandle(uint32_t handle) {
  std::string out;
  BinWriter w(&out);
  w.U32(handle);
  return out;
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
    : engine_(engine),
      registry_(registry),
      durable_(nullptr),
      options_(options),
      nonce_seed_(static_cast<uint64_t>(
                      std::chrono::steady_clock::now().time_since_epoch()
                          .count()) ^
                  reinterpret_cast<uintptr_t>(this)) {
  engine_->AddApplyListener(this);
}

SessionServer::SessionServer(DurableSession* durable, ServerOptions options)
    : engine_(&durable->engine()),
      registry_(&durable->streams()),
      durable_(durable),
      options_(options),
      nonce_seed_(static_cast<uint64_t>(
                      std::chrono::steady_clock::now().time_since_epoch()
                          .count()) ^
                  reinterpret_cast<uintptr_t>(this)) {
  engine_->AddApplyListener(this);

  // Re-seed the token table from the durable session registry: a client
  // whose server crashed resumes its pre-crash token (handles, cursors,
  // dedup window) against this process as if nothing happened.
  const std::vector<QueryId>& direct = durable->direct_query_ids();
  uint64_t max_id = 0;
  for (const DurableSession::RecoveredServerSession& rs :
       durable->server_sessions()) {
    auto session = std::make_shared<ServerSession>(options_.dedup_window);
    session->id = rs.id;
    session->nonce = rs.nonce;
    session->queries.reserve(rs.query_regs.size());
    for (uint32_t idx : rs.query_regs) {
      session->queries.push_back(idx < direct.size() ? direct[idx]
                                                     : QueryId{0});
    }
    session->streams = rs.streams;
    session->degraded.assign(rs.streams.size(), 0);
    session->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    sessions_.emplace(rs.id, std::move(session));
    if (rs.id > max_id) max_id = rs.id;
    Bump(counters_.sessions_recovered);
  }
  if (max_id != 0) {
    next_session_id_.store(max_id + 1, std::memory_order_relaxed);
  }
}

SessionServer::~SessionServer() { engine_->RemoveApplyListener(this); }

uint64_t SessionServer::NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t SessionServer::UnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string SessionServer::HandleFrame(const WireFrame& frame) {
  const uint64_t t0 = MonotonicNs();
  Bump(counters_.requests);

  WireError err;
  err.code = kNoError;
  std::string payload;
  MessageType response_type = MessageType::kError;

  EngineObservability& obs = engine_->obs();
  if (frame.deadline_unix_ms != 0 && UnixMs() > frame.deadline_unix_ms) {
    // The client has already given up on this frame; doing the work would
    // only burn server time on a response nobody is waiting for.
    Bump(counters_.deadline_rejections);
    err.code = WireErrorCode::kDeadlineExceeded;
    err.message = "deadline expired before dispatch";
  } else {
    switch (frame.type) {
      case MessageType::kHello:
        Bump(counters_.requests_hello);
        payload = HandleHello(frame, &err);
        response_type = MessageType::kHelloOk;
        break;
      case MessageType::kRegisterQuery:
        Bump(counters_.requests_register_query);
        payload = HandleRegisterQuery(frame, &err);
        response_type = MessageType::kRegisterQueryOk;
        obs.server_register_ns.Record(MonotonicNs() - t0);
        break;
      case MessageType::kRegisterStream:
        Bump(counters_.requests_register_stream);
        payload = HandleRegisterStream(frame, &err);
        response_type = MessageType::kRegisterStreamOk;
        obs.server_register_ns.Record(MonotonicNs() - t0);
        break;
      case MessageType::kApply:
        Bump(counters_.requests_apply);
        payload = HandleApply(frame, &err);
        response_type = MessageType::kApplyOk;
        obs.server_apply_ns.Record(MonotonicNs() - t0);
        break;
      case MessageType::kPoll:
        Bump(counters_.requests_poll);
        payload = HandlePoll(frame, &err);
        response_type = MessageType::kPollOk;
        obs.server_poll_ns.Record(MonotonicNs() - t0);
        break;
      case MessageType::kAcknowledge:
        Bump(counters_.requests_acknowledge);
        payload = HandleAcknowledge(frame, &err);
        response_type = MessageType::kAcknowledgeOk;
        break;
      case MessageType::kSnapshot:
        Bump(counters_.requests_snapshot);
        payload = HandleSnapshot(frame, &err);
        response_type = MessageType::kSnapshotOk;
        break;
      case MessageType::kMetrics:
        Bump(counters_.requests_metrics);
        payload = HandleMetrics(frame, &err);
        response_type = MessageType::kMetricsOk;
        break;
      case MessageType::kGoodbye:
        payload = HandleGoodbye(frame, &err);
        response_type = MessageType::kGoodbyeOk;
        break;
      case MessageType::kPing:
        Bump(counters_.requests_ping);
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
    Bump(counters_.errors);
    EncodeWireFrame(frame.request_id, MessageType::kError,
                    EncodeWireError(err), &out);
  } else {
    EncodeWireFrame(frame.request_id, response_type, payload, &out);
  }
  return out;
}

void SessionServer::NoteBadFrame() {
  Bump(counters_.bad_frames);
  Bump(counters_.errors);
}

void SessionServer::ShedDraining(WireError* error) {
  Bump(counters_.drain_sheds);
  error->code = WireErrorCode::kShuttingDown;
  error->retry_after_ms = options_.drain_retry_after_ms;
  error->message = "server is draining; retry against another replica";
}

bool SessionServer::AnswerFromOutcome(
    const DurableSession::TaggedOutcome& outcome, uint8_t request_type,
    std::string* payload, WireError* error) {
  using Kind = DurableSession::TaggedOutcome::Kind;
  switch (outcome.kind) {
    case Kind::kHit:
      if (outcome.type != request_type) {
        error->code = WireErrorCode::kBadRequest;
        error->message =
            "request id was already used by a different message type";
        return true;
      }
      Bump(counters_.dedup_hits);
      *payload = outcome.response;
      return true;
    case Kind::kStale:
      Bump(counters_.dedup_stale);
      error->code = WireErrorCode::kStaleRequest;
      error->message =
          "request id predates the dedup window: the original completed "
          "long ago; re-issuing it would risk a double-apply";
      return true;
    case Kind::kFresh:
      return false;
  }
  return false;
}

std::shared_ptr<SessionServer::ServerSession> SessionServer::FindSession(
    const SessionToken& token, WireError* error) {
  {
    std::shared_lock<std::shared_mutex> lock(sessions_mu_);
    auto it = sessions_.find(token.session_id);
    if (it != sessions_.end() && it->second->nonce == token.nonce) {
      it->second->last_active_ms.store(NowMs(), std::memory_order_relaxed);
      return it->second;
    }
  }
  error->code = WireErrorCode::kUnknownSession;
  error->message = "unknown session token (bad nonce, reaped, or retired)";
  return nullptr;
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
    WireError find_err;
    std::shared_ptr<ServerSession> session = FindSession(req.resume, &find_err);
    if (session == nullptr) {
      *error = find_err;
      return "";
    }
    Bump(counters_.sessions_resumed);
    HelloResponse resp;
    resp.token = {session->id, session->nonce};
    resp.resumed = true;
    {
      std::lock_guard<std::mutex> lock(session->mu);
      resp.num_streams = static_cast<uint32_t>(session->streams.size());
      resp.num_queries = static_cast<uint32_t>(session->queries.size());
      resp.next_request_id = session->dedup.next_free_id();
    }
    // Durable serving keeps the session's window in the durable session.
    if (durable_ != nullptr) {
      resp.next_request_id = durable_->NextRequestId(session->id);
    }
    return EncodeHelloResponse(resp);
  }

  if (draining()) {
    ShedDraining(error);
    return "";
  }

  // Fresh session: reap first so idle sessions do not hold admission slots.
  ReapIdleSessions();
  auto session = std::make_shared<ServerSession>(options_.dedup_window);
  {
    std::unique_lock<std::shared_mutex> lock(sessions_mu_);
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions) {
      Bump(counters_.sessions_shed);
      error->code = WireErrorCode::kRetryLater;
      error->retry_after_ms = options_.retry_after_ms;
      error->message = "session admission: " +
                       std::to_string(options_.max_sessions) +
                       " sessions already live; retry later";
      return "";
    }
    session->id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
    // splitmix64 finalizer over (seed, id): unguessable enough that a
    // client cannot trivially forge another session's nonce, cheap enough
    // to mint under the lock.
    uint64_t z = nonce_seed_ + session->id * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    session->nonce = z ^ (z >> 31);
    session->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    sessions_.emplace(session->id, session);
  }

  // Persist the token before answering: if the server crashes after the
  // client learns the token, recovery must still recognise it.
  if (durable_ != nullptr) {
    Status open = durable_->OpenServerSession(session->id, session->nonce);
    if (!open.ok()) {
      {
        std::unique_lock<std::shared_mutex> lock(sessions_mu_);
        sessions_.erase(session->id);
      }
      error->code = WireErrorCode::kInternal;
      error->message = open.ToString();
      return "";
    }
  }
  Bump(counters_.sessions_opened);

  HelloResponse resp;
  resp.token = {session->id, session->nonce};
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
  Status st = DecodeRegisterQueryRequest(engine_->schema(), frame.payload,
                                         &token, &query);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<ServerSession> session = FindSession(token, error);
  if (session == nullptr) return "";

  const uint8_t type_byte = static_cast<uint8_t>(frame.type);
  std::lock_guard<std::mutex> reg(register_mu_);

  if (durable_ != nullptr) {
    Result<DurableSession::TaggedOutcome> outcome =
        durable_->RegisterQueryTagged(session->id, frame.request_id, query);
    if (!outcome.ok()) {
      error->code = WireErrorCode::kBadRequest;
      error->message = outcome.status().ToString();
      return "";
    }
    std::string payload;
    if (AnswerFromOutcome(*outcome, type_byte, &payload, error)) {
      return payload;
    }
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->queries.size() != outcome->handle) {
      error->code = WireErrorCode::kInternal;
      error->message = "session handle table out of sync with durable state";
      return "";
    }
    session->queries.push_back(outcome->query_id);
    return outcome->response;
  }

  {
    std::lock_guard<std::mutex> lock(session->mu);
    const DedupWindow::Entry* entry = nullptr;
    switch (session->dedup.Probe(frame.request_id, &entry)) {
      case DedupWindow::Verdict::kHit:
        if (entry->type != type_byte) {
          error->code = WireErrorCode::kBadRequest;
          error->message =
              "request id was already used by a different message type";
          return "";
        }
        Bump(counters_.dedup_hits);
        return entry->response_payload;
      case DedupWindow::Verdict::kStale:
        Bump(counters_.dedup_stale);
        error->code = WireErrorCode::kStaleRequest;
        error->message = "request id predates the dedup window";
        return "";
      case DedupWindow::Verdict::kFresh:
        break;
    }
  }

  Result<QueryId> qid = engine_->RegisterQuery(query);
  if (!qid.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = qid.status().ToString();
    return "";
  }
  std::string payload;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    const uint32_t handle = static_cast<uint32_t>(session->queries.size());
    session->queries.push_back(*qid);
    payload = EncodeHandle(handle);
    session->dedup.Record(frame.request_id, type_byte, payload);
  }
  return payload;
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
  Status st = DecodeRegisterStreamRequest(engine_->schema(), frame.payload,
                                          &token, &query, &opts);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<ServerSession> session = FindSession(token, error);
  if (session == nullptr) return "";

  // Server-side stream policy: cursors must be resumable (reconnect), and
  // the backlog cap only ever tightens — a client cannot opt out of the
  // server's memory bound.
  opts.retain_events = true;
  if (options_.max_backlog_events > 0 &&
      (opts.retain_cap == 0 || opts.retain_cap > options_.max_backlog_events)) {
    opts.retain_cap = options_.max_backlog_events;
  }

  const uint8_t type_byte = static_cast<uint8_t>(frame.type);
  std::lock_guard<std::mutex> reg(register_mu_);

  if (durable_ != nullptr) {
    Result<DurableSession::TaggedOutcome> outcome = durable_->
        RegisterStreamTagged(session->id, frame.request_id, query, opts);
    if (!outcome.ok()) {
      error->code = WireErrorCode::kBadRequest;
      error->message = outcome.status().ToString();
      return "";
    }
    std::string payload;
    if (AnswerFromOutcome(*outcome, type_byte, &payload, error)) {
      return payload;
    }
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->streams.size() != outcome->handle) {
      error->code = WireErrorCode::kInternal;
      error->message = "session handle table out of sync with durable state";
      return "";
    }
    session->streams.push_back(outcome->stream_id);
    session->degraded.push_back(0);
    return outcome->response;
  }

  {
    std::lock_guard<std::mutex> lock(session->mu);
    const DedupWindow::Entry* entry = nullptr;
    switch (session->dedup.Probe(frame.request_id, &entry)) {
      case DedupWindow::Verdict::kHit:
        if (entry->type != type_byte) {
          error->code = WireErrorCode::kBadRequest;
          error->message =
              "request id was already used by a different message type";
          return "";
        }
        Bump(counters_.dedup_hits);
        return entry->response_payload;
      case DedupWindow::Verdict::kStale:
        Bump(counters_.dedup_stale);
        error->code = WireErrorCode::kStaleRequest;
        error->message = "request id predates the dedup window";
        return "";
      case DedupWindow::Verdict::kFresh:
        break;
    }
  }

  Result<StreamId> sid = registry_->Register(query, opts);
  if (!sid.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = sid.status().ToString();
    return "";
  }
  std::string payload;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    const uint32_t handle = static_cast<uint32_t>(session->streams.size());
    session->streams.push_back(*sid);
    session->degraded.push_back(0);
    payload = EncodeHandle(handle);
    session->dedup.Record(frame.request_id, type_byte, payload);
  }
  return payload;
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
  Status st = DecodeApplyRequest(engine_->schema(), engine_->access_methods(),
                                 frame.payload, &token, &access, &response);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
  }
  std::shared_ptr<ServerSession> session = FindSession(token, error);
  if (session == nullptr) return "";

  const uint8_t type_byte = static_cast<uint8_t>(frame.type);

  if (durable_ != nullptr) {
    Result<DurableSession::TaggedOutcome> outcome =
        durable_->ApplyTagged(session->id, frame.request_id, access, response);
    if (!outcome.ok()) {
      if (outcome.status().code() == StatusCode::kResourceExhausted) {
        Bump(counters_.applies_shed);
        error->code = WireErrorCode::kRetryLater;
        error->retry_after_ms = options_.retry_after_ms;
      } else {
        error->code = WireErrorCode::kBadRequest;
      }
      error->message = outcome.status().ToString();
      return "";
    }
    std::string payload;
    if (AnswerFromOutcome(*outcome, type_byte, &payload, error)) {
      return payload;
    }
    return outcome->response;
  }

  // In-memory: hold the session mutex across probe + apply + record, so a
  // concurrent retry of the same request id (a second connection replaying
  // the same frame) serializes behind the original instead of racing it.
  std::lock_guard<std::mutex> lock(session->mu);
  const DedupWindow::Entry* entry = nullptr;
  switch (session->dedup.Probe(frame.request_id, &entry)) {
    case DedupWindow::Verdict::kHit:
      if (entry->type != type_byte) {
        error->code = WireErrorCode::kBadRequest;
        error->message =
            "request id was already used by a different message type";
        return "";
      }
      Bump(counters_.dedup_hits);
      return entry->response_payload;
    case DedupWindow::Verdict::kStale:
      Bump(counters_.dedup_stale);
      error->code = WireErrorCode::kStaleRequest;
      error->message = "request id predates the dedup window";
      return "";
    case DedupWindow::Verdict::kFresh:
      break;
  }

  Result<int> added = engine_->ApplyResponse(access, response);
  if (!added.ok()) {
    if (added.status().code() == StatusCode::kResourceExhausted) {
      // Engine apply admission shed the request: typed backoff, not a
      // failure — the client retries after retry_after_ms.
      Bump(counters_.applies_shed);
      error->code = WireErrorCode::kRetryLater;
      error->retry_after_ms = options_.retry_after_ms;
    } else {
      error->code = WireErrorCode::kBadRequest;
    }
    error->message = added.status().ToString();
    return "";
  }
  ApplyResult result;
  result.facts_added = static_cast<uint32_t>(*added);
  result.wal_sequence = 0;
  std::string payload = EncodeApplyResult(result);
  session->dedup.Record(frame.request_id, type_byte, payload);
  return payload;
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
  std::shared_ptr<ServerSession> session = FindSession(token, error);
  if (session == nullptr) return "";

  StreamId sid;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (handle >= session->streams.size()) {
      error->code = WireErrorCode::kNotFound;
      error->message = "unknown stream handle " + std::to_string(handle);
      return "";
    }
    sid = session->streams[handle];
  }

  Result<StreamDelta> delta = registry_->PollAfter(sid, cursor);
  if (!delta.ok()) {
    if (delta.status().code() == StatusCode::kFailedPrecondition) {
      // Retention cap dropped events this cursor still needed: tell the
      // client where the horizon is so it can re-snapshot and resume.
      Bump(counters_.cursor_evictions);
      error->code = WireErrorCode::kCursorEvicted;
      error->detail = registry_->EvictedThrough(sid);
    } else {
      error->code = WireErrorCode::kBadRequest;
    }
    error->message = delta.status().ToString();
    return "";
  }
  PoliceBacklog(*session, handle, sid);
  return EncodePollResponse(engine_->schema(), *delta);
}

void SessionServer::PoliceBacklog(ServerSession& session, uint32_t handle,
                                  StreamId sid) {
  const uint64_t retained = registry_->RetainedCount(sid);
  MaxInto(counters_.backlog_high_water, retained);
  if (options_.degrade_backlog_events == 0 ||
      retained <= options_.degrade_backlog_events) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(session.mu);
    if (handle >= session.degraded.size() || session.degraded[handle]) return;
    session.degraded[handle] = 1;
  }
  // The stream is running hot: shed its gate indexes and fall back to
  // conservative full-recheck waves. Verdict-identical (the flag is
  // consulted per wave), so parity holds — only the wave cost changes.
  // Streams are shared: only the subscriber whose poll actually degraded
  // the stream counts it.
  Result<bool> degraded = registry_->Degrade(sid);
  if (degraded.ok() && *degraded) Bump(counters_.streams_degraded);
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
  std::shared_ptr<ServerSession> session = FindSession(token, error);
  if (session == nullptr) return "";

  StreamId sid;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (handle >= session->streams.size()) {
      error->code = WireErrorCode::kNotFound;
      error->message = "unknown stream handle " + std::to_string(handle);
      return "";
    }
    sid = session->streams[handle];
  }
  st = durable_ != nullptr ? durable_->Acknowledge(sid, upto)
                           : registry_->Acknowledge(sid, upto);
  if (!st.ok()) {
    error->code = WireErrorCode::kBadRequest;
    error->message = st.ToString();
    return "";
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
  std::shared_ptr<ServerSession> session = FindSession(token, error);
  if (session == nullptr) return "";

  StreamId sid;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (handle >= session->streams.size()) {
      error->code = WireErrorCode::kNotFound;
      error->message = "unknown stream handle " + std::to_string(handle);
      return "";
    }
    sid = session->streams[handle];
  }
  return EncodeSnapshotResponse(engine_->schema(), registry_->Snapshot(sid));
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
  std::shared_ptr<ServerSession> session = FindSession(token, error);
  if (session == nullptr) return "";

  // engine_->stats() folds in this server's ContributeStats, so the
  // rar_server_* rows ride the same exposition as the engine's.
  MetricsExport metrics;
  metrics.stats = engine_->stats();
  metrics.obs = engine_->obs().Snapshot();
  metrics.schema = &engine_->schema();
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
  {
    std::unique_lock<std::shared_mutex> lock(sessions_mu_);
    auto it = sessions_.find(token.session_id);
    if (it == sessions_.end() || it->second->nonce != token.nonce) {
      error->code = WireErrorCode::kUnknownSession;
      error->message = "unknown session token";
      return "";
    }
    sessions_.erase(it);
  }
  if (durable_ != nullptr) {
    // Best-effort: if the retirement record cannot be logged the session
    // merely resurrects on recovery and is reaped as idle — harmless.
    (void)durable_->RetireServerSession(token.session_id);
  }
  Bump(counters_.sessions_retired);
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
  // FindSession refreshes last_active_ms — the heartbeat's whole job.
  std::shared_ptr<ServerSession> session = FindSession(token, error);
  if (session == nullptr) return "";

  PingResponse resp;
  resp.draining = draining();
  resp.server_unix_ms = UnixMs();
  return EncodePingResponse(resp);
}

size_t SessionServer::ReapIdleSessions() {
  if (options_.idle_timeout_ms == 0) return 0;
  const uint64_t now = NowMs();
  std::vector<uint64_t> reaped_ids;
  {
    std::unique_lock<std::shared_mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const uint64_t last =
          it->second->last_active_ms.load(std::memory_order_relaxed);
      if (now - last > options_.idle_timeout_ms) {
        reaped_ids.push_back(it->first);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (durable_ != nullptr) {
    for (uint64_t id : reaped_ids) {
      (void)durable_->RetireServerSession(id);
    }
  }
  Bump(counters_.sessions_reaped, reaped_ids.size());
  return reaped_ids.size();
}

Status SessionServer::BeginDrain() {
  draining_.store(true, std::memory_order_seq_cst);
  // Every mutator increments inflight before checking the flag, so once
  // the count reads zero here, no shed-exempt mutation predating the flag
  // is still running.
  while (inflight_mutations_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (durable_ != nullptr) return durable_->Flush();
  return Status::OK();
}

size_t SessionServer::num_sessions() const {
  std::shared_lock<std::shared_mutex> lock(sessions_mu_);
  return sessions_.size();
}

void SessionServer::ContributeStats(EngineStats* stats) const {
  const auto load = [](const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  stats->server_sessions_opened += load(counters_.sessions_opened);
  stats->server_sessions_resumed += load(counters_.sessions_resumed);
  stats->server_sessions_retired += load(counters_.sessions_retired);
  stats->server_sessions_reaped += load(counters_.sessions_reaped);
  stats->server_sessions_shed += load(counters_.sessions_shed);
  stats->server_sessions_recovered += load(counters_.sessions_recovered);
  stats->server_sessions_active += num_sessions();
  stats->server_requests += load(counters_.requests);
  stats->server_requests_hello += load(counters_.requests_hello);
  stats->server_requests_register_query +=
      load(counters_.requests_register_query);
  stats->server_requests_register_stream +=
      load(counters_.requests_register_stream);
  stats->server_requests_apply += load(counters_.requests_apply);
  stats->server_requests_poll += load(counters_.requests_poll);
  stats->server_requests_acknowledge += load(counters_.requests_acknowledge);
  stats->server_requests_snapshot += load(counters_.requests_snapshot);
  stats->server_requests_metrics += load(counters_.requests_metrics);
  stats->server_requests_ping += load(counters_.requests_ping);
  stats->server_errors += load(counters_.errors);
  stats->server_bad_frames += load(counters_.bad_frames);
  stats->server_applies_shed += load(counters_.applies_shed);
  stats->server_streams_degraded += load(counters_.streams_degraded);
  stats->server_cursor_evictions += load(counters_.cursor_evictions);
  stats->server_backlog_high_water += load(counters_.backlog_high_water);
  stats->server_dedup_hits += load(counters_.dedup_hits);
  stats->server_dedup_stale += load(counters_.dedup_stale);
  stats->server_deadline_rejections += load(counters_.deadline_rejections);
  stats->server_drain_sheds += load(counters_.drain_sheds);
}

}  // namespace rar
