#include "persist/durable.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "persist/wal_format.h"

namespace rar {

namespace {

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Monotonic clock for idle accounting (ms).
uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Wire request-type bytes the tagged WAL records correspond to. These
// mirror server/protocol.h's MessageType (wire-stable, never renumbered);
// they are duplicated here so the persist layer does not depend on the
// serving layer it backs.
constexpr uint8_t kWireRegisterQueryByte = 2;
constexpr uint8_t kWireRegisterStreamByte = 3;
constexpr uint8_t kWireApplyByte = 4;

// The response payloads a serving session's dedup window caches, encoded
// here only: byte-identical to the wire's kApplyOk payload (protocol.h
// ApplyResult) and to the register responses' u32 handle, so the server
// sends a cached outcome verbatim.
std::string EncodeApplyOk(int facts_added, uint64_t wal_sequence) {
  std::string out;
  BinWriter w(&out);
  w.U32(static_cast<uint32_t>(facts_added));
  w.U64(wal_sequence);
  return out;
}

std::string EncodeHandle(size_t handle) {
  std::string out;
  BinWriter w(&out);
  w.U32(static_cast<uint32_t>(handle));
  return out;
}

}  // namespace

DurableSession::DurableSession(const Schema& schema, const AccessMethodSet& acs,
                               PersistEnv* env, std::string dir,
                               PersistOptions options)
    : schema_(&schema),
      acs_(&acs),
      env_(env),
      dir_(std::move(dir)),
      options_(options),
      nonce_seed_(static_cast<uint64_t>(
                      std::chrono::steady_clock::now().time_since_epoch()
                          .count()) ^
                  reinterpret_cast<uintptr_t>(this)) {}

DurableSession::DurableSession(RelevanceEngine* engine,
                               RelevanceStreamRegistry* registry)
    : DurableSession(engine->schema(), engine->access_methods(), nullptr, "",
                     {}) {
  engine_ = engine;
  registry_ = registry;
}

Result<std::unique_ptr<DurableSession>> DurableSession::Open(
    const Schema& schema, const AccessMethodSet& acs,
    const Configuration& bootstrap, const std::string& dir,
    PersistOptions options, EngineOptions engine_options) {
  PersistEnv* env = options.env != nullptr ? options.env : GetPosixEnv();
  RAR_RETURN_NOT_OK(env->CreateDir(dir));
  std::unique_ptr<DurableSession> s(
      new DurableSession(schema, acs, env, dir, options));

  // A crash inside AtomicWriteFile (between creating `*.tmp` and the
  // rename) strands a temp file no other path ever matches; sweep them
  // here so they cannot accumulate across crash cycles.
  {
    RAR_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
    bool removed = false;
    for (const std::string& name : names) {
      if (name.size() > 4 &&
          name.compare(name.size() - 4, 4, ".tmp") == 0) {
        RAR_RETURN_NOT_OK(env->RemoveFile(dir + "/" + name));
        removed = true;
      }
    }
    if (removed) RAR_RETURN_NOT_OK(env->SyncDir(dir));
  }

  SnapshotState snap;
  bool have_snapshot = false;
  RAR_RETURN_NOT_OK(
      LoadLatestSnapshot(env, dir, schema, acs, &snap, &have_snapshot));

  // Rebuild the configuration in version-exact order: every active-domain
  // value as a seed first (fixing each domain's first-seen order), then
  // the facts in insertion order. The resulting VersionVector equals the
  // snapshotted engine's.
  Configuration conf(&schema);
  if (have_snapshot) {
    for (const auto& [domain, values] : snap.adom) {
      for (Value v : values) conf.AddSeedConstant(v, domain);
    }
    for (const auto& [rel, facts] : snap.facts) {
      for (const Fact& f : facts) conf.AddFact(f);
    }
  } else {
    conf = bootstrap;
  }
  s->owned_engine_ = std::make_unique<RelevanceEngine>(
      schema, acs, std::move(conf), engine_options);
  s->owned_registry_ =
      std::make_unique<RelevanceStreamRegistry>(s->owned_engine_.get());
  s->engine_ = s->owned_engine_.get();
  s->registry_ = s->owned_registry_.get();
  if (have_snapshot) {
    s->engine_->RestorePerformed(snap.performed);
    for (const UnionQuery& q : snap.queries) {
      RAR_ASSIGN_OR_RETURN(QueryId qid, s->engine_->RegisterQuery(q));
      s->direct_queries_.push_back(q);
      s->direct_qids_.push_back(qid);
    }
    for (SnapshotStreamState& st : snap.streams) {
      StreamRecoveryInfo info;
      info.fresh_pool = std::move(st.fresh_pool);
      info.quiet = true;
      info.next_sequence = st.next_sequence;
      info.acked_sequence = st.acked_sequence;
      info.evicted_through = st.evicted_through;
      info.retained_events = std::move(st.retained_events);
      RAR_ASSIGN_OR_RETURN(
          StreamId sid,
          s->registry_->RegisterRecovered(st.query, st.options, info));
      (void)sid;  // ids are dense registration order, restored exactly
    }
    for (SnapshotSessionState& ss : snap.sessions) {
      std::shared_ptr<ServingSession> rs =
          s->NewServingSession(ss.id, ss.nonce);
      rs->query_regs = std::move(ss.query_regs);
      rs->streams.assign(ss.streams.begin(), ss.streams.end());
      rs->dedup.RestoreWatermark(ss.dedup_watermark);
      for (SnapshotSessionState::DedupEntry& e : ss.dedup) {
        rs->dedup.Record(e.request_id, e.type, std::move(e.response_payload));
      }
    }
    s->recovery_.from_snapshot = true;
    s->recovery_.snapshot_sequence = snap.last_sequence;
  }

  // Replay the log tail. The hook is not attached and the log not open
  // yet, so replayed mutations are not re-logged; the registry *is*
  // attached, so stream events regenerate in original order.
  RAR_ASSIGN_OR_RETURN(WalReadResult log,
                       ReadWal(env, dir, have_snapshot ? snap.last_sequence
                                                       : 0));
  if (log.damaged) {
    // The log holds real records replay cannot bridge to (typically: the
    // snapshot that covered the missing prefix is gone or unreadable).
    // Truncating here would silently destroy durable data — refuse.
    return Status::Internal(
        "WAL recovery refused for " + dir + ": " + log.damage +
        (have_snapshot
             ? ""
             : "; no readable snapshot covers the missing records"));
  }
  for (const WalRecord& rec : log.records) {
    RAR_RETURN_NOT_OK(s->ReplayRecord(rec));
  }
  s->recovery_.replayed_records = log.records.size();
  s->recovery_.truncated_tails = log.truncated_tails;

  const uint64_t next_sequence =
      (log.records.empty() ? (have_snapshot ? snap.last_sequence : 0)
                           : log.records.back().sequence) +
      1;

  if (!log.last_segment_path.empty()) {
    // Cut the torn tail so the writer appends after the last intact
    // record, and drop stray segments past the one replay stopped in
    // (after a sequence gap everything beyond is untrusted; zero-padded
    // names sort by sequence).
    RAR_RETURN_NOT_OK(
        env->Truncate(log.last_segment_path, log.last_segment_valid_bytes));
    const std::string last_name = Basename(log.last_segment_path);
    RAR_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
    bool removed = false;
    for (const std::string& name : names) {
      uint64_t first = 0;
      if (ParseWalSegmentName(name, &first) && name > last_name) {
        RAR_RETURN_NOT_OK(env->RemoveFile(dir + "/" + name));
        removed = true;
      }
    }
    if (removed) RAR_RETURN_NOT_OK(env->SyncDir(dir));
  }

  WalWriterOptions wopts;
  wopts.fsync_policy = options.fsync_policy;
  wopts.fsync_ns = &s->engine_->obs().wal_fsync_ns;
  wopts.commit_ns = &s->engine_->obs().wal_commit_ns;
  RAR_ASSIGN_OR_RETURN(s->wal_, WalWriter::Open(env, dir, next_sequence,
                                                log.last_segment_path, wopts));

  s->engine_->SetPersistHook(s.get());
  s->engine_->AddApplyListener(s.get());
  return s;
}

DurableSession::~DurableSession() {
  if (wal_ == nullptr) return;  // nothing attached, nothing to flush
  engine_->SetPersistHook(nullptr);
  engine_->RemoveApplyListener(this);
  (void)wal_->Flush();  // best effort; Close()/Flush() report errors
}

std::unique_lock<std::mutex> DurableSession::LockIfLogged() {
  return wal_ != nullptr ? std::unique_lock<std::mutex>(session_mu_)
                         : std::unique_lock<std::mutex>();
}

template <typename Encode>
Status DurableSession::Log(WalRecordType type, const Tag* tag,
                           Encode&& encode) {
  if (wal_ == nullptr) return Status::OK();
  RAR_ASSIGN_OR_RETURN(std::string payload, Result<std::string>(encode()));
  if (tag != nullptr) {
    payload = EncodeTaggedPayload(tag->first, tag->second, payload);
  }
  RAR_RETURN_NOT_OK(wal_->WaitDurable(wal_->Append(type, payload)));
  records_since_snapshot_ += 1;
  return Status::OK();
}

template <typename Execute>
Result<DurableSession::Outcome> DurableSession::Dedup(ServingSession& session,
                                                      uint64_t request_id,
                                                      uint8_t type,
                                                      Execute&& execute) {
  Outcome o;
  const DedupWindow::Entry* cached = nullptr;
  o.verdict = session.dedup.Probe(request_id, &cached);
  if (cached != nullptr) {
    o.type = cached->type;
    o.response = cached->response_payload;
  } else if (o.verdict == DedupWindow::Verdict::kFresh) {
    RAR_ASSIGN_OR_RETURN(o.response, execute());
    o.type = type;
    session.dedup.Record(request_id, type, o.response);
  }
  return o;
}

Result<int> DurableSession::ApplyLocked(const Access& access,
                                        const std::vector<Fact>& response,
                                        const Tag* tag) {
  if (wal_ == nullptr) return engine_->ApplyResponse(access, response);
  // The engine calls back into LogApply inside its critical section and
  // WaitDurable before notifying listeners (see PersistHook in engine.h);
  // the tag rides pending_apply_tag_ so the WAL record carries it.
  pending_apply_tag_ = tag;
  Result<int> added = engine_->ApplyResponse(access, response);
  pending_apply_tag_ = nullptr;
  if (added.ok()) records_since_snapshot_ += 1;
  return added;
}

Result<QueryId> DurableSession::RegisterQueryLocked(const UnionQuery& query,
                                                    const Tag* tag) {
  // Mutate first, log on success: the WAL then holds only registrations
  // replay can repeat verbatim. A crash between the two loses a
  // registration the caller was never told succeeded.
  RAR_ASSIGN_OR_RETURN(QueryId qid, engine_->RegisterQuery(query));
  RAR_RETURN_NOT_OK(Log(tag != nullptr ? WalRecordType::kQueryRegisterTagged
                                       : WalRecordType::kQueryRegister,
                        tag, [&] {
                          return EncodeQueryRegisterPayload(*schema_, query);
                        }));
  direct_queries_.push_back(query);
  direct_qids_.push_back(qid);
  return qid;
}

Result<StreamId> DurableSession::RegisterStreamLocked(const UnionQuery& query,
                                                      StreamOptions options,
                                                      const Tag* tag) {
  options.retain_events = true;  // persisted cursors need retained events
  RAR_ASSIGN_OR_RETURN(StreamId id, registry_->Register(query, options));
  RAR_RETURN_NOT_OK(Log(
      tag != nullptr ? WalRecordType::kStreamRegisterTagged
                     : WalRecordType::kStreamRegister,
      tag, [&]() -> Result<std::string> {
        RAR_ASSIGN_OR_RETURN(RelevanceStreamRegistry::StreamPersistState ps,
                             registry_->DumpPersistState(id));
        StreamRegisterPayload p;
        p.query = query;
        p.options = options;
        p.fresh_pool.reserve(ps.fresh_pool.size());
        for (const TypedValue& tv : ps.fresh_pool) {
          p.fresh_pool.emplace_back(tv.domain,
                                    schema_->ConstantSpelling(tv.value));
        }
        return EncodeStreamRegisterPayload(*schema_, p);
      }));
  return id;
}

Status DurableSession::ReplayRecord(const WalRecord& rec) {
  // A tagged record is its untagged twin behind a {session, request} tag;
  // its outcome is re-recorded in that session's window exactly as the
  // original served it, so a retry that straddles the crash still answers
  // from the window. The session may have been retired since.
  std::string_view body = rec.payload;
  uint64_t request_id = 0;
  ServingSession* tagged = nullptr;
  if (rec.type == WalRecordType::kApplyTagged ||
      rec.type == WalRecordType::kQueryRegisterTagged ||
      rec.type == WalRecordType::kStreamRegisterTagged) {
    uint64_t session_id = 0;
    RAR_RETURN_NOT_OK(
        SplitTaggedPayload(rec.payload, &session_id, &request_id, &body));
    auto it = sessions_.find(session_id);
    if (it != sessions_.end()) tagged = it->second.get();
  }
  switch (rec.type) {
    case WalRecordType::kApply:
    case WalRecordType::kApplyTagged: {
      Access access;
      std::vector<Fact> response;
      RAR_RETURN_NOT_OK(
          DecodeApplyPayload(*schema_, *acs_, body, &access, &response));
      RAR_ASSIGN_OR_RETURN(int added, engine_->ApplyResponse(access, response));
      recovery_.replayed_facts += static_cast<uint64_t>(added);
      if (tagged != nullptr) {
        tagged->dedup.Record(request_id, kWireApplyByte,
                             EncodeApplyOk(added, rec.sequence));
      }
      return Status::OK();
    }
    case WalRecordType::kQueryRegister:
    case WalRecordType::kQueryRegisterTagged: {
      UnionQuery q;
      RAR_RETURN_NOT_OK(DecodeQueryRegisterPayload(*schema_, body, &q));
      RAR_RETURN_NOT_OK(RegisterQueryLocked(q, nullptr).status());
      if (tagged != nullptr) {
        tagged->query_regs.push_back(
            static_cast<uint32_t>(direct_qids_.size() - 1));
        tagged->dedup.Record(request_id, kWireRegisterQueryByte,
                             EncodeHandle(tagged->query_regs.size() - 1));
      }
      return Status::OK();
    }
    case WalRecordType::kStreamRegister:
    case WalRecordType::kStreamRegisterTagged: {
      StreamRegisterPayload p;
      RAR_RETURN_NOT_OK(DecodeStreamRegisterPayload(*schema_, body, &p));
      StreamRecoveryInfo info;  // !quiet: events regenerate from sequence 1
      info.fresh_pool.reserve(p.fresh_pool.size());
      for (const auto& [domain, spelling] : p.fresh_pool) {
        info.fresh_pool.push_back(
            TypedValue{schema_->InternConstant(spelling), domain});
      }
      RAR_ASSIGN_OR_RETURN(
          StreamId id, registry_->RegisterRecovered(p.query, p.options, info));
      if (tagged != nullptr) {
        tagged->streams.push_back(id);
        tagged->dedup.Record(request_id, kWireRegisterStreamByte,
                             EncodeHandle(tagged->streams.size() - 1));
      }
      return Status::OK();
    }
    case WalRecordType::kStreamCursor: {
      uint32_t sid = 0;
      uint64_t acked = 0;
      RAR_RETURN_NOT_OK(DecodeStreamCursorPayload(body, &sid, &acked));
      return registry_->Acknowledge(sid, acked);
    }
    case WalRecordType::kSessionOpen: {
      uint64_t id = 0, nonce = 0;
      RAR_RETURN_NOT_OK(DecodeSessionOpenPayload(body, &id, &nonce));
      NewServingSession(id, nonce);
      return Status::OK();
    }
    case WalRecordType::kSessionRetire: {
      uint64_t id = 0;
      RAR_RETURN_NOT_OK(DecodeSessionRetirePayload(body, &id));
      sessions_.erase(id);
      return Status::OK();
    }
  }
  return Status::ParseError("unknown WAL record type");
}

Result<int> DurableSession::Apply(const Access& access,
                                  const std::vector<Fact>& response) {
  std::unique_lock<std::mutex> lock = LockIfLogged();
  RAR_ASSIGN_OR_RETURN(int added, ApplyLocked(access, response, nullptr));
  RAR_RETURN_NOT_OK(MaybeAutoSnapshotLocked());
  return added;
}

Result<QueryId> DurableSession::RegisterQuery(const UnionQuery& query) {
  std::lock_guard<std::mutex> lock(session_mu_);
  return RegisterQueryLocked(query, nullptr);
}

Result<StreamId> DurableSession::RegisterStream(const UnionQuery& query,
                                                StreamOptions options) {
  std::lock_guard<std::mutex> lock(session_mu_);
  return RegisterStreamLocked(query, options, nullptr);
}

Status DurableSession::Acknowledge(StreamId id, uint64_t upto) {
  std::unique_lock<std::mutex> lock = LockIfLogged();
  RAR_RETURN_NOT_OK(registry_->Acknowledge(id, upto));
  return Log(WalRecordType::kStreamCursor, nullptr,
             [&] { return EncodeStreamCursorPayload(id, upto); });
}

Status DurableSession::Flush() {
  std::unique_lock<std::mutex> lock = LockIfLogged();
  return wal_ != nullptr ? wal_->Flush() : Status::OK();
}

std::shared_ptr<DurableSession::ServingSession>
DurableSession::NewServingSession(uint64_t id, uint64_t nonce) {
  auto session = std::make_shared<ServingSession>(dedup_capacity_.load());
  session->id = id;
  session->nonce = nonce;
  session->last_active_ms.store(NowMs(), std::memory_order_relaxed);
  sessions_[id] = session;
  next_session_id_ = std::max(next_session_id_, id + 1);
  return session;
}

Result<std::shared_ptr<DurableSession::ServingSession>>
DurableSession::OpenServerSession(uint32_t max_sessions) {
  std::unique_lock<std::mutex> log_lock = LockIfLogged();
  std::shared_ptr<ServingSession> session;
  {
    std::unique_lock<std::shared_mutex> lock(table_mu_);
    if (max_sessions > 0 && sessions_.size() >= max_sessions) return session;
    // splitmix64 finalizer over (seed, id): unguessable enough that a
    // client cannot trivially forge another session's nonce, cheap enough
    // to mint under the lock.
    const uint64_t id = next_session_id_;
    uint64_t z = nonce_seed_ + id * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    session = NewServingSession(id, z ^ (z >> 31));
  }
  Status logged = Log(WalRecordType::kSessionOpen, nullptr, [&] {
    return EncodeSessionOpenPayload(session->id, session->nonce);
  });
  if (!logged.ok()) {
    std::unique_lock<std::shared_mutex> lock(table_mu_);
    sessions_.erase(session->id);
    return logged;
  }
  return session;
}

std::shared_ptr<DurableSession::ServingSession>
DurableSession::FindServerSession(uint64_t session_id, uint64_t nonce) {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second->nonce != nonce) return nullptr;
  it->second->last_active_ms.store(NowMs(), std::memory_order_relaxed);
  return it->second;
}

bool DurableSession::RetireServerSession(uint64_t session_id,
                                         uint64_t nonce) {
  {
    std::unique_lock<std::shared_mutex> lock(table_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end() || it->second->nonce != nonce) return false;
    sessions_.erase(it);
  }
  LogRetirements({session_id});
  return true;
}

size_t DurableSession::ReapIdleServerSessions(uint64_t idle_timeout_ms) {
  std::vector<uint64_t> reaped;
  {
    std::unique_lock<std::shared_mutex> lock(table_mu_);
    // Read the clock under the lock: every stamp of last_active_ms happens
    // under the table lock, so none is newer than `now` (read before the
    // lock, a concurrent stamp would make `now - last` wrap around and
    // retire an active session).
    const uint64_t now = NowMs();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const uint64_t last =
          it->second->last_active_ms.load(std::memory_order_relaxed);
      if (now - last > idle_timeout_ms) {
        reaped.push_back(it->first);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  LogRetirements(reaped);
  return reaped.size();
}

void DurableSession::LogRetirements(const std::vector<uint64_t>& ids) {
  std::unique_lock<std::mutex> lock = LockIfLogged();
  for (uint64_t id : ids) {
    // Best effort: if the retirement cannot be logged the session merely
    // resurrects on recovery and is reaped as idle — harmless.
    (void)Log(WalRecordType::kSessionRetire, nullptr,
              [&] { return EncodeSessionRetirePayload(id); });
  }
}

size_t DurableSession::num_server_sessions() const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  return sessions_.size();
}

void DurableSession::SizeDedupWindows(size_t capacity) {
  std::lock_guard<std::mutex> log_lock(session_mu_);
  std::vector<std::shared_ptr<ServingSession>> sessions;
  {
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    dedup_capacity_.store(capacity);
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  for (const std::shared_ptr<ServingSession>& session : sessions) {
    std::lock_guard<std::mutex> lock(session->mu);
    session->dedup.Resize(capacity);
  }
}

Result<DurableSession::Outcome> DurableSession::ApplyTagged(
    ServingSession& session, uint64_t request_id, const Access& access,
    const std::vector<Fact>& response) {
  std::unique_lock<std::mutex> log_lock = LockIfLogged();
  std::lock_guard<std::mutex> lock(session.mu);
  const Tag tag{session.id, request_id};
  RAR_ASSIGN_OR_RETURN(
      Outcome o,
      Dedup(session, request_id, kWireApplyByte, [&]() -> Result<std::string> {
        RAR_ASSIGN_OR_RETURN(int added, ApplyLocked(access, response, &tag));
        return EncodeApplyOk(added, last_sequence());
      }));
  // After the record: a snapshot covering this apply's WAL record must
  // also hold its dedup entry.
  if (o.verdict == DedupWindow::Verdict::kFresh) {
    RAR_RETURN_NOT_OK(MaybeAutoSnapshotLocked());
  }
  return o;
}

Result<DurableSession::Outcome> DurableSession::RegisterQueryTagged(
    ServingSession& session, uint64_t request_id, const UnionQuery& query) {
  std::lock_guard<std::mutex> log_lock(session_mu_);
  std::lock_guard<std::mutex> lock(session.mu);
  const Tag tag{session.id, request_id};
  return Dedup(session, request_id, kWireRegisterQueryByte,
               [&]() -> Result<std::string> {
                 RAR_RETURN_NOT_OK(RegisterQueryLocked(query, &tag).status());
                 session.query_regs.push_back(
                     static_cast<uint32_t>(direct_qids_.size() - 1));
                 return EncodeHandle(session.query_regs.size() - 1);
               });
}

Result<DurableSession::Outcome> DurableSession::RegisterStreamTagged(
    ServingSession& session, uint64_t request_id, const UnionQuery& query,
    StreamOptions options) {
  std::lock_guard<std::mutex> log_lock(session_mu_);
  std::lock_guard<std::mutex> lock(session.mu);
  const Tag tag{session.id, request_id};
  return Dedup(session, request_id, kWireRegisterStreamByte,
               [&]() -> Result<std::string> {
                 RAR_ASSIGN_OR_RETURN(
                     StreamId id, RegisterStreamLocked(query, options, &tag));
                 session.streams.push_back(id);
                 return EncodeHandle(session.streams.size() - 1);
               });
}

Status DurableSession::WriteSnapshot() {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("a store without a log has no snapshots");
  }
  return WriteSnapshotLocked();
}

Status DurableSession::WriteSnapshotLocked() {
  // Everything logged must be durable before the snapshot claims to cover
  // it (the snapshot's last_sequence authorizes segment deletion).
  RAR_RETURN_NOT_OK(wal_->Flush());
  SnapshotState st;
  st.last_sequence = wal_->last_sequence();
  Configuration conf = engine_->SnapshotConfig();
  for (size_t d = 0; d < schema_->num_domains(); ++d) {
    std::vector<Value> values =
        conf.AdomOfDomain(static_cast<DomainId>(d)).ToVector();
    if (!values.empty()) {
      st.adom.emplace_back(static_cast<DomainId>(d), std::move(values));
    }
  }
  for (size_t r = 0; r < schema_->num_relations(); ++r) {
    std::vector<Fact> facts =
        conf.FactsOf(static_cast<RelationId>(r)).ToVector();
    if (!facts.empty()) {
      st.facts.emplace_back(static_cast<RelationId>(r), std::move(facts));
    }
  }
  st.performed = engine_->PerformedAccesses();
  st.queries = direct_queries_;
  const size_t n = registry_->num_subscriptions();
  st.streams.reserve(n);
  for (StreamId id = 0; id < n; ++id) {
    RAR_ASSIGN_OR_RETURN(RelevanceStreamRegistry::StreamPersistState ps,
                         registry_->DumpPersistState(id));
    SnapshotStreamState ss;
    ss.query = std::move(ps.query);
    ss.options = ps.options;
    ss.fresh_pool = std::move(ps.fresh_pool);
    ss.next_sequence = ps.next_sequence;
    ss.acked_sequence = ps.acked_sequence;
    ss.evicted_through = ps.evicted_through;
    ss.retained_events = std::move(ps.retained_events);
    st.streams.push_back(std::move(ss));
  }
  {
    // The table last (lock order). Every window and handle table changes
    // under the store mutex when there is a log, and this holds it, so
    // the sessions' own mutexes are not needed.
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    st.sessions.reserve(sessions_.size());
    for (const auto& [id, sess] : sessions_) {
      SnapshotSessionState ss;
      ss.id = id;
      ss.nonce = sess->nonce;
      ss.query_regs = sess->query_regs;
      ss.streams.assign(sess->streams.begin(), sess->streams.end());
      ss.dedup_watermark = sess->dedup.evicted_watermark();
      sess->dedup.ForEach([&ss](uint64_t rid, const DedupWindow::Entry& e) {
        ss.dedup.push_back({rid, e.type, e.response_payload});
      });
      st.sessions.push_back(std::move(ss));
    }
  }
  uint64_t bytes = 0;
  RAR_RETURN_NOT_OK(
      WriteSnapshotFile(env_, dir_, *schema_, *acs_, st, &bytes));
  snapshots_written_ += 1;
  snapshot_bytes_ = bytes;

  // Seal the log at the snapshot boundary, then clean up — keeping a
  // one-deep fallback chain: the previous snapshot survives, along with
  // every WAL segment holding records past it, so recovery from a
  // corrupt newest image degrades to the older image plus a longer
  // replay instead of data loss. Only state the fallback also covers is
  // deleted. A crash mid-cleanup is safe: load walks snapshots
  // newest-first and replay skips covered records.
  RAR_RETURN_NOT_OK(wal_->Rotate());
  RAR_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  uint64_t prev_covered = 0;  // newest older snapshot = the fallback image
  for (const std::string& name : names) {
    uint64_t covered = 0;
    if (ParseSnapshotFileName(name, &covered) &&
        covered < st.last_sequence && covered > prev_covered) {
      prev_covered = covered;
    }
  }
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t first = 0;
    if (ParseWalSegmentName(name, &first)) segments.emplace_back(first, name);
  }
  std::sort(segments.begin(), segments.end());
  bool removed = false;
  // A segment ends where the next one starts, so it is deletable once
  // the next segment's first sequence is <= prev_covered+1: every record
  // in it is then covered by the fallback image too. With no previous
  // snapshot (prev_covered == 0) nothing qualifies — the full log *is*
  // the fallback. The just-rotated segment is last and never deletable.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first <= prev_covered + 1) {
      RAR_RETURN_NOT_OK(env_->RemoveFile(dir_ + "/" + segments[i].second));
      removed = true;
    }
  }
  for (const std::string& name : names) {
    uint64_t covered = 0;
    if (ParseSnapshotFileName(name, &covered) && covered < prev_covered) {
      RAR_RETURN_NOT_OK(env_->RemoveFile(dir_ + "/" + name));
      removed = true;
    }
  }
  if (removed) RAR_RETURN_NOT_OK(env_->SyncDir(dir_));
  records_since_snapshot_ = 0;
  return Status::OK();
}

Status DurableSession::MaybeAutoSnapshotLocked() {
  if (options_.snapshot_every_records == 0 ||
      records_since_snapshot_ < options_.snapshot_every_records) {
    return Status::OK();
  }
  return WriteSnapshotLocked();
}

uint64_t DurableSession::LogApply(const Access& access,
                                  const std::vector<Fact>& response) {
  std::string payload = EncodeApplyPayload(*schema_, *acs_, access, response);
  if (pending_apply_tag_ != nullptr) {
    return wal_->Append(
        WalRecordType::kApplyTagged,
        EncodeTaggedPayload(pending_apply_tag_->first,
                            pending_apply_tag_->second, payload));
  }
  return wal_->Append(WalRecordType::kApply, payload);
}

Status DurableSession::WaitDurable(uint64_t sequence) {
  return wal_->WaitDurable(sequence);
}

void DurableSession::ContributeStats(EngineStats* stats) const {
  WalWriterCounters c = wal_->counters();
  stats->wal_records += c.records;
  stats->wal_bytes += c.bytes;
  stats->wal_fsyncs += c.fsyncs;
  stats->wal_commit_batches += c.commit_batches;
  stats->wal_commit_waiters += c.commit_waiters;
  std::lock_guard<std::mutex> lock(session_mu_);
  stats->snapshots_written += snapshots_written_;
  stats->snapshot_bytes += snapshot_bytes_;
  stats->replay_records += recovery_.replayed_records;
  stats->replay_facts += recovery_.replayed_facts;
  stats->wal_truncated_tails += recovery_.truncated_tails;
}

}  // namespace rar
