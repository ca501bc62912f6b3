#include "persist/durable.h"

#include <algorithm>
#include <utility>

#include "persist/wal_format.h"

namespace rar {

namespace {

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Wire request-type bytes the tagged WAL records correspond to. These
// mirror server/protocol.h's MessageType (wire-stable, never renumbered);
// they are duplicated here so the persist layer does not depend on the
// serving layer it backs.
constexpr uint8_t kWireRegisterQueryByte = 2;
constexpr uint8_t kWireRegisterStreamByte = 3;
constexpr uint8_t kWireApplyByte = 4;

std::string EncodeCachedApplyResult(uint32_t facts_added,
                                    uint64_t wal_sequence) {
  // Byte-identical to the wire's EncodeApplyResult, so the server can
  // serve a cached outcome verbatim as the kApplyOk payload.
  std::string out;
  BinWriter w(&out);
  w.U32(facts_added);
  w.U64(wal_sequence);
  return out;
}

std::string EncodeCachedHandle(uint32_t handle) {
  // Byte-identical to the wire's register response payload (u32 handle).
  std::string out;
  BinWriter w(&out);
  w.U32(handle);
  return out;
}

}  // namespace

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
  s->engine_ = std::make_unique<RelevanceEngine>(schema, acs, std::move(conf),
                                                 engine_options);
  s->registry_ = std::make_unique<RelevanceStreamRegistry>(s->engine_.get());
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
      DurableServerSession ds;
      ds.nonce = ss.nonce;
      ds.query_regs = std::move(ss.query_regs);
      ds.streams.assign(ss.streams.begin(), ss.streams.end());
      ds.dedup = DedupWindow(options.dedup_window);
      ds.dedup.RestoreWatermark(ss.dedup_watermark);
      for (SnapshotSessionState::DedupEntry& e : ss.dedup) {
        ds.dedup.Record(e.request_id, e.type, std::move(e.response_payload));
      }
      s->server_sessions_.emplace(ss.id, std::move(ds));
    }
    s->recovery_.from_snapshot = true;
    s->recovery_.snapshot_sequence = snap.last_sequence;
  }

  // Replay the log tail. The hook is not attached yet, so replayed applies
  // are not re-logged; the registry *is* attached, so stream events
  // regenerate in original order.
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
  if (engine_ != nullptr) {
    engine_->SetPersistHook(nullptr);
    engine_->RemoveApplyListener(this);
  }
  if (wal_ != nullptr) {
    (void)wal_->Flush();  // best effort; Close()/Flush() report errors
  }
}

Status DurableSession::ReplayRecord(const WalRecord& rec) {
  switch (rec.type) {
    case WalRecordType::kApply: {
      Access access;
      std::vector<Fact> response;
      RAR_RETURN_NOT_OK(DecodeApplyPayload(*schema_, *acs_, rec.payload,
                                           &access, &response));
      RAR_ASSIGN_OR_RETURN(int added, engine_->ApplyResponse(access, response));
      recovery_.replayed_facts += static_cast<uint64_t>(added);
      return Status::OK();
    }
    case WalRecordType::kQueryRegister: {
      UnionQuery q;
      RAR_RETURN_NOT_OK(DecodeQueryRegisterPayload(*schema_, rec.payload, &q));
      RAR_ASSIGN_OR_RETURN(QueryId qid, engine_->RegisterQuery(q));
      direct_queries_.push_back(std::move(q));
      direct_qids_.push_back(qid);
      return Status::OK();
    }
    case WalRecordType::kStreamRegister: {
      StreamRegisterPayload p;
      RAR_RETURN_NOT_OK(
          DecodeStreamRegisterPayload(*schema_, rec.payload, &p));
      StreamRecoveryInfo info;  // !quiet: events regenerate from sequence 1
      info.fresh_pool.reserve(p.fresh_pool.size());
      for (const auto& [domain, spelling] : p.fresh_pool) {
        info.fresh_pool.push_back(
            TypedValue{schema_->InternConstant(spelling), domain});
      }
      RAR_ASSIGN_OR_RETURN(
          StreamId id, registry_->RegisterRecovered(p.query, p.options, info));
      (void)id;
      return Status::OK();
    }
    case WalRecordType::kStreamCursor: {
      uint32_t sid = 0;
      uint64_t acked = 0;
      RAR_RETURN_NOT_OK(DecodeStreamCursorPayload(rec.payload, &sid, &acked));
      return registry_->Acknowledge(sid, acked);
    }
    case WalRecordType::kSessionOpen: {
      uint64_t id = 0, nonce = 0;
      RAR_RETURN_NOT_OK(DecodeSessionOpenPayload(rec.payload, &id, &nonce));
      DurableServerSession ds;
      ds.nonce = nonce;
      ds.dedup = DedupWindow(options_.dedup_window);
      server_sessions_[id] = std::move(ds);
      return Status::OK();
    }
    case WalRecordType::kSessionRetire: {
      uint64_t id = 0;
      RAR_RETURN_NOT_OK(DecodeSessionRetirePayload(rec.payload, &id));
      server_sessions_.erase(id);
      return Status::OK();
    }
    case WalRecordType::kApplyTagged: {
      uint64_t session_id = 0, request_id = 0;
      std::string_view inner;
      RAR_RETURN_NOT_OK(
          SplitTaggedPayload(rec.payload, &session_id, &request_id, &inner));
      Access access;
      std::vector<Fact> response;
      RAR_RETURN_NOT_OK(
          DecodeApplyPayload(*schema_, *acs_, inner, &access, &response));
      RAR_ASSIGN_OR_RETURN(int added, engine_->ApplyResponse(access, response));
      recovery_.replayed_facts += static_cast<uint64_t>(added);
      auto it = server_sessions_.find(session_id);
      if (it != server_sessions_.end()) {
        // Re-record the outcome exactly as the original served it, so a
        // retry that straddles the crash still answers from the window.
        it->second.dedup.Record(
            request_id, kWireApplyByte,
            EncodeCachedApplyResult(static_cast<uint32_t>(added),
                                    rec.sequence));
      }
      return Status::OK();
    }
    case WalRecordType::kQueryRegisterTagged: {
      uint64_t session_id = 0, request_id = 0;
      std::string_view inner;
      RAR_RETURN_NOT_OK(
          SplitTaggedPayload(rec.payload, &session_id, &request_id, &inner));
      UnionQuery q;
      RAR_RETURN_NOT_OK(DecodeQueryRegisterPayload(*schema_, inner, &q));
      RAR_ASSIGN_OR_RETURN(QueryId qid, engine_->RegisterQuery(q));
      direct_queries_.push_back(std::move(q));
      direct_qids_.push_back(qid);
      auto it = server_sessions_.find(session_id);
      if (it != server_sessions_.end()) {
        const uint32_t handle =
            static_cast<uint32_t>(it->second.query_regs.size());
        it->second.query_regs.push_back(
            static_cast<uint32_t>(direct_qids_.size() - 1));
        it->second.dedup.Record(request_id, kWireRegisterQueryByte,
                                EncodeCachedHandle(handle));
      }
      return Status::OK();
    }
    case WalRecordType::kStreamRegisterTagged: {
      uint64_t session_id = 0, request_id = 0;
      std::string_view inner;
      RAR_RETURN_NOT_OK(
          SplitTaggedPayload(rec.payload, &session_id, &request_id, &inner));
      StreamRegisterPayload p;
      RAR_RETURN_NOT_OK(DecodeStreamRegisterPayload(*schema_, inner, &p));
      StreamRecoveryInfo info;  // !quiet: events regenerate from sequence 1
      info.fresh_pool.reserve(p.fresh_pool.size());
      for (const auto& [domain, spelling] : p.fresh_pool) {
        info.fresh_pool.push_back(
            TypedValue{schema_->InternConstant(spelling), domain});
      }
      RAR_ASSIGN_OR_RETURN(
          StreamId id, registry_->RegisterRecovered(p.query, p.options, info));
      auto it = server_sessions_.find(session_id);
      if (it != server_sessions_.end()) {
        const uint32_t handle = static_cast<uint32_t>(it->second.streams.size());
        it->second.streams.push_back(id);
        it->second.dedup.Record(request_id, kWireRegisterStreamByte,
                                EncodeCachedHandle(handle));
      }
      return Status::OK();
    }
  }
  return Status::ParseError("unknown WAL record type");
}

Result<int> DurableSession::Apply(const Access& access,
                                  const std::vector<Fact>& response) {
  std::lock_guard<std::mutex> lock(session_mu_);
  // The engine calls back into LogApply inside its critical section and
  // WaitDurable before notifying listeners (see PersistHook in engine.h).
  RAR_ASSIGN_OR_RETURN(int added, engine_->ApplyResponse(access, response));
  records_since_snapshot_ += 1;
  RAR_RETURN_NOT_OK(MaybeAutoSnapshotLocked());
  return added;
}

Result<QueryId> DurableSession::RegisterQuery(const UnionQuery& query) {
  std::lock_guard<std::mutex> lock(session_mu_);
  // Mutate first, log on success: the WAL then holds only registrations
  // replay can repeat verbatim. A crash between the two loses a
  // registration the caller was never told succeeded.
  RAR_ASSIGN_OR_RETURN(QueryId qid, engine_->RegisterQuery(query));
  uint64_t seq = wal_->Append(WalRecordType::kQueryRegister,
                              EncodeQueryRegisterPayload(*schema_, query));
  RAR_RETURN_NOT_OK(wal_->WaitDurable(seq));
  direct_queries_.push_back(query);
  direct_qids_.push_back(qid);
  records_since_snapshot_ += 1;
  return qid;
}

Result<StreamId> DurableSession::RegisterStream(const UnionQuery& query,
                                                StreamOptions options) {
  std::lock_guard<std::mutex> lock(session_mu_);
  options.retain_events = true;  // persisted cursors need retained events
  RAR_ASSIGN_OR_RETURN(StreamId id, registry_->Register(query, options));
  RAR_ASSIGN_OR_RETURN(RelevanceStreamRegistry::StreamPersistState ps,
                       registry_->DumpPersistState(id));
  StreamRegisterPayload p;
  p.query = query;
  p.options = options;
  p.fresh_pool.reserve(ps.fresh_pool.size());
  for (const TypedValue& tv : ps.fresh_pool) {
    p.fresh_pool.emplace_back(tv.domain, schema_->ConstantSpelling(tv.value));
  }
  uint64_t seq = wal_->Append(WalRecordType::kStreamRegister,
                              EncodeStreamRegisterPayload(*schema_, p));
  RAR_RETURN_NOT_OK(wal_->WaitDurable(seq));
  records_since_snapshot_ += 1;
  return id;
}

Status DurableSession::Acknowledge(StreamId id, uint64_t upto) {
  std::lock_guard<std::mutex> lock(session_mu_);
  RAR_RETURN_NOT_OK(registry_->Acknowledge(id, upto));
  uint64_t seq = wal_->Append(WalRecordType::kStreamCursor,
                              EncodeStreamCursorPayload(id, upto));
  RAR_RETURN_NOT_OK(wal_->WaitDurable(seq));
  records_since_snapshot_ += 1;
  return Status::OK();
}

Status DurableSession::Flush() {
  std::lock_guard<std::mutex> lock(session_mu_);
  return wal_->Flush();
}

Status DurableSession::OpenServerSession(uint64_t session_id, uint64_t nonce) {
  std::lock_guard<std::mutex> lock(session_mu_);
  uint64_t seq = wal_->Append(WalRecordType::kSessionOpen,
                              EncodeSessionOpenPayload(session_id, nonce));
  RAR_RETURN_NOT_OK(wal_->WaitDurable(seq));
  DurableServerSession ds;
  ds.nonce = nonce;
  ds.dedup = DedupWindow(options_.dedup_window);
  server_sessions_[session_id] = std::move(ds);
  records_since_snapshot_ += 1;
  return Status::OK();
}

Status DurableSession::RetireServerSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (server_sessions_.erase(session_id) == 0) return Status::OK();
  uint64_t seq = wal_->Append(WalRecordType::kSessionRetire,
                              EncodeSessionRetirePayload(session_id));
  RAR_RETURN_NOT_OK(wal_->WaitDurable(seq));
  records_since_snapshot_ += 1;
  return Status::OK();
}

std::vector<DurableSession::RecoveredServerSession>
DurableSession::server_sessions() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  std::vector<RecoveredServerSession> out;
  out.reserve(server_sessions_.size());
  for (const auto& [id, s] : server_sessions_) {
    RecoveredServerSession r;
    r.id = id;
    r.nonce = s.nonce;
    r.query_regs = s.query_regs;
    r.streams = s.streams;
    out.push_back(std::move(r));
  }
  return out;
}

uint64_t DurableSession::NextRequestId(uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(session_mu_);
  auto it = server_sessions_.find(session_id);
  return it == server_sessions_.end() ? 1 : it->second.dedup.next_free_id();
}

Result<DurableSession::TaggedOutcome> DurableSession::ApplyTagged(
    uint64_t session_id, uint64_t request_id, const Access& access,
    const std::vector<Fact>& response) {
  std::lock_guard<std::mutex> lock(session_mu_);
  auto it = server_sessions_.find(session_id);
  if (it == server_sessions_.end()) {
    return Status::FailedPrecondition("unknown durable serving session " +
                                      std::to_string(session_id));
  }
  DedupWindow& win = it->second.dedup;
  const DedupWindow::Entry* cached = nullptr;
  switch (win.Probe(request_id, &cached)) {
    case DedupWindow::Verdict::kHit: {
      TaggedOutcome o;
      o.kind = TaggedOutcome::Kind::kHit;
      o.type = cached->type;
      o.response = cached->response_payload;
      return o;
    }
    case DedupWindow::Verdict::kStale: {
      TaggedOutcome o;
      o.kind = TaggedOutcome::Kind::kStale;
      return o;
    }
    case DedupWindow::Verdict::kFresh:
      break;
  }
  // The engine calls back into LogApply inside its critical section (same
  // thread); the tag rides this stack slot so the WAL record carries it.
  const std::pair<uint64_t, uint64_t> tag{session_id, request_id};
  pending_apply_tag_ = &tag;
  Result<int> added = engine_->ApplyResponse(access, response);
  pending_apply_tag_ = nullptr;
  RAR_RETURN_NOT_OK(added.status());
  TaggedOutcome o;
  o.kind = TaggedOutcome::Kind::kFresh;
  o.type = kWireApplyByte;
  o.facts_added = *added;
  o.response = EncodeCachedApplyResult(static_cast<uint32_t>(*added),
                                       wal_->last_sequence());
  win.Record(request_id, kWireApplyByte, o.response);
  records_since_snapshot_ += 1;
  RAR_RETURN_NOT_OK(MaybeAutoSnapshotLocked());
  return o;
}

Result<DurableSession::TaggedOutcome> DurableSession::RegisterQueryTagged(
    uint64_t session_id, uint64_t request_id, const UnionQuery& query) {
  std::lock_guard<std::mutex> lock(session_mu_);
  auto it = server_sessions_.find(session_id);
  if (it == server_sessions_.end()) {
    return Status::FailedPrecondition("unknown durable serving session " +
                                      std::to_string(session_id));
  }
  DedupWindow& win = it->second.dedup;
  const DedupWindow::Entry* cached = nullptr;
  switch (win.Probe(request_id, &cached)) {
    case DedupWindow::Verdict::kHit: {
      TaggedOutcome o;
      o.kind = TaggedOutcome::Kind::kHit;
      o.type = cached->type;
      o.response = cached->response_payload;
      return o;
    }
    case DedupWindow::Verdict::kStale: {
      TaggedOutcome o;
      o.kind = TaggedOutcome::Kind::kStale;
      return o;
    }
    case DedupWindow::Verdict::kFresh:
      break;
  }
  RAR_ASSIGN_OR_RETURN(QueryId qid, engine_->RegisterQuery(query));
  uint64_t seq = wal_->Append(
      WalRecordType::kQueryRegisterTagged,
      EncodeTaggedPayload(session_id, request_id,
                          EncodeQueryRegisterPayload(*schema_, query)));
  RAR_RETURN_NOT_OK(wal_->WaitDurable(seq));
  direct_queries_.push_back(query);
  direct_qids_.push_back(qid);
  TaggedOutcome o;
  o.kind = TaggedOutcome::Kind::kFresh;
  o.type = kWireRegisterQueryByte;
  o.query_id = qid;
  o.handle = static_cast<uint32_t>(it->second.query_regs.size());
  it->second.query_regs.push_back(
      static_cast<uint32_t>(direct_qids_.size() - 1));
  o.response = EncodeCachedHandle(o.handle);
  win.Record(request_id, kWireRegisterQueryByte, o.response);
  records_since_snapshot_ += 1;
  return o;
}

Result<DurableSession::TaggedOutcome> DurableSession::RegisterStreamTagged(
    uint64_t session_id, uint64_t request_id, const UnionQuery& query,
    StreamOptions options) {
  std::lock_guard<std::mutex> lock(session_mu_);
  auto it = server_sessions_.find(session_id);
  if (it == server_sessions_.end()) {
    return Status::FailedPrecondition("unknown durable serving session " +
                                      std::to_string(session_id));
  }
  DedupWindow& win = it->second.dedup;
  const DedupWindow::Entry* cached = nullptr;
  switch (win.Probe(request_id, &cached)) {
    case DedupWindow::Verdict::kHit: {
      TaggedOutcome o;
      o.kind = TaggedOutcome::Kind::kHit;
      o.type = cached->type;
      o.response = cached->response_payload;
      return o;
    }
    case DedupWindow::Verdict::kStale: {
      TaggedOutcome o;
      o.kind = TaggedOutcome::Kind::kStale;
      return o;
    }
    case DedupWindow::Verdict::kFresh:
      break;
  }
  options.retain_events = true;  // persisted cursors need retained events
  RAR_ASSIGN_OR_RETURN(StreamId id, registry_->Register(query, options));
  RAR_ASSIGN_OR_RETURN(RelevanceStreamRegistry::StreamPersistState ps,
                       registry_->DumpPersistState(id));
  StreamRegisterPayload p;
  p.query = query;
  p.options = options;
  p.fresh_pool.reserve(ps.fresh_pool.size());
  for (const TypedValue& tv : ps.fresh_pool) {
    p.fresh_pool.emplace_back(tv.domain, schema_->ConstantSpelling(tv.value));
  }
  uint64_t seq = wal_->Append(
      WalRecordType::kStreamRegisterTagged,
      EncodeTaggedPayload(session_id, request_id,
                          EncodeStreamRegisterPayload(*schema_, p)));
  RAR_RETURN_NOT_OK(wal_->WaitDurable(seq));
  TaggedOutcome o;
  o.kind = TaggedOutcome::Kind::kFresh;
  o.type = kWireRegisterStreamByte;
  o.stream_id = id;
  o.handle = static_cast<uint32_t>(it->second.streams.size());
  it->second.streams.push_back(id);
  o.response = EncodeCachedHandle(o.handle);
  win.Record(request_id, kWireRegisterStreamByte, o.response);
  records_since_snapshot_ += 1;
  return o;
}

Status DurableSession::WriteSnapshot() {
  std::lock_guard<std::mutex> lock(session_mu_);
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
  st.sessions.reserve(server_sessions_.size());
  for (const auto& [id, sess] : server_sessions_) {
    SnapshotSessionState ss;
    ss.id = id;
    ss.nonce = sess.nonce;
    ss.query_regs = sess.query_regs;
    ss.streams.assign(sess.streams.begin(), sess.streams.end());
    ss.dedup_watermark = sess.dedup.evicted_watermark();
    sess.dedup.ForEach([&ss](uint64_t rid, const DedupWindow::Entry& e) {
      ss.dedup.push_back({rid, e.type, e.response_payload});
    });
    st.sessions.push_back(std::move(ss));
  }
  uint64_t bytes = 0;
  RAR_RETURN_NOT_OK(
      WriteSnapshotFile(env_, dir_, *schema_, *acs_, st, &bytes));
  snapshots_written_ += 1;
  snapshot_bytes_ += bytes;

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
