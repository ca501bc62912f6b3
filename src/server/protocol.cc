#include "server/protocol.h"

namespace rar {

const char* ToString(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "hello";
    case MessageType::kRegisterQuery: return "register_query";
    case MessageType::kRegisterStream: return "register_stream";
    case MessageType::kApply: return "apply";
    case MessageType::kPoll: return "poll";
    case MessageType::kAcknowledge: return "acknowledge";
    case MessageType::kSnapshot: return "snapshot";
    case MessageType::kMetrics: return "metrics";
    case MessageType::kGoodbye: return "goodbye";
    case MessageType::kPing: return "ping";
    case MessageType::kHelloOk: return "hello_ok";
    case MessageType::kRegisterQueryOk: return "register_query_ok";
    case MessageType::kRegisterStreamOk: return "register_stream_ok";
    case MessageType::kApplyOk: return "apply_ok";
    case MessageType::kPollOk: return "poll_ok";
    case MessageType::kAcknowledgeOk: return "acknowledge_ok";
    case MessageType::kSnapshotOk: return "snapshot_ok";
    case MessageType::kMetricsOk: return "metrics_ok";
    case MessageType::kGoodbyeOk: return "goodbye_ok";
    case MessageType::kPingOk: return "ping_ok";
    case MessageType::kError: return "error";
  }
  return "unknown";
}

const char* ToString(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kBadFrame: return "bad_frame";
    case WireErrorCode::kBadRequest: return "bad_request";
    case WireErrorCode::kUnknownType: return "unknown_type";
    case WireErrorCode::kVersionMismatch: return "version_mismatch";
    case WireErrorCode::kUnknownSession: return "unknown_session";
    case WireErrorCode::kRetryLater: return "retry_later";
    case WireErrorCode::kCursorEvicted: return "cursor_evicted";
    case WireErrorCode::kNotFound: return "not_found";
    case WireErrorCode::kInternal: return "internal";
    case WireErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case WireErrorCode::kShuttingDown: return "shutting_down";
    case WireErrorCode::kStaleRequest: return "stale_request";
  }
  return "unknown";
}

// ------------------------------------------------------------- framing

namespace {

/// The valid request/response type values (wire bytes are untrusted; an
/// out-of-range cast would be UB to switch on elsewhere).
bool IsKnownWireByte(uint8_t t) {
  return (t >= 1 && t <= 10) || (t >= 65 && t <= 74) || t == 127;
}

uint32_t ReadLE32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

uint64_t ReadLE64(const char* p) {
  return static_cast<uint64_t>(ReadLE32(p)) |
         static_cast<uint64_t>(ReadLE32(p + 4)) << 32;
}

}  // namespace

void EncodeWireFrame(uint64_t request_id, MessageType type,
                     std::string_view payload, std::string* out,
                     uint64_t deadline_unix_ms) {
  std::string body;
  BinWriter w(&body);
  w.U64(request_id);
  w.U8(static_cast<uint8_t>(type));
  w.U64(deadline_unix_ms);
  body.append(payload.data(), payload.size());

  BinWriter header(out);
  header.U32(static_cast<uint32_t>(body.size()));
  header.U32(Crc32(body.data(), body.size()));
  out->append(body);
}

FrameParse ParseWireFrame(std::string_view data, size_t* offset,
                          WireFrame* out, std::string* error) {
  const size_t avail = data.size() - *offset;
  if (avail < 8) return FrameParse::kNeedMore;
  const char* p = data.data() + *offset;
  const uint32_t length = ReadLE32(p);
  const uint32_t crc = ReadLE32(p + 4);
  if (length < 17) {
    if (error != nullptr) {
      *error = "frame length " + std::to_string(length) +
               " below the 17-byte header minimum";
    }
    return FrameParse::kCorrupt;
  }
  if (length > kMaxWireFrameBytes) {
    if (error != nullptr) {
      *error = "frame length " + std::to_string(length) +
               " exceeds the " + std::to_string(kMaxWireFrameBytes) +
               "-byte cap";
    }
    return FrameParse::kCorrupt;
  }
  if (avail - 8 < length) return FrameParse::kNeedMore;
  const char* body = p + 8;
  if (Crc32(body, length) != crc) {
    if (error != nullptr) *error = "frame CRC mismatch";
    return FrameParse::kCorrupt;
  }
  const uint8_t type_byte = static_cast<uint8_t>(body[8]);
  out->request_id = ReadLE64(body);
  out->deadline_unix_ms = ReadLE64(body + 9);
  // An unknown type is *not* framing corruption: the frame is intact, so
  // the server can answer kUnknownType and keep the connection. Map it to
  // kError here so no out-of-enum value escapes into a switch.
  out->type = IsKnownWireByte(type_byte) ? static_cast<MessageType>(type_byte)
                                         : MessageType::kError;
  if (!IsKnownWireByte(type_byte)) {
    out->payload = std::string(1, static_cast<char>(type_byte));
    *offset += 8 + length;
    return FrameParse::kFrame;
  }
  out->payload.assign(body + 17, length - 17);
  *offset += 8 + length;
  return FrameParse::kFrame;
}

void FrameAssembler::Feed(const void* data, size_t n) {
  // Compact the consumed prefix before it grows unbounded.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64u << 10) && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(static_cast<const char*>(data), n);
}

FrameParse FrameAssembler::Next(WireFrame* out, std::string* error) {
  if (corrupt_) {
    if (error != nullptr) *error = "connection already corrupt";
    return FrameParse::kCorrupt;
  }
  const FrameParse r = ParseWireFrame(buf_, &pos_, out, error);
  if (r == FrameParse::kCorrupt) corrupt_ = true;
  return r;
}

// ------------------------------------------------------------- payloads

namespace {

void EncodeToken(const SessionToken& token, BinWriter* w) {
  w->U64(token.session_id);
  w->U64(token.nonce);
}

Status DecodeToken(BinReader* r, SessionToken* out) {
  RAR_RETURN_NOT_OK(r->U64(&out->session_id));
  RAR_RETURN_NOT_OK(r->U64(&out->nonce));
  return Status::OK();
}

Status ExpectEnd(const BinReader& r, const char* what) {
  if (!r.AtEnd()) {
    return Status::ParseError(std::string(what) + " payload has " +
                              std::to_string(r.remaining()) +
                              " trailing byte(s)");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeHelloRequest(const HelloRequest& req) {
  std::string out;
  BinWriter w(&out);
  w.U32(req.protocol_version);
  EncodeToken(req.resume, &w);
  return out;
}

Status DecodeHelloRequest(std::string_view payload, HelloRequest* out) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(r.U32(&out->protocol_version));
  RAR_RETURN_NOT_OK(DecodeToken(&r, &out->resume));
  return ExpectEnd(r, "hello");
}

std::string EncodeHelloResponse(const HelloResponse& resp) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(resp.token, &w);
  w.U8(resp.resumed ? 1 : 0);
  w.U32(resp.num_streams);
  w.U32(resp.num_queries);
  w.U64(resp.next_request_id);
  return out;
}

Status DecodeHelloResponse(std::string_view payload, HelloResponse* out) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, &out->token));
  uint8_t resumed;
  RAR_RETURN_NOT_OK(r.U8(&resumed));
  out->resumed = resumed != 0;
  RAR_RETURN_NOT_OK(r.U32(&out->num_streams));
  RAR_RETURN_NOT_OK(r.U32(&out->num_queries));
  RAR_RETURN_NOT_OK(r.U64(&out->next_request_id));
  return ExpectEnd(r, "hello_ok");
}

std::string EncodeRegisterQueryRequest(const Schema& schema,
                                       const SessionToken& token,
                                       const UnionQuery& query) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  EncodeUnionQuery(schema, query, &w);
  return out;
}

Status DecodeRegisterQueryRequest(const Schema& schema,
                                  std::string_view payload, SessionToken* token,
                                  UnionQuery* query) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, token));
  RAR_RETURN_NOT_OK(DecodeUnionQuery(schema, &r, query));
  return ExpectEnd(r, "register_query");
}

std::string EncodeRegisterStreamRequest(const Schema& schema,
                                        const SessionToken& token,
                                        const UnionQuery& query,
                                        const StreamOptions& options) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  EncodeUnionQuery(schema, query, &w);
  EncodeStreamOptions(options, &w);
  return out;
}

Status DecodeRegisterStreamRequest(const Schema& schema,
                                   std::string_view payload,
                                   SessionToken* token, UnionQuery* query,
                                   StreamOptions* options) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, token));
  RAR_RETURN_NOT_OK(DecodeUnionQuery(schema, &r, query));
  RAR_RETURN_NOT_OK(DecodeStreamOptions(&r, options));
  return ExpectEnd(r, "register_stream");
}

std::string EncodeApplyRequest(const Schema& schema, const AccessMethodSet& acs,
                               const SessionToken& token, const Access& access,
                               const std::vector<Fact>& response) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  out += EncodeApplyPayload(schema, acs, access, response);
  return out;
}

Status DecodeApplyRequest(const Schema& schema, const AccessMethodSet& acs,
                          std::string_view payload, SessionToken* token,
                          Access* access, std::vector<Fact>* response) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, token));
  return DecodeApplyPayload(schema, acs, payload.substr(16), access, response);
}

std::string EncodeApplyResult(const ApplyResult& r) {
  std::string out;
  BinWriter w(&out);
  w.U32(r.facts_added);
  w.U64(r.wal_sequence);
  return out;
}

Status DecodeApplyResult(std::string_view payload, ApplyResult* out) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(r.U32(&out->facts_added));
  RAR_RETURN_NOT_OK(r.U64(&out->wal_sequence));
  return ExpectEnd(r, "apply_ok");
}

std::string EncodePollRequest(const SessionToken& token, uint32_t handle,
                              uint64_t cursor) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  w.U32(handle);
  w.U64(cursor);
  return out;
}

Status DecodePollRequest(std::string_view payload, SessionToken* token,
                         uint32_t* handle, uint64_t* cursor) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, token));
  RAR_RETURN_NOT_OK(r.U32(handle));
  RAR_RETURN_NOT_OK(r.U64(cursor));
  return ExpectEnd(r, "poll");
}

std::string EncodePollResponse(const Schema& schema, const StreamDelta& delta) {
  std::string out;
  BinWriter w(&out);
  w.U64(delta.last_sequence);
  w.U64(delta.evicted_through);
  w.U32(static_cast<uint32_t>(delta.events.size()));
  for (const StreamEvent& e : delta.events) {
    w.U8(static_cast<uint8_t>(e.kind));
    w.U64(e.sequence);
    w.U32(static_cast<uint32_t>(e.binding.size()));
    for (Value v : e.binding) EncodeValue(schema, v, &w);
  }
  return out;
}

Status DecodePollResponse(const Schema& schema, std::string_view payload,
                          StreamDelta* out) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(r.U64(&out->last_sequence));
  RAR_RETURN_NOT_OK(r.U64(&out->evicted_through));
  uint32_t count;
  RAR_RETURN_NOT_OK(r.U32(&count));
  out->events.clear();
  out->events.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StreamEvent e;
    uint8_t kind;
    RAR_RETURN_NOT_OK(r.U8(&kind));
    if (kind > static_cast<uint8_t>(StreamEventKind::kBecameIrrelevant)) {
      return Status::ParseError("poll event has unknown kind " +
                                std::to_string(kind));
    }
    e.kind = static_cast<StreamEventKind>(kind);
    RAR_RETURN_NOT_OK(r.U64(&e.sequence));
    uint32_t width;
    RAR_RETURN_NOT_OK(r.U32(&width));
    e.binding.reserve(width);
    for (uint32_t j = 0; j < width; ++j) {
      Value v;
      RAR_RETURN_NOT_OK(DecodeValue(schema, &r, &v));
      e.binding.push_back(v);
    }
    out->events.push_back(std::move(e));
  }
  return ExpectEnd(r, "poll_ok");
}

std::string EncodeAckRequest(const SessionToken& token, uint32_t handle,
                             uint64_t upto) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  w.U32(handle);
  w.U64(upto);
  return out;
}

Status DecodeAckRequest(std::string_view payload, SessionToken* token,
                        uint32_t* handle, uint64_t* upto) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, token));
  RAR_RETURN_NOT_OK(r.U32(handle));
  RAR_RETURN_NOT_OK(r.U64(upto));
  return ExpectEnd(r, "acknowledge");
}

std::string EncodeSnapshotRequest(const SessionToken& token, uint32_t handle) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  w.U32(handle);
  return out;
}

Status DecodeSnapshotRequest(std::string_view payload, SessionToken* token,
                             uint32_t* handle) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, token));
  RAR_RETURN_NOT_OK(r.U32(handle));
  return ExpectEnd(r, "snapshot");
}

std::string EncodeSnapshotResponse(const Schema& schema,
                                   const StreamSnapshot& snap) {
  std::string out;
  BinWriter w(&out);
  w.U64(static_cast<uint64_t>(snap.bindings_tracked));
  w.U64(static_cast<uint64_t>(snap.certain));
  w.U64(static_cast<uint64_t>(snap.relevant));
  w.U8(snap.any_relevant ? 1 : 0);
  w.U32(static_cast<uint32_t>(snap.bindings.size()));
  for (const BindingView& b : snap.bindings) {
    uint8_t flags = 0;
    if (b.certain) flags |= 1u << 0;
    if (b.relevant) flags |= 1u << 1;
    if (b.has_fresh) flags |= 1u << 2;
    if (b.unsat) flags |= 1u << 3;
    w.U8(flags);
    w.U32(static_cast<uint32_t>(b.binding.size()));
    for (Value v : b.binding) EncodeValue(schema, v, &w);
    // The witness access stays server-side: it names what the *server's*
    // crawl should perform next, which is meaningless to a remote client
    // that cannot reach into the frontier anyway.
  }
  return out;
}

Status DecodeSnapshotResponse(const Schema& schema, std::string_view payload,
                              StreamSnapshot* out) {
  BinReader r(payload);
  uint64_t tracked, certain, relevant;
  RAR_RETURN_NOT_OK(r.U64(&tracked));
  RAR_RETURN_NOT_OK(r.U64(&certain));
  RAR_RETURN_NOT_OK(r.U64(&relevant));
  out->bindings_tracked = static_cast<size_t>(tracked);
  out->certain = static_cast<size_t>(certain);
  out->relevant = static_cast<size_t>(relevant);
  uint8_t any;
  RAR_RETURN_NOT_OK(r.U8(&any));
  out->any_relevant = any != 0;
  uint32_t count;
  RAR_RETURN_NOT_OK(r.U32(&count));
  out->bindings.clear();
  out->bindings.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BindingView b;
    uint8_t flags;
    RAR_RETURN_NOT_OK(r.U8(&flags));
    b.certain = (flags & (1u << 0)) != 0;
    b.relevant = (flags & (1u << 1)) != 0;
    b.has_fresh = (flags & (1u << 2)) != 0;
    b.unsat = (flags & (1u << 3)) != 0;
    uint32_t width;
    RAR_RETURN_NOT_OK(r.U32(&width));
    b.binding.reserve(width);
    for (uint32_t j = 0; j < width; ++j) {
      Value v;
      RAR_RETURN_NOT_OK(DecodeValue(schema, &r, &v));
      b.binding.push_back(v);
    }
    out->bindings.push_back(std::move(b));
  }
  return ExpectEnd(r, "snapshot_ok");
}

std::string EncodeMetricsRequest(const SessionToken& token,
                                 MetricsFormat format) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  w.U8(static_cast<uint8_t>(format));
  return out;
}

Status DecodeMetricsRequest(std::string_view payload, SessionToken* token,
                            MetricsFormat* format) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, token));
  uint8_t f;
  RAR_RETURN_NOT_OK(r.U8(&f));
  if (f > static_cast<uint8_t>(MetricsFormat::kPrometheus)) {
    return Status::ParseError("unknown metrics format " + std::to_string(f));
  }
  *format = static_cast<MetricsFormat>(f);
  return ExpectEnd(r, "metrics");
}

std::string EncodeGoodbyeRequest(const SessionToken& token) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  return out;
}

Status DecodeGoodbyeRequest(std::string_view payload, SessionToken* out) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, out));
  return ExpectEnd(r, "goodbye");
}

std::string EncodePingRequest(const SessionToken& token) {
  std::string out;
  BinWriter w(&out);
  EncodeToken(token, &w);
  return out;
}

Status DecodePingRequest(std::string_view payload, SessionToken* out) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeToken(&r, out));
  return ExpectEnd(r, "ping");
}

std::string EncodePingResponse(const PingResponse& resp) {
  std::string out;
  BinWriter w(&out);
  w.U8(resp.draining ? 1 : 0);
  w.U64(resp.server_unix_ms);
  return out;
}

Status DecodePingResponse(std::string_view payload, PingResponse* out) {
  BinReader r(payload);
  uint8_t draining;
  RAR_RETURN_NOT_OK(r.U8(&draining));
  out->draining = draining != 0;
  RAR_RETURN_NOT_OK(r.U64(&out->server_unix_ms));
  return ExpectEnd(r, "ping_ok");
}

std::string EncodeWireError(const WireError& e) {
  std::string out;
  BinWriter w(&out);
  w.U8(static_cast<uint8_t>(e.code));
  w.U32(e.retry_after_ms);
  w.U64(e.detail);
  w.Str(e.message);
  return out;
}

Status DecodeWireError(std::string_view payload, WireError* out) {
  BinReader r(payload);
  uint8_t code;
  RAR_RETURN_NOT_OK(r.U8(&code));
  if (code < 1 || code > static_cast<uint8_t>(WireErrorCode::kStaleRequest)) {
    return Status::ParseError("unknown wire error code " +
                              std::to_string(code));
  }
  out->code = static_cast<WireErrorCode>(code);
  RAR_RETURN_NOT_OK(r.U32(&out->retry_after_ms));
  RAR_RETURN_NOT_OK(r.U64(&out->detail));
  RAR_RETURN_NOT_OK(r.Str(&out->message));
  return ExpectEnd(r, "error");
}

}  // namespace rar
