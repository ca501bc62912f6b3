// The session server's wire protocol: length-prefixed, CRC-framed binary
// messages, with payload codecs shared between server and client.
//
// Every message is one frame:
//
//   [u32 length][u32 crc32][u64 request_id][u8 type]
//   [u64 deadline_unix_ms][payload...]
//
// `length` covers request_id + type + deadline + payload; `crc32` (zlib
// polynomial, the same Crc32 the WAL uses) covers the same bytes.
// `deadline_unix_ms` is the client's absolute deadline in Unix
// milliseconds (wall clock, so it survives crossing a process or machine
// boundary); 0 means "no deadline". The server rejects already-expired
// frames with kDeadlineExceeded before doing any work. Request ids are
// *client-owned*: a retry of the same logical call re-sends the same id,
// which is what lets the server's per-session dedup window collapse
// at-least-once delivery into exactly-once effect. All integers are
// little-endian fixed-width. Unlike the WAL reader — where anything
// damaged is a torn tail and replay stops cleanly — a *connection* must
// distinguish three cases: a complete frame, "need more bytes" (the
// stream is mid-frame), and corruption (bad CRC, length overflow, a
// frame above the size cap). Corruption closes the connection with a
// typed error; it never crashes the server and never desyncs the engine,
// because no engine mutation happens before a frame passes its CRC.
//
// Payloads reference schema objects by *name* (via the persist/wal_format
// codecs), never by dense id, so client and server only need to agree on
// the schema — not on interner state. Message types and error codes are
// wire-stable: never renumber, only append.
//
// Requests carry a session token (id + nonce) rather than binding a
// session to a transport connection: a client that reconnects — loopback
// or TCP — resumes its session (streams, cursors, backlog accounting) by
// presenting the same token, until idle reaping retires it.
#ifndef RAR_SERVER_PROTOCOL_H_
#define RAR_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "persist/wal_format.h"
#include "stream/stream.h"
#include "util/status.h"

namespace rar {

/// Protocol version spoken by this build; Hello carries the client's and
/// the server rejects a mismatch with kVersionMismatch.
/// v2: frames carry a deadline; Ping/PingOk; dedup-aware request ids.
/// v3: kHelloOk carries the session's next free request id.
inline constexpr uint32_t kWireProtocolVersion = 3;

/// Hard cap on one frame's `length` field (request_id + type + payload).
/// An honest client never gets near it; a corrupt or hostile length
/// prefix must not make the server buffer gigabytes.
inline constexpr uint32_t kMaxWireFrameBytes = 8u << 20;

/// \brief Message types. Wire-stable: never renumber. Responses are the
/// request's type + 64; kError answers any request.
enum class MessageType : uint8_t {
  kHello = 1,           ///< open or resume a session
  kRegisterQuery = 2,   ///< register a direct Boolean query
  kRegisterStream = 3,  ///< register a standing k-ary stream
  kApply = 4,           ///< apply one access response
  kPoll = 5,            ///< poll a stream's delta from a cursor
  kAcknowledge = 6,     ///< confirm delivery through a sequence
  kSnapshot = 7,        ///< point-in-time stream state
  kMetrics = 8,         ///< exporter output (JSON or Prometheus)
  kGoodbye = 9,         ///< retire the session
  kPing = 10,           ///< heartbeat/keepalive (refreshes idle clock)

  kHelloOk = 65,
  kRegisterQueryOk = 66,
  kRegisterStreamOk = 67,
  kApplyOk = 68,
  kPollOk = 69,
  kAcknowledgeOk = 70,
  kSnapshotOk = 71,
  kMetricsOk = 72,
  kGoodbyeOk = 73,
  kPingOk = 74,

  kError = 127,
};

const char* ToString(MessageType type);

/// \brief Typed error codes carried by kError frames. Wire-stable.
enum class WireErrorCode : uint8_t {
  kBadFrame = 1,         ///< framing damage — the connection must close
  kBadRequest = 2,       ///< payload failed to decode or is invalid
  kUnknownType = 3,      ///< message type this server does not speak
  kVersionMismatch = 4,  ///< protocol version not supported
  kUnknownSession = 5,   ///< bad token, or the session was reaped
  kRetryLater = 6,       ///< admission/backpressure shed; retry_after_ms set
  kCursorEvicted = 7,    ///< backlog shed evicted the cursor: re-snapshot,
                         ///< then resume from `detail` (evicted-through seq)
  kNotFound = 8,         ///< unknown stream/query handle
  kInternal = 9,         ///< server-side invariant failure
  kDeadlineExceeded = 10,  ///< the frame's deadline passed before dispatch
  kShuttingDown = 11,    ///< server draining: retry elsewhere/later
                         ///< (retry_after_ms set)
  kStaleRequest = 12,    ///< request id evicted from the dedup window:
                         ///< provably completed long ago, never re-applied
};

const char* ToString(WireErrorCode code);

/// \brief A decoded kError payload.
struct WireError {
  WireErrorCode code = WireErrorCode::kInternal;
  /// Suggested client backoff (kRetryLater); 0 otherwise.
  uint32_t retry_after_ms = 0;
  /// Code-specific detail: for kCursorEvicted the evicted-through
  /// sequence (resume PollAfter from here once re-snapshotted).
  uint64_t detail = 0;
  std::string message;
};

/// \brief One decoded frame.
struct WireFrame {
  uint64_t request_id = 0;
  MessageType type = MessageType::kError;
  std::string payload;
  /// Absolute deadline (Unix ms, wall clock); 0 = none. Responses carry 0.
  uint64_t deadline_unix_ms = 0;
};

/// Appends one framed message to `out`.
void EncodeWireFrame(uint64_t request_id, MessageType type,
                     std::string_view payload, std::string* out,
                     uint64_t deadline_unix_ms = 0);

enum class FrameParse {
  kFrame,     ///< a frame was decoded; *offset advanced past it
  kNeedMore,  ///< the buffer ends mid-frame: read more bytes
  kCorrupt,   ///< bad CRC / oversized / overflowing length: close
};

/// Decodes the frame at `*offset`. kCorrupt fills `error` with a
/// human-readable reason; `*offset` is only advanced on kFrame.
FrameParse ParseWireFrame(std::string_view data, size_t* offset,
                          WireFrame* out, std::string* error);

/// \brief Incremental frame reassembly over a byte stream (the TCP read
/// path; also the negative-test harness for truncated/corrupt input).
/// Feed bytes as they arrive, then drain frames with Next. A kCorrupt
/// verdict is sticky: the connection is beyond recovery (framing is lost)
/// and must close.
class FrameAssembler {
 public:
  void Feed(const void* data, size_t n);

  FrameParse Next(WireFrame* out, std::string* error);

  /// Bytes buffered but not yet consumed (mid-frame after a disconnect).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  bool corrupt_ = false;
};

// ---------------------------------------------------------------------------
// Payload codecs. Requests after Hello begin with the session token.
// Encoders assume in-memory objects are valid; decoders validate
// everything (they read the network).

/// \brief The session token every post-Hello request presents.
struct SessionToken {
  uint64_t session_id = 0;
  uint64_t nonce = 0;
};

/// \brief kHello request: version + optional resume token (0/0 = fresh).
struct HelloRequest {
  uint32_t protocol_version = kWireProtocolVersion;
  SessionToken resume;  ///< session to resume; {0,0} opens a fresh one
};
std::string EncodeHelloRequest(const HelloRequest& req);
Status DecodeHelloRequest(std::string_view payload, HelloRequest* out);

/// \brief kHelloOk: the (possibly resumed) session's token and shape.
struct HelloResponse {
  SessionToken token;
  bool resumed = false;
  uint32_t num_streams = 0;  ///< stream handles live in the session
  uint32_t num_queries = 0;  ///< query handles live in the session
  /// First request id the session's dedup window has not used: a client
  /// resuming the session numbers its requests from here.
  uint64_t next_request_id = 1;
};
std::string EncodeHelloResponse(const HelloResponse& resp);
Status DecodeHelloResponse(std::string_view payload, HelloResponse* out);

/// kRegisterQuery: token + query (by-name codec). Response: u32 handle.
std::string EncodeRegisterQueryRequest(const Schema& schema,
                                       const SessionToken& token,
                                       const UnionQuery& query);
Status DecodeRegisterQueryRequest(const Schema& schema,
                                  std::string_view payload, SessionToken* token,
                                  UnionQuery* query);

/// kRegisterStream: token + query + options. Response: u32 handle.
std::string EncodeRegisterStreamRequest(const Schema& schema,
                                        const SessionToken& token,
                                        const UnionQuery& query,
                                        const StreamOptions& options);
Status DecodeRegisterStreamRequest(const Schema& schema,
                                   std::string_view payload,
                                   SessionToken* token, UnionQuery* query,
                                   StreamOptions* options);

/// kApply: token + access + response facts (the WAL's by-name codec).
std::string EncodeApplyRequest(const Schema& schema, const AccessMethodSet& acs,
                               const SessionToken& token, const Access& access,
                               const std::vector<Fact>& response);
Status DecodeApplyRequest(const Schema& schema, const AccessMethodSet& acs,
                          std::string_view payload, SessionToken* token,
                          Access* access, std::vector<Fact>* response);

/// \brief kApplyOk: the absorbed delta.
struct ApplyResult {
  uint32_t facts_added = 0;
  uint64_t wal_sequence = 0;  ///< 0 when the server runs in-memory
};
std::string EncodeApplyResult(const ApplyResult& r);
Status DecodeApplyResult(std::string_view payload, ApplyResult* out);

/// kPoll: token + stream handle + cursor (deliver events past it).
std::string EncodePollRequest(const SessionToken& token, uint32_t handle,
                              uint64_t cursor);
Status DecodePollRequest(std::string_view payload, SessionToken* token,
                         uint32_t* handle, uint64_t* cursor);

/// kPollOk: the delta (events carry full tuples, values by spelling).
std::string EncodePollResponse(const Schema& schema, const StreamDelta& delta);
Status DecodePollResponse(const Schema& schema, std::string_view payload,
                          StreamDelta* out);

/// kAcknowledge: token + stream handle + upto. Response: empty payload.
std::string EncodeAckRequest(const SessionToken& token, uint32_t handle,
                             uint64_t upto);
Status DecodeAckRequest(std::string_view payload, SessionToken* token,
                        uint32_t* handle, uint64_t* upto);

/// kSnapshot: token + stream handle.
std::string EncodeSnapshotRequest(const SessionToken& token, uint32_t handle);
Status DecodeSnapshotRequest(std::string_view payload, SessionToken* token,
                             uint32_t* handle);

/// kSnapshotOk: the point-in-time stream state, bindings included.
std::string EncodeSnapshotResponse(const Schema& schema,
                                   const StreamSnapshot& snap);
Status DecodeSnapshotResponse(const Schema& schema, std::string_view payload,
                              StreamSnapshot* out);

/// \brief kMetrics: which exposition the client wants.
enum class MetricsFormat : uint8_t { kJson = 0, kPrometheus = 1 };
std::string EncodeMetricsRequest(const SessionToken& token,
                                 MetricsFormat format);
Status DecodeMetricsRequest(std::string_view payload, SessionToken* token,
                            MetricsFormat* format);
/// kMetricsOk payload is the exposition body itself (no further framing).

/// kGoodbye: token only. Response: empty payload.
std::string EncodeGoodbyeRequest(const SessionToken& token);
Status DecodeGoodbyeRequest(std::string_view payload, SessionToken* out);

/// kPing: token only — a heartbeat. Refreshes the session's idle clock
/// and reports whether the server is draining, so a well-behaved client
/// can migrate before its next real request is shed.
std::string EncodePingRequest(const SessionToken& token);
Status DecodePingRequest(std::string_view payload, SessionToken* out);

/// \brief kPingOk: liveness + drain signal.
struct PingResponse {
  bool draining = false;
  uint64_t server_unix_ms = 0;  ///< server wall clock (skew diagnostics)
};
std::string EncodePingResponse(const PingResponse& resp);
Status DecodePingResponse(std::string_view payload, PingResponse* out);

/// kError payload.
std::string EncodeWireError(const WireError& e);
Status DecodeWireError(std::string_view payload, WireError* out);

}  // namespace rar

#endif  // RAR_SERVER_PROTOCOL_H_
