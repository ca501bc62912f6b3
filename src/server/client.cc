#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace rar {

namespace {

Status MapWireError(const WireError& e) {
  const std::string msg = std::string(ToString(e.code)) + ": " + e.message;
  switch (e.code) {
    case WireErrorCode::kRetryLater:
      return Status::ResourceExhausted(msg);
    case WireErrorCode::kShuttingDown:
      return Status::Unavailable(msg);
    case WireErrorCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
    case WireErrorCode::kCursorEvicted:
    case WireErrorCode::kUnknownSession:
    case WireErrorCode::kVersionMismatch:
    case WireErrorCode::kStaleRequest:
      return Status::FailedPrecondition(msg);
    case WireErrorCode::kNotFound:
      return Status::NotFound(msg);
    case WireErrorCode::kBadRequest:
      return Status::InvalidArgument(msg);
    case WireErrorCode::kBadFrame:
      return Status::ParseError(msg);
    default:
      return Status::Internal(msg);
  }
}

uint64_t WallUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Server sheds worth waiting out: the request had no effect.
bool IsRetryableWireCode(WireErrorCode code) {
  return code == WireErrorCode::kRetryLater ||
         code == WireErrorCode::kShuttingDown;
}

}  // namespace

Result<std::string> RarClient::Call(MessageType request,
                                    std::string_view payload) {
  // The id outlives the loop: every attempt of one logical call shares
  // it, which is what lets the server's dedup window recognise a retry.
  const uint64_t request_id = next_request_id_++;
  ++calls_issued_;
  const uint64_t deadline =
      retry_.call_timeout_ms != 0 ? WallUnixMs() + retry_.call_timeout_ms : 0;

  uint64_t prev_backoff_ms = retry_.base_backoff_ms;
  Status last_status = Status::OK();

  for (uint32_t attempt = 1;; ++attempt) {
    if (deadline != 0 && WallUnixMs() >= deadline) {
      return last_status.ok()
                 ? Status::DeadlineExceeded("call deadline expired")
                 : Status::DeadlineExceeded("call deadline expired; last: " +
                                            last_status.ToString());
    }
    ++attempts_issued_;
    CallContext ctx;
    ctx.request_id = request_id;
    ctx.deadline_unix_ms = deadline;
    Result<WireFrame> frame = channel_->Call(request, payload, ctx);

    bool retryable = false;
    if (!frame.ok()) {
      // Transport-level failure: the channel is the suspect, not the
      // request. Only kUnavailable is retry-safe (a deadline or parse
      // failure retried would just fail again or double-spend budget).
      if (++consecutive_transport_failures_ >= retry_.suspect_after) {
        peer_suspected_ = true;
      }
      last_status = frame.status();
      retryable = last_status.code() == StatusCode::kUnavailable;
    } else {
      consecutive_transport_failures_ = 0;
      peer_suspected_ = false;
      if (frame->type != MessageType::kError) {
        const auto expected =
            static_cast<MessageType>(static_cast<uint8_t>(request) + 64);
        if (frame->type != expected) {
          return Status::Internal(std::string("unexpected response type ") +
                                  ToString(frame->type) + " to " +
                                  ToString(request));
        }
        return std::move(frame->payload);
      }
      WireError e;
      RAR_RETURN_NOT_OK(DecodeWireError(frame->payload, &e));
      last_error_ = e;
      // A Goodbye that finds the session already gone proves an earlier
      // delivery landed — a retry after a lost response, or a network
      // duplicate of this very frame retiring the session before the
      // answer we read was produced. Either way the goal state (session
      // retired) holds: that is success.
      if (request == MessageType::kGoodbye &&
          e.code == WireErrorCode::kUnknownSession) {
        return std::string();
      }
      last_status = MapWireError(e);
      retryable = IsRetryableWireCode(e.code);
      // The server's hint floors the next sleep.
      if (retryable && e.retry_after_ms > prev_backoff_ms) {
        prev_backoff_ms = e.retry_after_ms;
      }
    }

    if (!retryable || attempt >= std::max(retry_.max_attempts, 1u)) {
      if (retryable) ++retries_exhausted_;
      return last_status;
    }

    // Decorrelated jitter: sleep uniform in [base, prev*3], capped. The
    // spread de-synchronises a fleet of clients all shed at once.
    uint64_t hi = std::min<uint64_t>(
        retry_.max_backoff_ms,
        std::max<uint64_t>(prev_backoff_ms * 3, retry_.base_backoff_ms));
    uint64_t sleep_ms =
        retry_.base_backoff_ms >= hi
            ? hi
            : retry_.base_backoff_ms +
                  jitter_.Below(hi - retry_.base_backoff_ms + 1);
    if (deadline != 0) {
      const uint64_t now = WallUnixMs();
      if (now >= deadline) {
        return Status::DeadlineExceeded("call deadline expired; last: " +
                                        last_status.ToString());
      }
      sleep_ms = std::min<uint64_t>(sleep_ms, deadline - now);
    }
    prev_backoff_ms = std::max<uint64_t>(sleep_ms, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

Status RarClient::Hello() { return Resume(SessionToken{}); }

Status RarClient::Resume(const SessionToken& token) {
  HelloRequest req;
  req.resume = token;
  RAR_ASSIGN_OR_RETURN(std::string payload,
                       Call(MessageType::kHello, EncodeHelloRequest(req)));
  HelloResponse resp;
  RAR_RETURN_NOT_OK(DecodeHelloResponse(payload, &resp));
  token_ = resp.token;
  resumed_ = resp.resumed;
  // Continue past every id the session's dedup window has seen: reusing
  // one would be answered from cache (or rejected as stale) unexecuted.
  next_request_id_ = std::max(next_request_id_, resp.next_request_id);
  return Status::OK();
}

Result<uint32_t> RarClient::RegisterQuery(const UnionQuery& query) {
  RAR_ASSIGN_OR_RETURN(
      std::string payload,
      Call(MessageType::kRegisterQuery,
           EncodeRegisterQueryRequest(*schema_, token_, query)));
  BinReader r(payload);
  uint32_t handle = 0;
  RAR_RETURN_NOT_OK(r.U32(&handle));
  return handle;
}

Result<uint32_t> RarClient::RegisterStream(const UnionQuery& query,
                                           const StreamOptions& options) {
  RAR_ASSIGN_OR_RETURN(
      std::string payload,
      Call(MessageType::kRegisterStream,
           EncodeRegisterStreamRequest(*schema_, token_, query, options)));
  BinReader r(payload);
  uint32_t handle = 0;
  RAR_RETURN_NOT_OK(r.U32(&handle));
  return handle;
}

Result<ApplyResult> RarClient::Apply(const Access& access,
                                     const std::vector<Fact>& response) {
  RAR_ASSIGN_OR_RETURN(
      std::string payload,
      Call(MessageType::kApply,
           EncodeApplyRequest(*schema_, *acs_, token_, access, response)));
  ApplyResult result;
  RAR_RETURN_NOT_OK(DecodeApplyResult(payload, &result));
  return result;
}

Result<StreamDelta> RarClient::Poll(uint32_t handle, uint64_t cursor) {
  RAR_ASSIGN_OR_RETURN(
      std::string payload,
      Call(MessageType::kPoll, EncodePollRequest(token_, handle, cursor)));
  StreamDelta delta;
  RAR_RETURN_NOT_OK(DecodePollResponse(*schema_, payload, &delta));
  return delta;
}

Status RarClient::Acknowledge(uint32_t handle, uint64_t upto) {
  return Call(MessageType::kAcknowledge,
              EncodeAckRequest(token_, handle, upto))
      .status();
}

Result<StreamSnapshot> RarClient::Snapshot(uint32_t handle) {
  RAR_ASSIGN_OR_RETURN(
      std::string payload,
      Call(MessageType::kSnapshot, EncodeSnapshotRequest(token_, handle)));
  StreamSnapshot snap;
  RAR_RETURN_NOT_OK(DecodeSnapshotResponse(*schema_, payload, &snap));
  return snap;
}

Result<std::string> RarClient::Metrics(MetricsFormat format) {
  return Call(MessageType::kMetrics, EncodeMetricsRequest(token_, format));
}

Result<PingResponse> RarClient::Ping() {
  RAR_ASSIGN_OR_RETURN(std::string payload,
                       Call(MessageType::kPing, EncodePingRequest(token_)));
  PingResponse resp;
  RAR_RETURN_NOT_OK(DecodePingResponse(payload, &resp));
  return resp;
}

Status RarClient::Goodbye() {
  return Call(MessageType::kGoodbye, EncodeGoodbyeRequest(token_)).status();
}

}  // namespace rar
