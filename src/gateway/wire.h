// The gateway's length-prefixed binary RPC protocol.
//
// Every message is one frame:
//
//   offset  size  field
//   0       4     magic      0x51474154 ("QGAT", big-endian constant)
//   4       2     version    protocol version of the sender (LE)
//   6       2     op         Op code (LE)
//   8       4     length     payload byte count (LE), <= kMaxPayloadBytes
//   12      len   payload    op-specific body, little-endian primitives
//
// Payloads use the stack's shared byte codec (common/codec.h: LE
// integers, f64 bit patterns, u32-length strings and histograms); the
// Submit and PollOk bodies are the RunRequest / RunResult bodies of
// runtime/run_codec.h. Decoders are total: any truncation, overflow,
// oversized length or bad tag decodes to a typed kInvalidArgument —
// never a crash, never an uncaught exception.
//
// Connection lifecycle: the client's first frame must be Hello carrying
// [min_version, max_version]; the server answers HelloOk with the
// negotiated version (the highest both sides support) or an Error frame
// with kFailedPrecondition and closes. After negotiation each request op
// gets exactly one response frame, except StreamProgress which yields any
// number of Progress frames terminated by one ProgressDone (or Error).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/codec.h"
#include "common/stats.h"
#include "common/status.h"
#include "gateway/socket.h"
#include "runtime/run_api.h"
#include "runtime/run_codec.h"

namespace qs::gateway {

// The codec and the run bodies live below the gateway (common/, runtime/)
// because the journal shares them; these keep the wire's names.
using qs::Decoder;
using qs::Encoder;
using runtime::decode_run_request;
using runtime::decode_run_result;
using runtime::encode_run_request;
using runtime::encode_run_result;

inline constexpr std::uint32_t kMagic = 0x51474154;  // "QGAT"
/// Highest protocol version this build speaks / lowest it still accepts.
/// v4 appended `precision` (u8) to the RunRequest body and four fields
/// (precision u8 + fused_gates/fused_ops/fused_max_run u64) to the
/// RunResult body — the precision-tier and gate-fusion contract; v3
/// appended `idempotency_key` to the RunRequest body and two u8 fields
/// (journal_recovered / idempotent_hit) to the RunResult body — the
/// exactly-once resubmission contract; v2 appended two u8 store-tier
/// fields to RunResult. Older peers are no longer accepted.
inline constexpr std::uint16_t kProtocolVersion = 4;
inline constexpr std::uint16_t kProtocolVersionMin = 4;
/// Hard cap on a frame payload; a length prefix above this is rejected
/// before any allocation (a corrupt or hostile peer cannot OOM the
/// server).
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;

/// Frame op codes. Requests are 1..99, responses 101..199. Never reuse or
/// renumber — version negotiation only works if old codes keep meaning.
enum class Op : std::uint16_t {
  kHello = 1,
  kSubmit = 2,
  kPoll = 3,
  kCancel = 4,
  kStreamProgress = 5,
  kMetrics = 6,

  kHelloOk = 101,
  kSubmitOk = 102,
  kPollOk = 103,
  kCancelOk = 104,
  kProgress = 105,
  kProgressDone = 106,
  kMetricsOk = 107,
  kError = 199,
};

const char* to_string(Op op);

struct Frame {
  Op op = Op::kError;
  std::uint16_t version = kProtocolVersion;
  std::string payload;
};

// ---------------------------------------------------------------------------
// Message bodies
// ---------------------------------------------------------------------------

struct HelloRequest {
  std::uint16_t min_version = kProtocolVersionMin;
  std::uint16_t max_version = kProtocolVersion;
  std::string client_name;
};

struct HelloReply {
  std::uint16_t version = kProtocolVersion;  ///< negotiated
  std::string server_name;
  std::uint64_t session = 0;  ///< server-assigned session id
};

struct SubmitReply {
  std::uint64_t job_id = 0;
};

struct PollRequest {
  std::uint64_t job_id = 0;
  /// How long the server may block waiting for completion before replying
  /// "still running". 0 = return immediately.
  std::uint64_t timeout_us = 0;
};

struct PollReply {
  bool done = false;
  runtime::RunResult result;  ///< meaningful only when done
};

struct CancelRequest {
  std::uint64_t job_id = 0;
};

struct StreamProgressRequest {
  std::uint64_t job_id = 0;
};

struct ProgressUpdate {
  std::uint64_t job_id = 0;
  std::uint64_t seq = 0;
  std::uint64_t shards_total = 0;
  std::uint64_t shards_done = 0;
  Histogram partial;
};

/// Error frame body. `queue_depth` rides along on admission rejections
/// (kResourceExhausted / kDeadlineExceeded) so clients can implement
/// informed backoff; 0 otherwise.
struct WireError {
  Status status;
  std::uint64_t queue_depth = 0;
};

void encode_hello(const HelloRequest& m, Encoder* e);
bool decode_hello(Decoder* d, HelloRequest* m);
void encode_hello_reply(const HelloReply& m, Encoder* e);
bool decode_hello_reply(Decoder* d, HelloReply* m);

void encode_submit_reply(const SubmitReply& m, Encoder* e);
bool decode_submit_reply(Decoder* d, SubmitReply* m);
void encode_poll(const PollRequest& m, Encoder* e);
bool decode_poll(Decoder* d, PollRequest* m);
void encode_poll_reply(const PollReply& m, Encoder* e);
bool decode_poll_reply(Decoder* d, PollReply* m);
void encode_cancel(const CancelRequest& m, Encoder* e);
bool decode_cancel(Decoder* d, CancelRequest* m);
void encode_stream_progress(const StreamProgressRequest& m, Encoder* e);
bool decode_stream_progress(Decoder* d, StreamProgressRequest* m);
void encode_progress(const ProgressUpdate& m, Encoder* e);
bool decode_progress(Decoder* d, ProgressUpdate* m);
void encode_error(const WireError& m, Encoder* e);
bool decode_error(Decoder* d, WireError* m);

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Reads one frame. Typed failures:
/// - kUnavailable "connection closed": clean EOF between frames;
/// - kUnavailable "connection closed mid-frame": peer died mid-frame;
/// - kInvalidArgument: bad magic / length above kMaxPayloadBytes /
///   version outside [min_version, kProtocolVersion] — the stream is
///   unsynchronized and the caller must close the connection.
Status read_frame(const Socket& sock, Frame* frame,
                  std::uint16_t min_version = kProtocolVersionMin);

/// Writes header + payload as one buffer (one syscall on the fast path).
Status write_frame(const Socket& sock, Op op, std::string_view payload,
                   std::uint16_t version = kProtocolVersion);

}  // namespace qs::gateway
