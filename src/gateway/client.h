// Client library for the gateway protocol: connect + version handshake,
// submit / poll / wait / cancel / stream / metrics, all returning typed
// qs::Status. The library owns the framing so callers never touch raw
// sockets; it is also the reference implementation of the protocol — the
// round-trip tests and the E12 bench drive the server exclusively through
// it.
//
// A client is one connection and is NOT thread-safe (the protocol is
// strictly request/response per connection); use one client per thread.
// For load generation, submit_nowait()/read_submit_reply() split the
// Submit round trip so a driver can pipeline many requests per RTT.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "common/backoff.h"
#include "common/status.h"
#include "gateway/socket.h"
#include "gateway/wire.h"
#include "runtime/run_api.h"

namespace qs::gateway {

class GatewayClient {
 public:
  GatewayClient() = default;
  ~GatewayClient() = default;

  GatewayClient(GatewayClient&&) = default;
  GatewayClient& operator=(GatewayClient&&) = default;
  GatewayClient(const GatewayClient&) = delete;
  GatewayClient& operator=(const GatewayClient&) = delete;

  /// Connects and performs the Hello handshake. kFailedPrecondition when
  /// the server speaks no common protocol version. The endpoint is
  /// remembered for ensure_connected()/run() redials.
  Status connect(const std::string& host, std::uint16_t port,
                 const std::string& client_name = "qs-client");

  bool connected() const { return sock_.valid(); }
  void close() { sock_.close(); }

  /// Redial behaviour for ensure_connected() and run(): deterministic
  /// exponential backoff between attempts, per-call attempt cap.
  struct ReconnectPolicy {
    bool enabled = true;
    std::size_t max_attempts = 5;
    BackoffPolicy backoff{std::chrono::microseconds(10'000), 2.0,
                          std::chrono::microseconds(500'000)};
  };
  void set_reconnect(ReconnectPolicy policy) { reconnect_ = policy; }
  const ReconnectPolicy& reconnect() const { return reconnect_; }

  /// Re-establishes the connection to the last connect() endpoint if it is
  /// down (no-op while connected). kFailedPrecondition before any
  /// connect(); otherwise the last dial error after max_attempts tries.
  Status ensure_connected();

  /// Submit + wait with crash-safe resubmission. On a broken connection
  /// the client redials and — only when the request carries an
  /// idempotency_key — resubmits: the server attaches to the live job or
  /// serves the journaled result, so the job never executes twice. A
  /// keyless request is never resubmitted (that could double-run it); the
  /// transport error surfaces instead.
  StatusOr<runtime::RunResult> run(const runtime::RunRequest& request);

  /// Negotiated protocol version / server-assigned session id (valid after
  /// connect()).
  std::uint16_t version() const { return version_; }
  std::uint64_t session() const { return session_; }

  /// Submits one job; returns its server-assigned id. Admission rejections
  /// come back as the server's typed status (kResourceExhausted /
  /// kDeadlineExceeded / kUnavailable / kInvalidArgument) with the queue
  /// depth readable via last_queue_depth().
  StatusOr<std::uint64_t> submit(const runtime::RunRequest& request);

  /// One Poll round trip. `timeout` is how long the *server* may block
  /// before answering "still running" (0 = answer immediately); on a
  /// not-done answer *done is false and *result is untouched.
  Status poll(std::uint64_t job_id, std::chrono::microseconds timeout,
              bool* done, runtime::RunResult* result);

  /// Blocks until the job is terminal (repeated server-side-waiting Polls).
  StatusOr<runtime::RunResult> wait(std::uint64_t job_id);

  /// Requests cooperative cancellation; the terminal result (kCancelled,
  /// or kOk if the job won the race) still arrives through poll()/wait().
  Status cancel(std::uint64_t job_id);

  /// Streams shard-boundary progress snapshots, invoking `on_update` per
  /// snapshot, until the job reaches a terminal state. The last snapshot
  /// is always the terminal one (every merged shard, the final
  /// histogram), even for a stream opened after the job finished. The
  /// connection is busy for the duration — submit from another client if
  /// overlapping.
  Status stream_progress(
      std::uint64_t job_id,
      const std::function<void(const ProgressUpdate&)>& on_update);

  /// The service's metrics text exposition (counters, gauges, histograms
  /// including qs_queue_wait_seconds and the per-tenant families).
  StatusOr<std::string> metrics();

  // --- Pipelining (load generators) --------------------------------------

  /// Writes a Submit frame without reading the reply. Pair every call with
  /// one read_submit_reply(), in order.
  Status submit_nowait(const runtime::RunRequest& request);

  /// Reads one Submit reply (SubmitOk or a typed rejection).
  StatusOr<std::uint64_t> read_submit_reply();

  /// Queue depth carried by the most recent Error frame (0 if none) — the
  /// backpressure signal for informed client backoff.
  std::uint64_t last_queue_depth() const { return last_queue_depth_; }

 private:
  /// Reads one frame, expecting `want`; an Error frame decodes into the
  /// returned status (and last_queue_depth_).
  Status read_reply(Op want, Frame* frame);

  Socket sock_;
  std::uint16_t version_ = kProtocolVersion;
  std::uint64_t session_ = 0;
  std::uint64_t last_queue_depth_ = 0;

  ReconnectPolicy reconnect_;
  std::string host_;  ///< empty until the first connect()
  std::uint16_t port_ = 0;
  std::string client_name_;
};

}  // namespace qs::gateway
