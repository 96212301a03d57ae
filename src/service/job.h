// Job model of the execution service. The serving front door is the
// runtime::RunRequest / RunResult pair (re-exported here): one request
// type for gate and anneal work, one result type carrying a typed
// qs::Status terminal state. submit() hands back a JobHandle — a future
// plus a cooperative cancel switch.
//
// (The pre-RunRequest JobRequest/JobResult shim — throwing validate(),
// exception-carrying std::future — was deprecated for one release and is
// now removed; see docs/artifact_store.md "Migration notes".)
#pragma once

#include <cstdint>
#include <future>
#include <string>

#include "common/cancellation.h"
#include "common/stats.h"
#include "common/status.h"
#include "runtime/run_api.h"

namespace qs::service {

// The serving API types live at the runtime layer so GateAccelerator can
// speak them too; service code refers to them unqualified.
using runtime::FaultPlan;
using runtime::JobKind;
using runtime::JobStats;
using runtime::RunRequest;
using runtime::RunResult;
using runtime::to_string;

/// Client-side handle for a submitted job: observe completion through
/// get()/wait(), request cooperative cancellation through cancel().
/// Copyable — copies share the same underlying job. Cancellation is
/// best-effort and race-free: workers observe the cancel token between
/// shards, the simulator between shots, and a job cancelled before
/// dispatch never compiles or runs. Whatever wins the race, get() always
/// returns (status kOk if the job finished first, kCancelled otherwise) —
/// it never throws and never hangs.
class JobHandle {
 public:
  JobHandle() = default;

  /// Service-assigned job id (0 for requests rejected before admission).
  std::uint64_t id() const { return id_; }

  /// True when the handle refers to a job (even an already-rejected one).
  bool valid() const { return future_.valid(); }

  /// Requests cooperative cancellation. Idempotent, callable from any
  /// thread, returns immediately; the job resolves to kCancelled at the
  /// next cancellation point unless it already reached a terminal state.
  void cancel() { cancel_.request_cancel(); }

  bool cancel_requested() const { return cancel_.cancel_requested(); }

  /// Blocks until the job reaches a terminal state; never throws.
  RunResult get() const { return future_.get(); }

  void wait() const { future_.wait(); }

  template <typename Rep, typename Period>
  std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& d) const {
    return future_.wait_for(d);
  }

 private:
  friend class QuantumService;

  std::uint64_t id_ = 0;
  CancelSource cancel_;
  std::shared_future<RunResult> future_;
};

/// Number of fixed-size shards a job of `shots` splits into. Shard size is
/// a service constant, never a function of worker count — this is what
/// keeps merged histograms bit-identical across pool sizes. Exact for every
/// `shots`, including values near SIZE_MAX.
std::size_t shard_count(std::size_t shots, std::size_t shard_shots);

/// Most shards one job may plan. Per-shard bookkeeping (done flags, worker
/// tasks, checkpoint done flags) is sized up front from a client-chosen shot
/// count, so submission refuses a larger plan and a checkpoint claiming
/// more shards is refused on load.
inline constexpr std::size_t kMaxShards = std::size_t{1} << 20;

/// Point-in-time snapshot of a running job's merge state, taken at shard
/// granularity: `partial` holds the histogram of every shard merged so
/// far. QuantumService::progress() serves these to the gateway's
/// StreamProgress op; `seq` increments once per merged shard, so a
/// streamer only ships snapshots when something actually advanced.
struct JobProgress {
  std::uint64_t job_id = 0;
  std::uint64_t seq = 0;          ///< merged-shard counter (monotonic)
  std::size_t shards_total = 0;   ///< 0 until the job is dispatched
  std::size_t shards_done = 0;    ///< merged shards (incl. resumed ones)
  Histogram partial;              ///< merge of the completed shards
};

}  // namespace qs::service
