// Reusable fork-join thread pool for data-parallel kernels. Built for the
// state-vector engine's amplitude-array partitioning but generic: a caller
// describes work as `chunks` independent pieces and every pool thread
// (including the caller) pulls chunk indices until none remain.
//
// Determinism contract: the pool never decides *what* is computed, only
// *who* computes it. Kernels that need bit-identical results across pool
// sizes must make each chunk's result independent of scheduling (disjoint
// writes, or per-chunk partials combined in fixed chunk order).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qs {

class ThreadPool {
 public:
  /// A pool of `threads` execution lanes: the caller of run_chunks() is
  /// lane 0, so `threads - 1` helper threads are spawned. `threads <= 1`
  /// spawns nothing and run_chunks() degenerates to an inline loop.
  explicit ThreadPool(std::size_t threads);

  /// Wakes and joins all helper threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (helpers + the calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(c) once for every c in [0, chunks); the calling thread
  /// participates and the call returns only when every chunk finished.
  /// Concurrent run_chunks() calls from different threads are serialized.
  /// `body` must not throw (kernels are noexcept arithmetic).
  void run_chunks(std::size_t chunks,
                  const std::function<void(std::size_t)>& body);

  /// Splits [begin, end) into `slices` near-equal contiguous ranges and
  /// runs body(lo, hi) for each. Slice boundaries depend only on the
  /// arguments, never on the pool size.
  static void slice(std::size_t begin, std::size_t end, std::size_t slices,
                    std::size_t index, std::size_t* lo, std::size_t* hi);

 private:
  void worker_loop();
  void drain_chunks(const std::function<void(std::size_t)>* body,
                    std::size_t chunks, std::uint32_t tag);

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t epoch_ = 0;      ///< bumped per job; workers wait for a change
  std::size_t chunks_ = 0;       ///< chunk count of the current job
  const std::function<void(std::size_t)>* body_ = nullptr;
  /// Chunk claims, tagged with their job: the high 32 bits hold the job's
  /// epoch (mod 2^32), the low 32 bits the next unclaimed chunk index. A
  /// claim is a compare-exchange that also checks the tag, so a worker
  /// still holding job N's body can never claim a chunk of job N+1.
  std::atomic<std::uint64_t> claim_{0};
  std::size_t unfinished_ = 0;   ///< chunks not yet completed (under mutex_)
  bool stopping_ = false;

  std::mutex job_mutex_;  ///< serializes concurrent run_chunks() callers
  std::vector<std::thread> workers_;
};

}  // namespace qs
