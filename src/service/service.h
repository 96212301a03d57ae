// QuantumService: the serving layer over the accelerator stack. Clients
// submit RunRequests (cQASM program or QUBO + shots + seed + priority +
// optional deadline) into a bounded priority queue and get a JobHandle
// back; a dispatcher thread pulls jobs in priority order, resolves the
// compiled program through the content-addressed artifact store (in-memory
// LRU tier, optionally persisted on disk), shards the job's shots into
// fixed-size shard tasks with counter-derived RNG streams, and a worker
// pool executes the shards and merges per-shard histograms. Because shard
// boundaries and shard seeds depend only on (job seed, shard index) —
// never on the pool size or on how often a shard was retried — the merged
// histogram is bit-identical for any worker count and any fault history.
//
// Robustness layer: jobs carry deadlines (rejected on dequeue if already
// expired, stopped between shards/shots while running), are cooperatively
// cancellable through JobHandle::cancel(), and transiently-failed shards
// retry with deterministic exponential backoff. All terminal states —
// done / failed / cancelled / timed-out / rejected — arrive as a typed
// qs::Status inside RunResult; the new API never throws across the
// service boundary and never hangs the dispatcher.
//
// Job lifecycle:  submitted -> queued -> dispatched (compile/cache)
//                 -> sharded -> running -> { merged | cancelled |
//                    timed-out | failed } -> JobHandle fulfilled
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/backoff.h"
#include "common/status.h"
#include "runtime/accelerator.h"
#include "service/backend_pool.h"
#include "service/cache.h"
#include "service/checkpoint.h"
#include "service/final_state_cache.h"
#include "service/job.h"
#include "service/journal.h"
#include "service/metrics.h"
#include "service/queue.h"
#include "service/worker_pool.h"
#include "store/artifact_store.h"

namespace qs::service {

struct ServiceOptions {
  std::size_t workers = 4;          ///< shard-executing worker threads
  std::size_t queue_capacity = 64;  ///< max jobs awaiting dispatch
  /// Weighted-fair scheduling weights by tenant name; tenants not listed
  /// here run at `default_tenant_weight`. Sustained dispatch shares across
  /// backlogged tenants are proportional to these weights (priority stays
  /// FIFO-ordered *within* a tenant); weights can also be adjusted live
  /// via set_tenant_weight().
  std::map<std::string, double> tenant_weights;
  double default_tenant_weight = 1.0;
  /// Shots per shard. A service constant independent of worker count:
  /// changing it changes shard seeds and thus the (still valid) sampled
  /// histogram, so treat it as part of the reproducibility contract.
  std::size_t shard_shots = 256;
  bool cache_enabled = true;        ///< compiled-program memoisation on/off
  bool start_paused = false;        ///< accept jobs but hold dispatch
  /// Default intra-shot simulator threads per shard when the job does not
  /// set its own budget (0 = scalar kernels / QS_SIM_THREADS).
  std::size_t sim_threads = 0;
  /// Clamp the per-shard thread budget to hardware_concurrency / workers so
  /// shard workers and kernel threads never oversubscribe the machine.
  /// Disable to force the requested budget (thread-scaling benchmarks).
  bool clamp_sim_threads = true;
  /// Retry budget per shard for transient failures (a shard runs at most
  /// 1 + max_shard_retries times). Retries re-derive the same RNG stream,
  /// so a job that succeeds after retries produces the histogram of a job
  /// that never failed.
  std::size_t max_shard_retries = 2;
  /// Deterministic exponential backoff between shard retry attempts.
  BackoffPolicy retry_backoff{std::chrono::microseconds(200), 2.0,
                              std::chrono::microseconds(5000)};
  /// Failover budget per shard: how many times a shard may be re-routed to
  /// another backend (backend crash, corrupt result, watchdog timeout)
  /// before it fails terminally with kUnavailable. Distinct from
  /// max_shard_retries, which covers transient same-route failures.
  std::size_t max_shard_failovers = 3;
  /// Per-shard watchdog: an attempt exceeding this wall-clock budget is
  /// cancelled (at the next shot boundary) and re-routed to another
  /// backend. Zero disables the watchdog; the job deadline still applies.
  std::chrono::microseconds shard_time_budget{0};
  /// Crash-safe checkpoint/resume (null = disabled). Jobs submitted with a
  /// non-empty checkpoint_key snapshot their merged partial histogram and
  /// shard cursor here once the unsaved shard work outweighs a save many
  /// times over, and once more when they fail; a resubmission with the
  /// same key re-runs only the unsaved shards. Over a memory-only
  /// ArtifactStore, snapshots live as long as the process; over a disk
  /// store they survive restarts.
  std::shared_ptr<StoreCheckpointStore> checkpoint_store;
  /// Terminal-measurement sampling fast path: shot-deterministic gate jobs
  /// (perfect model, terminal measures, no conditionals) evolve once and
  /// sample all shots from the final distribution. Off forces the
  /// per-shot trajectory path for every job (A/B benchmarking).
  bool sampling_enabled = true;
  /// Final-state memoisation, which lets repeated submissions of the same
  /// circuit skip even the single evolution. Off = each sampled job still
  /// evolves exactly once. (Replaces `final_state_cache_bytes = 0`; the
  /// byte budget now lives in `store_memory_bytes`.)
  bool final_state_cache_enabled = true;

  // ---- Artifact store (the memo substrate behind both caches) -----------
  /// Byte budget of the store's in-memory LRU tier, shared by compiled
  /// programs and final-state distributions — one budget instead of the
  /// former per-cache knobs (`cache_capacity`, `final_state_cache_bytes`).
  std::size_t store_memory_bytes = 256ull << 20;
  /// On-disk store tier. Non-empty = compiled programs and final-state
  /// distributions are persisted there (tmp+rename atomic, verified on
  /// load), so a restarted service — or a sibling worker process pointed
  /// at the same directory — revives artifacts instead of recomputing,
  /// and checkpoint/resume works across restarts without any separate
  /// configuration (a StoreCheckpointStore is auto-wired when
  /// `checkpoint_store` is null). Empty = memory-only (process-local).
  std::string store_dir;
  /// Use this store instance instead of building one from the two knobs
  /// above — how several QuantumServices in one process (or a service and
  /// its gateway-facing twin) share one artifact space.
  std::shared_ptr<store::ArtifactStore> artifact_store;

  // ---- Durability & exactly-once ----------------------------------------
  /// Crash-durable job journal (effective only with a non-empty
  /// store_dir). Every admitted job is WAL-logged before its handle is
  /// returned; a service constructed over the same store_dir re-enqueues
  /// admitted-but-unfinished jobs (resuming from their checkpoints) and
  /// serves stored results for finished idempotency keys.
  bool journal_enabled = true;
  /// fsync store + journal writes (power-loss durability, not just
  /// crash-atomicity). Forwarded to StoreOptions::sync_writes when the
  /// service builds its own store. Tests and benches that churn many
  /// artifacts can turn it off.
  bool sync_writes = true;
  /// Terminal results retained for duplicate idempotency keys — the
  /// exactly-once replay window, both in memory and through journal
  /// compaction.
  std::size_t journal_retention = 256;

  /// kInvalidArgument on configurations that would misbehave silently
  /// (zero workers, zero queue capacity, zero shard size, non-positive
  /// scheduling weights). The QuantumService constructor enforces this —
  /// throwing std::invalid_argument with the same message, since a bad
  /// config is a wiring bug, not a serving-path error — and callers that
  /// prefer a typed error can pre-check here.
  Status validate() const;
};

/// The execution service. One instance serves one gate platform — through
/// one backend or a supervised pool of equivalent backends — and
/// optionally annealing devices, from a shared worker pool.
class QuantumService {
 public:
  /// Supervised-pool constructor: shards dispatch through `backends`
  /// (health-checked, circuit-broken, failover-routed). The pool must hold
  /// at least one gate backend; all its gate backends share one platform
  /// fingerprint (BackendPool::register_gate enforces this), which is what
  /// makes failover histogram-preserving. Throws std::invalid_argument on
  /// a null or gate-less pool — a wiring bug, not a serving-path error.
  explicit QuantumService(std::shared_ptr<BackendPool> backends,
                          ServiceOptions options = {});

  /// Single-backend convenience constructors: wrap the accelerator(s) in a
  /// one-entry ("gate0" / "anneal0") pool.
  explicit QuantumService(runtime::GateAccelerator gate,
                          ServiceOptions options = {});
  QuantumService(runtime::GateAccelerator gate,
                 runtime::AnnealAccelerator annealer,
                 ServiceOptions options = {});

  /// Drains in-flight work and joins all threads.
  ~QuantumService();

  QuantumService(const QuantumService&) = delete;
  QuantumService& operator=(const QuantumService&) = delete;

  /// The serving front door. Validates and enqueues the request; blocks
  /// while the queue is full (backpressure). Never throws: a malformed
  /// request resolves the handle immediately with kInvalidArgument, an
  /// anneal request without an annealer with kFailedPrecondition, and
  /// submission after shutdown() with kUnavailable. All later outcomes —
  /// done, failed, cancelled, timed-out — arrive through the handle as a
  /// typed Status inside RunResult.
  JobHandle submit(RunRequest request);

  /// Non-blocking admission: a full queue resolves the handle immediately
  /// with kResourceExhausted (queue depth in the message) and counts the
  /// job as rejected, instead of applying backpressure.
  JobHandle try_submit(RunRequest request);

  /// Holds/resumes dispatch while still accepting submissions — lets a
  /// client batch a burst and lets tests freeze the queue to observe
  /// ordering.
  void pause();
  void resume();

  /// Blocks until every job submitted so far has completed.
  void drain();

  /// Shard-granular progress snapshot of a live job: shards merged so far
  /// plus the partial histogram. nullopt once the job reached a terminal
  /// state (read the final result from the JobHandle) or for unknown ids.
  /// Safe to call from any thread at any rate; the gateway's
  /// StreamProgress op polls this and forwards snapshots whenever `seq`
  /// advances — i.e. at shard boundaries.
  std::optional<JobProgress> progress(std::uint64_t job_id) const;

  /// Adjusts a tenant's weighted-fair scheduling weight at runtime
  /// (weight must be > 0; non-positive values are ignored). Takes effect
  /// from the next dequeue.
  void set_tenant_weight(const std::string& tenant, double weight);

  /// Stops admissions, finishes all accepted jobs, joins threads.
  /// Idempotent; also invoked by the destructor.
  void shutdown();

  MetricsRegistry& metrics() { return metrics_; }
  const CompiledProgramCache& cache() const { return cache_; }
  const FinalStateCache& final_state_cache() const { return final_cache_; }
  /// The artifact store backing both caches (and, when a disk tier is
  /// configured, checkpoints). Share it across services by passing
  /// `store_ptr()` as ServiceOptions::artifact_store.
  const store::ArtifactStore& artifact_store() const { return *store_; }
  std::shared_ptr<store::ArtifactStore> store_ptr() const { return store_; }
  const ServiceOptions& options() const { return options_; }
  /// The primary gate backend (compile authority for the whole pool).
  const runtime::GateAccelerator& gate() const { return *primary_gate_; }
  /// The supervised backend pool shards dispatch through.
  BackendPool& backends() { return *backends_; }
  const BackendPool& backends() const { return *backends_; }

  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t worker_count() const { return pool_.thread_count(); }

  /// The write-ahead job journal (null unless journal_enabled and a
  /// store_dir is configured). Exposed for tests and tooling.
  const JobJournal* journal() const { return journal_.get(); }

 private:
  struct JobState;

  /// A key's registration: the job that owns it plus, once terminal, the
  /// stored result served to duplicates.
  struct IdempotencyEntry {
    std::uint64_t job_id = 0;
    std::uint64_t fingerprint = 0;
    std::weak_ptr<JobState> live;
    std::shared_ptr<const RunResult> result;
  };

  /// Builds a JobState (id assignment, deadline stamping). Returns nullptr
  /// with *status = kUnavailable after shutdown.
  std::shared_ptr<JobState> make_job(RunRequest request, Status* status);

  /// Admits a job into the queue (blocking or not). On failure the job's
  /// inflight slot is released and the returned status is non-OK; the
  /// caller resolves the job's promise.
  Status admit(const std::shared_ptr<JobState>& job, bool blocking);

  /// A handle whose future is already resolved with `status` (requests
  /// rejected before admission). Counts the job as rejected, globally and
  /// against `tenant`.
  JobHandle rejected_handle(Status status, const std::string& tenant);

  /// Fulfils the job's promise (and legacy promise, if any), bumps the
  /// terminal-state metric for result.status, and releases the inflight
  /// slot. Every dispatched job resolves through here exactly once.
  void resolve(const std::shared_ptr<JobState>& job, RunResult result);

  /// Fulfils a job that was refused admission (already counted rejected).
  void resolve_unadmitted(const std::shared_ptr<JobState>& job,
                          Status status);

  /// Terminal state reached at dispatch, before any shard ran.
  void resolve_at_dispatch(const std::shared_ptr<JobState>& job,
                           Status status);

  /// Records the first failure status for a job (first writer wins) and
  /// flags remaining shards to skip work.
  void note_failure(const std::shared_ptr<JobState>& job, Status status);

  void dispatcher_loop();
  void dispatch(const std::shared_ptr<JobState>& job);
  std::shared_ptr<const CompiledEntry> resolve_compiled(
      const qasm::Program& program, bool* cache_hit,
      runtime::CacheTier* tier);
  std::size_t effective_sim_threads(std::size_t job_threads) const;

  /// Maps a store Outcome onto the unified qs_store_* metric family
  /// (hits/misses per tier, evictions, oversized, corrupt, writes).
  void record_store_outcome(const store::Outcome& outcome);

  /// Materialises the job's shared final distribution exactly once per
  /// job (FinalStateCache lookup, else one evolution + insert); called
  /// from the first sampled shard to reach it, other shards block on the
  /// job's mutex. Throws CancelledError when `token` stops the evolution.
  void ensure_final_distribution(const std::shared_ptr<JobState>& job,
                                 const CancelToken& token);

  /// What one successful shard attempt produced: the shard histogram and,
  /// for anneal jobs, the shard's best read.
  struct ShardOutput;

  /// The shard attempt driver, shared by gate and anneal jobs: cancel and
  /// deadline checks, backend acquire, fault injection, validation,
  /// failover, transient retry, merge and checkpoint. Only the execute
  /// step below differs by job kind.
  void run_shard(const std::shared_ptr<JobState>& job,
                 std::size_t shard_index);
  ShardOutput execute_gate_shard(const std::shared_ptr<JobState>& job,
                                 const Backend& backend,
                                 std::size_t shard_index, std::size_t count,
                                 const CancelToken& token);
  ShardOutput execute_anneal_shard(const RunRequest& req,
                                   const Backend& backend, std::size_t begin,
                                   std::size_t count,
                                   const CancelToken& token);
  void finish_shard(const std::shared_ptr<JobState>& job);

  /// Final bookkeeping after a job's promise is fulfilled (or abandoned on
  /// a legacy admission failure): drops the progress-registry entry, the
  /// tenant inflight gauge and the service inflight count.
  void job_done(const std::shared_ptr<JobState>& job);

  /// Per-attempt cancel token: the job deadline combined with the
  /// watchdog's per-shard time budget, whichever fires first.
  CancelToken attempt_token(const JobState& job) const;

  /// Snapshots the job's merge state to the checkpoint store (no-op when
  /// checkpointing is off for this job) and folds the save's time into
  /// checkpoint_save_cost_. Caller holds merge_mutex.
  void save_checkpoint_locked(JobState& job);

  /// Shared body of submit/try_submit: idempotency lookup, journal
  /// admitted record, crash-point injection, admission.
  JobHandle submit_impl(RunRequest request, bool blocking);

  /// Replays the journal on construction: continues the job-id sequence,
  /// registers stored results for finished idempotency keys, re-enqueues
  /// admitted-but-unfinished jobs under their original ids, compacts.
  void recover_from_journal();

  /// Terminal bookkeeping shared by every resolution path: appends the
  /// journal's terminal record and settles the idempotency entry (stores
  /// the result, or erases the entry for a simulated crash).
  void finalize_job(const std::shared_ptr<JobState>& job,
                    const RunResult& result);

  ServiceOptions options_;
  std::shared_ptr<BackendPool> backends_;
  std::shared_ptr<runtime::GateAccelerator> primary_gate_;

  /// The content-addressed memo substrate; cache_ / final_cache_ are typed
  /// views over it (declared after it — construction order matters).
  std::shared_ptr<store::ArtifactStore> store_;
  CompiledProgramCache cache_;
  FinalStateCache final_cache_;
  MetricsRegistry metrics_;
  WeightedFairQueue<std::shared_ptr<JobState>> queue_;
  WorkerPool pool_;

  /// Write-ahead job journal (null = disabled). Constructed and replayed
  /// before the dispatcher starts, so recovered jobs are already queued
  /// when the first dequeue happens.
  std::unique_ptr<JobJournal> journal_;

  /// idempotency_key -> registration. Held across job registration in
  /// submit_impl so two racing duplicates cannot both admit. Lock order:
  /// idemp_mutex_ before control_mutex_/jobs_mutex_, never after.
  mutable std::mutex idemp_mutex_;
  std::unordered_map<std::string, IdempotencyEntry> idempotency_;
  /// Keys with stored results, oldest first — the eviction order keeping
  /// the replay window at journal_retention entries.
  std::deque<std::string> idemp_order_;

  /// Live-job registry backing progress(): id -> state, inserted at
  /// admission, erased at resolution. Weak pointers: the registry must
  /// never extend a job's lifetime.
  mutable std::mutex jobs_mutex_;
  std::unordered_map<std::uint64_t, std::weak_ptr<JobState>> jobs_;

  std::mutex control_mutex_;
  std::condition_variable control_cv_;
  bool paused_ = false;
  bool closing_ = false;
  bool shut_down_ = false;
  std::size_t inflight_ = 0;  ///< submitted but not yet completed jobs

  std::uint64_t next_job_id_ = 1;     // under control_mutex_
  std::uint64_t dispatch_counter_ = 0;  // dispatcher thread only
  /// Running estimate of one checkpoint save, shared by every job: the
  /// yardstick of the checkpoint cost rule (service.cpp).
  std::atomic<std::chrono::nanoseconds> checkpoint_save_cost_;

  std::thread dispatcher_;  // last member: starts after everything is built
};

}  // namespace qs::service
