// The unified serving front door. A RunRequest describes one unit of work
// (a cQASM program or a QUBO, plus shots, seed, priority, deadline and
// kernel-thread budget); a RunResult carries the merged histogram, a typed
// qs::Status terminal state (done / failed / cancelled / timed-out /
// rejected) and per-job serving stats. Both `service::QuantumService`
// (batched, sharded, retried execution) and `runtime::GateAccelerator`
// (synchronous single-offload execution) speak this type, replacing the
// overload family (`execute`, `compile_const`+`run_compiled`+`run_eqasm`,
// multiple `submit` signatures) that accreted around the paper's
// host-accelerator offload picture (Figures 1/3/8).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anneal/qubo.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "qasm/program.h"

namespace qs::runtime {

/// What a request runs on: the gate-model stack or the annealing stack.
enum class JobKind { Gate, Anneal };

const char* to_string(JobKind kind);

/// Backend-level fault modes, attached to a FaultPlan by name: every
/// breaker transition, failover and quarantine in the supervision layer
/// (service::BackendPool) becomes reproducible in CI.
enum class BackendFaultKind {
  kCrash,             ///< every shard attempt on the backend throws
  kCorruptHistogram,  ///< shard result is corrupted (fails validation)
  kStuckShard,        ///< shard stalls until a watchdog/deadline/cancel fires
};

const char* to_string(BackendFaultKind kind);

/// Simulated process-crash injection points along a job's lifecycle. When
/// a FaultPlan names one, the service abandons the job exactly as a killed
/// process would — no terminal journal record, no checkpoint delete, no
/// stored idempotent result — and resolves the handle kUnavailable with an
/// "injected crash" message so tests never hang. A fresh QuantumService on
/// the same store_dir must then recover the job from the journal.
enum class CrashPoint : std::uint8_t {
  kNone = 0,
  kAdmit = 1,        ///< after the admitted journal record, before enqueue
  kDispatch = 2,     ///< after the dispatched record, before any shard runs
  kMidShard = 3,     ///< after the first shard merges + checkpoints
  kPreComplete = 4,  ///< all shards merged, before the terminal record
};

const char* to_string(CrashPoint point);

/// Deterministic fault-injection plan, attached to a RunRequest by tests
/// and chaos benches. Every robustness path — compile failure, transient
/// shard failure with retry, slow shards racing a deadline, backend
/// crash-loops and silent corruption — becomes reproducible in CI instead
/// of depending on real infrastructure faults.
struct FaultPlan {
  /// Compilation resolves to an injected internal failure.
  bool fail_compile = false;

  /// Injected latency before each shard attempt (simulates a slow or
  /// contended backend; used to pin deadline/cancel races in tests).
  std::chrono::microseconds shard_latency{0};

  /// Shard `shard_index` throws a TransientError on its first `failures`
  /// execution attempts, then succeeds. With `failures` above the retry
  /// budget the shard fails terminally (Status::kUnavailable).
  struct ShardFault {
    std::size_t shard_index = 0;
    std::size_t failures = 1;
  };
  std::vector<ShardFault> shard_faults;

  /// Backend-level faults, keyed by the pool name of the backend they
  /// afflict. A kCrash backend crash-loops (every attempt fails over), a
  /// kCorruptHistogram backend returns results that fail validation and
  /// quarantine it, a kStuckShard backend stalls shards until the
  /// service's per-shard watchdog budget (or the job deadline) fires.
  struct BackendFault {
    std::string backend;
    BackendFaultKind kind = BackendFaultKind::kCrash;
  };
  std::vector<BackendFault> backend_faults;

  /// Simulated process crash at a lifecycle point (see CrashPoint).
  CrashPoint crash_point = CrashPoint::kNone;

  /// Injected failures for `shard` (0 when the shard has no planned fault).
  std::size_t failures_for(std::size_t shard) const;

  /// True when `backend` carries an injected fault of `kind`.
  bool backend_fault(const std::string& backend, BackendFaultKind kind) const;
};

/// Longest relative deadline a request may carry: far past any job, and
/// short enough that submit time + deadline cannot overflow the steady
/// clock (the wire decoder refuses longer ones before converting).
inline constexpr std::chrono::hours kMaxDeadline{24 * 365 * 100};

/// A unit of work. Exactly one of `program` / `program_text` (gate model)
/// or `qubo` (annealing model) must be set.
struct RunRequest {
  std::optional<qasm::Program> program;  ///< gate-model kernel (cQASM)

  /// Raw cQASM source, parsed at dispatch. Malformed text resolves the job
  /// to kInvalidArgument inside RunResult (typed, no exception) instead of
  /// propagating a ParseError across the serving boundary.
  std::optional<std::string> program_text;

  std::optional<anneal::Qubo> qubo;      ///< annealing problem

  /// Gate model: measurement trajectories. Anneal model: independent reads.
  std::size_t shots = 1024;

  /// Base seed; shard `i` derives its stream via derive_stream_seed(seed,i),
  /// making the merged result independent of worker count — and of how many
  /// times a shard was retried.
  std::uint64_t seed = 1;

  /// Higher priority dispatches first; FIFO within equal priority.
  int priority = 0;

  /// Relative deadline, measured from submission. An expired job is
  /// rejected on dequeue (never dispatched) or stopped between shards /
  /// shots while running; either way it resolves to kDeadlineExceeded.
  /// At most kMaxDeadline.
  std::optional<std::chrono::steady_clock::duration> deadline;

  /// Gate model: intra-shot simulator threads (0 = service/accelerator
  /// default). Tunes throughput, never output (kernel bit-identity).
  std::size_t sim_threads = 0;

  /// Gate model: amplitude precision tier. kF64 is the reference tier;
  /// kF32 halves the state footprint (one extra qubit per byte budget)
  /// at ~1e-7 per-gate rounding. Unlike sim_threads this DOES change
  /// output: each tier is internally byte-identical (same fingerprint ->
  /// same histogram across workers, shards, retries and restarts) but
  /// the tiers differ from each other, so precision is part of the
  /// request fingerprint, the checkpoint fingerprint and the
  /// final-state-cache key. Carried over the gateway wire since
  /// protocol v4.
  Precision precision = Precision::kF64;

  /// Optional client tag echoed into the result (tracing / metrics label).
  std::string tag;

  /// Tenant identity for multi-tenant serving. Empty means the anonymous
  /// "default" tenant. The service's weighted-fair queue schedules across
  /// tenants by this name (priority preserved within a tenant), and the
  /// gateway's quotas / token buckets / per-tenant metrics key on it.
  /// Must be <= 64 printable non-quote characters (validate() enforces).
  std::string tenant;

  /// Opaque client session id, echoed through for tracing; the gateway
  /// stamps one per connection so multiplexed clients can correlate
  /// submissions with progress streams. Never affects scheduling.
  std::uint64_t session = 0;

  /// Crash-safe checkpoint/resume key. When non-empty and the service has a
  /// StoreCheckpointStore configured (explicitly, or auto-wired by a
  /// store_dir), merged partial histograms plus the shard cursor are
  /// snapshotted once the unsaved shard work outweighs a save many times
  /// over, and when the job fails; a resubmitted job with the same key
  /// (and an unchanged payload/seed/shot plan) re-runs only the shards
  /// the snapshot lacks.
  std::string checkpoint_key;

  /// Client-supplied exactly-once key. When non-empty, resubmitting the
  /// same key — a client retry after a gateway disconnect, or a replay
  /// after a service restart — attaches to the existing job (live or
  /// journal-recovered) or is served the stored terminal result instead of
  /// re-running. A same-key resubmission whose payload/seed/shot plan
  /// differs is rejected kInvalidArgument. Carried over the gateway wire
  /// since protocol v3. Same character rules as `tenant`.
  std::string idempotency_key;

  /// Deterministic fault injection (tests / chaos benches only).
  std::shared_ptr<const FaultPlan> faults;

  JobKind kind() const {
    return (program || program_text) ? JobKind::Gate : JobKind::Anneal;
  }

  /// kInvalidArgument unless exactly one payload is set, shots >= 1 and the
  /// program (if any) is well-formed. Never throws. `program_text` is only
  /// checked for presence here — it is parsed at dispatch, where a
  /// malformed source maps to kInvalidArgument in the RunResult.
  Status validate() const;

  // Convenience constructors.
  static RunRequest gate(qasm::Program program, std::size_t shots,
                         std::uint64_t seed = 1, int priority = 0);
  /// Raw-source submission: the cQASM text is parsed at dispatch.
  static RunRequest gate_source(std::string cqasm, std::size_t shots,
                                std::uint64_t seed = 1, int priority = 0);
  static RunRequest anneal(anneal::Qubo qubo, std::size_t reads,
                           std::uint64_t seed = 1, int priority = 0);
};

/// Which tier of the service's artifact store served a memoised artefact
/// (kNone = it was derived fresh this submission). kDisk means the value
/// survived a process restart — the warm-restart signal the store exists
/// for. Mirrors store::Tier without making the runtime layer depend on
/// the store library.
enum class CacheTier : std::uint8_t { kNone = 0, kMemory = 1, kDisk = 2 };

const char* to_string(CacheTier tier);

/// Per-job serving accounting, reported with every RunResult.
struct JobStats {
  double queue_wait_us = 0.0;  ///< submit -> dispatch (0 for direct runs)
  double run_us = 0.0;         ///< dispatch -> terminal state
  bool compile_cache_hit = false;
  /// Which store tier served the compiled program (kNone = compiled
  /// fresh; compile_cache_hit == (tier != kNone)).
  CacheTier compile_cache_tier = CacheTier::kNone;
  std::size_t retries = 0;     ///< transient shard failures retried
  std::size_t shards = 0;      ///< shard tasks the job split into
  std::size_t failovers = 0;   ///< shard attempts re-routed to another backend
  std::size_t shards_resumed = 0;   ///< shards restored from a checkpoint
  std::size_t shards_executed = 0;  ///< shards actually run this submission
  std::uint64_t dispatch_seq = 0;  ///< dispatch order stamp (1 = first)
  /// Shot-deterministic circuit served by the sampling fast path (one
  /// evolution + counter-derived draws) instead of per-shot trajectories.
  bool sampled = false;
  /// The job's final distribution came from the service's FinalStateCache
  /// (implies sampled: not even the single evolution ran).
  bool final_state_cache_hit = false;
  /// Which store tier served the final distribution (kNone = the job
  /// evolved it; final_state_cache_hit == (tier != kNone)).
  CacheTier final_state_cache_tier = CacheTier::kNone;
  /// The job was re-enqueued from the crash journal by a restarted service
  /// (its admitted record survived; checkpointed shards were not re-run).
  bool journal_recovered = false;
  /// This handle was served from an idempotency_key match — a stored
  /// terminal result or an attach to an already-running job — without
  /// executing anything new.
  bool idempotent_hit = false;
  /// Amplitude precision tier the job ran at (echoes the request).
  Precision precision = Precision::kF64;
  /// Gate-sequence fusion accounting (sim/fusion.h): unitary gates in the
  /// compiled stream, the ops actually executed after fusion, and the
  /// longest run collapsed into one op. All zero when fusion did not
  /// apply (stochastic model, annealing jobs, or fusion disabled).
  std::size_t fused_gates = 0;
  std::size_t fused_ops = 0;
  std::size_t fused_max_run = 0;
};

/// Terminal outcome of a RunRequest. `status` is the job's terminal state;
/// on a non-OK status the histogram holds whatever shards completed before
/// the stop (possibly empty) and must not be treated as a full sample.
struct RunResult {
  std::uint64_t job_id = 0;
  JobKind kind = JobKind::Gate;
  std::string tag;

  Status status;

  /// Gate model: histogram of full-register bitstrings (merged across
  /// shards). Anneal model: histogram of solution bitstrings.
  Histogram histogram;

  /// Annealing only: best (lowest-energy) solution over all reads. Ties
  /// resolve to the lowest read index, keeping the merge deterministic.
  std::vector<int> best_solution;
  double best_energy = 0.0;

  JobStats stats;

  bool ok() const { return status.ok(); }
};

}  // namespace qs::runtime
