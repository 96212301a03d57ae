#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/cancellation.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "qasm/parser.h"
#include "qasm/printer.h"

namespace qs::service {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double us_of(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Checkpoint cost rule: a job saves a snapshot only once the shard time it
/// would lose to a crash is kCheckpointPayback times one save's cost, so
/// bookkeeping never costs more than 1/kCheckpointPayback of the work it
/// protects. One save's cost starts at kCheckpointSavePrior and follows the
/// measured saves.
constexpr std::int64_t kCheckpointPayback = 20;
constexpr std::chrono::nanoseconds kCheckpointSavePrior{500'000};

/// The checkpoint key a journaled job gets when its client supplied none.
std::string journal_checkpoint_key(std::uint64_t job_id) {
  return "qsj-" + std::to_string(job_id);
}

std::string solution_bits(const std::vector<int>& solution) {
  std::string bits(solution.size(), '0');
  for (std::size_t i = 0; i < solution.size(); ++i)
    if (solution[i]) bits[i] = '1';
  return bits;
}

/// One-entry pool for the single-backend convenience constructors.
std::shared_ptr<BackendPool> make_single_pool(
    runtime::GateAccelerator gate,
    std::optional<runtime::AnnealAccelerator> annealer) {
  auto pool = std::make_shared<BackendPool>();
  // A fresh pool with a unique name cannot collide or mismatch; the
  // statuses are asserted OK rather than surfaced.
  Status st = pool->register_gate(
      "gate0", std::make_shared<runtime::GateAccelerator>(std::move(gate)));
  if (!st.ok()) throw std::invalid_argument(st.to_string());
  if (annealer) {
    st = pool->register_anneal("anneal0",
                               std::make_shared<runtime::AnnealAccelerator>(
                                   std::move(*annealer)));
    if (!st.ok()) throw std::invalid_argument(st.to_string());
  }
  return pool;
}

/// Identity of a request's shard plan: gate payload text (or the QUBO
/// terms), base seed, total shots, shard size and precision tier. It keys
/// checkpoints, where a resume must match all five (any change re-derives
/// different shard streams, so merging stale partials would corrupt the
/// histogram), and idempotency registrations, where a retrying client must
/// send the same request. Snapshots on disk carry these exact bits.
std::uint64_t plan_fingerprint(const RunRequest& req,
                               const std::string& gate_text,
                               std::size_t shard_shots) {
  std::uint64_t h = 0;
  if (req.kind() == JobKind::Gate) {
    h = fnv1a64(gate_text);
  } else {
    std::ostringstream payload;
    payload << "qubo " << req.qubo->size();
    for (const auto& [ij, w] : req.qubo->terms())
      payload << ' ' << ij.first << ',' << ij.second << '='
              << std::hexfloat << w;
    h = fnv1a64(payload.str());
  }
  h = hash_combine(h, req.seed);
  h = hash_combine(h, req.shots);
  h = hash_combine(h, shard_shots);
  // The precision tier changes amplitudes, hence shard histograms: f32
  // partials must never merge into an f64 resume (or vice versa).
  h = hash_combine(h, static_cast<std::uint64_t>(req.precision));
  return h;
}

/// Exactly-once identity, computable before parsing: a raw-source
/// submission hashes as submitted, which is exactly the byte string a
/// retrying client sends again.
std::uint64_t request_fingerprint(const RunRequest& req,
                                  std::size_t shard_shots) {
  if (req.program_text)
    return plan_fingerprint(req, *req.program_text, shard_shots);
  return plan_fingerprint(
      req, req.program ? qasm::to_cqasm(*req.program) : std::string(),
      shard_shots);
}

/// The fingerprint a job's checkpoint carries (dispatch-time requests are
/// parsed, so a gate payload prints from its program).
std::uint64_t checkpoint_fingerprint(const RunRequest& req,
                                     std::size_t shard_shots) {
  return plan_fingerprint(
      req, req.program ? qasm::to_cqasm(*req.program) : std::string(),
      shard_shots);
}

runtime::CrashPoint crash_point_of(const RunRequest& req) {
  return req.faults ? req.faults->crash_point : runtime::CrashPoint::kNone;
}

Status crash_status(runtime::CrashPoint point) {
  return Status::Unavailable(std::string("injected crash at ") +
                             runtime::to_string(point) + " (FaultPlan)");
}

/// Refuses a shot count whose shard plan exceeds kMaxShards: the plan's
/// bookkeeping is allocated at dispatch, and the shot count comes from the
/// client.
Status check_shard_plan(const RunRequest& req, std::size_t shard_shots) {
  if (shard_count(req.shots, shard_shots) <= kMaxShards) return Status::Ok();
  return Status::InvalidArgument(
      "RunRequest: " + std::to_string(req.shots) + " shots need more than " +
      std::to_string(kMaxShards) + " shards of " +
      std::to_string(shard_shots) + " shots");
}

/// Sanity gate every shard result passes before it may merge: counts sum
/// to the shard's shot count, every bitstring has the register's arity and
/// is binary. A violation means the backend silently corrupted the result
/// (as opposed to failing loudly) — the caller quarantines it and
/// re-routes the shard.
Status validate_shard_histogram(const Histogram& shard, std::size_t shots,
                                std::size_t arity) {
  if (shard.total() != shots)
    return Status::Internal("shard histogram counts sum to " +
                            std::to_string(shard.total()) + ", expected " +
                            std::to_string(shots));
  for (const auto& [bits, n] : shard.counts()) {
    if (n == 0) return Status::Internal("shard histogram has a zero count");
    if (bits.size() != arity)
      return Status::Internal("shard histogram key '" + bits +
                              "' does not match register arity " +
                              std::to_string(arity));
    for (char c : bits)
      if (c != '0' && c != '1')
        return Status::Internal("shard histogram key '" + bits +
                                "' is not binary");
  }
  return Status::Ok();
}

/// Throws the validate() message before any member (worker pool, caches,
/// queue) is built from a bad value.
ServiceOptions validated(ServiceOptions options) {
  if (Status v = options.validate(); !v.ok())
    throw std::invalid_argument(v.message());
  return options;
}

/// Resolves the pool's primary gate backend in the constructor init list,
/// before the cache views need its platform for their revive context.
std::shared_ptr<runtime::GateAccelerator> primary_gate_of(
    const std::shared_ptr<BackendPool>& pool) {
  if (!pool)
    throw std::invalid_argument("QuantumService: null backend pool");
  auto primary = pool->primary(runtime::JobKind::Gate);
  if (!primary)
    throw std::invalid_argument("QuantumService: pool has no gate backend");
  return primary->gate;
}

/// The service's artifact store: a caller-shared instance when provided,
/// else one built from the store_memory_bytes / store_dir knobs.
std::shared_ptr<store::ArtifactStore> make_store(const ServiceOptions& o) {
  if (o.artifact_store) return o.artifact_store;
  store::StoreOptions so;
  so.memory_budget_bytes = o.store_memory_bytes;
  so.directory = o.store_dir;
  so.sync_writes = o.sync_writes;
  return std::make_shared<store::ArtifactStore>(std::move(so));
}

runtime::CacheTier to_cache_tier(store::Tier tier) {
  switch (tier) {
    case store::Tier::kMemory: return runtime::CacheTier::kMemory;
    case store::Tier::kDisk: return runtime::CacheTier::kDisk;
    case store::Tier::kNone: break;
  }
  return runtime::CacheTier::kNone;
}

}  // namespace

Status ServiceOptions::validate() const {
  if (workers == 0)
    return Status::InvalidArgument(
        "ServiceOptions: workers must be >= 1 (0 would accept jobs and "
        "never run a shard)");
  if (queue_capacity == 0)
    return Status::InvalidArgument(
        "ServiceOptions: queue_capacity must be >= 1 (0 would reject or "
        "block every submission)");
  if (shard_shots == 0)
    return Status::InvalidArgument(
        "ServiceOptions: shard_shots must be >= 1");
  if (!(default_tenant_weight > 0.0))
    return Status::InvalidArgument(
        "ServiceOptions: default_tenant_weight must be > 0");
  for (const auto& [tenant, weight] : tenant_weights)
    if (!(weight > 0.0))
      return Status::InvalidArgument(
          "ServiceOptions: tenant_weights[\"" + tenant +
          "\"] must be > 0 (a zero-weight tenant would never dequeue)");
  if (store_memory_bytes == 0)
    return Status::InvalidArgument(
        "ServiceOptions: store_memory_bytes must be >= 1 (disable "
        "memoisation with cache_enabled / final_state_cache_enabled, not a "
        "zero budget)");
  return Status::Ok();
}

/// Best-of-N reduction for anneal jobs. Lower energy wins; equal energies
/// go to the lower read index, so the result is the same however reads are
/// grouped into shards and whatever order the shards merge in.
struct BestRead {
  bool has = false;
  double energy = 0.0;
  std::uint64_t read = 0;
  std::vector<int> solution;

  void offer(double e, std::uint64_t r, std::vector<int> s) {
    if (has && !(e < energy || (e == energy && r < read))) return;
    has = true;
    energy = e;
    read = r;
    solution = std::move(s);
  }
};

struct QuantumService::ShardOutput {
  Histogram histogram;
  BestRead best;
};

/// Per-job bookkeeping shared between the dispatcher and shard tasks.
struct QuantumService::JobState {
  std::uint64_t id = 0;
  std::string tenant;  ///< normalized queue/metrics key ("" -> "default")
  RunRequest request;
  std::promise<RunResult> promise;
  std::shared_future<RunResult> future;  // handed to the JobHandle
  CancelSource cancel;
  std::optional<Clock::time_point> deadline_at;
  Clock::time_point submitted;
  Clock::time_point dispatched;
  std::uint64_t dispatch_seq = 0;
  double wait_us = 0.0;
  bool cache_hit = false;
  runtime::CacheTier compile_tier = runtime::CacheTier::kNone;
  std::size_t shards = 0;
  std::shared_ptr<const CompiledEntry> entry;  // gate jobs only

  // Sampling fast path (gate jobs whose trajectory is shot-deterministic).
  // The distribution is materialised at most once per job — by the first
  // shard to reach it, under dist_mutex — and shared read-only; the mutex
  // synchronises the fields below for every other shard.
  bool sampled = false;             ///< decided at dispatch
  std::uint64_t final_key = 0;      ///< FinalStateCache key
  std::mutex dist_mutex;
  std::shared_ptr<const sim::FinalDistribution> final_dist;  // dist_mutex
  bool final_cache_hit = false;     ///< written under dist_mutex
  runtime::CacheTier final_tier = runtime::CacheTier::kNone;  // dist_mutex

  // Shard merge state. Histogram addition is commutative, so taking the
  // merge mutex in arbitrary shard-completion order still yields a
  // deterministic merged result.
  std::mutex merge_mutex;
  Histogram merged;
  BestRead best;  ///< anneal jobs only
  Status status;  // first failure wins; guarded by merge_mutex

  /// Set alongside a failure status: remaining shards skip their work
  /// (they still run through finish_shard to keep the count exact).
  std::atomic<bool> abort{false};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> remaining{0};

  /// Bumped once per merged shard (under merge_mutex); progress()
  /// consumers ship a snapshot only when this advances.
  std::atomic<std::uint64_t> progress_seq{0};

  // Supervision / checkpoint state.
  std::vector<char> shard_done;        ///< guarded by merge_mutex
  /// Set (under merge_mutex) when finish_shard moves the merged result
  /// out; progress() reports nothing from then on.
  bool assembled = false;
  std::uint64_t checkpoint_fp = 0;     ///< 0 = not computed yet
  /// The key is the journal's qsj-<id>, not the client's: once the job's
  /// terminal record is written, nothing can read its snapshot again.
  bool journal_key = false;
  bool snapshot_stored = false;        ///< saved or found; merge_mutex
  std::size_t unsaved_shards = 0;      ///< merged since the last save
  std::chrono::nanoseconds unsaved_work{0};  ///< their time; merge_mutex
  std::size_t shards_resumed = 0;      ///< restored at dispatch
  std::atomic<std::size_t> failovers{0};
  std::atomic<std::size_t> shards_executed{0};

  // Durability / exactly-once state.
  bool journaled = false;  ///< admitted record reached the journal
  bool recovered = false;  ///< re-enqueued from a journal replay
  std::string idemp_key;   ///< registered idempotency key ("" = none)
  /// Simulated-crash flag (FaultPlan::crash_point): suppresses the
  /// terminal journal record and the idempotency result, so the job's
  /// on-disk state is exactly that of a process that died at the point.
  std::atomic<bool> crashed{false};
};

QuantumService::QuantumService(std::shared_ptr<BackendPool> backends,
                               ServiceOptions options)
    : options_(validated(std::move(options))),
      backends_(std::move(backends)),
      primary_gate_(primary_gate_of(backends_)),
      store_(make_store(options_)),
      cache_(store_,
             CompiledProgramCache::ReviveContext{
                 primary_gate_->platform().qubit_count,
                 primary_gate_->platform().qubit_model,
                 backends_->any_microarch()}),
      final_cache_(store_),
      queue_(options_.queue_capacity, options_.default_tenant_weight),
      pool_(options_.workers),
      paused_(options_.start_paused),
      checkpoint_save_cost_(kCheckpointSavePrior) {
  for (const auto& [tenant, weight] : options_.tenant_weights)
    queue_.set_weight(tenant, weight);
  // A persistent store doubles as the checkpoint substrate: with a disk
  // tier configured and no explicit CheckpointStore, checkpoint/resume
  // lands in the same directory (same atomic-write + verified-load path).
  if (!options_.checkpoint_store && store_->disk_enabled())
    options_.checkpoint_store = std::make_shared<StoreCheckpointStore>(store_);
  // Crash-durable journal: replay and recovery must finish before the
  // dispatcher's first dequeue, so recovered jobs keep their admission
  // order ahead of anything submitted to the new process. Keyed to
  // store_dir (not to a shared artifact_store's directory) so two services
  // sharing one store never contend for one journal file / id sequence.
  if (options_.journal_enabled && !options_.store_dir.empty()) {
    JobJournal::Options jo;
    jo.directory = options_.store_dir;
    jo.sync_writes = options_.sync_writes;
    jo.finished_retention = options_.journal_retention;
    journal_ = std::make_unique<JobJournal>(std::move(jo));
    recover_from_journal();
  }
  backends_->attach_metrics(&metrics_);
  backends_->start_probing();
  metrics_.gauge("qs_workers").set(
      static_cast<std::int64_t>(pool_.thread_count()));
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

QuantumService::QuantumService(runtime::GateAccelerator gate,
                               ServiceOptions options)
    : QuantumService(make_single_pool(std::move(gate), std::nullopt),
                     options) {}

QuantumService::QuantumService(runtime::GateAccelerator gate,
                               runtime::AnnealAccelerator annealer,
                               ServiceOptions options)
    : QuantumService(make_single_pool(std::move(gate), std::move(annealer)),
                     options) {}

QuantumService::~QuantumService() { shutdown(); }

// ---------------------------------------------------------- admission ----

std::shared_ptr<QuantumService::JobState> QuantumService::make_job(
    RunRequest request, Status* status) {
  auto job = std::make_shared<JobState>();
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (closing_) {
      *status = Status::Unavailable("QuantumService: submit after shutdown");
      return nullptr;
    }
    job->id = next_job_id_++;
    ++inflight_;
  }
  job->request = std::move(request);
  job->tenant = tenant_label(job->request.tenant);
  job->submitted = Clock::now();
  if (job->request.deadline)
    job->deadline_at = job->submitted + *job->request.deadline;
  job->future = job->promise.get_future().share();
  metrics_.gauge(tenant_metric("qs_tenant_inflight", job->tenant)).add(1);
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.emplace(job->id, job);
  }
  *status = Status::Ok();
  return job;
}

Status QuantumService::admit(const std::shared_ptr<JobState>& job,
                             bool blocking) {
  const int priority = job->request.priority;
  const bool admitted =
      blocking ? queue_.push(job, priority, job->tenant)
               : queue_.try_push(job, priority, job->tenant);
  if (!admitted) {
    // Blocking push only fails once the queue is closed; try_push also
    // fails on a full queue. Either way the job never ran.
    Status status =
        queue_.closed()
            ? Status::Unavailable("QuantumService: submit after shutdown")
            : Status::ResourceExhausted(
                  "QuantumService: queue full (depth " +
                  std::to_string(queue_.size()) + "/" +
                  std::to_string(queue_.capacity()) + ")");
    metrics_.counter("qs_jobs_rejected_total").inc();
    metrics_.counter(tenant_metric("qs_tenant_rejected_total", job->tenant))
        .inc();
    return status;
  }
  metrics_.counter("qs_jobs_submitted_total").inc();
  metrics_.counter(tenant_metric("qs_tenant_admitted_total", job->tenant))
      .inc();
  metrics_.gauge("qs_queue_depth")
      .set(static_cast<std::int64_t>(queue_.size()));
  return Status::Ok();
}

JobHandle QuantumService::rejected_handle(Status status,
                                          const std::string& tenant) {
  metrics_.counter("qs_jobs_rejected_total").inc();
  metrics_.counter(tenant_metric("qs_tenant_rejected_total", tenant)).inc();
  JobHandle handle;
  std::promise<RunResult> promise;
  handle.future_ = promise.get_future().share();
  RunResult result;
  result.status = std::move(status);
  promise.set_value(std::move(result));
  return handle;
}

JobHandle QuantumService::submit(RunRequest request) {
  return submit_impl(std::move(request), /*blocking=*/true);
}

JobHandle QuantumService::try_submit(RunRequest request) {
  return submit_impl(std::move(request), /*blocking=*/false);
}

JobHandle QuantumService::submit_impl(RunRequest request, bool blocking) {
  const std::string tenant = tenant_label(request.tenant);
  if (Status v = request.validate(); !v.ok())
    return rejected_handle(std::move(v), tenant);
  if (Status v = check_shard_plan(request, options_.shard_shots); !v.ok())
    return rejected_handle(std::move(v), tenant);
  if (request.qubo && !backends_->primary(runtime::JobKind::Anneal))
    return rejected_handle(Status::FailedPrecondition(
        "QuantumService: no annealing accelerator attached"), tenant);

  // Exactly-once: a known idempotency_key attaches to the live job or is
  // served the stored result instead of re-running. The registry lock is
  // held through job registration so two racing duplicates cannot both
  // admit.
  std::unique_lock<std::mutex> idemp_lock(idemp_mutex_, std::defer_lock);
  std::uint64_t fingerprint = 0;
  if (!request.idempotency_key.empty()) {
    fingerprint = request_fingerprint(request, options_.shard_shots);
    idemp_lock.lock();
    auto it = idempotency_.find(request.idempotency_key);
    if (it != idempotency_.end()) {
      if (it->second.fingerprint != fingerprint) {
        idemp_lock.unlock();
        return rejected_handle(
            Status::InvalidArgument(
                "idempotency_key '" + request.idempotency_key +
                "' was already used with a different payload/seed/shot "
                "plan"),
            tenant);
      }
      if (it->second.result) {
        JobHandle handle;
        handle.id_ = it->second.job_id;
        std::promise<RunResult> promise;
        handle.future_ = promise.get_future().share();
        RunResult served = *it->second.result;
        served.stats.idempotent_hit = true;
        promise.set_value(std::move(served));
        idemp_lock.unlock();
        metrics_.counter("qs_idempotent_served_total").inc();
        return handle;
      }
      if (auto live = it->second.live.lock()) {
        // Attach: same id, same cancel scope, same future — the duplicate
        // and the original are one job.
        JobHandle handle;
        handle.id_ = live->id;
        handle.cancel_ = live->cancel;
        handle.future_ = live->future;
        idemp_lock.unlock();
        metrics_.counter("qs_idempotent_attached_total").inc();
        return handle;
      }
      // Stale registration (a simulated crash abandoned the job without a
      // stored result): fall through and run it for real.
    }
  }

  Status status;
  auto job = make_job(std::move(request), &status);
  if (!job) return rejected_handle(std::move(status), tenant);
  job->idemp_key = job->request.idempotency_key;
  if (idemp_lock.owns_lock()) {
    IdempotencyEntry entry;
    entry.job_id = job->id;
    entry.fingerprint = fingerprint;
    entry.live = job;
    idempotency_[job->idemp_key] = std::move(entry);
    idemp_lock.unlock();
  }

  JobHandle handle;
  handle.id_ = job->id;
  handle.cancel_ = job->cancel;
  handle.future_ = job->future;

  if (journal_) {
    // Journaled jobs checkpoint when it pays (run_shard), so recovery
    // resumes a long job from its saved shards. The key is derived from
    // the job id so a recovered job finds its own snapshot.
    if (job->request.checkpoint_key.empty() && options_.checkpoint_store) {
      job->request.checkpoint_key = journal_checkpoint_key(job->id);
      job->journal_key = true;
    }
    // WAL contract: the admitted record is durable before the caller gets
    // a handle back.
    job->journaled = journal_->append_admitted(job->id, job->request);
    if (!job->journaled)
      metrics_.counter("qs_journal_append_failures_total").inc();
  }

  if (crash_point_of(job->request) == runtime::CrashPoint::kAdmit) {
    job->crashed.store(true, std::memory_order_relaxed);
    metrics_.counter("qs_injected_crashes_total").inc();
    resolve_unadmitted(job, crash_status(runtime::CrashPoint::kAdmit));
    return handle;
  }

  if (Status admitted = admit(job, blocking); !admitted.ok())
    resolve_unadmitted(job, std::move(admitted));
  return handle;
}

// ------------------------------------------------------------ control ----

void QuantumService::pause() {
  std::lock_guard<std::mutex> lock(control_mutex_);
  paused_ = true;
}

void QuantumService::resume() {
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    paused_ = false;
  }
  control_cv_.notify_all();
}

void QuantumService::drain() {
  std::unique_lock<std::mutex> lock(control_mutex_);
  control_cv_.wait(lock, [&] { return inflight_ == 0; });
}

void QuantumService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    closing_ = true;
  }
  control_cv_.notify_all();
  queue_.close();  // dispatcher drains remaining jobs, then exits
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.wait_idle();
  // The pool may be shared and outlive this service: stop its probe
  // thread and detach our metrics registry before the registry dies.
  backends_->stop_probing();
  backends_->attach_metrics(nullptr);
}

// --------------------------------------------------------- resolution ----

void QuantumService::resolve(const std::shared_ptr<JobState>& job,
                             RunResult result) {
  result.stats.journal_recovered = job->recovered;
  switch (result.status.code()) {
    case StatusCode::kOk:
      metrics_.counter("qs_jobs_completed_total").inc();
      metrics_
          .counter(result.kind == JobKind::Gate ? "qs_gate_shots_total"
                                                : "qs_anneal_reads_total")
          .inc(job->request.shots);
      metrics_.histogram("qs_job_run_us").observe(result.stats.run_us);
      break;
    case StatusCode::kCancelled:
      metrics_.counter("qs_jobs_cancelled_total").inc();
      break;
    case StatusCode::kDeadlineExceeded:
      metrics_.counter("qs_jobs_timed_out_total").inc();
      break;
    default:
      metrics_.counter("qs_jobs_failed_total").inc();
      break;
  }

  finalize_job(job, result);
  job->promise.set_value(std::move(result));
  job_done(job);
}

void QuantumService::resolve_unadmitted(const std::shared_ptr<JobState>& job,
                                        Status status) {
  // Never dispatched: the rejection was already counted in admit(), so
  // fulfil the promise directly without bumping a terminal-state metric.
  RunResult result;
  result.job_id = job->id;
  result.kind = job->request.kind();
  result.tag = job->request.tag;
  result.status = std::move(status);
  finalize_job(job, result);
  job->promise.set_value(std::move(result));
  job_done(job);
}

void QuantumService::finalize_job(const std::shared_ptr<JobState>& job,
                                  const RunResult& result) {
  const bool crashed = job->crashed.load(std::memory_order_relaxed);
  if (job->journaled && journal_ && !crashed) {
    if (!journal_->append_terminal(job->id, result))
      metrics_.counter("qs_journal_append_failures_total").inc();
  }
  if (job->idemp_key.empty()) return;
  std::lock_guard<std::mutex> lock(idemp_mutex_);
  auto it = idempotency_.find(job->idemp_key);
  if (it == idempotency_.end() || it->second.job_id != job->id) return;
  if (crashed) {
    // The simulated crash abandoned the job: drop the registration so a
    // resubmission runs it for real (in this process, or after a restart
    // through journal recovery).
    idempotency_.erase(it);
    return;
  }
  it->second.result = std::make_shared<const RunResult>(result);
  it->second.live.reset();
  idemp_order_.push_back(job->idemp_key);
  while (idemp_order_.size() > options_.journal_retention) {
    const std::string victim = std::move(idemp_order_.front());
    idemp_order_.pop_front();
    auto vit = idempotency_.find(victim);
    if (vit != idempotency_.end() && vit->second.result)
      idempotency_.erase(vit);
  }
}

void QuantumService::recover_from_journal() {
  JournalReplay replay = journal_->replay();
  if (replay.truncated_bytes > 0)
    metrics_.counter("qs_journal_truncated_bytes_total")
        .inc(replay.truncated_bytes);
  if (replay.records == 0) return;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (replay.max_job_id >= next_job_id_)
      next_job_id_ = replay.max_job_id + 1;
  }
  // Compact before consuming the replay: the rewritten file keeps the
  // admitted records of everything re-enqueued below, so a crash during
  // recovery just recovers again.
  journal_->compact(replay);

  // Finished keyed jobs: register their stored results so a duplicate
  // idempotency_key after the restart is served without re-running.
  for (JournalReplay::FinishedJob& fin : replay.finished) {
    if (fin.request.idempotency_key.empty()) continue;
    IdempotencyEntry entry;
    entry.job_id = fin.job_id;
    entry.fingerprint =
        request_fingerprint(fin.request, options_.shard_shots);
    entry.result = std::make_shared<const RunResult>(std::move(fin.result));
    std::lock_guard<std::mutex> lock(idemp_mutex_);
    idemp_order_.push_back(fin.request.idempotency_key);
    idempotency_[fin.request.idempotency_key] = std::move(entry);
  }

  // In-flight jobs: re-enqueue under their original ids. A job that saved
  // a snapshot before the crash re-runs only its unsaved shards.
  std::size_t recovered = 0;
  for (JournalReplay::InflightJob& inflight : replay.inflight) {
    auto job = std::make_shared<JobState>();
    job->id = inflight.job_id;
    job->request = std::move(inflight.request);
    job->tenant = tenant_label(job->request.tenant);
    job->submitted = Clock::now();
    // The deadline budget re-arms from recovery time — the original
    // submission instant did not survive the crash, and failing a
    // recovered job for time spent dead helps nobody.
    if (job->request.deadline)
      job->deadline_at = job->submitted + *job->request.deadline;
    job->future = job->promise.get_future().share();
    job->journaled = true;
    job->recovered = true;
    job->journal_key =
        job->request.checkpoint_key == journal_checkpoint_key(job->id);
    job->idemp_key = job->request.idempotency_key;
    {
      std::lock_guard<std::mutex> lock(control_mutex_);
      ++inflight_;
    }
    metrics_.gauge(tenant_metric("qs_tenant_inflight", job->tenant)).add(1);
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_.emplace(job->id, job);
    }
    if (!job->idemp_key.empty()) {
      IdempotencyEntry entry;
      entry.job_id = job->id;
      entry.fingerprint =
          request_fingerprint(job->request, options_.shard_shots);
      entry.live = job;
      std::lock_guard<std::mutex> lock(idemp_mutex_);
      idempotency_[job->idemp_key] = std::move(entry);
    }
    if (Status v = check_shard_plan(job->request, options_.shard_shots);
        !v.ok()) {
      // The journal may come from a service with a larger shard size; a
      // plan this one refuses fails terminally instead of recurring.
      resolve_unadmitted(job, std::move(v));
    } else if (queue_.try_push(job, job->request.priority, job->tenant)) {
      ++recovered;
    } else {
      // Over-capacity recovery (this process has a smaller queue than the
      // one that crashed): fail the job terminally so it stops recurring
      // on every restart.
      resolve_unadmitted(
          job, Status::ResourceExhausted(
                   "recovered job " + std::to_string(job->id) +
                   " exceeds queue capacity " +
                   std::to_string(queue_.capacity())));
    }
  }
  if (recovered > 0) {
    metrics_.counter("qs_journal_recovered_jobs_total").inc(recovered);
    QS_LOG(LogLevel::Info, "service",
           "journal: recovered " << recovered << " in-flight job(s), "
                                 << replay.finished.size()
                                 << " finished record(s) replayed");
  }
}

void QuantumService::resolve_at_dispatch(
    const std::shared_ptr<JobState>& job, Status status) {
  RunResult result;
  result.job_id = job->id;
  result.kind = job->request.kind();
  result.tag = job->request.tag;
  result.status = std::move(status);
  result.stats.queue_wait_us = job->wait_us;
  result.stats.dispatch_seq = job->dispatch_seq;
  result.stats.run_us = us_between(job->dispatched, Clock::now());
  resolve(job, std::move(result));
}

void QuantumService::note_failure(const std::shared_ptr<JobState>& job,
                                  Status status) {
  {
    std::lock_guard<std::mutex> lock(job->merge_mutex);
    if (job->status.ok()) job->status = std::move(status);
  }
  job->abort.store(true, std::memory_order_release);
}

// ----------------------------------------------------------- dispatch ----

void QuantumService::dispatcher_loop() {
  auto hold_while_paused = [&] {
    std::unique_lock<std::mutex> lock(control_mutex_);
    control_cv_.wait(lock, [&] { return !paused_ || closing_; });
  };
  for (;;) {
    hold_while_paused();
    std::optional<std::shared_ptr<JobState>> job = queue_.pop();
    if (!job) return;  // queue closed and drained
    // pause() may have landed while this thread was blocked in pop(): the
    // popped job waits for resume() like the ones still queued.
    hold_while_paused();
    metrics_.gauge("qs_queue_depth")
        .set(static_cast<std::int64_t>(queue_.size()));
    dispatch(*job);
  }
}

void QuantumService::dispatch(const std::shared_ptr<JobState>& job) {
  job->dispatched = Clock::now();
  job->dispatch_seq = ++dispatch_counter_;
  job->wait_us = us_between(job->submitted, job->dispatched);
  metrics_.histogram("qs_job_wait_us").observe(job->wait_us);
  metrics_
      .histogram("qs_queue_wait_seconds",
                 LatencyHistogram::default_seconds_bounds())
      .observe(job->wait_us / 1e6);
  if (job->request.deadline) {
    // Fraction of the deadline budget consumed while waiting in queue:
    // > 1 means the job expired before it ever ran (capacity signal).
    metrics_
        .histogram("qs_deadline_wait_fraction",
                   MetricsRegistry::fraction_bounds())
        .observe(job->wait_us / us_of(*job->request.deadline));
  }

  // Rejected-on-dequeue paths: never compile, never shard.
  if (job->cancel.cancel_requested()) {
    resolve_at_dispatch(job,
                        Status::Cancelled("job cancelled before dispatch"));
    return;
  }
  if (job->deadline_at && job->dispatched > *job->deadline_at) {
    resolve_at_dispatch(
        job, Status::DeadlineExceeded(
                 "deadline expired in queue after " +
                 std::to_string(static_cast<long long>(job->wait_us)) +
                 "us (budget " +
                 std::to_string(static_cast<long long>(
                     us_of(*job->request.deadline))) +
                 "us)"));
    return;
  }

  if (job->journaled && journal_) {
    if (!journal_->append_dispatched(job->id))
      metrics_.counter("qs_journal_append_failures_total").inc();
  }
  if (crash_point_of(job->request) == runtime::CrashPoint::kDispatch) {
    // Simulated death between the dispatched record and the first shard:
    // recovery re-runs the job from shard zero.
    job->crashed.store(true, std::memory_order_relaxed);
    metrics_.counter("qs_injected_crashes_total").inc();
    resolve_at_dispatch(job, crash_status(runtime::CrashPoint::kDispatch));
    return;
  }

  const RunRequest& req = job->request;
  if (req.kind() == JobKind::Gate) {
    if (!job->request.program) {
      // Raw-source submission: parse here so malformed cQASM maps to a
      // typed kInvalidArgument in the result, never an exception.
      StatusOr<qasm::Program> parsed =
          qasm::Parser::parse_or_status(*job->request.program_text);
      if (!parsed.ok()) {
        resolve_at_dispatch(job, parsed.status());
        return;
      }
      job->request.program = std::move(*parsed);
    }
    if (req.program->qubit_count() > primary_gate_->qubit_count()) {
      resolve_at_dispatch(
          job, Status::InvalidArgument(
                   "program needs " +
                   std::to_string(req.program->qubit_count()) +
                   " qubits, platform has " +
                   std::to_string(primary_gate_->qubit_count())));
      return;
    }
    if (req.faults && req.faults->fail_compile) {
      resolve_at_dispatch(
          job, Status::Internal("injected compile failure (FaultPlan)"));
      return;
    }
    try {
      job->entry =
          resolve_compiled(*req.program, &job->cache_hit, &job->compile_tier);
    } catch (const std::exception& e) {
      resolve_at_dispatch(job, Status::InvalidArgument(
                                   std::string("compile failed: ") +
                                   e.what()));
      return;
    } catch (...) {
      resolve_at_dispatch(job,
                          Status::Internal("compile failed: unknown error"));
      return;
    }
    // Sampling-path election. Purely a function of the analysis verdict —
    // never of the FaultPlan or the backend route: sampled shards still
    // traverse the full retry/failover machinery, so a faulted run stays
    // byte-identical to a clean one.
    if (options_.sampling_enabled && job->entry->analysis.samplable) {
      job->sampled = true;
      job->final_key = final_state_key(
          job->entry->key, primary_gate_->platform().qubit_model,
          primary_gate_->sim_options().fused_kernels, req.precision,
          job->entry->fused != nullptr);
      metrics_.counter("qs_jobs_sampled_total").inc();
    } else {
      const sim::SamplingFallback reason =
          options_.sampling_enabled ? job->entry->analysis.fallback
                                    : sim::SamplingFallback::kDisabled;
      metrics_
          .counter(std::string("qs_sampling_fallback_total{reason=\"") +
                   sim::to_string(reason) + "\"}")
          .inc();
    }
  } else if (const auto annealer = backends_->primary(JobKind::Anneal);
             annealer && req.qubo->size() > annealer->annealer->capacity()) {
    // Mirrors the gate-width check: an oversized problem is the request's
    // fault, so it must not reach a shard, where the solver's throw would
    // count against (and quarantine) a healthy backend.
    resolve_at_dispatch(
        job, Status::InvalidArgument(
                 "qubo has " + std::to_string(req.qubo->size()) +
                 " variables, annealer capacity is " +
                 std::to_string(annealer->annealer->capacity())));
    return;
  }

  metrics_.counter("qs_jobs_dispatched_total").inc();
  if (req.kind() == JobKind::Gate) {
    metrics_
        .counter(std::string("qs_jobs_by_precision_total{tier=\"") +
                 to_string(req.precision) + "\"}")
        .inc();
    if (job->entry && job->entry->fused) {
      const sim::FusionStats& fs = job->entry->fused->stats;
      metrics_.counter("qs_fused_jobs_total").inc();
      if (fs.input_gates >= fs.output_ops)
        metrics_.counter("qs_fused_gates_saved_total")
            .inc(fs.input_gates - fs.output_ops);
    }
  }
  {
    // progress() may be reading concurrently from a gateway stream.
    std::lock_guard<std::mutex> lock(job->merge_mutex);
    job->shards = shard_count(req.shots, options_.shard_shots);
    job->shard_done.assign(job->shards, 0);
  }

  // Checkpoint resume: restore the merged partials of a previous
  // submission with the same key, provided the fingerprint proves the
  // payload/seed/shot/shard plan is unchanged. Anything else starts fresh.
  // A fresh job's qsj-<id> key is new to the store, so only a recovered
  // job looks one up.
  if (!req.checkpoint_key.empty() && options_.checkpoint_store &&
      (!job->journal_key || job->recovered)) {
    job->checkpoint_fp = checkpoint_fingerprint(req, options_.shard_shots);
    std::optional<JobCheckpoint> cp =
        options_.checkpoint_store->load(req.checkpoint_key);
    std::lock_guard<std::mutex> lock(job->merge_mutex);
    job->snapshot_stored = cp.has_value();
    if (cp && cp->fingerprint == job->checkpoint_fp &&
        cp->shards == job->shards && cp->shard_done.size() == job->shards) {
      job->merged = std::move(cp->merged);
      job->shard_done = std::move(cp->shard_done);
      job->best = {cp->has_best, cp->best_energy, cp->best_read,
                   std::move(cp->best_solution)};
      for (char d : job->shard_done) job->shards_resumed += d ? 1 : 0;
      if (job->shards_resumed > 0) {
        metrics_.counter("qs_shards_resumed_total")
            .inc(job->shards_resumed);
        job->progress_seq.fetch_add(job->shards_resumed,
                                    std::memory_order_relaxed);
      }
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < job->shards; ++i)
    if (!job->shard_done[i]) pending.push_back(i);
  QS_LOG(LogLevel::Debug, "service",
         "dispatch job " << job->id << " (" << to_string(req.kind()) << ", "
                         << req.shots << " shots, " << job->shards
                         << " shards, " << job->shards_resumed
                         << " resumed, cache_hit=" << job->cache_hit << ")");

  if (pending.empty()) {
    // Every shard was restored from the checkpoint: assemble directly.
    job->remaining.store(1, std::memory_order_relaxed);
    finish_shard(job);
    return;
  }

  job->remaining.store(pending.size(), std::memory_order_relaxed);
  for (std::size_t i : pending)
    pool_.submit([this, job, i] { run_shard(job, i); });
}

void QuantumService::record_store_outcome(const store::Outcome& outcome) {
  // Unified observability for the artifact store, labelled by tier. The
  // per-cache legacy names (qs_cache_*, qs_final_state_cache_*) keep
  // emitting for one release — docs/artifact_store.md has the mapping.
  if (outcome.tier == store::Tier::kMemory)
    metrics_.counter("qs_store_hits_total{tier=\"memory\"}").inc();
  else if (outcome.tier == store::Tier::kDisk)
    metrics_.counter("qs_store_hits_total{tier=\"disk\"}").inc();
  if (outcome.memory_missed)
    metrics_.counter("qs_store_misses_total{tier=\"memory\"}").inc();
  if (outcome.disk_missed)
    metrics_.counter("qs_store_misses_total{tier=\"disk\"}").inc();
  if (outcome.corrupt) metrics_.counter("qs_store_corrupt_total").inc();
  if (outcome.evicted > 0)
    metrics_.counter("qs_store_evictions_total{tier=\"memory\"}")
        .inc(outcome.evicted);
  if (outcome.oversized)
    metrics_.counter("qs_store_oversized_total{tier=\"memory\"}").inc();
  if (outcome.wrote_disk) metrics_.counter("qs_store_writes_total").inc();
  if (outcome.disk_write_failed)
    metrics_.counter("qs_store_write_failures_total").inc();
  if (outcome.disk_degraded)
    metrics_.counter("qs_store_degraded_skips_total").inc();
  metrics_.gauge("qs_store_disk_degraded")
      .set(store_->disk_degraded() ? 1 : 0);
}

std::shared_ptr<const CompiledEntry> QuantumService::resolve_compiled(
    const qasm::Program& program, bool* cache_hit,
    runtime::CacheTier* tier) {
  *cache_hit = false;
  *tier = runtime::CacheTier::kNone;
  const std::string text = qasm::to_cqasm(program);
  const std::uint64_t key = compiled_program_key(
      text, compiler::fingerprint(primary_gate_->platform()),
      compiler::fingerprint(primary_gate_->options()));

  if (options_.cache_enabled) {
    store::Outcome outcome;
    auto entry = cache_.lookup(key, &outcome);
    record_store_outcome(outcome);
    if (entry) {
      *cache_hit = true;
      *tier = to_cache_tier(outcome.tier);
      metrics_.counter("qs_cache_hits_total").inc();
      return entry;
    }
    metrics_.counter("qs_cache_misses_total").inc();
  }

  auto entry = std::make_shared<CompiledEntry>();
  entry->key = key;
  entry->compiled = primary_gate_->compile_const(program);
  // Pre-assemble eQASM when any pool backend takes the micro-arch route —
  // a shard may fail over to such a backend even if the primary is Direct.
  if (backends_->any_microarch())
    entry->eqasm = std::make_shared<const microarch::EqProgram>(
        primary_gate_->assemble(entry->compiled));
  // Flatten, validate and analyze once per compiled program: shards run
  // the cached stream directly, and the dispatcher reads the cached
  // verdict to elect the sampling fast path.
  entry->compiled.program.validate();
  entry->flat = entry->compiled.program.flatten();
  entry->analysis = sim::analyze_trajectory(
      entry->flat, primary_gate_->platform().qubit_count,
      primary_gate_->platform().qubit_model);
  fuse_compiled_entry(*entry, primary_gate_->platform().qubit_model);
  if (options_.cache_enabled) {
    store::Outcome outcome;
    cache_.insert(key, entry, &outcome);
    record_store_outcome(outcome);
  }
  return entry;
}

std::size_t QuantumService::effective_sim_threads(
    std::size_t job_threads) const {
  // Per-job budget wins over the service default; both resolve
  // QS_SIM_THREADS when zero (sim::resolve_sim_threads handles that).
  const std::size_t want = sim::resolve_sim_threads(
      job_threads != 0 ? job_threads : options_.sim_threads);
  if (!options_.clamp_sim_threads) return want;
  // Shard workers already fan out across cores: cap kernel threads per
  // shard at hardware_concurrency / workers so total threads stay at or
  // below the core count. Bit-identity makes this clamp output-invisible.
  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  const std::size_t per_shard =
      std::max<std::size_t>(hw / std::max<std::size_t>(pool_.thread_count(), 1),
                            1);
  return std::min(want, per_shard);
}

// ------------------------------------------------------------- shards ----

CancelToken QuantumService::attempt_token(const JobState& job) const {
  std::optional<Clock::time_point> deadline = job.deadline_at;
  if (options_.shard_time_budget.count() > 0) {
    const Clock::time_point watchdog_at =
        Clock::now() + options_.shard_time_budget;
    if (!deadline || watchdog_at < *deadline) deadline = watchdog_at;
  }
  return job.cancel.token(deadline);
}

void QuantumService::save_checkpoint_locked(JobState& job) {
  if (job.request.checkpoint_key.empty() || !options_.checkpoint_store)
    return;
  // Only a job that skipped the dispatch-time load lacks it.
  if (job.checkpoint_fp == 0)
    job.checkpoint_fp = checkpoint_fingerprint(job.request,
                                               options_.shard_shots);
  JobCheckpoint cp;
  cp.fingerprint = job.checkpoint_fp;
  cp.shards = job.shards;
  cp.shard_done = job.shard_done;
  cp.merged = job.merged;
  cp.has_best = job.best.has;
  cp.best_energy = job.best.energy;
  cp.best_read = job.best.read;
  cp.best_solution = job.best.solution;
  const Clock::time_point start = Clock::now();
  const bool saved =
      options_.checkpoint_store->save(job.request.checkpoint_key, cp).ok();
  // Running estimate of one save (weight 1/8 per measurement). Concurrent
  // jobs may overwrite each other's update; any recent save is a fair
  // sample.
  const auto took = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - start);
  const std::chrono::nanoseconds cost =
      checkpoint_save_cost_.load(std::memory_order_relaxed);
  checkpoint_save_cost_.store(cost + (took - cost) / 8,
                              std::memory_order_relaxed);
  if (!saved) {
    metrics_.counter("qs_checkpoint_save_failures_total").inc();
    return;
  }
  metrics_.counter("qs_checkpoint_saves_total").inc();
  job.snapshot_stored = true;
  job.unsaved_shards = 0;
  job.unsaved_work = std::chrono::nanoseconds{0};
}

void QuantumService::ensure_final_distribution(
    const std::shared_ptr<JobState>& job, const CancelToken& token) {
  // On a thrown CancelledError final_dist stays unset, so a retried
  // attempt (or another shard) re-runs the lookup/evolution under its own
  // token instead of every shard inheriting the failure. A mutex, not
  // std::call_once: an exception leaving call_once's callable hangs every
  // later caller under ThreadSanitizer's pthread_once interceptor.
  std::lock_guard<std::mutex> lock(job->dist_mutex);
  if (job->final_dist) return;
  const bool cache_on = options_.final_state_cache_enabled;
  if (cache_on) {
    store::Outcome outcome;
    auto dist = final_cache_.lookup(job->final_key, &outcome);
    record_store_outcome(outcome);
    if (dist) {
      metrics_.counter("qs_final_state_cache_hits_total").inc();
      job->final_cache_hit = true;
      job->final_tier = to_cache_tier(outcome.tier);
      job->final_dist = std::move(dist);
      return;
    }
    metrics_.counter("qs_final_state_cache_misses_total").inc();
  }
  sim::SimOptions sim_options = primary_gate_->sim_options();
  sim_options.threads = effective_sim_threads(job->request.sim_threads);
  sim_options.precision = job->request.precision;
  sim_options.cancel = token;
  auto dist = std::make_shared<const sim::FinalDistribution>(
      primary_gate_->final_distribution(job->entry->flat,
                                        job->entry->analysis, sim_options,
                                        job->entry->fused.get()));
  if (cache_on) {
    store::Outcome outcome;
    const std::size_t evicted =
        final_cache_.insert(job->final_key, dist, &outcome);
    record_store_outcome(outcome);
    if (evicted > 0)
      metrics_.counter("qs_final_state_cache_evictions_total").inc(evicted);
    if (outcome.oversized)
      metrics_.counter("qs_final_state_cache_oversized_total").inc();
  }
  job->final_dist = std::move(dist);
}

QuantumService::ShardOutput QuantumService::execute_gate_shard(
    const std::shared_ptr<JobState>& job, const Backend& backend,
    std::size_t shard_index, std::size_t count, const CancelToken& token) {
  const RunRequest& req = job->request;
  // Retries and failovers re-derive the same stream: the seed is a pure
  // function of (job seed, shard index) — never of the attempt count or
  // of which backend runs the shard — so a job that succeeds after
  // retries or re-routing produces the histogram of a job that never
  // failed, on whatever backend.
  const std::uint64_t seed = derive_stream_seed(req.seed, shard_index);
  sim::SimOptions sim_options = backend.gate->sim_options();
  sim_options.threads = effective_sim_threads(req.sim_threads);
  sim_options.precision = req.precision;
  sim_options.cancel = token;
  sim_options.sampling = options_.sampling_enabled;
  ShardOutput out;
  if (job->sampled) {
    // Sampling fast path: the job's shared distribution (cached, or
    // computed once under dist_mutex) replaces the trajectory loop. The
    // shard's counter-derived stream makes the draws identical to what
    // any other route would produce.
    ensure_final_distribution(job, token);
    out.histogram = sim::sample_histogram(*job->final_dist, count, seed, token);
  } else if (backend.gate->path() == runtime::GatePath::MicroArch) {
    out.histogram = job->entry->eqasm
                        ? backend.gate->run_eqasm(*job->entry->eqasm, count,
                                                  seed, sim_options)
                        : backend.gate->run_compiled(job->entry->compiled,
                                                     count, seed, sim_options);
  } else {
    // Pre-flattened stream from the compiled entry: no per-shard
    // flatten()/validate(); the entry's fused program (null under a
    // stochastic model) replaces the raw stream. With a micro-arch
    // backend anywhere in the pool the shard runs unfused: a failover
    // re-route onto the eQASM path (which executes the raw gate stream)
    // must reproduce this shard's histogram byte for byte, and fusion
    // changes the evolved doubles.
    const sim::FusedProgram* fused =
        backends_->any_microarch() ? nullptr : job->entry->fused.get();
    out.histogram = backend.gate->run_flat(job->entry->flat,
                                           job->entry->analysis, count, seed,
                                           sim_options, fused);
  }
  return out;
}

QuantumService::ShardOutput QuantumService::execute_anneal_shard(
    const RunRequest& req, const Backend& backend, std::size_t begin,
    std::size_t count, const CancelToken& token) {
  ShardOutput out;
  for (std::size_t read = begin; read < begin + count; ++read) {
    throw_if_stopped(token);
    // Per-read (not per-shard) stream: each anneal is an independent
    // restart, and per-read seeding keeps the best-of-N reduction
    // identical however reads are grouped into shards — and whichever
    // backend runs them.
    Rng rng(derive_stream_seed(req.seed, read));
    // The token reaches the annealer's sweep loop: a deadline or cancel
    // (or the watchdog) stops a QUBO job mid-anneal instead of waiting out
    // the full schedule.
    runtime::AnnealOutcome outcome = backend.annealer->solve(*req.qubo, rng,
                                                             token);
    out.histogram.add(solution_bits(outcome.solution));
    out.best.offer(outcome.energy, read, std::move(outcome.solution));
  }
  return out;
}

void QuantumService::run_shard(const std::shared_ptr<JobState>& job,
                               std::size_t shard_index) {
  const RunRequest& req = job->request;
  const JobKind kind = req.kind();
  const std::size_t begin = shard_index * options_.shard_shots;
  const std::size_t count = std::min(options_.shard_shots, req.shots - begin);
  const std::size_t planned_failures =
      req.faults ? req.faults->failures_for(shard_index) : 0;

  std::size_t transient_attempt = 0;  // same-route retries (TransientError)
  std::size_t failover_count = 0;     // re-routes to another backend
  std::string exclude;                // backend the last attempt failed on

  // Re-route the shard after a backend-level failure; returns false once
  // the failover budget is spent (the shard then fails terminally).
  const auto fail_over = [&](Backend& backend, const std::string& reason,
                             bool quarantine_backend) {
    if (quarantine_backend)
      backends_->quarantine(backend);
    else
      backends_->record_failure(backend);
    exclude = backend.name;
    metrics_.counter("qs_backend_failovers_total").inc();
    job->failovers.fetch_add(1, std::memory_order_relaxed);
    if (++failover_count > options_.max_shard_failovers) {
      note_failure(job, Status::Unavailable(
                            "shard " + std::to_string(shard_index) + ": " +
                            reason + " (failover budget exhausted after " +
                            std::to_string(failover_count) + " re-routes)"));
      return false;
    }
    return true;
  };

  for (;;) {
    if (job->abort.load(std::memory_order_acquire)) break;
    if (job->cancel.cancel_requested()) {
      note_failure(job, Status::Cancelled("job cancelled mid-run"));
      break;
    }
    if (job->deadline_at && Clock::now() > *job->deadline_at) {
      note_failure(job,
                   Status::DeadlineExceeded("deadline expired mid-run"));
      break;
    }

    std::shared_ptr<Backend> backend = backends_->acquire(kind, exclude);
    if (!backend) {
      note_failure(job, Status::Unavailable(
                            "shard " + std::to_string(shard_index) +
                            ": no healthy " + to_string(kind) +
                            " backend in the pool"));
      break;
    }
    // A gate register is as wide as the backend's platform: a 4-qubit
    // program on an 8-qubit device still reads out all 8 lines, so shard
    // sanity checks use that width, not the program's. An anneal key has
    // one bit per QUBO variable.
    const std::size_t arity = kind == JobKind::Gate
                                  ? backend->gate->qubit_count()
                                  : req.qubo->size();
    // Watchdog: the attempt runs under the job deadline tightened by the
    // per-shard time budget; expiry cancels the kernel at the next shot
    // boundary and the shard re-routes instead of hanging the worker.
    const CancelToken token = attempt_token(*job);
    const Clock::time_point attempt_start = Clock::now();

    try {
      if (req.faults && req.faults->shard_latency.count() > 0)
        std::this_thread::sleep_for(req.faults->shard_latency);
      if (transient_attempt < planned_failures)
        throw TransientError("injected fault: shard " +
                             std::to_string(shard_index) + " attempt " +
                             std::to_string(transient_attempt));
      if (req.faults && req.faults->backend_fault(
                            backend->name, runtime::BackendFaultKind::kCrash))
        throw BackendError("injected crash on backend '" + backend->name +
                           "'");
      if (req.faults &&
          req.faults->backend_fault(backend->name,
                                    runtime::BackendFaultKind::kStuckShard)) {
        // Stall until the watchdog, the job deadline or a cancel fires —
        // a stuck shard with none of the three configured stays stuck,
        // which is exactly what the watchdog budget exists to prevent.
        while (!token.stop_requested())
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        throw_if_stopped(token);
      }

      // The attempt's output stays local until the shard is known-good,
      // so a retried attempt never double-counts reads or shots.
      ShardOutput out =
          kind == JobKind::Gate
              ? execute_gate_shard(job, *backend, shard_index, count, token)
              : execute_anneal_shard(req, *backend, begin, count, token);
      if (req.faults &&
          req.faults->backend_fault(
              backend->name, runtime::BackendFaultKind::kCorruptHistogram))
        out.histogram.add(std::string(arity + 1, '1'));  // poison key

      if (Status valid = validate_shard_histogram(out.histogram, count, arity);
          !valid.ok()) {
        // Result-level corruption: the backend lied without failing, so
        // it is quarantined outright and the shard re-runs elsewhere
        // (same seed — the merged histogram cannot tell the difference).
        if (!fail_over(*backend,
                       "invalid shard result: " + valid.message(),
                       /*quarantine_backend=*/true))
          break;
        continue;
      }

      backends_->record_success(*backend);
      job->shards_executed.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(job->merge_mutex);
        for (const auto& [bits, n] : out.histogram.counts())
          job->merged.add(bits, n);
        if (out.best.has)
          job->best.offer(out.best.energy, out.best.read,
                          std::move(out.best.solution));
        if (shard_index < job->shard_done.size())
          job->shard_done[shard_index] = 1;
        job->progress_seq.fetch_add(1, std::memory_order_relaxed);
        // Save only when the work a crash would lose pays for the save.
        // A job of short shards never saves here.
        ++job->unsaved_shards;
        job->unsaved_work +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - attempt_start);
        if (job->unsaved_work >=
            kCheckpointPayback *
                checkpoint_save_cost_.load(std::memory_order_relaxed))
          save_checkpoint_locked(*job);
      }
      // Simulated mid-run death: the terminal record never reaches the
      // journal, and the store keeps only what the shards saved so far —
      // recovery resumes from there.
      if (crash_point_of(req) == runtime::CrashPoint::kMidShard &&
          !job->crashed.exchange(true, std::memory_order_relaxed)) {
        metrics_.counter("qs_injected_crashes_total").inc();
        note_failure(job, crash_status(runtime::CrashPoint::kMidShard));
      }
      break;
    } catch (const CancelledError& e) {
      const bool job_cancelled = job->cancel.cancel_requested();
      const bool job_deadline_hit =
          job->deadline_at && Clock::now() > *job->deadline_at;
      if (e.deadline_expired() && !job_cancelled && !job_deadline_hit) {
        // The watchdog (not the job deadline) fired: the backend was too
        // slow or stuck. Blame it and re-route.
        if (!fail_over(*backend, "watchdog: shard exceeded time budget",
                       /*quarantine_backend=*/false))
          break;
        continue;
      }
      note_failure(job, e.deadline_expired() && !job_cancelled
                            ? Status::DeadlineExceeded(
                                  "deadline expired mid-run")
                            : Status::Cancelled("job cancelled mid-run"));
      break;
    } catch (const BackendError& e) {
      if (!fail_over(*backend, e.what(), /*quarantine_backend=*/false))
        break;
      continue;
    } catch (const TransientError& e) {
      if (transient_attempt >= options_.max_shard_retries) {
        note_failure(job, Status::Unavailable(
                              "shard " + std::to_string(shard_index) +
                              " failed after " +
                              std::to_string(transient_attempt + 1) +
                              " attempts: " + e.what()));
        break;
      }
      job->retries.fetch_add(1, std::memory_order_relaxed);
      metrics_.counter("qs_shard_retries_total").inc();
      std::this_thread::sleep_for(
          options_.retry_backoff.delay(transient_attempt));
      ++transient_attempt;
    } catch (const std::exception& e) {
      backends_->record_failure(*backend);
      note_failure(job,
                   Status::Internal(std::string("shard failed: ") + e.what()));
      break;
    } catch (...) {
      backends_->record_failure(*backend);
      note_failure(job, Status::Internal("shard failed: unknown exception"));
      break;
    }
  }
  finish_shard(job);
}

void QuantumService::finish_shard(const std::shared_ptr<JobState>& job) {
  if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  // Last shard out assembles and publishes the result. The acq_rel
  // decrement chain orders every shard's writes before this read.
  RunResult result;
  result.job_id = job->id;
  result.kind = job->request.kind();
  result.tag = job->request.tag;
  {
    // progress() snapshots may still be racing the final shard.
    std::lock_guard<std::mutex> lock(job->merge_mutex);
    // A failed job saves its unsaved shards once, so a resubmission under
    // the client's key resumes them. Not under a journal key (the terminal
    // record makes the snapshot unreadable) nor after a simulated crash (a
    // dead process saves nothing).
    if (!job->status.ok() && job->unsaved_shards > 0 && !job->journal_key &&
        !job->crashed.load(std::memory_order_relaxed))
      save_checkpoint_locked(*job);
    job->assembled = true;
    result.status = job->status;
    result.histogram = std::move(job->merged);
    result.best_solution = std::move(job->best.solution);
  }
  result.best_energy = job->best.energy;
  result.stats.queue_wait_us = job->wait_us;
  result.stats.run_us = us_between(job->dispatched, Clock::now());
  result.stats.compile_cache_hit = job->cache_hit;
  result.stats.retries = job->retries.load(std::memory_order_relaxed);
  result.stats.shards = job->shards;
  result.stats.dispatch_seq = job->dispatch_seq;
  result.stats.failovers = job->failovers.load(std::memory_order_relaxed);
  result.stats.shards_resumed = job->shards_resumed;
  result.stats.shards_executed =
      job->shards_executed.load(std::memory_order_relaxed);
  result.stats.compile_cache_tier = job->compile_tier;
  result.stats.sampled = job->sampled;
  result.stats.precision = job->request.precision;
  if (job->entry && job->entry->fused) {
    const sim::FusionStats& fs = job->entry->fused->stats;
    result.stats.fused_gates = fs.input_gates;
    result.stats.fused_ops = fs.output_ops;
    result.stats.fused_max_run = fs.max_run;
  }
  result.stats.final_state_cache_hit = job->final_cache_hit;
  result.stats.final_state_cache_tier = job->final_tier;
  // Simulated pre-completion death: every shard ran, but the result never
  // reaches the journal or the client — recovery resumes from whatever
  // the shards saved (possibly nothing) and reassembles the same bytes.
  if (result.status.ok() &&
      crash_point_of(job->request) == runtime::CrashPoint::kPreComplete &&
      !job->crashed.exchange(true, std::memory_order_relaxed)) {
    metrics_.counter("qs_injected_crashes_total").inc();
    result.status = crash_status(runtime::CrashPoint::kPreComplete);
  }
  // A finished job's snapshot has served its purpose, and so has a failed
  // job's under a journal key. A failed, cancelled or timed-out job keeps
  // a client-keyed snapshot so a resubmission resumes from it.
  if (job->snapshot_stored &&
      !job->crashed.load(std::memory_order_relaxed) &&
      (result.status.ok() || job->journal_key))
    options_.checkpoint_store->remove(job->request.checkpoint_key);
  resolve(job, std::move(result));
}

void QuantumService::job_done(const std::shared_ptr<JobState>& job) {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.erase(job->id);
  }
  metrics_.gauge(tenant_metric("qs_tenant_inflight", job->tenant)).add(-1);
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    --inflight_;
    if (inflight_ != 0) return;
  }
  control_cv_.notify_all();
}

std::optional<JobProgress> QuantumService::progress(
    std::uint64_t job_id) const {
  std::shared_ptr<JobState> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second.lock();
  }
  if (!job) return std::nullopt;
  JobProgress p;
  p.job_id = job_id;
  std::lock_guard<std::mutex> lock(job->merge_mutex);
  if (job->assembled) return std::nullopt;  // terminal: see the result
  p.seq = job->progress_seq.load(std::memory_order_relaxed);
  p.shards_total = job->shards;
  for (char d : job->shard_done) p.shards_done += d ? 1 : 0;
  p.partial = job->merged;
  return p;
}

void QuantumService::set_tenant_weight(const std::string& tenant,
                                       double weight) {
  queue_.set_weight(tenant, weight);
}

}  // namespace qs::service
