// E11 — Execution-service throughput: jobs/sec and shots/sec vs. worker
// count on a fixed kernel mix, cache-on vs. cache-off, plus overload
// shedding (try_submit rejection rate against a full queue).
//
// The paper's host/accelerator split (Figures 1/3/8) says nothing about
// serving: this bench measures the layer that batches, schedules, caches
// and shards accelerator work. Expectations: shots/sec scales with worker
// count up to the machine's core count (shards are embarrassingly
// parallel); the compiled-program cache pushes hit rate > 90% on a
// repeated kernel mix and removes the compile from the critical path; and
// the merged histogram for a fixed seed is identical at every pool size.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compiler/algorithms.h"
#include "compiler/kernel.h"
#include "service/service.h"

namespace {

using namespace qs;

qasm::Program ghz_kernel(std::size_t n) {
  compiler::Program p("ghz" + std::to_string(n), n);
  p.add_kernel("main").ghz(n).measure_all();
  return p.to_qasm();
}

struct ConfigResult {
  std::size_t workers = 0;
  bool cache = false;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  double shots_per_sec = 0.0;
  double hit_rate = 0.0;
  std::map<std::string, std::size_t> first_histogram;
};

ConfigResult run_config(const std::vector<qasm::Program>& kernels,
                        std::size_t workers, bool cache_enabled,
                        std::size_t jobs, std::size_t shots) {
  service::ServiceOptions opts;
  opts.workers = workers;
  opts.queue_capacity = jobs + 1;
  opts.shard_shots = 128;  // fixed: shard seeds must not depend on workers
  opts.cache_enabled = cache_enabled;

  service::QuantumService svc(
      runtime::GateAccelerator(compiler::Platform::perfect(12)), opts);

  std::vector<service::JobHandle> handles;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < jobs; ++j) {
    // Fixed mix and fixed per-job seeds: every configuration runs the
    // byte-identical workload.
    handles.push_back(svc.submit(service::RunRequest::gate(
        kernels[j % kernels.size()], shots, /*seed=*/j + 1)));
  }
  ConfigResult r;
  for (std::size_t j = 0; j < handles.size(); ++j) {
    const service::RunResult rr = handles[j].get();
    if (!rr.ok())
      std::printf("  !! job %zu failed: %s\n", j, rr.status.to_string().c_str());
    if (j == 0) r.first_histogram = rr.histogram.counts();
  }
  const auto end = std::chrono::steady_clock::now();

  r.workers = workers;
  r.cache = cache_enabled;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.jobs_per_sec = static_cast<double>(jobs) / r.seconds;
  r.shots_per_sec = static_cast<double>(jobs * shots) / r.seconds;
  r.hit_rate = svc.cache().hit_rate();
  return r;
}

/// Intra-shot kernel-thread sweep: fixed workers, per-job sim_threads.
/// Oversubscription clamping is disabled so the requested budget always
/// reaches the kernels; the merged histogram must be identical at every
/// thread count (the kernel layer's bit-identity contract).
ConfigResult run_threads_config(const qasm::Program& kernel,
                                std::size_t workers,
                                std::size_t sim_threads, std::size_t jobs,
                                std::size_t shots) {
  service::ServiceOptions opts;
  opts.workers = workers;
  opts.queue_capacity = jobs + 1;
  opts.shard_shots = 128;
  opts.clamp_sim_threads = false;  // force the requested kernel budget

  service::QuantumService svc(
      runtime::GateAccelerator(compiler::Platform::perfect(16)), opts);

  std::vector<service::JobHandle> handles;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < jobs; ++j) {
    service::RunRequest req =
        service::RunRequest::gate(kernel, shots, /*seed=*/j + 1);
    req.sim_threads = sim_threads;
    handles.push_back(svc.submit(std::move(req)));
  }
  ConfigResult r;
  for (std::size_t j = 0; j < handles.size(); ++j) {
    const service::RunResult rr = handles[j].get();
    if (j == 0) r.first_histogram = rr.histogram.counts();
  }
  const auto end = std::chrono::steady_clock::now();
  r.workers = workers;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.jobs_per_sec = static_cast<double>(jobs) / r.seconds;
  r.shots_per_sec = static_cast<double>(jobs * shots) / r.seconds;
  return r;
}

}  // namespace

int main() {
  bench::banner("E11", "execution service throughput",
                "serving layer for Figs 1/3/8 host-accelerator offload: "
                "shots/sec scales with workers; cache hit rate > 90% on a "
                "repeated kernel mix");

  // Fixed kernel mix: two 12-qubit kernels (GHZ and Bernstein-Vazirani),
  // repeated across jobs so the cache sees each kernel once cold.
  const std::vector<qasm::Program> kernels = {
      ghz_kernel(12),
      compiler::algorithms::bernstein_vazirani(11, 0b10110101101).to_qasm(),
  };
  // 24 jobs over 2 kernels: 2 cold compiles then 22 cache hits (91.7%).
  const std::size_t jobs = 24;
  const std::size_t shots = 384;

  std::printf("\nkernel mix: ghz12, bv11+1 (12 qubits); %zu jobs x %zu "
              "shots, shard_shots=128\n\n",
              jobs, shots);

  bench::Table table({7, 6, 9, 10, 12, 9});
  table.header({"cache", "wrk", "sec", "jobs/s", "shots/s", "hit%"});

  double shots_1w_cached = 0.0;
  double shots_4w_cached = 0.0;
  std::map<std::string, std::size_t> reference;
  bool deterministic = true;

  for (bool cache : {true, false}) {
    for (std::size_t workers : {1u, 2u, 4u, 8u}) {
      const ConfigResult r = run_config(kernels, workers, cache, jobs, shots);
      if (cache && workers == 1) {
        shots_1w_cached = r.shots_per_sec;
        reference = r.first_histogram;
      }
      if (cache && workers == 4) shots_4w_cached = r.shots_per_sec;
      if (r.first_histogram != reference) deterministic = false;
      table.row({cache ? "on" : "off", bench::fmt_int(workers),
                 bench::fmt(r.seconds, 3), bench::fmt(r.jobs_per_sec, 2),
                 bench::fmt(r.shots_per_sec, 1),
                 bench::fmt(100.0 * r.hit_rate, 1)});
    }
  }

  std::printf("\nscaling 4w/1w (cache on): %.2fx  [target >= 2x on a >=4-core "
              "machine; 1.0x expected on a single core]\n",
              shots_4w_cached / shots_1w_cached);
  std::printf("merged histogram identical across all configs: %s\n",
              deterministic ? "yes" : "NO — DETERMINISM BROKEN");

  // ---- Intra-shot kernel threads (per-job sim_threads budget) -----------
  // A single deep 16-qubit kernel so the state-vector kernels are above
  // the parallel threshold. Sweeping sim_threads must change only the
  // wall-clock, never the merged histogram.
  std::printf("\nintra-shot kernel threads (ghz16, workers=2, clamp off):\n\n");
  qasm::Program deep = ghz_kernel(16);
  bench::Table t2({12, 9, 10, 12});
  t2.header({"sim_threads", "sec", "jobs/s", "shots/s"});

  std::map<std::string, std::size_t> t_reference;
  bool t_deterministic = true;
  for (std::size_t sim_threads : {1u, 2u, 4u}) {
    const ConfigResult r =
        run_threads_config(deep, /*workers=*/2, sim_threads, /*jobs=*/6,
                           /*shots=*/256);
    if (sim_threads == 1)
      t_reference = r.first_histogram;
    else if (r.first_histogram != t_reference)
      t_deterministic = false;
    t2.row({bench::fmt_int(sim_threads), bench::fmt(r.seconds, 3),
            bench::fmt(r.jobs_per_sec, 2), bench::fmt(r.shots_per_sec, 1)});
  }
  std::printf("\nhistogram identical across sim_threads: %s\n",
              t_deterministic ? "yes" : "NO — DETERMINISM BROKEN");
  std::printf("(speedup from sim_threads appears on multi-core hosts; the "
              "clamp\n keeps workers x kernel-threads <= cores in "
              "production configs.)\n");

  // ---- Sampling fast path + FinalStateCache (serving view) --------------
  // The same repeated-kernel workload with the terminal-measurement
  // sampling path toggled. On: every job evolves the 16-qubit state at
  // most once, and the FinalStateCache means repeats of the same kernel
  // skip even that — jobs reduce to counter-derived draws. Off: every
  // shard re-runs per-shot trajectories (PR-4-era behaviour). Seeds
  // differ per job, so the cache hits prove the distribution is
  // seed-independent.
  std::printf("\nsampling fast path (ghz16, 12 jobs x 512 shots, workers=2):"
              "\n\n");
  bench::Table t3({10, 9, 12, 10, 10});
  t3.header({"sampling", "sec", "shots/s", "fsc_hit", "fsc_miss"});
  double sampled_sec = 0.0, trajectory_sec = 0.0;
  {
    for (const bool sampling : {true, false}) {
      service::ServiceOptions opts;
      opts.workers = 2;
      opts.queue_capacity = 16;
      opts.shard_shots = 128;
      opts.sampling_enabled = sampling;
      service::QuantumService svc(
          runtime::GateAccelerator(compiler::Platform::perfect(16)), opts);
      std::vector<service::JobHandle> handles;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t j = 0; j < 12; ++j)
        handles.push_back(svc.submit(
            service::RunRequest::gate(deep, 512, /*seed=*/j + 1)));
      for (auto& h : handles) h.get();
      const auto end = std::chrono::steady_clock::now();
      const double sec = std::chrono::duration<double>(end - start).count();
      (sampling ? sampled_sec : trajectory_sec) = sec;
      t3.row({sampling ? "on" : "off", bench::fmt(sec, 3),
              bench::fmt(12.0 * 512.0 / sec, 1),
              bench::fmt_int(svc.final_state_cache().hits()),
              bench::fmt_int(svc.final_state_cache().misses())});
    }
  }
  std::printf("\nserving speedup from sampling + final-state cache: %.1fx\n",
              trajectory_sec / sampled_sec);

  // ---- Warm restart: persistent ArtifactStore across service lifetimes --
  // The same 12-job workload against an on-disk store directory, run by two
  // consecutive service instances (simulating a worker-process restart).
  // The second instance holds no memory-tier state; every compile and
  // final-state evolution must instead revive from the disk tier, so the
  // warm run reduces to verified loads + counter-derived draws.
  std::printf("\nwarm restart (ghz16, 12 jobs x 512 shots, on-disk store):"
              "\n\n");
  bool warm_deterministic = true;
  {
    const auto store_dir =
        std::filesystem::temp_directory_path() / "qs-bench-e11-store";
    std::filesystem::remove_all(store_dir);

    bench::Table t4({10, 9, 12, 10, 10});
    t4.header({"run", "sec", "shots/s", "disk_hit", "compiles"});
    double cold_sec = 0.0, warm_sec = 0.0;
    std::map<std::string, std::size_t> cold_hist, warm_hist;
    for (const bool warm : {false, true}) {
      service::ServiceOptions opts;
      opts.workers = 2;
      opts.queue_capacity = 16;
      opts.shard_shots = 128;
      opts.store_dir = store_dir.string();
      service::QuantumService svc(
          runtime::GateAccelerator(compiler::Platform::perfect(16)), opts);
      std::vector<service::JobHandle> handles;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t j = 0; j < 12; ++j)
        handles.push_back(svc.submit(
            service::RunRequest::gate(deep, 512, /*seed=*/j + 1)));
      for (std::size_t j = 0; j < handles.size(); ++j) {
        const service::RunResult rr = handles[j].get();
        if (j == 0) (warm ? warm_hist : cold_hist) = rr.histogram.counts();
      }
      const auto end = std::chrono::steady_clock::now();
      const double sec = std::chrono::duration<double>(end - start).count();
      (warm ? warm_sec : cold_sec) = sec;
      t4.row({warm ? "warm" : "cold", bench::fmt(sec, 3),
              bench::fmt(12.0 * 512.0 / sec, 1),
              bench::fmt_int(svc.metrics()
                                 .counter("qs_store_hits_total{tier=\"disk\"}")
                                 .value()),
              bench::fmt_int(
                  svc.metrics().counter("qs_cache_misses_total").value())});
    }  // each service dies between runs; only the store directory survives
    std::filesystem::remove_all(store_dir);

    warm_deterministic = (warm_hist == cold_hist);
    std::printf("\nwarm-restart speedup (disk-tier revival, no recompile, "
                "no re-evolve): %.1fx\n",
                cold_sec / warm_sec);
    std::printf("histogram identical cold vs warm restart: %s\n",
                warm_deterministic ? "yes" : "NO — DETERMINISM BROKEN");
  }

  // ---- Journal overhead: WAL + fsync cost on the admit path -------------
  // A trajectory-dominated workload (sampling off, so the accelerator does
  // real per-shot work) through three disk-backed configs: store only
  // (journal off — the PR-7 baseline), journalled with page-cache writes,
  // and journalled with per-record fsync (group commit). A journalled job
  // pays one durable append before its handle returns plus a checkpoint
  // whenever its unsaved shard time outweighs a save twentyfold; overhead
  // is measured against the store-only baseline.
  // Target: < 10% throughput cost with fsync on when the accelerator —
  // not the WAL — dominates.
  std::printf("\njournal overhead (ghz14, 16 jobs x 512 shots, "
              "trajectory path, workers=2):\n\n");
  {
    const qasm::Program wal_kernel = ghz_kernel(14);
    bench::Table t5({16, 9, 10, 12, 10});
    t5.header({"durability", "sec", "jobs/s", "shots/s", "overhead"});
    double baseline_sec = 0.0;
    for (int mode = 0; mode < 3; ++mode) {
      const auto journal_dir =
          std::filesystem::temp_directory_path() / "qs-bench-e11-journal";
      std::filesystem::remove_all(journal_dir);
      service::ServiceOptions opts;
      opts.workers = 2;
      opts.queue_capacity = 32;
      opts.shard_shots = 128;
      opts.sampling_enabled = false;  // accelerator-bound jobs
      opts.store_dir = journal_dir.string();
      opts.journal_enabled = (mode > 0);
      opts.sync_writes = (mode == 2);
      {
        service::QuantumService svc(
            runtime::GateAccelerator(compiler::Platform::perfect(14)), opts);
        std::vector<service::JobHandle> handles;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t j = 0; j < 16; ++j) {
          service::RunRequest req = service::RunRequest::gate(
              wal_kernel, 512, /*seed=*/j + 1);
          req.idempotency_key = "bench-" + std::to_string(j);
          handles.push_back(svc.submit(std::move(req)));
        }
        for (auto& h : handles) h.get();
        const auto end = std::chrono::steady_clock::now();
        const double sec = std::chrono::duration<double>(end - start).count();
        if (mode == 0) baseline_sec = sec;
        const char* label = mode == 0   ? "store only"
                            : mode == 1 ? "journal"
                                        : "journal+fsync";
        t5.row({label, bench::fmt(sec, 3), bench::fmt(16.0 / sec, 2),
                bench::fmt(16.0 * 512.0 / sec, 1),
                mode == 0 ? std::string("--")
                          : bench::fmt(100.0 * (sec / baseline_sec - 1.0), 1) +
                                "%"});
      }
      std::filesystem::remove_all(journal_dir);
    }
    std::printf("\n[target: journal+fsync overhead < 10%% on "
                "accelerator-bound jobs — the WAL is one append per admit, "
                "group-committed]\n");
  }

  // ---- Overload shedding: try_submit burst against a tiny queue ---------
  // An admission-controlled service rejects (kResourceExhausted) instead of
  // buffering without bound. Burst 64 jobs into a capacity-8 queue behind a
  // paused dispatcher and measure the rejection rate; every handle resolves
  // either way, so the client sees a typed status, never a hang.
  std::printf("\noverload burst (queue_capacity=8, dispatcher paused, 64 "
              "try_submit):\n\n");
  {
    service::ServiceOptions opts;
    opts.workers = 2;
    opts.queue_capacity = 8;
    opts.shard_shots = 128;
    opts.start_paused = true;
    service::QuantumService svc(
        runtime::GateAccelerator(compiler::Platform::perfect(12)), opts);

    constexpr std::size_t kBurst = 64;
    std::vector<service::JobHandle> burst;
    for (std::size_t j = 0; j < kBurst; ++j)
      burst.push_back(svc.try_submit(
          service::RunRequest::gate(kernels[j % kernels.size()], shots,
                                    /*seed=*/j + 1)));
    svc.resume();

    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (auto& h : burst) {
      const service::RunResult r = h.get();
      if (r.ok())
        ++accepted;
      else if (r.status.code() == qs::StatusCode::kResourceExhausted)
        ++rejected;
    }
    const double rejection_rate =
        static_cast<double>(rejected) / static_cast<double>(kBurst);
    std::printf("accepted %zu, rejected %zu  ->  rejection rate %.1f%% "
                "[expected ~87.5%%: 8 of 64 admitted]\n",
                accepted, rejected, 100.0 * rejection_rate);
    std::printf("metrics: qs_jobs_rejected_total=%llu "
                "qs_jobs_completed_total=%llu\n",
                static_cast<unsigned long long>(
                    svc.metrics().counter("qs_jobs_rejected_total").value()),
                static_cast<unsigned long long>(
                    svc.metrics().counter("qs_jobs_completed_total").value()));
    if (accepted + rejected != kBurst) {
      std::printf("!! %zu jobs vanished without a terminal status\n",
                  kBurst - accepted - rejected);
      return 1;
    }
  }

  // ---- Degraded mode: supervised pool with one crash-looping backend ----
  // Three equivalent gate backends behind the BackendPool; a FaultPlan
  // marks one of them crash-looping (every shard attempt fails over). The
  // supervised run must produce the byte-identical histogram of the
  // healthy run — failover is output-invisible — while the circuit breaker
  // caps the throughput cost at a few failed attempts before quarantine.
  std::printf("\ndegraded mode (3-backend pool, 1 crash-looping, "
              "workers=4):\n\n");
  bool degraded_deterministic = true;
  {
    const qasm::Program kernel = ghz_kernel(12);
    const std::size_t d_jobs = 12;
    const std::size_t d_shots = 1024;

    auto run_pool = [&](bool inject_crash) {
      service::BackendPoolOptions pool_opts;
      pool_opts.breaker.open_cooldown = std::chrono::microseconds(60'000'000);
      auto pool = std::make_shared<service::BackendPool>(pool_opts);
      for (const char* name : {"b0", "b1", "b2"})
        pool->register_gate(name,
                            std::make_shared<runtime::GateAccelerator>(
                                compiler::Platform::perfect(12)));
      service::ServiceOptions opts;
      opts.workers = 4;
      opts.queue_capacity = d_jobs + 1;
      opts.shard_shots = 128;
      service::QuantumService svc(pool, opts);

      std::shared_ptr<runtime::FaultPlan> plan;
      if (inject_crash) {
        auto p = std::make_shared<runtime::FaultPlan>();
        p->backend_faults = {{"b1", runtime::BackendFaultKind::kCrash}};
        plan = std::move(p);
      }

      std::vector<service::JobHandle> handles;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t j = 0; j < d_jobs; ++j) {
        service::RunRequest req =
            service::RunRequest::gate(kernel, d_shots, /*seed=*/j + 1);
        req.faults = plan;
        handles.push_back(svc.submit(std::move(req)));
      }
      ConfigResult r;
      std::size_t failed = 0;
      for (std::size_t j = 0; j < handles.size(); ++j) {
        const service::RunResult rr = handles[j].get();
        if (!rr.ok()) ++failed;
        if (j == 0) r.first_histogram = rr.histogram.counts();
      }
      const auto end = std::chrono::steady_clock::now();
      r.seconds = std::chrono::duration<double>(end - start).count();
      r.shots_per_sec =
          static_cast<double>(d_jobs * d_shots) / r.seconds;
      const auto failovers =
          svc.metrics().counter("qs_backend_failovers_total").value();
      const char* b1_state =
          service::to_string(svc.backends().breaker_state("b1"));
      std::printf("  %-8s %8.3fs  %10.1f shots/s  failovers=%llu  "
                  "breaker[b1]=%s  failed_jobs=%zu\n",
                  inject_crash ? "faulty" : "healthy", r.seconds,
                  r.shots_per_sec,
                  static_cast<unsigned long long>(failovers), b1_state,
                  failed);
      if (failed != 0) degraded_deterministic = false;
      return r;
    };

    const ConfigResult healthy = run_pool(/*inject_crash=*/false);
    const ConfigResult faulty = run_pool(/*inject_crash=*/true);
    if (faulty.first_histogram != healthy.first_histogram)
      degraded_deterministic = false;
    std::printf("\nthroughput retention under crash-loop: %.1f%%  "
                "[breaker opens after %zu failed attempts, then full "
                "re-route]\n",
                100.0 * faulty.shots_per_sec / healthy.shots_per_sec,
                service::BreakerOptions{}.failure_threshold);
    std::printf("histogram identical healthy vs degraded: %s\n",
                degraded_deterministic ? "yes" : "NO — DETERMINISM BROKEN");
  }

  return (deterministic && t_deterministic && warm_deterministic &&
          degraded_deterministic)
             ? 0
             : 1;
}
