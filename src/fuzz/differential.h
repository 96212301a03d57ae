// Differential executor for the determinism fuzzer: runs one program
// through a lattice of execution configurations — scalar vs fused kernels,
// kernel thread counts, sampling vs per-shot trajectories, service worker
// counts, retry / failover fault injections, checkpoint-resume, repeat
// submission (final-state-cache hit) and a gateway TCP round trip — and
// compares each histogram byte-for-byte against the reference of its
// equivalence class.
//
// Equivalence classes follow the stack's documented determinism contract
// (docs/simulator.md, docs/service.md, docs/testing.md):
//   * direct trajectory runs: one class across {threads} x {fused} x
//     {SIMD backend} — the SIMD f64 kernels are bit-identical to the
//     scalar f64 kernels by construction, so simd-f64 joins the f64
//     class rather than forming its own;
//   * direct sampled runs (eligible circuits): a second class across the
//     same axes — the sampled and trajectory paths are each deterministic
//     but differ from each other by design;
//   * raw (unfused) trajectory runs: one class across register embeddings
//     — the compiled program relabelled onto scattered, order-preserving
//     qubits of a wider register, keys projected back, must reproduce the
//     narrow run byte for byte (the live-register compaction contract);
//   * f32 runs: their own classes (per sampling mode) — internally
//     byte-identical across {threads} x {fused} x {SIMD backend}, and
//     additionally chi-square-checked against the f64 reference
//     histogram (the tiers agree statistically, never byte-wise);
//   * service runs at fixed shard size: one class per sampling mode across
//     worker counts, fault histories, checkpoint-resume, cache hits and
//     the gateway wire, because shard seeds depend only on (job seed,
//     shard index).
// Anything that breaks a class is a bug, and the harness reports it as a
// Divergence carrying everything needed to reproduce: generator seed,
// shots, run seed, the two config names and both histograms.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "qasm/program.h"
#include "sim/simulator.h"

namespace qs::fuzz {

/// One configuration a program can execute under.
struct ExecConfig {
  std::string name;  ///< stable human-readable id, e.g. "svc/w4/sampled"

  enum class Level {
    kSim,      ///< GateAccelerator::run_compiled on a fresh Simulator
    kService,  ///< QuantumService submit/wait
    kGateway,  ///< cQASM text over the TCP gateway into a service
  };
  Level level = Level::kSim;

  // --- kSim knobs --------------------------------------------------------
  bool fused = false;
  std::size_t threads = 1;
  bool sampling = false;
  /// Precision tier. kF32 configs form their own equivalence classes:
  /// byte-identity is asserted within the tier, statistical agreement
  /// (chi-square) against the f64 reference.
  Precision precision = Precision::kF64;
  /// kOff forces the scalar kernel backend; the per-tier contract says the
  /// histogram must not change (simd-f64 == scalar-f64 bit-exactly, and
  /// likewise within f32).
  SimdMode simd = SimdMode::kAuto;
  /// Lowered so even the fuzzer's small registers exercise the parallel
  /// kernel partitioning (production default engages at 14 qubits).
  std::size_t min_parallel_qubits = 2;
  /// Gate-sequence fusion (SimOptions::fuse_sequences). Off runs the raw
  /// instruction stream, the route live-register compaction serves.
  bool fuse_sequences = true;
  /// Embedding axis: when non-zero, the compiled program runs relabelled
  /// onto scattered, order-preserving qubits (below the compaction
  /// guard's 16-qubit chunk boundary) of a register this wide, and each
  /// key is projected back onto the narrow register.
  std::size_t embed_width = 0;

  // --- kService / kGateway knobs -----------------------------------------
  /// Index into the harness's pre-built service set (see harness docs).
  int service = -1;
  /// Inject a transient failure on shard 0 (exercises the retry path).
  bool retry_fault = false;
  /// Inject a crash-looping backend (exercises failover; the service must
  /// have a multi-backend pool).
  bool crash_fault = false;
  /// Run the job twice: first with a fault that kills it after a partial
  /// merge, then resubmitted on the same checkpoint key (exercises
  /// checkpoint-resume; the service must have a checkpoint store).
  bool resume = false;
  /// Submit the same request twice and keep the second result (exercises
  /// compile-cache and final-state-cache hits).
  bool resubmit = false;
  /// Run against the disk-backed store service: warm submit, drop the
  /// store's memory tier, submit again and keep the second result — the
  /// kept histogram was produced from artifacts revived off disk
  /// (exercises the store's serialize/verify/revive round trip).
  bool store_reload = false;
  /// Crash-durability: submit the keyed request to a fresh journal-enabled
  /// service that simulates dying at a FaultPlan crash point (admit /
  /// dispatch / mid-shard / pre-complete, cycled by run_seed), destroy it,
  /// construct a second service over the same store_dir and resubmit the
  /// same idempotency key. Journal replay + checkpoint resume must
  /// reproduce the class reference byte-for-byte, exactly once.
  bool kill_restart = false;
};

/// A determinism violation: two configurations of the same equivalence
/// class produced different histograms (or a config failed outright).
struct Divergence {
  std::uint64_t generator_seed = 0;  ///< 0 when the program was hand-built
  std::size_t shots = 0;
  std::uint64_t run_seed = 0;
  ExecConfig reference;  ///< reference config
  ExecConfig variant;    ///< diverging config
  Histogram reference_histogram;
  Histogram variant_histogram;
  std::string detail;     ///< first differing key / failure status
  qasm::Program program;  ///< the (possibly shrunk) failing program

  /// Full printable repro: seed, configs, first differing key and the
  /// cQASM text — everything needed to turn the failure into a one-line
  /// regression test.
  std::string to_string() const;
};

/// First differing histogram entry, or "" when byte-identical.
std::string first_histogram_diff(const Histogram& ref, const Histogram& got);

/// Owns the lattice's executors: a compile authority, a set of
/// QuantumService instances with differing worker counts / sampling modes
/// / fault machinery, and a live gateway. Building one is expensive
/// (threads, sockets) — construct once and reuse across thousands of
/// programs; every run is still deterministic because results never depend
/// on executor history (that independence is itself part of the contract
/// under test: caches warmed by earlier programs must not change later
/// histograms).
class DifferentialHarness {
 public:
  struct Options {
    std::size_t platform_qubits = 6;  ///< >= generator max_qubits
    /// Service shard size. Part of the reproducibility contract: every
    /// service in the harness uses the same value, so their histograms
    /// are mutually comparable.
    std::size_t shard_shots = 64;
    bool with_service = true;
    bool with_gateway = true;
  };

  DifferentialHarness();  // default Options
  explicit DifferentialHarness(Options options);
  ~DifferentialHarness();

  DifferentialHarness(const DifferentialHarness&) = delete;
  DifferentialHarness& operator=(const DifferentialHarness&) = delete;

  /// The full config lattice for `program`, grouped into equivalence
  /// classes; first config of each class is its reference.
  std::vector<std::vector<ExecConfig>> lattice(
      const qasm::Program& program) const;

  /// Runs the program under every lattice config and returns all
  /// divergences found (empty = clean). `generator_seed` only labels the
  /// report.
  std::vector<Divergence> check(const qasm::Program& program,
                                std::size_t shots, std::uint64_t run_seed,
                                std::uint64_t generator_seed = 0);

  /// Executes one config. Returns the histogram; a non-OK execution
  /// reports through `error` (histogram empty).
  Histogram run_config(const ExecConfig& config, const qasm::Program& program,
                       std::size_t shots, std::uint64_t run_seed,
                       std::string* error);

  /// True when the program takes the sampling fast path on this harness's
  /// platform (perfect qubit model). Judged on the *compiled* program —
  /// the artifact every executor actually analyzes. The distinction is
  /// real: the scheduler may hoist a commuting gate past a mid-circuit
  /// measure, and the optimiser may cancel gate pairs inside iterated
  /// circuits, so a source-ineligible program can be compiled-eligible
  /// (found by this fuzzer; see FuzzRegression tests).
  bool samplable(const qasm::Program& program) const;

  /// Greedily shrinks the divergence's program while the same config pair
  /// keeps diverging: deletes instruction chunks, collapses iteration
  /// counts, drops empty circuits and trims unused qubits. Returns the
  /// minimal reproducing Divergence (fresh histograms included).
  Divergence minimize(const Divergence& divergence);

  const Options& options() const { return options_; }

 private:
  struct Impl;
  Options options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qs::fuzz
