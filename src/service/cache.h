// Compiled-program memoisation as a typed view over the ArtifactStore.
// Repeat submissions of the same kernel — the common case for a serving
// workload (parameter sweeps, shot batches, many clients running the same
// algorithm) — skip the compile and eQASM assembly passes entirely; with
// a disk-backed store they skip them across process restarts too. Keyed
// by a stable content hash of the cQASM text + platform fingerprint +
// compile-option fingerprint, so a config change can never serve a stale
// artefact.
//
// Disk revival round-trips the compiled program through its exact cQASM
// text (the printer guarantees value-exact angles) and the eQASM through
// its textual form, then re-runs validate/flatten/analyze — cheap passes
// whose outputs are pure functions of the program, so a revived entry is
// behaviourally identical to a freshly compiled one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "compiler/compiler.h"
#include "microarch/eqasm.h"
#include "sim/error_model.h"
#include "sim/fusion.h"
#include "sim/trajectory_analysis.h"
#include "store/artifact_store.h"

namespace qs::service {

/// A cached compilation artefact: the scheduled cQASM plus, for the
/// micro-architecture path, the assembled eQASM (so cache hits skip both
/// passes), plus the flattened instruction stream and its
/// shot-determinism verdict (so shards skip flatten()/validate() and the
/// dispatcher knows whether the job may take the sampling fast path
/// without re-walking the program). Immutable once inserted — workers
/// share it by shared_ptr.
struct CompiledEntry {
  std::uint64_t key = 0;  ///< compiled_program_key this entry was cached under
  compiler::CompileResult compiled;
  std::shared_ptr<const microarch::EqProgram> eqasm;  ///< null on Direct path
  std::vector<qasm::Instruction> flat;  ///< compiled.program, flattened
  sim::TrajectoryAnalysis analysis;     ///< verdict for the platform's model
  /// Gate-sequence fusion of `flat` (sim/fusion.h); null when the
  /// platform's qubit model is stochastic (fusion is invalid there).
  /// Like `flat` and `analysis` it is a cheap pure function of the
  /// program, so disk revival recomputes it — warm restarts revive fused
  /// programs without a blob-format change.
  std::shared_ptr<const sim::FusedProgram> fused;
};

/// Builds `entry.fused` for a freshly compiled or revived entry: the
/// fusion pass over `entry.flat` with the sampling-prefix boundary, or
/// null under a stochastic qubit model.
void fuse_compiled_entry(CompiledEntry& entry, const sim::QubitModel& model);

/// Computes the cache key for a program against a platform/options pair.
std::uint64_t compiled_program_key(const std::string& cqasm_text,
                                   std::uint64_t platform_fingerprint,
                                   std::uint64_t options_fingerprint);

/// Approximate resident size of an entry, charged against the store's
/// memory budget.
std::size_t compiled_entry_bytes(const CompiledEntry& entry);

/// Typed view over the ArtifactStore for compiled programs. Thread-safe
/// (the store is). Several views may share one store — that is exactly
/// how a service and a sibling worker process share artifacts.
class CompiledProgramCache {
 public:
  /// Everything a disk-revived entry needs that is not in the payload:
  /// the platform the analysis runs against, and whether the pool needs
  /// the eQASM form (a payload without it is then rejected → recompile).
  struct ReviveContext {
    std::size_t qubit_count = 0;
    sim::QubitModel model = sim::QubitModel::perfect();
    bool want_eqasm = false;
  };

  /// Standalone view over a private memory-only store (unit tests,
  /// embedded use).
  explicit CompiledProgramCache(std::size_t memory_budget_bytes = 64ull
                                                                  << 20);

  /// View over a shared store.
  CompiledProgramCache(std::shared_ptr<store::ArtifactStore> store,
                       ReviveContext revive);

  /// Memory tier, then verified disk load (revive); nullptr on full miss.
  std::shared_ptr<const CompiledEntry> lookup(
      std::uint64_t key, store::Outcome* outcome = nullptr);

  /// Inserts into the memory tier and persists to the disk tier.
  void insert(std::uint64_t key, std::shared_ptr<const CompiledEntry> entry,
              store::Outcome* outcome = nullptr);

  std::size_t size() const;

  std::uint64_t hits() const;    ///< memory + disk hits
  std::uint64_t misses() const;  ///< full misses (deepest tier missed)
  std::uint64_t evictions() const;
  std::uint64_t oversized() const;
  /// hits / (hits + misses); 0 when no lookups have happened.
  double hit_rate() const;

  void clear();  ///< drops the store's memory tier (all kinds)

  const store::ArtifactStore& store() const { return *store_; }
  const std::shared_ptr<store::ArtifactStore>& store_ptr() const {
    return store_;
  }

 private:
  store::StoreStats stats() const {
    return store_->stats(store::ArtifactKind::kCompiled);
  }

  std::shared_ptr<store::ArtifactStore> store_;
  store::Codec<CompiledEntry> codec_;
};

/// The compiled-entry store codec for one revive context (exposed for
/// tests). The payload carries the artefact's *textual* forms —
/// exact-round-trip cQASM and eQASM — plus the headline gate counts; the
/// flatten and the trajectory analysis are cheap pure functions of the
/// program and are recomputed on revival (per-pass compiler stats are not
/// persisted and revive as zeros).
store::Codec<CompiledEntry> compiled_entry_codec(
    CompiledProgramCache::ReviveContext revive);

}  // namespace qs::service
