// Final-state distributions as a typed view over the ArtifactStore, for
// the sampling fast path. A repeated RunRequest for the same circuit —
// the common case the compile cache's ~92% hit rate demonstrates — skips
// even the single evolution and goes straight to binary-search sampling;
// with a disk-backed store it skips it across process restarts too.
// Shards of one job share the entry by shared_ptr. Keyed by the
// compiled-program cache key (cQASM text + platform + compile options)
// combined with a fingerprint of the qubit model and the kernel flavour,
// so a config change can never serve a stale distribution. Seed and
// thread count are deliberately NOT part of the key: the distribution of
// a shot-deterministic circuit is seed-independent, and the kernel
// layer's bit-identity contract makes it thread-count-independent.
//
// Entries are O(2^n) doubles, persisted as raw IEEE-754 bit patterns
// (common/codec.h): a store-loaded distribution is bit-identical to the
// freshly-evolved one, so the sampled histogram cannot depend on whether
// the bytes came from memory, disk, or an evolution.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/error_model.h"
#include "sim/trajectory_analysis.h"
#include "store/artifact_store.h"

namespace qs::service {

/// Key for a final distribution: the compiled-program cache key combined
/// with the qubit-model parameters and the engine-config tier that
/// produced the amplitudes — the kernel flavour, the amplitude precision
/// and whether gate-sequence fusion ran. Each changes the evolved
/// doubles, so each is part of the key; SIMD-vs-scalar and thread count
/// are NOT (the kernel layer keeps them bit-identical).
std::uint64_t final_state_key(std::uint64_t compiled_key,
                              const sim::QubitModel& model,
                              bool fused_kernels,
                              Precision precision = Precision::kF64,
                              bool fused_sequences = false);

/// The final-distribution store codec (exposed for tests). Raw-bit
/// payload: metadata as u64s, amplitudes' prefix sums as IEEE-754 bit
/// patterns. Never decimal formatting — the bit-identity regression test
/// (store-loaded vs freshly-evolved) holds exactly because of this.
store::Codec<sim::FinalDistribution> final_distribution_codec();

/// Typed view over the ArtifactStore for final-state distributions.
/// Thread-safe (the store is).
class FinalStateCache {
 public:
  /// Standalone view over a private memory-only store (unit tests,
  /// embedded use).
  explicit FinalStateCache(std::size_t capacity_bytes = 128ull << 20);

  /// View over a shared store.
  explicit FinalStateCache(std::shared_ptr<store::ArtifactStore> store);

  /// Memory tier, then verified disk load; nullptr on full miss.
  std::shared_ptr<const sim::FinalDistribution> lookup(
      std::uint64_t key, store::Outcome* outcome = nullptr);

  /// Inserts into the memory tier (evicting least-recently-used entries
  /// until the byte budget holds) and persists to the disk tier; returns
  /// how many memory entries were evicted. An entry larger than the
  /// whole memory budget is not held in memory at all (callers keep
  /// their shared_ptr — the job still samples; with a disk tier the
  /// entry is still persisted there).
  std::size_t insert(std::uint64_t key,
                     std::shared_ptr<const sim::FinalDistribution> dist,
                     store::Outcome* outcome = nullptr);

  std::size_t size() const;
  std::size_t bytes() const;  ///< memory tier, all kinds (shared budget)
  std::size_t capacity_bytes() const {
    return store_->options().memory_budget_bytes;
  }

  std::uint64_t hits() const;    ///< memory + disk hits
  std::uint64_t misses() const;  ///< full misses (deepest tier missed)
  std::uint64_t evictions() const;
  /// Entries that skipped the memory tier because a single distribution
  /// exceeded the whole byte budget (counted, with the compiled programs
  /// that did not fit either, in qs_store_oversized_total{tier="memory"}).
  std::uint64_t oversized() const;

  void clear();  ///< drops the store's memory tier (all kinds)

  const store::ArtifactStore& store() const { return *store_; }

 private:
  store::StoreStats stats() const {
    return store_->stats(store::ArtifactKind::kFinalState);
  }

  std::shared_ptr<store::ArtifactStore> store_;
  store::Codec<sim::FinalDistribution> codec_;
};

}  // namespace qs::service
