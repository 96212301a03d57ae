// Crash-safe checkpoint/resume for long jobs. Once a job's unsaved shard
// work outweighs a save many times over, and once more when it fails, the
// service snapshots the job's merged partial histogram plus the shard
// cursor (which shard indices are done); a failed job or a full service
// restart can then resume from the snapshot and re-run only the unsaved
// shards. Because shard seeds are a pure function of
// (job seed, shard index) and histogram merging is commutative, a resumed
// job's final histogram is byte-identical to an uninterrupted run.
//
// A checkpoint is only trusted when its fingerprint — a stable hash of the
// job payload, seed, shot count and shard size — matches the resubmitted
// request; anything else (changed program, different shard plan) starts
// fresh rather than merging incompatible partials.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "store/artifact_store.h"

namespace qs::service {

/// Snapshot of a partially-completed job: which shards finished and what
/// they merged to. The anneal best-of-N reduction state rides along so
/// annealing jobs resume their tie-break-deterministic best solution too.
struct JobCheckpoint {
  std::uint64_t fingerprint = 0;  ///< request/shard-plan hash, must match
  std::size_t shards = 0;         ///< total shards in the plan
  std::vector<char> shard_done;   ///< size == shards; 1 = merged
  Histogram merged;               ///< union of the completed shards

  // Annealing best-of-N state (ignored for gate jobs).
  bool has_best = false;
  double best_energy = 0.0;
  std::uint64_t best_read = 0;
  std::vector<int> best_solution;

  std::size_t completed() const;

  /// Binary form in the shared codec (common/codec.h), fixed-width
  /// little-endian so it is stable across platforms:
  ///   fingerprint u64, shards u32, done count u32, done index u32...,
  ///   has_best u8 [best_energy f64, best_read u64, best bits str of
  ///   '0'/'1'], merged histogram (as on the gateway wire).
  std::string serialize() const;

  /// Inverse of serialize(). kInvalidArgument on truncation, a shard
  /// count above kMaxShards, a done index >= shards, non-binary best
  /// bits, a zero histogram count or trailing bytes — a torn or
  /// hand-edited snapshot is refused, never half-applied.
  static StatusOr<JobCheckpoint> deserialize(std::string_view bytes);
};

/// Checkpoints as ArtifactStore entries: the snapshot bytes ride the
/// store's verified on-disk layout (tmp+rename atomicity, magic + length
/// + checksum on load), making the checkpoint store one more artifact
/// kind rather than its own persistence mechanism. When the store has a
/// disk tier, saves and loads bypass the memory tier so every load
/// observes the durable bytes (torn-write detection stays honest); on a
/// memory-only store snapshots live in the shared LRU tier instead
/// (process-local resume; eviction just means a resume starts fresh).
/// Safe to call from concurrent shard workers: the service serialises
/// saves per job, and different jobs checkpoint in parallel.
class StoreCheckpointStore {
 public:
  /// Throws std::invalid_argument on a null store (wiring bug).
  explicit StoreCheckpointStore(std::shared_ptr<store::ArtifactStore> store);

  Status save(const std::string& key, const JobCheckpoint& cp);
  std::optional<JobCheckpoint> load(const std::string& key);
  void remove(const std::string& key);

  const store::ArtifactStore& store() const { return *store_; }

 private:
  bool use_memory_tier() const { return !store_->disk_enabled(); }

  std::shared_ptr<store::ArtifactStore> store_;
};

}  // namespace qs::service
