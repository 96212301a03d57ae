// Content-addressed artifact store unifying the stack's memo layers.
//
// The full-stack pipeline (compile -> map -> assemble -> evolve) is a
// chain of pure functions of fingerprinted inputs, so every intermediate
// product is a *derivation* in the Nix-store sense: addressed by a hash
// of what produced it, never by where or when it was produced. This store
// gives all of them one mechanism and one API:
//
//   store.get_or_compute(key, codec, derive)
//
// with two tiers underneath:
//   * a byte-budgeted in-memory LRU (shared across artifact kinds — hot
//     compiled programs and final-state distributions compete for one
//     budget instead of three uncoordinated ones), and
//   * an optional on-disk tier (StoreOptions::directory) written
//     tmp+rename so a crash can never leave a torn entry, and *verified*
//     on load: magic, kind, key id, payload length and a checksum all
//     have to match, then the typed codec has to accept the payload.
//     Anything else is counted corrupt, deleted, and treated as a miss —
//     the deriver recomputes and the entry is rewritten. Corruption can
//     cost time, never correctness.
//
// The disk tier is what turns restarts warm: a fresh process pointed at
// the same directory revives compiled programs and final distributions
// instead of redoing the work, and several worker processes can share one
// directory (distinct tmp names + atomic rename make concurrent writers
// last-wins safe; content-addressing makes "last" and "first" the same
// bytes anyway).
//
// Locking: the mutex guards the memory tier and the stats. Disk I/O,
// encoding, decoding and derivation all run unlocked, so a slow disk or
// an expensive deriver never blocks other keys. Two threads deriving the
// same key concurrently is benign duplicated work, not corruption.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace qs::store {

/// What a stored artifact is. The kind is part of the key identity and of
/// the on-disk header, so two derivation stages can never alias — and the
/// per-kind stats let typed views report their own hit rates.
enum class ArtifactKind : std::uint8_t {
  kCompiled = 1,    ///< compiled program + eQASM + analysis (service cache)
  kFinalState = 2,  ///< final-state distribution (sampling fast path)
  kCheckpoint = 3,  ///< job checkpoint snapshot (crash-safe resume)
};

inline constexpr std::size_t kArtifactKindCount = 4;  ///< 1-based index max

const char* to_string(ArtifactKind kind);

/// Content address of one artifact: the kind plus a fingerprint of every
/// input of its derivation (program text, platform, compile options,
/// qubit model, ... — the same fingerprints the per-process caches used).
/// Checkpoints are name-addressed (client-chosen resume key), so the name
/// participates in the identity too.
struct ArtifactKey {
  ArtifactKind kind = ArtifactKind::kCompiled;
  std::uint64_t fingerprint = 0;
  std::string name;  ///< checkpoint keys only; "" for content-addressed kinds

  /// Stable 64-bit identity: kind + fingerprint (+ name hash). This is
  /// what the memory index and the on-disk header bind to.
  std::uint64_t id() const;

  /// Deterministic, filesystem-safe file name under the store directory.
  std::string filename() const;

  static ArtifactKey compiled(std::uint64_t fingerprint);
  static ArtifactKey final_state(std::uint64_t fingerprint);
  static ArtifactKey checkpoint(const std::string& name);
};

/// Which tier served a get (kNone = full miss).
enum class Tier : std::uint8_t { kNone = 0, kMemory = 1, kDisk = 2 };

const char* to_string(Tier tier);

/// Counters for one tier, exported as
/// qs_store_{hits,misses,evictions,oversized}_total{tier="..."}.
struct TierStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< memory tier only
  std::uint64_t oversized = 0;  ///< entries larger than the whole budget
};

/// Aggregate store observability (per kind or whole-store).
struct StoreStats {
  TierStats memory;
  TierStats disk;
  std::uint64_t corrupt = 0;         ///< verified loads rejected
  std::uint64_t writes = 0;          ///< disk entries written
  std::uint64_t write_failures = 0;  ///< disk writes that failed
  std::uint64_t degraded_skips = 0;  ///< writes skipped while degraded
  std::uint64_t degradations = 0;    ///< times the disk tier degraded
};

/// What one store operation did — the caller maps this onto metrics.
struct Outcome {
  Tier tier = Tier::kNone;  ///< where the value came from (get paths)
  bool memory_checked = false;
  bool memory_missed = false;
  bool disk_checked = false;
  bool disk_missed = false;
  bool corrupt = false;   ///< a disk entry was rejected on verified load
  bool derived = false;   ///< get_or_compute ran the deriver
  std::size_t evicted = 0;  ///< memory entries evicted by an insert
  bool oversized = false;   ///< value skipped the memory tier (budget)
  bool wrote_disk = false;
  bool disk_write_failed = false;
  bool disk_degraded = false;  ///< write skipped: disk tier is degraded
};

struct StoreOptions {
  /// Byte budget of the in-memory LRU tier, shared across artifact kinds.
  std::size_t memory_budget_bytes = 256ull << 20;
  /// On-disk tier root; "" disables the disk tier (memory-only store).
  /// Created if missing.
  std::string directory;
  /// Crash-durable writes: fsync the tmp file before rename and the parent
  /// directory after it. tmp+rename alone survives a process crash but not
  /// a power loss. Tests and benches that churn thousands of entries can
  /// turn this off.
  bool sync_writes = true;
  /// After this many *consecutive* disk write failures (ENOSPC, read-only
  /// remount, dead disk) the disk tier degrades to memory-only: writes are
  /// skipped (counted degraded_skips) instead of re-failing forever. 0
  /// disables degradation.
  std::size_t degrade_after_failures = 5;
  /// While degraded, one write per cooldown window is let through as a
  /// re-probe; a success restores the disk tier.
  std::chrono::milliseconds degrade_cooldown{2000};
};

/// How a typed artifact crosses the memory/disk boundary. `encode` must be
/// deterministic and `decode(encode(v))` value-exact — for doubles that
/// means raw bit patterns (Encoder::f64), never decimal formatting. decode
/// returns null to reject a payload (counted corrupt; the entry is
/// deleted and recomputed).
template <typename T>
struct Codec {
  std::function<std::string(const T&)> encode;
  std::function<std::shared_ptr<const T>(const std::string&)> decode;
  /// Approximate resident size, charged against the memory budget.
  std::function<std::size_t(const T&)> resident_bytes;
};

/// The two-tier content-addressed store. Thread-safe.
class ArtifactStore {
 public:
  explicit ArtifactStore(StoreOptions options = {});

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  bool disk_enabled() const { return !options_.directory.empty(); }
  const StoreOptions& options() const { return options_; }

  /// True while the disk tier has degraded to memory-only after repeated
  /// write failures (service exports this as the qs_store_disk_degraded
  /// gauge). Reads still go to disk; writes are skipped until a cooldown
  /// re-probe succeeds.
  bool disk_degraded() const;

  /// The on-disk path a key maps to (for tests / operators).
  std::string path_for(const ArtifactKey& key) const;

  /// Memory tier first, then a verified disk load (which repopulates the
  /// memory tier). Returns null on a full miss.
  template <typename T>
  std::shared_ptr<const T> get(const ArtifactKey& key, const Codec<T>& codec,
                               Outcome* outcome = nullptr) {
    auto erased = get_erased(
        key,
        [&codec](const std::string& payload,
                 std::size_t* cost) -> std::shared_ptr<const void> {
          auto value = codec.decode(payload);
          if (value) *cost = codec.resident_bytes(*value);
          return value;
        },
        /*use_memory=*/true, outcome);
    return std::static_pointer_cast<const T>(erased);
  }

  /// Inserts into the memory tier and (when enabled) writes the disk
  /// entry atomically. Null values are ignored.
  template <typename T>
  void put(const ArtifactKey& key, std::shared_ptr<const T> value,
           const Codec<T>& codec, Outcome* outcome = nullptr) {
    if (!value) return;
    const std::size_t cost = codec.resident_bytes(*value);
    std::string bytes;
    const std::string* disk_bytes = nullptr;
    if (disk_enabled()) {
      bytes = codec.encode(*value);
      disk_bytes = &bytes;
    }
    put_erased(key, std::move(value), cost, disk_bytes, /*to_memory=*/true,
               outcome);
  }

  /// The one API the pipeline memoises through: returns the stored value
  /// or runs `derive`, stores the result in both tiers and returns it.
  /// `outcome` reports the union of the get and the put.
  template <typename T>
  std::shared_ptr<const T> get_or_compute(
      const ArtifactKey& key, const Codec<T>& codec,
      const std::function<std::shared_ptr<const T>()>& derive,
      Outcome* outcome = nullptr) {
    Outcome local;
    Outcome* o = outcome ? outcome : &local;
    if (auto value = get(key, codec, o)) return value;
    auto value = derive();
    o->derived = true;
    if (value) {
      Outcome put_outcome;
      put(key, value, codec, &put_outcome);
      o->evicted += put_outcome.evicted;
      o->oversized |= put_outcome.oversized;
      o->wrote_disk |= put_outcome.wrote_disk;
      o->disk_write_failed |= put_outcome.disk_write_failed;
    }
    return value;
  }

  // ---- Raw-bytes API (checkpoints and other name-addressed blobs) -------

  /// Stores an opaque payload. With `use_memory` false the memory tier is
  /// bypassed entirely — checkpoint semantics, where a later load must
  /// observe the durable bytes (torn-write detection), not a cached copy.
  /// Returns false when the durable write failed.
  bool put_bytes(const ArtifactKey& key, std::string_view bytes,
                 bool use_memory = true, Outcome* outcome = nullptr);

  /// Verified load of an opaque payload; nullopt on miss or corruption.
  std::optional<std::string> get_bytes(const ArtifactKey& key,
                                       bool use_memory = true,
                                       Outcome* outcome = nullptr);

  /// Drops the entry from both tiers.
  void remove(const ArtifactKey& key);

  /// Drops every memory-tier entry (stats survive). Simulates a process
  /// restart: the next get of a disk-backed key must take the verified
  /// disk path. Tests and the differential fuzzer use this to prove disk
  /// revival is byte-identical.
  void clear_memory();

  // ---- Observability ----------------------------------------------------

  /// Whole-store counters, or one artifact kind's slice.
  StoreStats stats() const;
  StoreStats stats(ArtifactKind kind) const;

  std::size_t memory_entries() const;
  std::size_t memory_entries(ArtifactKind kind) const;
  std::size_t memory_bytes() const;

 private:
  /// Decodes a verified payload into a typed value and reports its
  /// memory-budget cost. Returning null rejects the payload as corrupt.
  using ErasedDecode = std::function<std::shared_ptr<const void>(
      const std::string& payload, std::size_t* cost)>;

  struct Entry {
    std::uint64_t id = 0;
    ArtifactKind kind = ArtifactKind::kCompiled;
    std::shared_ptr<const void> value;
    std::size_t cost = 0;
  };

  std::shared_ptr<const void> get_erased(const ArtifactKey& key,
                                         const ErasedDecode& decode,
                                         bool use_memory, Outcome* outcome);
  void put_erased(const ArtifactKey& key, std::shared_ptr<const void> value,
                  std::size_t cost, const std::string* disk_bytes,
                  bool to_memory, Outcome* outcome);

  /// Reads and verifies the disk entry for `key`. nullopt on absence
  /// (disk miss) or on any verification failure (counted corrupt, file
  /// deleted). Called unlocked; updates stats internally.
  std::optional<std::string> read_disk(const ArtifactKey& key,
                                       Outcome* outcome);
  /// tmp+rename atomic write. Called unlocked; updates stats internally.
  bool write_disk(const ArtifactKey& key, std::string_view payload,
                  Outcome* outcome);

  void insert_memory_locked(const ArtifactKey& key,
                            std::shared_ptr<const void> value,
                            std::size_t cost, Outcome* outcome);

  struct KindStats {
    TierStats memory;
    TierStats disk;
    std::uint64_t corrupt = 0;
    std::uint64_t writes = 0;
    std::uint64_t write_failures = 0;
    std::uint64_t degraded_skips = 0;
    std::uint64_t degradations = 0;
  };

  /// Degradation state machine, called under mutex_ around each disk
  /// write. should_attempt_write_locked returns false while degraded and
  /// inside the cooldown window (the write is skipped); once per window it
  /// returns true as a re-probe.
  bool should_attempt_write_locked();
  void note_write_result_locked(ArtifactKind kind, bool ok);

  KindStats& stats_for(ArtifactKind kind) {
    return kind_stats_[static_cast<std::size_t>(kind) % kArtifactKindCount];
  }

  const StoreOptions options_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  KindStats kind_stats_[kArtifactKindCount];
  std::uint64_t tmp_counter_ = 0;  ///< unique tmp-file suffixes

  // Disk-fault degradation (guarded by mutex_).
  std::size_t consecutive_write_failures_ = 0;
  bool degraded_ = false;
  std::chrono::steady_clock::time_point next_probe_at_{};
};

}  // namespace qs::store
