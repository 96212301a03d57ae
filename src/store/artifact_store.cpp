#include "store/artifact_store.h"

#include <cctype>
#include <cstdio>
#include <filesystem>

#include "common/codec.h"
#include "common/hash.h"
#include "store/durable.h"

namespace qs::store {

namespace {

/// On-disk entry: magic, kind u8, key id u64, payload length u64,
/// checksum u64, then the payload (common/codec.h). Everything before the
/// payload is fixed-width so a truncated file is detectable from the
/// length field alone; the checksum catches bit flips inside the payload.
/// "2" marks the shared codec: entries written before it are rejected at
/// the magic and recomputed.
constexpr std::string_view kMagic("QSARTIF2", 8);

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const char* to_string(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kCompiled:
      return "compiled";
    case ArtifactKind::kFinalState:
      return "final-state";
    case ArtifactKind::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

const char* to_string(Tier tier) {
  switch (tier) {
    case Tier::kNone:
      return "none";
    case Tier::kMemory:
      return "memory";
    case Tier::kDisk:
      return "disk";
  }
  return "unknown";
}

std::uint64_t ArtifactKey::id() const {
  std::uint64_t h = hash_combine(static_cast<std::uint64_t>(kind) + 0x9e37,
                                 fingerprint);
  if (!name.empty()) h = hash_combine(h, fnv1a64(name));
  return h;
}

std::string ArtifactKey::filename() const {
  std::string out = to_string(kind);
  if (!name.empty()) {
    // Keep [A-Za-z0-9._-] verbatim for operator readability; the id hash
    // keeps sanitised names collision-free.
    out += '-';
    for (char c : name)
      out += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
              c == '_' || c == '-')
                 ? c
                 : '_';
  }
  return out + "-" + hex16(id()) + ".qsart";
}

ArtifactKey ArtifactKey::compiled(std::uint64_t fingerprint) {
  ArtifactKey k;
  k.kind = ArtifactKind::kCompiled;
  k.fingerprint = fingerprint;
  return k;
}

ArtifactKey ArtifactKey::final_state(std::uint64_t fingerprint) {
  ArtifactKey k;
  k.kind = ArtifactKind::kFinalState;
  k.fingerprint = fingerprint;
  return k;
}

ArtifactKey ArtifactKey::checkpoint(const std::string& name) {
  ArtifactKey k;
  k.kind = ArtifactKind::kCheckpoint;
  k.fingerprint = fnv1a64(name);
  k.name = name;
  return k;
}

// ------------------------------------------------------------------------

ArtifactStore::ArtifactStore(StoreOptions options)
    : options_(std::move(options)) {
  if (disk_enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.directory, ec);
    // A failed mkdir surfaces as write failures / disk misses; the
    // constructor stays noexcept so an operator typo cannot take the
    // owning service down.
  }
}

std::string ArtifactStore::path_for(const ArtifactKey& key) const {
  return options_.directory + "/" + key.filename();
}

// --------------------------------------------------------- memory tier ----

void ArtifactStore::insert_memory_locked(const ArtifactKey& key,
                                         std::shared_ptr<const void> value,
                                         std::size_t cost, Outcome* outcome) {
  KindStats& ks = stats_for(key.kind);
  const std::uint64_t id = key.id();
  if (const auto it = index_.find(id); it != index_.end()) {
    bytes_ -= it->second->cost;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (cost > options_.memory_budget_bytes) {
    // Would evict the whole tier for one entry: observable rejection, so
    // a fleet whose artifacts never fit shows a climbing counter instead
    // of a mysterious 0% hit rate.
    ++ks.memory.oversized;
    if (outcome) outcome->oversized = true;
    return;
  }
  while (!lru_.empty() && bytes_ + cost > options_.memory_budget_bytes) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.cost;
    ++stats_for(victim.kind).memory.evictions;
    index_.erase(victim.id);
    lru_.pop_back();
    if (outcome) ++outcome->evicted;
  }
  lru_.push_front(Entry{id, key.kind, std::move(value), cost});
  index_[id] = lru_.begin();
  bytes_ += cost;
}

// ----------------------------------------------------------- disk tier ----

std::optional<std::string> ArtifactStore::read_disk(const ArtifactKey& key,
                                                    Outcome* outcome) {
  if (outcome) outcome->disk_checked = true;
  KindStats& ks = stats_for(key.kind);
  const std::string path = path_for(key);

  std::optional<std::string> raw = read_file(path);
  if (!raw) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++ks.disk.misses;
    if (outcome) outcome->disk_missed = true;
    return std::nullopt;
  }

  // Verified load: magic, kind, key id, payload length and checksum all
  // have to hold before the payload is even offered to a codec.
  const auto reject = [&] {
    std::error_code ec;
    std::filesystem::remove(path, ec);  // quarantine by deletion
    std::lock_guard<std::mutex> lock(mutex_);
    ++ks.disk.misses;
    ++ks.corrupt;
    if (outcome) {
      outcome->disk_missed = true;
      outcome->corrupt = true;
    }
    return std::nullopt;
  };

  Decoder d(*raw);
  std::string_view magic, payload;
  std::uint8_t kind;
  std::uint64_t id, payload_len, checksum;
  if (!d.raw(kMagic.size(), &magic) || magic != kMagic || !d.u8(&kind) ||
      !d.u64(&id) || !d.u64(&payload_len) || !d.u64(&checksum))
    return reject();
  if (kind != static_cast<std::uint8_t>(key.kind) || id != key.id())
    return reject();
  if (d.remaining() != payload_len) return reject();  // torn
  d.raw(d.remaining(), &payload);
  if (fnv1a64(payload) != checksum) return reject();  // bit flip
  raw->erase(0, raw->size() - payload.size());
  return raw;
}

bool ArtifactStore::should_attempt_write_locked() {
  if (!degraded_) return true;
  const auto now = std::chrono::steady_clock::now();
  if (now < next_probe_at_) return false;
  // One probe per cooldown window; concurrent writers inside the window
  // keep skipping until this probe's result re-arms or clears the state.
  next_probe_at_ = now + options_.degrade_cooldown;
  return true;
}

void ArtifactStore::note_write_result_locked(ArtifactKind kind, bool ok) {
  if (ok) {
    consecutive_write_failures_ = 0;
    degraded_ = false;
    return;
  }
  ++consecutive_write_failures_;
  if (!degraded_ && options_.degrade_after_failures > 0 &&
      consecutive_write_failures_ >= options_.degrade_after_failures) {
    degraded_ = true;
    next_probe_at_ =
        std::chrono::steady_clock::now() + options_.degrade_cooldown;
    ++stats_for(kind).degradations;
  }
}

bool ArtifactStore::disk_degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

bool ArtifactStore::write_disk(const ArtifactKey& key,
                               std::string_view payload, Outcome* outcome) {
  KindStats& ks = stats_for(key.kind);
  const std::string path = path_for(key);
  std::uint64_t tmp_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!should_attempt_write_locked()) {
      // Degraded to memory-only: skip the write instead of re-failing
      // forever against a dead disk. The next cooldown expiry lets one
      // write through as a re-probe.
      ++ks.degraded_skips;
      if (outcome) outcome->disk_degraded = true;
      return false;
    }
    tmp_id = ++tmp_counter_;
  }
  // Unique tmp name per writer (counter + address): concurrent processes
  // sharing a directory never clobber each other's in-flight writes, and
  // the rename publishes a complete entry or nothing.
  const std::string tmp =
      path + ".tmp." + hex16(tmp_id ^ reinterpret_cast<std::uintptr_t>(this));

  const auto fail = [&] {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    std::lock_guard<std::mutex> lock(mutex_);
    ++ks.write_failures;
    note_write_result_locked(key.kind, /*ok=*/false);
    if (outcome) outcome->disk_write_failed = true;
    return false;
  };

  {
    Encoder entry;
    entry.raw(kMagic);
    entry.u8(static_cast<std::uint8_t>(key.kind));
    entry.u64(key.id());
    entry.u64(payload.size());
    entry.u64(fnv1a64(payload));
    entry.raw(payload);
    const std::string& bytes = entry.bytes();
    // sync_writes makes the entry power-loss durable, not just
    // crash-atomic: fsync the tmp file before the rename publishes it,
    // then fsync the directory so the rename itself survives.
    if (!write_file(tmp, bytes.data(), bytes.size(), options_.sync_writes))
      return fail();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return fail();
  if (options_.sync_writes) sync_parent_dir(path);

  std::lock_guard<std::mutex> lock(mutex_);
  ++ks.writes;
  note_write_result_locked(key.kind, /*ok=*/true);
  if (outcome) outcome->wrote_disk = true;
  return true;
}

// ------------------------------------------------------------ core ops ----

std::shared_ptr<const void> ArtifactStore::get_erased(
    const ArtifactKey& key, const ErasedDecode& decode, bool use_memory,
    Outcome* outcome) {
  const std::uint64_t id = key.id();
  if (use_memory) {
    std::lock_guard<std::mutex> lock(mutex_);
    KindStats& ks = stats_for(key.kind);
    if (outcome) outcome->memory_checked = true;
    if (const auto it = index_.find(id); it != index_.end()) {
      ++ks.memory.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      if (outcome) outcome->tier = Tier::kMemory;
      return it->second->value;
    }
    ++ks.memory.misses;
    if (outcome) outcome->memory_missed = true;
  }

  if (!disk_enabled()) return nullptr;
  std::optional<std::string> payload = read_disk(key, outcome);
  if (!payload) return nullptr;

  std::size_t cost = payload->size();
  std::shared_ptr<const void> value = decode(*payload, &cost);
  if (!value) {
    // The header verified but the codec refused the payload — corrupt at
    // a level the checksum cannot see (e.g. a format change). Same
    // treatment: count, delete, recompute.
    std::error_code ec;
    std::filesystem::remove(path_for(key), ec);
    std::lock_guard<std::mutex> lock(mutex_);
    KindStats& ks = stats_for(key.kind);
    ++ks.disk.misses;
    ++ks.corrupt;
    if (outcome) {
      outcome->disk_missed = true;
      outcome->corrupt = true;
    }
    return nullptr;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_for(key.kind).disk.hits;
  if (outcome) outcome->tier = Tier::kDisk;
  if (use_memory) insert_memory_locked(key, value, cost, outcome);
  return value;
}

void ArtifactStore::put_erased(const ArtifactKey& key,
                               std::shared_ptr<const void> value,
                               std::size_t cost,
                               const std::string* disk_bytes, bool to_memory,
                               Outcome* outcome) {
  if (to_memory && value) {
    std::lock_guard<std::mutex> lock(mutex_);
    insert_memory_locked(key, std::move(value), cost, outcome);
  }
  if (disk_bytes && disk_enabled()) write_disk(key, *disk_bytes, outcome);
}

// ------------------------------------------------------------ raw bytes ----

bool ArtifactStore::put_bytes(const ArtifactKey& key, std::string_view bytes,
                              bool use_memory, Outcome* outcome) {
  std::shared_ptr<const void> value;
  if (use_memory)
    value = std::make_shared<const std::string>(bytes);
  const std::string payload(bytes);
  Outcome local;
  Outcome* o = outcome ? outcome : &local;
  put_erased(key, std::move(value), payload.size() + sizeof(std::string),
             disk_enabled() ? &payload : nullptr, use_memory, o);
  // A degraded skip is a failed durable write from the caller's point of
  // view (the bytes never reached disk), even though it is not counted as
  // a write_failure.
  return !o->disk_write_failed && !o->disk_degraded;
}

std::optional<std::string> ArtifactStore::get_bytes(const ArtifactKey& key,
                                                    bool use_memory,
                                                    Outcome* outcome) {
  auto value = get_erased(
      key,
      [](const std::string& payload,
         std::size_t* cost) -> std::shared_ptr<const void> {
        *cost = payload.size() + sizeof(std::string);
        return std::make_shared<const std::string>(payload);
      },
      use_memory, outcome);
  if (!value) return std::nullopt;
  return *std::static_pointer_cast<const std::string>(value);
}

void ArtifactStore::remove(const ArtifactKey& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key.id()); it != index_.end()) {
      bytes_ -= it->second->cost;
      lru_.erase(it->second);
      index_.erase(it);
    }
  }
  if (disk_enabled()) {
    std::error_code ec;
    std::filesystem::remove(path_for(key), ec);
  }
}

void ArtifactStore::clear_memory() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

// -------------------------------------------------------- observability ----

StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreStats out;
  for (const KindStats& ks : kind_stats_) {
    out.memory.hits += ks.memory.hits;
    out.memory.misses += ks.memory.misses;
    out.memory.evictions += ks.memory.evictions;
    out.memory.oversized += ks.memory.oversized;
    out.disk.hits += ks.disk.hits;
    out.disk.misses += ks.disk.misses;
    out.corrupt += ks.corrupt;
    out.writes += ks.writes;
    out.write_failures += ks.write_failures;
    out.degraded_skips += ks.degraded_skips;
    out.degradations += ks.degradations;
  }
  return out;
}

StoreStats ArtifactStore::stats(ArtifactKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KindStats& ks =
      kind_stats_[static_cast<std::size_t>(kind) % kArtifactKindCount];
  StoreStats out;
  out.memory = ks.memory;
  out.disk = ks.disk;
  out.corrupt = ks.corrupt;
  out.writes = ks.writes;
  out.write_failures = ks.write_failures;
  out.degraded_skips = ks.degraded_skips;
  out.degradations = ks.degradations;
  return out;
}

std::size_t ArtifactStore::memory_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t ArtifactStore::memory_entries(ArtifactKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Entry& e : lru_) n += e.kind == kind ? 1 : 0;
  return n;
}

std::size_t ArtifactStore::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

}  // namespace qs::store
