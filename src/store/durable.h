// Crash-durable POSIX write primitives (and the whole-file read) shared
// by the ArtifactStore disk tier and the service job journal. tmp+rename
// alone is only *atomic*: a power loss after rename can still surface an
// empty or stale file unless the data hit the platter (fsync on the file)
// and the rename itself is journalled (fsync on the parent directory).
// These helpers wrap the open/write/fsync/close dance with no exceptions;
// every failure is a bool or nullopt so callers can count it and degrade
// instead of crashing.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace qs::store {

/// fsyncs the file at `path` (opened read-only; on Linux this flushes the
/// file's data and metadata regardless of the opening mode). Returns false
/// if the file cannot be opened or the fsync fails.
bool sync_file(const std::string& path);

/// fsyncs the directory containing `path`, making a preceding rename or
/// create durable. Returns false on open/fsync failure.
bool sync_parent_dir(const std::string& path);

/// Writes `size` bytes to `path` via open(O_TRUNC)/write/[fsync]/close.
/// When `sync` is set the data is fsync'd before close so a subsequent
/// rename publishes fully-written content. Returns false on any failure
/// (partial writes are retried on EINTR/short-write first).
bool write_file(const std::string& path, const void* data, std::size_t size,
                bool sync);

/// The whole file at `path`; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

/// RAII append handle for a write-ahead log: open(O_CREAT|O_APPEND) once,
/// then append()/sync() per record. Reopening after close() is the
/// caller's job. All methods return false on failure and leave errno set.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { close(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens (creating if needed) `path` for appending. When `sync_dir` is
  /// set and the file did not previously exist, the parent directory is
  /// fsync'd so the creation survives a crash.
  bool open(const std::string& path, bool sync_dir);
  bool is_open() const { return fd_ >= 0; }

  /// Appends the full buffer (retrying short writes / EINTR).
  bool append(const void* data, std::size_t size);

  /// fsyncs the file descriptor.
  bool sync();

  void close();

 private:
  int fd_ = -1;
};

}  // namespace qs::store
