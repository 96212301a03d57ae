// Crash-durable write-ahead job journal.
//
// An admitted job must survive the process that admitted it: the paper's
// runtime layer — not the client — owns execution state, and a serving
// tier restarted mid-burst has to finish what it accepted. The journal is
// a single append-only file (`journal.qsj` inside the service's
// store_dir) of checksummed records tracing each job's lifecycle:
//
//   admitted(job_id, RunRequest) -> dispatched(job_id)
//     -> completed/failed/cancelled(job_id, RunResult)
//
// Appends are write+fsync with group commit (concurrent appenders share
// one fsync), so the admitted record is on the platter before the submit
// call returns its handle. On construction over an existing file the
// journal replays: a record whose length/checksum does not verify marks a
// torn tail — everything before it is kept, the tail is truncated, and
// the service re-enqueues every admitted-but-unterminated job (their
// checkpoints limit re-execution to unfinished shards). Terminal records
// carry the full RunResult so a restarted service can serve a stored
// result for a duplicate idempotency_key without re-running anything.
// Record bodies are the gateway wire's bytes (runtime/run_codec.h): an
// admitted body is the checkpoint key followed by the wire RunRequest
// body, a terminal body is exactly the wire RunResult body.
//
// Compaction (after replay, or when the live file grows past a bound)
// rewrites the file to the admitted records of in-flight jobs plus the
// most recent N terminal pairs, via a durable tmp+rename.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/run_api.h"
#include "store/durable.h"

namespace qs::service {

enum class JournalRecordType : std::uint8_t {
  kAdmitted = 1,
  kDispatched = 2,
  kCompleted = 3,  ///< terminal, status OK
  kFailed = 4,     ///< terminal, non-OK, not cancelled
  kCancelled = 5,  ///< terminal, kCancelled
};

/// Parsed state of a journal file after replay.
struct JournalReplay {
  struct InflightJob {
    std::uint64_t job_id = 0;
    runtime::RunRequest request;
    bool dispatched = false;
  };
  struct FinishedJob {
    std::uint64_t job_id = 0;
    runtime::RunRequest request;
    runtime::RunResult result;
  };

  /// Admitted records without a terminal record, in admission order —
  /// the jobs a restarted service must re-enqueue.
  std::vector<InflightJob> inflight;
  /// Jobs with a terminal record (any status), in completion order.
  std::vector<FinishedJob> finished;

  std::uint64_t max_job_id = 0;   ///< for next_job_id continuity
  std::size_t records = 0;        ///< valid records replayed
  std::size_t truncated_bytes = 0;  ///< torn tail dropped (0 = clean)
};

/// The write-ahead journal. Thread-safe; appends may be called from any
/// worker thread. All I/O failures are reported as `false`, never thrown —
/// a dead disk degrades durability, it does not take the service down.
class JobJournal {
 public:
  struct Options {
    std::string directory;  ///< required: the service's store_dir
    /// fsync each record batch (group commit). Off = page-cache only,
    /// still torn-tail safe against process crashes, not power loss.
    bool sync_writes = true;
    /// Terminal records retained through compaction — the replay window
    /// for duplicate idempotency keys across a restart.
    std::size_t finished_retention = 256;
  };

  explicit JobJournal(Options options);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Replays the existing file (if any), truncating a torn tail in place.
  /// Call once, before any append.
  JournalReplay replay();

  /// Compacts the file down to `state` (inflight admitted records plus the
  /// newest finished_retention terminal pairs) via durable tmp+rename, and
  /// reopens for appending. Returns false on I/O failure (the old file is
  /// kept — never trade a fat journal for a missing one).
  bool compact(const JournalReplay& state);

  // ---- Durable appends --------------------------------------------------

  bool append_admitted(std::uint64_t job_id,
                       const runtime::RunRequest& request);
  bool append_dispatched(std::uint64_t job_id);
  /// Record type is derived from result.status (OK / cancelled / failed).
  bool append_terminal(std::uint64_t job_id,
                       const runtime::RunResult& result);

  std::string path() const;
  std::uint64_t bytes_appended() const;

  // ---- Record codecs (exposed for tests) --------------------------------

  static std::string encode_request(const runtime::RunRequest& request);
  static bool decode_request(std::string_view payload,
                             runtime::RunRequest* out);
  static std::string encode_result(const runtime::RunResult& result);
  static bool decode_result(std::string_view payload,
                            runtime::RunResult* out);

 private:
  bool append_record(JournalRecordType type, std::uint64_t job_id,
                     const std::string& body);
  /// Serializes one framed record (header + checksum + payload).
  static std::string frame_record(JournalRecordType type,
                                  std::uint64_t job_id,
                                  const std::string& body);

  const Options options_;

  mutable std::mutex write_mutex_;  ///< serialises append+offset
  mutable std::mutex sync_mutex_;   ///< group-commit fsync
  store::AppendFile file_;
  std::uint64_t appended_ = 0;  ///< bytes appended since open
  std::uint64_t synced_ = 0;    ///< bytes known fsync'd
};

}  // namespace qs::service
