#include "service/journal.h"

#include <filesystem>
#include <unordered_map>

#include "common/codec.h"
#include "common/hash.h"
#include "runtime/run_codec.h"

namespace qs::service {

namespace {

/// File header: identifies the format so a foreign file in store_dir is
/// never misparsed as a journal.
constexpr char kJournalMagic[8] = {'Q', 'S', 'J', 'R', 'N', 'L', '2', '\n'};

JournalRecordType terminal_type(const Status& status) {
  if (status.ok()) return JournalRecordType::kCompleted;
  return status.code() == StatusCode::kCancelled ? JournalRecordType::kCancelled
                                                 : JournalRecordType::kFailed;
}

}  // namespace

// ------------------------------------------------------------- codecs ----

std::string JobJournal::encode_request(const runtime::RunRequest& request) {
  // The checkpoint key is host-side (never on the wire), so it leads and
  // the wire body follows verbatim — decode_run_request ends the record
  // with its own finish().
  Encoder e;
  e.str(request.checkpoint_key);
  runtime::encode_run_request(request, &e);
  return e.take();
}

bool JobJournal::decode_request(std::string_view payload,
                                runtime::RunRequest* out) {
  Decoder d(payload);
  std::string checkpoint_key;
  if (!d.str(&checkpoint_key) || !runtime::decode_run_request(&d, out))
    return false;
  out->checkpoint_key = std::move(checkpoint_key);
  return true;
}

std::string JobJournal::encode_result(const runtime::RunResult& result) {
  Encoder e;
  runtime::encode_run_result(result, &e);
  return e.take();
}

bool JobJournal::decode_result(std::string_view payload,
                               runtime::RunResult* out) {
  Decoder d(payload);
  return runtime::decode_run_result(&d, out);
}

// ------------------------------------------------------------- framing ----

std::string JobJournal::frame_record(JournalRecordType type,
                                     std::uint64_t job_id,
                                     const std::string& body) {
  Encoder payload;
  payload.u8(static_cast<std::uint8_t>(type));
  payload.u64(job_id);
  payload.str(body);
  Encoder frame;
  frame.u64(payload.bytes().size());
  frame.u64(fnv1a64(payload.bytes()));
  frame.raw(payload.bytes());
  return frame.take();
}

// ------------------------------------------------------------ lifecycle ----

JobJournal::JobJournal(Options options) : options_(std::move(options)) {}

JobJournal::~JobJournal() = default;

std::string JobJournal::path() const {
  return options_.directory + "/journal.qsj";
}

std::uint64_t JobJournal::bytes_appended() const {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return appended_;
}

JournalReplay JobJournal::replay() {
  JournalReplay out;
  if (options_.directory.empty()) return out;
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  const std::string p = path();

  const std::string raw = store::read_file(p).value_or(std::string());

  std::size_t pos = 0;
  // Index into out.inflight by job id while jobs are still in flight.
  std::unordered_map<std::uint64_t, std::size_t> live;
  const std::string_view magic(kJournalMagic, sizeof(kJournalMagic));
  Decoder file(raw);
  std::string_view header;
  if (file.raw(magic.size(), &header) && header == magic) {
    pos = magic.size();
    for (;;) {
      std::uint64_t len, checksum;
      std::string_view payload;
      if (!file.u64(&len) || !file.u64(&checksum) ||
          !file.raw(static_cast<std::size_t>(len), &payload))
        break;  // torn tail
      if (fnv1a64(payload) != checksum) break;  // torn or bit-flipped

      Decoder r(payload);
      std::uint8_t type;
      std::uint64_t job_id;
      std::string body;
      if (!r.u8(&type) || !r.u64(&job_id) || !r.str(&body) || !r.finish())
        break;

      bool applied = true;
      switch (static_cast<JournalRecordType>(type)) {
        case JournalRecordType::kAdmitted: {
          runtime::RunRequest req;
          if (!decode_request(body, &req)) {
            applied = false;
            break;
          }
          live[job_id] = out.inflight.size();
          out.inflight.push_back({job_id, std::move(req), false});
          break;
        }
        case JournalRecordType::kDispatched: {
          if (const auto it = live.find(job_id); it != live.end())
            out.inflight[it->second].dispatched = true;
          break;
        }
        case JournalRecordType::kCompleted:
        case JournalRecordType::kFailed:
        case JournalRecordType::kCancelled: {
          runtime::RunResult result;
          if (!decode_result(body, &result)) {
            applied = false;
            break;
          }
          const auto it = live.find(job_id);
          if (it == live.end()) break;  // terminal for an unknown job
          JournalReplay::FinishedJob done;
          done.job_id = job_id;
          done.request = std::move(out.inflight[it->second].request);
          done.result = std::move(result);
          // Mark the inflight slot consumed; compacted out below.
          out.inflight[it->second].job_id = 0;
          live.erase(it);
          out.finished.push_back(std::move(done));
          break;
        }
        default:
          applied = false;
          break;
      }
      if (!applied) break;  // checksummed but unparseable: stop replay here

      out.max_job_id = std::max(out.max_job_id, job_id);
      ++out.records;
      pos = raw.size() - file.remaining();
    }
  } else if (!raw.empty()) {
    // Foreign or torn header: drop the whole file.
    pos = 0;
  }

  if (pos < raw.size()) {
    out.truncated_bytes = raw.size() - pos;
    if (pos < sizeof(kJournalMagic)) {
      std::filesystem::remove(p, ec);
    } else {
      std::filesystem::resize_file(p, pos, ec);
    }
  }

  // Compact the inflight list down to still-live slots.
  std::vector<JournalReplay::InflightJob> inflight;
  inflight.reserve(live.size());
  for (auto& job : out.inflight)
    if (job.job_id != 0) inflight.push_back(std::move(job));
  out.inflight = std::move(inflight);

  // Open (creating if needed) for appending; a brand-new file gets the
  // header record first.
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (file_.open(p, options_.sync_writes)) {
    std::uintmax_t size = std::filesystem::file_size(p, ec);
    if (ec) size = 0;
    if (size == 0) {
      file_.append(kJournalMagic, sizeof(kJournalMagic));
      if (options_.sync_writes) file_.sync();
      size = sizeof(kJournalMagic);
    }
    appended_ = size;
    synced_ = size;
  }
  return out;
}

bool JobJournal::compact(const JournalReplay& state) {
  if (options_.directory.empty()) return false;
  std::string content(kJournalMagic, sizeof(kJournalMagic));
  for (const auto& job : state.inflight) {
    content += frame_record(JournalRecordType::kAdmitted, job.job_id,
                            encode_request(job.request));
    if (job.dispatched)
      content += frame_record(JournalRecordType::kDispatched, job.job_id,
                              std::string());
  }
  const std::size_t keep =
      std::min(state.finished.size(), options_.finished_retention);
  for (std::size_t i = state.finished.size() - keep;
       i < state.finished.size(); ++i) {
    const auto& job = state.finished[i];
    content += frame_record(JournalRecordType::kAdmitted, job.job_id,
                            encode_request(job.request));
    content += frame_record(terminal_type(job.result.status), job.job_id,
                            encode_result(job.result));
  }

  const std::string p = path();
  const std::string tmp = p + ".compact.tmp";
  if (!store::write_file(tmp, content.data(), content.size(),
                         options_.sync_writes)) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return false;
  }
  std::lock_guard<std::mutex> sync_lock(sync_mutex_);
  std::lock_guard<std::mutex> lock(write_mutex_);
  file_.close();
  std::error_code ec;
  std::filesystem::rename(tmp, p, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    // Reopen the old file; the journal stays fat but intact.
    file_.open(p, options_.sync_writes);
    return false;
  }
  if (options_.sync_writes) store::sync_parent_dir(p);
  if (!file_.open(p, options_.sync_writes)) return false;
  appended_ = content.size();
  synced_ = content.size();
  return true;
}

// -------------------------------------------------------------- appends ----

bool JobJournal::append_record(JournalRecordType type, std::uint64_t job_id,
                               const std::string& body) {
  const std::string record = frame_record(type, job_id, body);
  std::uint64_t my_offset = 0;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!file_.is_open()) return false;
    if (!file_.append(record.data(), record.size())) return false;
    appended_ += record.size();
    my_offset = appended_;
  }
  if (!options_.sync_writes) return true;

  // Group commit: whoever reaches the sync mutex first fsyncs everything
  // appended so far; appenders that were covered by that fsync skip their
  // own. Under concurrent submit bursts this amortises the fsync cost
  // across the batch.
  std::lock_guard<std::mutex> sync_lock(sync_mutex_);
  std::uint64_t target;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (synced_ >= my_offset) return true;
    target = appended_;
  }
  if (!file_.sync()) return false;
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (synced_ < target) synced_ = target;
  return true;
}

bool JobJournal::append_admitted(std::uint64_t job_id,
                                 const runtime::RunRequest& request) {
  return append_record(JournalRecordType::kAdmitted, job_id,
                       encode_request(request));
}

bool JobJournal::append_dispatched(std::uint64_t job_id) {
  return append_record(JournalRecordType::kDispatched, job_id,
                       std::string());
}

bool JobJournal::append_terminal(std::uint64_t job_id,
                                 const runtime::RunResult& result) {
  return append_record(terminal_type(result.status), job_id,
                       encode_result(result));
}

}  // namespace qs::service
