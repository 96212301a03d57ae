// Tests for the crash-durable job journal and the exactly-once layer on
// top of it: record codec round-trips, replay across journal reopens,
// torn-tail truncation, compaction retention, the service-level crash
// matrix (a simulated kill at every injection point followed by a restart
// over the same store_dir must finish every admitted job exactly once with
// a byte-identical histogram), duplicate idempotency_key semantics
// (attach / served stored result / fingerprint mismatch), disk-tier
// degradation after repeated write failures, and the gateway's protocol-v3
// idempotency key with client-side reconnect + safe resubmission.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "compiler/kernel.h"
#include "compiler/platform.h"
#include "gateway/client.h"
#include "gateway/server.h"
#include "qasm/printer.h"
#include "runtime/accelerator.h"
#include "runtime/run_api.h"
#include "service/journal.h"
#include "service/service.h"
#include "store/artifact_store.h"

namespace qs::service {
namespace {

using namespace std::chrono_literals;

using runtime::CrashPoint;
using runtime::FaultPlan;
using runtime::RunRequest;
using runtime::RunResult;

qasm::Program ghz_program(std::size_t n) {
  compiler::Program p("ghz", n);
  p.add_kernel("main").ghz(n).measure_all();
  return p.to_qasm();
}

runtime::GateAccelerator perfect_gate(std::size_t qubits) {
  return runtime::GateAccelerator(compiler::Platform::perfect(qubits));
}

/// Scoped temp directory: fresh on entry, removed on exit.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
};

/// Small shards so a 64-shot job spans 4 of them (the mid-shard and
/// pre-complete crash points need multi-shard jobs to mean anything).
ServiceOptions base_options(const std::string& store_dir) {
  ServiceOptions so;
  so.workers = 2;
  so.shard_shots = 16;
  so.store_dir = store_dir;
  so.retry_backoff.initial = std::chrono::microseconds(1);
  so.retry_backoff.cap = std::chrono::microseconds(10);
  return so;
}

// ---------------------------------------------------------- codecs ----

TEST(JournalCodec, GateRequestRoundTripPreservesIdentity) {
  RunRequest req = RunRequest::gate(ghz_program(3), 96, /*seed=*/7);
  req.idempotency_key = "key-1";
  req.checkpoint_key = "qsj-42";
  req.tenant = "tenant-a";
  req.priority = 2;
  req.tag = "exp";

  RunRequest back;
  ASSERT_TRUE(JobJournal::decode_request(JobJournal::encode_request(req),
                                         &back));
  EXPECT_EQ(back.shots, 96u);
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.priority, 2);
  EXPECT_EQ(back.tag, "exp");
  EXPECT_EQ(back.tenant, "tenant-a");
  EXPECT_EQ(back.checkpoint_key, "qsj-42");
  EXPECT_EQ(back.idempotency_key, "key-1");
  // Programs are journalled as canonical cQASM text, exactly what the
  // gateway would send — replayed jobs parse at dispatch like live ones.
  ASSERT_TRUE(back.program_text.has_value());
  EXPECT_EQ(*back.program_text, qasm::to_cqasm(ghz_program(3)));

  RunRequest junk;
  EXPECT_FALSE(JobJournal::decode_request("definitely not a record", &junk));
}

TEST(JournalCodec, ResultRoundTripPreservesHistogramAndStatus) {
  RunResult result;
  result.status = Status::Ok();
  result.histogram.add("010", 30);
  result.histogram.add("101", 70);
  result.stats.shards = 4;

  RunResult back;
  ASSERT_TRUE(
      JobJournal::decode_result(JobJournal::encode_result(result), &back));
  EXPECT_TRUE(back.status.ok());
  EXPECT_EQ(back.histogram.counts(), result.histogram.counts());

  RunResult failed;
  failed.status = Status::DeadlineExceeded("too slow");
  ASSERT_TRUE(
      JobJournal::decode_result(JobJournal::encode_result(failed), &back));
  EXPECT_EQ(back.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(back.status.message(), "too slow");
}

// ------------------------------------------------------ journal file ----

TEST(JournalFile, ReplaySeesLifecycleAcrossReopens) {
  TempDir dir("qs_journal_test_replay");
  std::filesystem::create_directories(dir.path);
  RunRequest req = RunRequest::gate(ghz_program(2), 32, 1);
  req.idempotency_key = "r1";

  {
    JobJournal j({dir.str(), /*sync_writes=*/true, /*retention=*/256});
    const JournalReplay empty = j.replay();
    EXPECT_EQ(empty.records, 0u);
    EXPECT_EQ(empty.truncated_bytes, 0u);
    ASSERT_TRUE(j.append_admitted(1, req));
    ASSERT_TRUE(j.append_dispatched(1));
  }
  {
    JobJournal j({dir.str(), true, 256});
    const JournalReplay r = j.replay();
    EXPECT_EQ(r.records, 2u);
    ASSERT_EQ(r.inflight.size(), 1u);
    EXPECT_EQ(r.inflight[0].job_id, 1u);
    EXPECT_TRUE(r.inflight[0].dispatched);
    EXPECT_EQ(r.inflight[0].request.idempotency_key, "r1");
    EXPECT_TRUE(r.finished.empty());
    EXPECT_EQ(r.max_job_id, 1u);

    RunResult done;
    done.status = Status::Ok();
    done.histogram.add("00", 32);
    ASSERT_TRUE(j.append_terminal(1, done));
  }
  {
    JobJournal j({dir.str(), true, 256});
    const JournalReplay r = j.replay();
    EXPECT_TRUE(r.inflight.empty());
    ASSERT_EQ(r.finished.size(), 1u);
    EXPECT_EQ(r.finished[0].job_id, 1u);
    EXPECT_EQ(r.finished[0].result.histogram.count("00"), 32u);
  }
}

TEST(JournalFile, TornTailIsTruncatedAndPrefixSurvives) {
  TempDir dir("qs_journal_test_torn");
  std::filesystem::create_directories(dir.path);
  std::string journal_path;
  {
    JobJournal j({dir.str(), true, 256});
    (void)j.replay();
    ASSERT_TRUE(j.append_admitted(1, RunRequest::gate(ghz_program(2), 16, 1)));
    ASSERT_TRUE(j.append_admitted(2, RunRequest::gate(ghz_program(2), 16, 2)));
    journal_path = j.path();
  }
  // A crash mid-append leaves a torn frame at the tail: simulate with
  // garbage that can never verify (absurd length prefix).
  {
    std::ofstream f(journal_path, std::ios::binary | std::ios::app);
    for (int i = 0; i < 24; ++i) f.put('\xff');
  }
  {
    JobJournal j({dir.str(), true, 256});
    const JournalReplay r = j.replay();
    EXPECT_EQ(r.records, 2u);
    EXPECT_EQ(r.inflight.size(), 2u);
    EXPECT_EQ(r.truncated_bytes, 24u);
  }
  // The truncation happened in place: a second replay is clean.
  {
    JobJournal j({dir.str(), true, 256});
    const JournalReplay r = j.replay();
    EXPECT_EQ(r.records, 2u);
    EXPECT_EQ(r.truncated_bytes, 0u);
  }
}

TEST(JournalFile, PreCodecJournalIsDroppedAsForeign) {
  // A journal from before the shared codec (magic "QSJRNL1") is never
  // offered to a record decoder: the header mismatch drops the file and
  // replay starts a fresh v2 journal.
  TempDir dir("qs_journal_test_v1");
  std::filesystem::create_directories(dir.path);
  const std::string v1 = std::string("QSJRNL1\n") + std::string(40, '\x01');
  {
    std::ofstream f(dir.path / "journal.qsj", std::ios::binary);
    f << v1;
  }
  JobJournal j({dir.str(), true, 256});
  const JournalReplay r = j.replay();
  EXPECT_EQ(r.records, 0u);
  EXPECT_EQ(r.truncated_bytes, v1.size());
  ASSERT_TRUE(j.append_admitted(1, RunRequest::gate(ghz_program(2), 16, 1)));
  std::ifstream in(j.path(), std::ios::binary);
  std::string magic(8, '\0');
  in.read(magic.data(), 8);
  EXPECT_EQ(magic, std::string("QSJRNL2\n"));
}

TEST(JournalFile, CompactionKeepsInflightAndNewestFinished) {
  TempDir dir("qs_journal_test_compact");
  std::filesystem::create_directories(dir.path);
  RunResult done;
  done.status = Status::Ok();
  done.histogram.add("0", 8);
  {
    JobJournal j({dir.str(), true, /*retention=*/1});
    (void)j.replay();
    for (std::uint64_t id = 1; id <= 3; ++id)
      ASSERT_TRUE(
          j.append_admitted(id, RunRequest::gate(ghz_program(2), 8, id)));
    ASSERT_TRUE(j.append_terminal(1, done));
    ASSERT_TRUE(j.append_terminal(2, done));
  }
  {
    JobJournal j({dir.str(), true, 1});
    const JournalReplay r = j.replay();
    ASSERT_EQ(r.inflight.size(), 1u);
    EXPECT_EQ(r.inflight[0].job_id, 3u);
    ASSERT_EQ(r.finished.size(), 2u);
    ASSERT_TRUE(j.compact(r));
  }
  {
    JobJournal j({dir.str(), true, 1});
    const JournalReplay r = j.replay();
    ASSERT_EQ(r.inflight.size(), 1u);
    EXPECT_EQ(r.inflight[0].job_id, 3u);
    // Retention 1: only the newest terminal pair survived compaction.
    ASSERT_EQ(r.finished.size(), 1u);
    EXPECT_EQ(r.finished[0].job_id, 2u);
  }
}

// ------------------------------------------------- service recovery ----

TEST(ServiceRecovery, CrashAtEveryInjectionPointThenRestartIsExactlyOnce) {
  const qasm::Program program = ghz_program(4);
  const std::size_t shots = 64;  // 4 shards
  const std::uint64_t seed = 5;

  Histogram reference;
  {
    QuantumService ref(perfect_gate(4), base_options(""));
    const RunResult r = ref.submit(RunRequest::gate(program, shots, seed)).get();
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    reference = r.histogram;
  }

  for (const CrashPoint point :
       {CrashPoint::kAdmit, CrashPoint::kDispatch, CrashPoint::kMidShard,
        CrashPoint::kPreComplete}) {
    SCOPED_TRACE(runtime::to_string(point));
    TempDir dir(std::string("qs_journal_test_crash_") +
                runtime::to_string(point));
    {
      QuantumService victim(perfect_gate(4), base_options(dir.str()));
      ASSERT_NE(victim.journal(), nullptr);
      RunRequest doomed = RunRequest::gate(program, shots, seed);
      doomed.idempotency_key = "crash-key";
      auto plan = std::make_shared<FaultPlan>();
      plan->crash_point = point;
      doomed.faults = plan;
      const RunResult killed = victim.submit(std::move(doomed)).get();
      EXPECT_EQ(killed.status.code(), StatusCode::kUnavailable)
          << killed.status.to_string();
      EXPECT_GE(
          victim.metrics().counter("qs_injected_crashes_total").value(), 1u);
    }  // destructor = the kill; only on-disk state survives

    QuantumService successor(perfect_gate(4), base_options(dir.str()));
    EXPECT_GE(successor.metrics()
                  .counter("qs_journal_recovered_jobs_total")
                  .value(),
              1u);
    RunRequest dup = RunRequest::gate(program, shots, seed);
    dup.idempotency_key = "crash-key";
    const RunResult result = successor.submit(std::move(dup)).get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    // The duplicate attached to (or was served from) the recovered job —
    // it did not run a second execution.
    EXPECT_TRUE(result.stats.journal_recovered ||
                result.stats.idempotent_hit);
    EXPECT_EQ(result.histogram.counts(), reference.counts());
    EXPECT_EQ(result.histogram.total(), shots);
  }
}

TEST(ServiceRecovery, RecoveredJobCompletesWithoutResubmission) {
  const qasm::Program program = ghz_program(3);
  TempDir dir("qs_journal_test_background");
  {
    QuantumService victim(perfect_gate(3), base_options(dir.str()));
    RunRequest doomed = RunRequest::gate(program, 48, 9);
    doomed.idempotency_key = "bg-key";
    auto plan = std::make_shared<FaultPlan>();
    plan->crash_point = CrashPoint::kDispatch;
    doomed.faults = plan;
    ASSERT_FALSE(victim.submit(std::move(doomed)).get().status.ok());
  }

  QuantumService successor(perfect_gate(3), base_options(dir.str()));
  // The recovered job runs with no client involvement at all.
  successor.drain();
  // A late duplicate is served the stored result of that background run.
  RunRequest dup = RunRequest::gate(program, 48, 9);
  dup.idempotency_key = "bg-key";
  const RunResult served = successor.submit(std::move(dup)).get();
  ASSERT_TRUE(served.status.ok()) << served.status.to_string();
  EXPECT_TRUE(served.stats.idempotent_hit);
  EXPECT_TRUE(served.stats.journal_recovered);
  EXPECT_EQ(served.histogram.total(), 48u);
  EXPECT_GE(
      successor.metrics().counter("qs_idempotent_served_total").value(), 1u);
}

TEST(ServiceRecovery, RestartedServiceContinuesJobIdSequence) {
  TempDir dir("qs_journal_test_ids");
  std::uint64_t first_id = 0;
  {
    QuantumService svc(perfect_gate(2), base_options(dir.str()));
    RunRequest req = RunRequest::gate(ghz_program(2), 16, 1);
    req.idempotency_key = "seq";
    JobHandle h = svc.submit(std::move(req));
    first_id = h.id();
    ASSERT_TRUE(h.get().status.ok());
  }
  QuantumService svc(perfect_gate(2), base_options(dir.str()));
  const JobHandle h = svc.submit(RunRequest::gate(ghz_program(2), 16, 2));
  // Ids never regress across a restart — duplicate detection and the
  // journal's job keying both depend on it.
  EXPECT_GT(h.id(), first_id);
  ASSERT_TRUE(h.get().status.ok());
}

// ------------------------------------------------ checkpoint cost rule ----

/// Checkpoint files a store directory holds (one per snapshot key).
std::size_t checkpoint_files(const std::filesystem::path& dir) {
  const std::string prefix =
      store::to_string(store::ArtifactKind::kCheckpoint);
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  return n;
}

TEST(CheckpointCostRule, CheapJournaledJobNeverCheckpoints) {
  // Four shards of microseconds each: a save would cost more than the
  // rework it could spare, so the job neither saves nor removes one.
  TempDir dir("qs_journal_test_cheap");
  QuantumService svc(perfect_gate(2), base_options(dir.str()));
  ASSERT_NE(svc.journal(), nullptr);
  const RunResult r =
      svc.submit(RunRequest::gate(ghz_program(2), 64, /*seed=*/3)).get();
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(r.stats.shards, 4u);
  EXPECT_EQ(svc.metrics().counter("qs_checkpoint_saves_total").value(), 0u);
  EXPECT_EQ(svc.store_ptr()->memory_entries(store::ArtifactKind::kCheckpoint),
            0u);
  EXPECT_EQ(checkpoint_files(dir.path), 0u);
}

TEST(CheckpointCostRule, SlowShardsCheckpointAndResumeAfterCrash) {
  // 100 ms shards outweigh a save many times over, so the first shard
  // saves before the simulated mid-shard death and the restarted service
  // resumes from it, byte-identically.
  const qasm::Program program = ghz_program(4);
  const std::size_t shots = 64;  // 4 shards
  const std::uint64_t seed = 11;
  Histogram reference;
  {
    QuantumService ref(perfect_gate(4), base_options(""));
    const RunResult r = ref.submit(RunRequest::gate(program, shots, seed)).get();
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    reference = r.histogram;
  }

  TempDir dir("qs_journal_test_slow_resume");
  ServiceOptions opts = base_options(dir.str());
  opts.workers = 1;
  {
    QuantumService victim(perfect_gate(4), opts);
    RunRequest doomed = RunRequest::gate(program, shots, seed);
    doomed.idempotency_key = "slow-key";
    auto plan = std::make_shared<FaultPlan>();
    plan->shard_latency = 100ms;
    plan->crash_point = CrashPoint::kMidShard;
    doomed.faults = plan;
    const RunResult killed = victim.submit(std::move(doomed)).get();
    EXPECT_EQ(killed.status.code(), StatusCode::kUnavailable);
    EXPECT_GE(victim.metrics().counter("qs_checkpoint_saves_total").value(),
              1u);
  }
  EXPECT_EQ(checkpoint_files(dir.path), 1u);

  QuantumService successor(perfect_gate(4), opts);
  RunRequest dup = RunRequest::gate(program, shots, seed);
  dup.idempotency_key = "slow-key";
  const RunResult result = successor.submit(std::move(dup)).get();
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_TRUE(result.stats.journal_recovered || result.stats.idempotent_hit);
  EXPECT_GE(result.stats.shards_resumed, 1u);
  EXPECT_EQ(result.histogram.counts(), reference.counts());
  // The finished job removed the snapshot it resumed from.
  EXPECT_EQ(checkpoint_files(dir.path), 0u);
}

TEST(CheckpointCostRule, FailedJournaledJobLeavesNoSnapshot) {
  // A failed job's terminal record marks it finished, and a resubmission
  // gets a new id, so its qsj-<id> snapshot could never be read again.
  TempDir dir("qs_journal_test_orphan");
  ServiceOptions opts = base_options(dir.str());
  opts.workers = 1;  // sequential shards: 0 and 1 save, 2 fails
  opts.max_shard_retries = 0;
  QuantumService svc(perfect_gate(3), opts);
  RunRequest req = RunRequest::gate(ghz_program(3), 64, /*seed=*/2);
  auto plan = std::make_shared<FaultPlan>();
  plan->shard_latency = 50ms;
  plan->shard_faults = {{/*shard_index=*/2, /*failures=*/10}};
  req.faults = plan;
  JobHandle h = svc.submit(std::move(req));
  const RunResult r = h.get();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(svc.metrics().counter("qs_checkpoint_saves_total").value(), 1u);
  EXPECT_FALSE(svc.options()
                   .checkpoint_store->load("qsj-" + std::to_string(h.id()))
                   .has_value());
  EXPECT_EQ(checkpoint_files(dir.path), 0u);
}

// --------------------------------------------------- idempotency key ----

TEST(ServiceRecovery, JournalServedDuplicateKeepsEveryStat) {
  // The terminal record is the wire's result body, so a duplicate served
  // from the journal after a restart reports the stats of the run that
  // produced it — precision tier, fusion and cache tiers included.
  TempDir dir("qs_journal_test_stats");
  const qasm::Program program = ghz_program(3);
  const auto f32_request = [&](std::uint64_t seed, const char* key) {
    RunRequest req = RunRequest::gate(program, 32, seed);
    req.precision = Precision::kF32;
    req.idempotency_key = key;
    return req;
  };
  RunResult original;
  {
    QuantumService svc(perfect_gate(3), base_options(dir.str()));
    // Warm the compile and final-state caches so the keyed run's store
    // tiers are not the default kNone.
    ASSERT_TRUE(svc.submit(f32_request(1, "")).get().ok());
    original = svc.submit(f32_request(2, "stats-key")).get();
    ASSERT_TRUE(original.ok()) << original.status.to_string();
  }
  ASSERT_EQ(original.stats.precision, Precision::kF32);
  ASSERT_GT(original.stats.fused_gates, 0u);
  ASSERT_NE(original.stats.compile_cache_tier, runtime::CacheTier::kNone);

  QuantumService successor(perfect_gate(3), base_options(dir.str()));
  const RunResult served = successor.submit(f32_request(2, "stats-key")).get();
  ASSERT_TRUE(served.stats.idempotent_hit);
  EXPECT_EQ(served.histogram.counts(), original.histogram.counts());
  EXPECT_EQ(served.stats.precision, Precision::kF32);
  EXPECT_EQ(served.stats.fused_gates, original.stats.fused_gates);
  EXPECT_EQ(served.stats.fused_ops, original.stats.fused_ops);
  EXPECT_EQ(served.stats.fused_max_run, original.stats.fused_max_run);
  EXPECT_EQ(served.stats.compile_cache_hit, original.stats.compile_cache_hit);
  EXPECT_EQ(served.stats.compile_cache_tier,
            original.stats.compile_cache_tier);
  EXPECT_EQ(served.stats.final_state_cache_hit,
            original.stats.final_state_cache_hit);
  EXPECT_EQ(served.stats.final_state_cache_tier,
            original.stats.final_state_cache_tier);
  EXPECT_EQ(served.stats.dispatch_seq, original.stats.dispatch_seq);
}

TEST(Idempotency, DuplicateKeyAttachesServesAndRejectsMismatch) {
  QuantumService svc(perfect_gate(4), base_options(""));
  const qasm::Program program = ghz_program(4);

  svc.pause();  // freeze dispatch so the duplicate races a live job
  RunRequest a = RunRequest::gate(program, 48, 3);
  a.idempotency_key = "dup";
  JobHandle h1 = svc.submit(std::move(a));
  RunRequest b = RunRequest::gate(program, 48, 3);
  b.idempotency_key = "dup";
  JobHandle h2 = svc.submit(std::move(b));
  // Attach: the duplicate and the original are one job.
  EXPECT_EQ(h2.id(), h1.id());
  EXPECT_GE(svc.metrics().counter("qs_idempotent_attached_total").value(),
            1u);
  svc.resume();

  const RunResult r1 = h1.get();
  const RunResult r2 = h2.get();
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.histogram.counts(), r2.histogram.counts());

  // After completion the stored result is served — no third execution.
  RunRequest c = RunRequest::gate(program, 48, 3);
  c.idempotency_key = "dup";
  const RunResult r3 = svc.submit(std::move(c)).get();
  ASSERT_TRUE(r3.status.ok());
  EXPECT_TRUE(r3.stats.idempotent_hit);
  EXPECT_EQ(r3.histogram.counts(), r1.histogram.counts());

  // Same key, different payload: a client bug, rejected loudly.
  RunRequest d = RunRequest::gate(program, 48, /*seed=*/999);
  d.idempotency_key = "dup";
  const RunResult r4 = svc.submit(std::move(d)).get();
  EXPECT_EQ(r4.status.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- disk degradation ----

TEST(StoreDegradation, RepeatedWriteFailuresDegradeDiskToMemoryOnly) {
  // Parent is a regular file, so the store can neither create nor write
  // its directory: every disk write fails deterministically.
  TempDir dir("qs_journal_test_degrade");
  { std::ofstream f(dir.path); f << "not a directory"; }

  store::StoreOptions opts;
  opts.directory = (dir.path / "sub").string();
  opts.degrade_after_failures = 3;
  opts.degrade_cooldown = std::chrono::milliseconds(60'000);  // no re-probe
  store::ArtifactStore store(opts);

  store::Outcome outcome;
  for (int i = 0; i < 3; ++i) {
    outcome = {};
    EXPECT_FALSE(store.put_bytes(
        store::ArtifactKey::checkpoint("k" + std::to_string(i)), "payload",
        /*use_memory=*/true, &outcome));
    EXPECT_TRUE(outcome.disk_write_failed);
  }
  EXPECT_TRUE(store.disk_degraded());

  // Degraded: writes are skipped (no syscall churn), reported as such.
  outcome = {};
  EXPECT_FALSE(store.put_bytes(store::ArtifactKey::checkpoint("k9"),
                               "payload", true, &outcome));
  EXPECT_TRUE(outcome.disk_degraded);

  // The memory tier still serves — degradation, not outage.
  store::Outcome get_outcome;
  const auto bytes =
      store.get_bytes(store::ArtifactKey::checkpoint("k0"),
                      /*use_memory=*/true, &get_outcome);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, "payload");
}

// ------------------------------------------------- gateway wire (v3) ----

TEST(GatewayIdempotency, KeyCrossesWireAndReconnectResubmitsSafely) {
  QuantumService svc(perfect_gate(4), base_options(""));
  gateway::GatewayServer server(svc, gateway::GatewayOptions{});
  ASSERT_TRUE(server.start().ok());

  gateway::GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.version(), gateway::kProtocolVersion);

  RunRequest req = RunRequest::gate_source(
      qasm::to_cqasm(ghz_program(4)), 96, /*seed=*/11);
  req.idempotency_key = "wire-key";

  const auto first = client.run(req);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(first->status.ok()) << first->status.to_string();

  // The duplicate proves the key survived the v3 encode/decode round
  // trip: the server recognised it and served the stored result.
  const auto dup = client.run(req);
  ASSERT_TRUE(dup.ok()) << dup.status().to_string();
  ASSERT_TRUE(dup->status.ok());
  EXPECT_TRUE(dup->stats.idempotent_hit);
  EXPECT_EQ(dup->histogram.counts(), first->histogram.counts());

  // Broken connection: run() redials the remembered endpoint and, because
  // the request is keyed, resubmits without double-running.
  client.close();
  ASSERT_FALSE(client.connected());
  const auto after = client.run(req);
  ASSERT_TRUE(after.ok()) << after.status().to_string();
  ASSERT_TRUE(after->status.ok());
  EXPECT_TRUE(after->stats.idempotent_hit);
  EXPECT_EQ(after->histogram.counts(), first->histogram.counts());

  server.shutdown();
}

TEST(GatewayIdempotency, KeyedJobSurvivesClientDisconnect) {
  QuantumService svc(perfect_gate(4), base_options(""));
  gateway::GatewayServer server(svc, gateway::GatewayOptions{});
  ASSERT_TRUE(server.start().ok());

  svc.pause();  // keep the job live across the disconnect
  std::uint64_t job_id = 0;
  {
    gateway::GatewayClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
    RunRequest req = RunRequest::gate_source(
        qasm::to_cqasm(ghz_program(4)), 64, /*seed=*/13);
    req.idempotency_key = "survivor";
    const auto id = client.submit(req);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    job_id = *id;
  }  // disconnect: a keyed job must NOT be cancelled with the connection
  svc.resume();

  gateway::GatewayClient second;
  ASSERT_TRUE(second.connect("127.0.0.1", server.port()).ok());
  RunRequest dup = RunRequest::gate_source(
      qasm::to_cqasm(ghz_program(4)), 64, /*seed=*/13);
  dup.idempotency_key = "survivor";
  const auto result = second.run(dup);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_TRUE(result->status.ok()) << result->status.to_string();
  EXPECT_EQ(result->histogram.total(), 64u);
  (void)job_id;

  server.shutdown();
}

}  // namespace
}  // namespace qs::service
