// Gateway tests: weighted-fair queue shares, tenant governor (token
// bucket + in-flight quota), ServiceOptions/GatewayOptions validation,
// wire-codec round trips (including randomized fuzz over RunRequests) and
// negative framing cases (truncated frames, oversized length prefixes,
// bad magic, unsupported versions, mid-frame disconnects), and end-to-end
// socket tests against a live GatewayServer: byte-identical histograms vs
// in-process submission, progress streaming, cancellation, admission
// rejections carrying queue depth, metrics exposition and graceful
// shutdown.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "compiler/kernel.h"
#include "qasm/printer.h"
#include "gateway/client.h"
#include "gateway/server.h"
#include "gateway/socket.h"
#include "gateway/tenant.h"
#include "gateway/wire.h"
#include "service/queue.h"
#include "service/service.h"

namespace qs::gateway {
namespace {

using namespace std::chrono_literals;

qasm::Program ghz_program(std::size_t n) {
  compiler::Program p("ghz", n);
  p.add_kernel("main").ghz(n).measure_all();
  return p.to_qasm();
}

std::string ghz_source(std::size_t n) {
  return qasm::to_cqasm(ghz_program(n));
}

runtime::GateAccelerator perfect_gate(std::size_t qubits) {
  return runtime::GateAccelerator(compiler::Platform::perfect(qubits));
}

/// A perfect-model gate backend whose service jobs run per-shot
/// trajectories instead of the sampling fast path.
runtime::GateAccelerator trajectory_gate(std::size_t qubits) {
  runtime::GateAccelerator gate = perfect_gate(qubits);
  sim::SimOptions so;
  so.sampling = false;
  gate.set_sim_options(so);
  return gate;
}

// ---------------------------------------------------- WeightedFairQueue ----

TEST(WeightedFairQueue, SharesFollowWeightsWithinTenPercent) {
  service::WeightedFairQueue<std::string> q(1024);
  q.set_weight("a", 3.0);
  q.set_weight("b", 1.0);
  q.set_weight("c", 1.0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.try_push("a", 0, "a"));
    ASSERT_TRUE(q.try_push("b", 0, "b"));
    ASSERT_TRUE(q.try_push("c", 0, "c"));
  }
  std::map<std::string, int> served;
  for (int i = 0; i < 100; ++i) ++served[*q.pop()];
  // Weights 3:1:1 over 100 pops -> expected 60/20/20; the acceptance bar
  // is shares within 10% of the weight proportions.
  EXPECT_NEAR(served["a"], 60, 6);
  EXPECT_NEAR(served["b"], 20, 2);
  EXPECT_NEAR(served["c"], 20, 2);
}

TEST(WeightedFairQueue, SingleTenantDegeneratesToPriorityFifo) {
  service::WeightedFairQueue<int> q(64);
  ASSERT_TRUE(q.try_push(1, 0, "t"));
  ASSERT_TRUE(q.try_push(2, 5, "t"));
  ASSERT_TRUE(q.try_push(3, -1, "t"));
  ASSERT_TRUE(q.try_push(4, 5, "t"));
  EXPECT_EQ(*q.pop(), 2);  // priority 5, first in
  EXPECT_EQ(*q.pop(), 4);  // priority 5, second in
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 3);
}

TEST(WeightedFairQueue, PriorityIsScopedWithinTenant) {
  // A high-priority job from tenant b does not jump tenant a's turn: the
  // inter-tenant schedule is weight-driven, priority only orders b's own
  // sub-queue.
  service::WeightedFairQueue<std::string> q(64);
  ASSERT_TRUE(q.try_push("a1", 0, "a"));
  ASSERT_TRUE(q.try_push("b-low", 0, "b"));
  ASSERT_TRUE(q.try_push("b-high", 9, "b"));
  std::map<std::string, int> pos;
  for (int i = 0; i < 3; ++i) pos[*q.pop()] = i;
  EXPECT_LT(pos["b-high"], pos["b-low"]);  // priority within tenant b
  EXPECT_LT(pos["a1"], pos["b-low"]);      // a got its fair turn
}

TEST(WeightedFairQueue, IdleTenantEarnsNoBankedCredit) {
  service::WeightedFairQueue<std::string> q(64);
  q.set_weight("busy", 1.0);
  q.set_weight("idle", 1.0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push("busy", 0, "busy"));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.pop(), "busy");
  // "idle" arrives late; equal weight means alternation from here on, not
  // a catch-up burst of 5.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push("idle", 0, "idle"));
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) order.push_back(*q.pop());
  EXPECT_EQ(std::count(order.begin(), order.end(), "idle"), 2);
}

TEST(WeightedFairQueue, TryPushRejectsWhenFullAndDrainsOnClose) {
  service::WeightedFairQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, 0, "a"));
  EXPECT_TRUE(q.try_push(2, 0, "b"));
  EXPECT_FALSE(q.try_push(3, 0, "c"));
  q.close();
  EXPECT_FALSE(q.try_push(4, 0, "a"));
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

// ------------------------------------------------------- TenantGovernor ----

TEST(TenantGovernor, BurstThenRateLimit) {
  TenantQuota quota;
  quota.submit_rate = 0.001;  // effectively no refill during the test
  quota.burst = 3.0;
  quota.max_inflight = 100;
  TenantGovernor gov(quota, {});
  EXPECT_TRUE(gov.admit("t").ok());
  EXPECT_TRUE(gov.admit("t").ok());
  EXPECT_TRUE(gov.admit("t").ok());
  const Status s = gov.admit("t");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("rate limit"), std::string::npos);
}

TEST(TenantGovernor, InflightQuotaReleasedOnRetire) {
  TenantQuota quota;
  quota.submit_rate = 1e6;
  quota.burst = 1e6;
  quota.max_inflight = 2;
  TenantGovernor gov(quota, {});
  EXPECT_TRUE(gov.admit("t").ok());
  EXPECT_TRUE(gov.admit("t").ok());
  const Status s = gov.admit("t");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("in-flight"), std::string::npos);
  gov.release("t");
  EXPECT_TRUE(gov.admit("t").ok());
  EXPECT_EQ(gov.inflight("t"), 2u);
}

TEST(TenantGovernor, QuotasAreIndependentPerTenant) {
  TenantQuota quota;
  quota.submit_rate = 1e6;
  quota.burst = 1e6;
  quota.max_inflight = 1;
  TenantGovernor gov(quota, {{"vip", TenantQuota{1e6, 1e6, 8}}});
  EXPECT_TRUE(gov.admit("a").ok());
  EXPECT_FALSE(gov.admit("a").ok());
  EXPECT_TRUE(gov.admit("b").ok());  // b unaffected by a's quota
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(gov.admit("vip").ok());
  EXPECT_FALSE(gov.admit("vip").ok());
}

// ----------------------------------------------------- RuntimeEstimator ----

TEST(RuntimeEstimator, UnprimedEstimateIsZero) {
  RuntimeEstimator est;
  EXPECT_EQ(est.estimate_us(), 0.0);
  // Negative observations are garbage (clock skew) and must not prime.
  est.observe(-50.0);
  EXPECT_EQ(est.estimate_us(), 0.0);
}

TEST(RuntimeEstimator, FirstObservationPrimesExactly) {
  RuntimeEstimator est;
  est.observe(1000.0);
  EXPECT_DOUBLE_EQ(est.estimate_us(), 1000.0);
}

TEST(RuntimeEstimator, EwmaFoldsWithAlphaOneFifth) {
  RuntimeEstimator est;
  est.observe(100.0);
  est.observe(200.0);  // 0.8 * 100 + 0.2 * 200
  EXPECT_DOUBLE_EQ(est.estimate_us(), 120.0);
  est.observe(-1.0);  // ignored after priming too
  EXPECT_DOUBLE_EQ(est.estimate_us(), 120.0);
}

TEST(RuntimeEstimator, ConvergesToStableRuntime) {
  RuntimeEstimator est;
  est.observe(10.0);  // stale outlier
  for (int i = 0; i < 60; ++i) est.observe(5000.0);
  EXPECT_NEAR(est.estimate_us(), 5000.0, 1.0);
  EXPECT_LE(est.estimate_us(), 5000.0);  // approaches from below
}

// ----------------------------------------------------- Option validation ----

TEST(ServiceOptionsValidation, RejectsZeroWorkersAndZeroQueue) {
  service::ServiceOptions opts;
  opts.workers = 0;
  EXPECT_EQ(opts.validate().code(), StatusCode::kInvalidArgument);
  EXPECT_THROW(service::QuantumService(perfect_gate(2), opts),
               std::invalid_argument);

  service::ServiceOptions opts2;
  opts2.queue_capacity = 0;
  EXPECT_EQ(opts2.validate().code(), StatusCode::kInvalidArgument);
  EXPECT_THROW(service::QuantumService(perfect_gate(2), opts2),
               std::invalid_argument);
}

TEST(ServiceOptionsValidation, RejectsNonPositiveTenantWeights) {
  service::ServiceOptions opts;
  opts.default_tenant_weight = 0.0;
  EXPECT_EQ(opts.validate().code(), StatusCode::kInvalidArgument);

  service::ServiceOptions opts2;
  opts2.tenant_weights["t"] = -1.0;
  EXPECT_EQ(opts2.validate().code(), StatusCode::kInvalidArgument);
  EXPECT_THROW(service::QuantumService(perfect_gate(2), opts2),
               std::invalid_argument);
}

TEST(GatewayOptionsValidation, RejectsNonPositiveTokenBucketRates) {
  GatewayOptions opts;
  opts.default_quota.submit_rate = 0.0;
  EXPECT_EQ(opts.validate().code(), StatusCode::kInvalidArgument);

  GatewayOptions opts2;
  opts2.tenant_quotas["t"].submit_rate = -5.0;
  EXPECT_EQ(opts2.validate().code(), StatusCode::kInvalidArgument);

  GatewayOptions opts3;
  opts3.default_quota.burst = 0.0;
  EXPECT_EQ(opts3.validate().code(), StatusCode::kInvalidArgument);

  GatewayOptions opts4;
  opts4.default_quota.max_inflight = 0;
  EXPECT_EQ(opts4.validate().code(), StatusCode::kInvalidArgument);
}

TEST(GatewayOptionsValidation, ConstructorThrowsOnBadConfig) {
  service::QuantumService svc(perfect_gate(2));
  GatewayOptions opts;
  opts.max_connections = 0;
  EXPECT_THROW(GatewayServer(svc, opts), std::invalid_argument);
}

TEST(RunRequestValidation, RejectsBadTenantNames) {
  runtime::RunRequest r =
      runtime::RunRequest::gate_source(ghz_source(2), 16);
  r.tenant = std::string(65, 'x');
  EXPECT_EQ(r.validate().code(), StatusCode::kInvalidArgument);
  r.tenant = "has space";
  EXPECT_EQ(r.validate().code(), StatusCode::kInvalidArgument);
  r.tenant = "quote\"y";
  EXPECT_EQ(r.validate().code(), StatusCode::kInvalidArgument);
  r.tenant = "team-a_01.prod";
  EXPECT_TRUE(r.validate().ok());
}

// ------------------------------------------------------------ Wire codec ----

TEST(WireCodec, StatusCodeWireNumberingRoundTrips) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kCancelled, StatusCode::kInvalidArgument,
        StatusCode::kDeadlineExceeded, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    EXPECT_EQ(status_code_from_wire(status_code_to_wire(code)), code);
  }
  // Unknown wire values must decode to kInternal, never crash.
  EXPECT_EQ(status_code_from_wire(12345), StatusCode::kInternal);
}

runtime::RunRequest random_request(std::mt19937_64& rng) {
  runtime::RunRequest r;
  const auto rand_string = [&](std::size_t max_len) {
    std::uniform_int_distribution<std::size_t> len(0, max_len);
    std::uniform_int_distribution<int> ch(0x21, 0x7e);
    std::string s(len(rng), ' ');
    for (auto& c : s)
      do {
        c = static_cast<char>(ch(rng));
      } while (c == '"');
    return s;
  };
  r.tenant = rand_string(16);
  r.session = rng();
  if (rng() % 2 == 0) {
    r.program_text = rand_string(200);
  } else {
    const std::size_t n = 1 + rng() % 8;
    anneal::Qubo qubo(n);
    const std::size_t terms = rng() % 12;
    std::uniform_real_distribution<double> w(-4.0, 4.0);
    for (std::size_t t = 0; t < terms; ++t)
      qubo.add(rng() % n, rng() % n, w(rng));
    r.qubo = std::move(qubo);
  }
  r.shots = 1 + rng() % 5000;
  r.seed = rng();
  r.priority = static_cast<int>(rng() % 21) - 10;
  if (rng() % 2 == 0)
    r.deadline = std::chrono::microseconds(rng() % 10'000'000);
  r.sim_threads = rng() % 8;
  r.tag = rand_string(24);
  return r;
}

TEST(WireCodec, RunRequestRoundTripFuzz) {
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    const runtime::RunRequest in = random_request(rng);
    Encoder e;
    encode_run_request(in, &e);
    Decoder d(e.bytes());
    runtime::RunRequest out;
    ASSERT_TRUE(decode_run_request(&d, &out)) << d.status().to_string();
    EXPECT_EQ(out.tenant, in.tenant);
    EXPECT_EQ(out.session, in.session);
    EXPECT_EQ(out.shots, in.shots);
    EXPECT_EQ(out.seed, in.seed);
    EXPECT_EQ(out.priority, in.priority);
    EXPECT_EQ(out.sim_threads, in.sim_threads);
    EXPECT_EQ(out.tag, in.tag);
    ASSERT_EQ(out.deadline.has_value(), in.deadline.has_value());
    if (in.deadline) {
      EXPECT_EQ(std::chrono::duration_cast<std::chrono::microseconds>(
                    *out.deadline),
                std::chrono::duration_cast<std::chrono::microseconds>(
                    *in.deadline));
    }
    ASSERT_EQ(out.program_text.has_value(), in.program_text.has_value());
    if (in.program_text) {
      EXPECT_EQ(*out.program_text, *in.program_text);
    }
    ASSERT_EQ(out.qubo.has_value(), in.qubo.has_value());
    if (in.qubo) {
      EXPECT_EQ(out.qubo->size(), in.qubo->size());
      EXPECT_EQ(out.qubo->terms(), in.qubo->terms());
    }
  }
}

TEST(WireCodec, TruncatedRunRequestNeverDecodesAndNeverCrashes) {
  std::mt19937_64 rng(7);
  const runtime::RunRequest in = random_request(rng);
  Encoder e;
  encode_run_request(in, &e);
  const auto& bytes = e.bytes();
  // Every strict prefix must fail with a typed status, not crash or
  // half-populate.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder d(bytes.data(), cut);
    runtime::RunRequest out;
    EXPECT_FALSE(decode_run_request(&d, &out)) << "prefix length " << cut;
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireCodec, RunResultRoundTripsIncludingErrorStatus) {
  runtime::RunResult in;
  in.job_id = 42;
  in.kind = runtime::JobKind::Anneal;
  in.tag = "route";
  in.status = Status::DeadlineExceeded("expired mid-run");
  in.histogram.add("0101", 7);
  in.histogram.add("1111", 3);
  in.best_solution = {0, 1, 0, 1};
  in.best_energy = -3.5;
  in.stats.queue_wait_us = 12.5;
  in.stats.run_us = 480.0;
  in.stats.retries = 2;
  in.stats.shards = 4;
  in.stats.sampled = true;

  Encoder e;
  encode_run_result(in, &e);
  Decoder d(e.bytes());
  runtime::RunResult out;
  ASSERT_TRUE(decode_run_result(&d, &out));
  EXPECT_EQ(out.job_id, in.job_id);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.tag, in.tag);
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.histogram.counts(), in.histogram.counts());
  EXPECT_EQ(out.best_solution, in.best_solution);
  EXPECT_DOUBLE_EQ(out.best_energy, in.best_energy);
  EXPECT_EQ(out.stats.retries, in.stats.retries);
  EXPECT_EQ(out.stats.shards, in.stats.shards);
  EXPECT_TRUE(out.stats.sampled);
}

TEST(WireCodec, TrailingGarbageIsAFramingError) {
  Encoder e;
  encode_cancel(CancelRequest{9}, &e);
  auto bytes = e.take();
  bytes.push_back(0xff);
  Decoder d(bytes);
  CancelRequest out;
  EXPECT_FALSE(decode_cancel(&d, &out));
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireCodec, StringLengthPrefixBeyondPayloadIsRejected) {
  Encoder e;
  e.u32(1000);  // claims 1000 bytes follow
  e.u8('x');    // only one does
  Decoder d(e.bytes());
  std::string s;
  EXPECT_FALSE(d.str(&s));
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

// Frame-level negatives run over a loopback socketpair so the read path is
// the real one the server uses.
struct SocketPair {
  Socket a, b;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

TEST(WireFraming, RoundTripsOverSocket) {
  SocketPair sp;
  Encoder e;
  encode_submit_reply(SubmitReply{77}, &e);
  ASSERT_TRUE(write_frame(sp.a, Op::kSubmitOk, e.bytes()).ok());
  Frame f;
  ASSERT_TRUE(read_frame(sp.b, &f).ok());
  EXPECT_EQ(f.op, Op::kSubmitOk);
  EXPECT_EQ(f.version, kProtocolVersion);
  Decoder d(f.payload);
  SubmitReply reply;
  ASSERT_TRUE(decode_submit_reply(&d, &reply));
  EXPECT_EQ(reply.job_id, 77u);
}

TEST(WireFraming, BadMagicIsInvalidArgument) {
  SocketPair sp;
  Encoder e;
  e.u32(0xdeadbeef);  // wrong magic
  e.u16(kProtocolVersion);
  e.u16(static_cast<std::uint16_t>(Op::kSubmit));
  e.u32(0);
  ASSERT_TRUE(write_all(sp.a, e.bytes().data(), e.bytes().size()).ok());
  Frame f;
  const Status s = read_frame(sp.b, &f);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("magic"), std::string::npos);
}

TEST(WireFraming, UnsupportedVersionIsInvalidArgument) {
  SocketPair sp;
  Encoder e;
  e.u32(kMagic);
  e.u16(99);  // future protocol version
  e.u16(static_cast<std::uint16_t>(Op::kSubmit));
  e.u32(0);
  ASSERT_TRUE(write_all(sp.a, e.bytes().data(), e.bytes().size()).ok());
  Frame f;
  const Status s = read_frame(sp.b, &f);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(WireFraming, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  SocketPair sp;
  Encoder e;
  e.u32(kMagic);
  e.u16(kProtocolVersion);
  e.u16(static_cast<std::uint16_t>(Op::kSubmit));
  e.u32(kMaxPayloadBytes + 1);
  ASSERT_TRUE(write_all(sp.a, e.bytes().data(), e.bytes().size()).ok());
  Frame f;
  const Status s = read_frame(sp.b, &f);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("cap"), std::string::npos);
}

TEST(WireFraming, MidFrameDisconnectIsTypedUnavailable) {
  SocketPair sp;
  Encoder e;
  e.u32(kMagic);
  e.u16(kProtocolVersion);
  e.u16(static_cast<std::uint16_t>(Op::kSubmit));
  e.u32(100);  // promises 100 payload bytes
  e.u64(0);    // delivers 8
  ASSERT_TRUE(write_all(sp.a, e.bytes().data(), e.bytes().size()).ok());
  sp.a.close();  // peer dies mid-frame
  Frame f;
  const Status s = read_frame(sp.b, &f);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("mid-frame"), std::string::npos);
}

TEST(WireFraming, CleanEofBetweenFramesIsDistinguishable) {
  SocketPair sp;
  sp.a.close();
  Frame f;
  const Status s = read_frame(sp.b, &f);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), "connection closed");
}

// ------------------------------------------------------------ End-to-end ----

struct LiveGateway {
  service::QuantumService svc;
  GatewayServer server;

  explicit LiveGateway(service::ServiceOptions sopts = {},
                       GatewayOptions gopts = {},
                       runtime::GateAccelerator gate = perfect_gate(8))
      : svc(std::move(gate), runtime::AnnealAccelerator(/*capacity=*/8),
            std::move(sopts)),
        server(svc, std::move(gopts)) {
    const Status s = server.start();
    EXPECT_TRUE(s.ok()) << s.to_string();
  }
};

TEST(GatewayEndToEnd, HistogramByteIdenticalToInProcessSubmission) {
  LiveGateway gw;
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());
  EXPECT_EQ(client.version(), kProtocolVersion);

  runtime::RunRequest request =
      runtime::RunRequest::gate_source(ghz_source(4), 512, /*seed=*/99);
  request.tenant = "tenant-a";

  const auto id = client.submit(request);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto remote = client.wait(*id);
  ASSERT_TRUE(remote.ok()) << remote.status().to_string();
  ASSERT_TRUE(remote->status.ok()) << remote->status.to_string();

  // The determinism contract: same source, shots, seed and shard size
  // produce the same histogram — through the wire or in process.
  service::QuantumService local(perfect_gate(8));
  const runtime::RunResult direct =
      local
          .submit(runtime::RunRequest::gate_source(ghz_source(4), 512,
                                                   /*seed=*/99))
          .get();
  ASSERT_TRUE(direct.status.ok());
  EXPECT_EQ(remote->histogram.counts(), direct.histogram.counts());
  EXPECT_EQ(remote->histogram.total(), 512u);
}

TEST(GatewayEndToEnd, AnnealJobsRoundTrip) {
  LiveGateway gw;
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  anneal::Qubo qubo(3);
  qubo.add(0, 0, 1.0);
  qubo.add(1, 1, 1.0);
  qubo.add(2, 2, -2.0);
  const auto id =
      client.submit(runtime::RunRequest::anneal(qubo, 64, /*seed=*/5));
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const auto result = client.wait(*id);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.to_string();
  EXPECT_EQ(result->kind, runtime::JobKind::Anneal);
  EXPECT_EQ(result->best_solution, (std::vector<int>{0, 0, 1}));
  EXPECT_DOUBLE_EQ(result->best_energy, -2.0);
}

TEST(GatewayEndToEnd, MalformedRequestIsTypedInvalidArgument) {
  LiveGateway gw;
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  runtime::RunRequest bad;  // no payload at all
  bad.shots = 16;
  const auto id = client.submit(bad);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);

  // The connection survives a rejected submit.
  const auto good = client.submit(
      runtime::RunRequest::gate_source(ghz_source(2), 32));
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  EXPECT_TRUE(client.wait(*good).ok());
}

TEST(GatewayEndToEnd, HugeShotCountIsTypedInvalidArgument) {
  LiveGateway gw;
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  for (const std::size_t shots : {std::size_t{1} << 62, SIZE_MAX}) {
    const auto id =
        client.submit(runtime::RunRequest::gate_source(ghz_source(2), shots));
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
  }

  // The server answers the next job on the same connection.
  const auto good =
      client.submit(runtime::RunRequest::gate_source(ghz_source(2), 32));
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  const auto result = client.wait(*good);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_TRUE(result->status.ok()) << result->status.to_string();
  EXPECT_EQ(result->histogram.total(), 32u);
}

TEST(GatewayEndToEnd, EmptyQuboSubmitIsTypedInvalidArgument) {
  // A QUBO body claiming zero variables must be refused by the decoder:
  // the Qubo constructor throws on it, and a throw inside a connection
  // thread would terminate the whole server.
  LiveGateway gw;
  Socket sock;
  ASSERT_TRUE(connect_tcp("127.0.0.1", gw.server.port(), &sock).ok());
  Encoder hello;
  encode_hello(HelloRequest{}, &hello);
  ASSERT_TRUE(write_frame(sock, Op::kHello, hello.bytes()).ok());
  Frame f;
  ASSERT_TRUE(read_frame(sock, &f).ok());
  ASSERT_EQ(f.op, Op::kHelloOk);

  Encoder submit;
  submit.str("");  // tenant
  submit.u64(0);   // session
  submit.u8(1);    // QUBO payload
  submit.u32(0);   // zero variables
  submit.u32(0);   // zero terms
  ASSERT_TRUE(write_frame(sock, Op::kSubmit, submit.bytes()).ok());
  ASSERT_TRUE(read_frame(sock, &f).ok());
  ASSERT_EQ(f.op, Op::kError);
  WireError err;
  Decoder d(f.payload);
  ASSERT_TRUE(decode_error(&d, &err));
  EXPECT_EQ(err.status.code(), StatusCode::kInvalidArgument);

  // The server keeps serving.
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());
  const auto result =
      client.run(runtime::RunRequest::gate_source(ghz_source(2), 16));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->status.ok()) << result->status.to_string();
}

TEST(GatewayEndToEnd, QueueFullShedsWithDepthNotSilently) {
  service::ServiceOptions sopts;
  sopts.workers = 1;
  sopts.queue_capacity = 1;
  sopts.start_paused = true;
  LiveGateway gw(sopts);
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  const auto first = client.submit(
      runtime::RunRequest::gate_source(ghz_source(2), 32));
  ASSERT_TRUE(first.ok()) << first.status().to_string();

  // Queue holds one paused job; the next submit must shed at admission
  // with the depth attached, not block and not vanish.
  const auto second = client.submit(
      runtime::RunRequest::gate_source(ghz_source(2), 32));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.last_queue_depth(), 1u);

  gw.svc.resume();
  const auto result = client.wait(*first);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok());
}

TEST(GatewayEndToEnd, TenantInflightQuotaRejectsExcess) {
  GatewayOptions gopts;
  gopts.default_quota.max_inflight = 1;
  service::ServiceOptions sopts;
  sopts.start_paused = true;
  LiveGateway gw(sopts, gopts);
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  runtime::RunRequest request =
      runtime::RunRequest::gate_source(ghz_source(2), 32);
  request.tenant = "small";
  const auto first = client.submit(request);
  ASSERT_TRUE(first.ok());
  const auto second = client.submit(request);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("in-flight"), std::string::npos);

  // Retrieving the first job returns the slot.
  gw.svc.resume();
  ASSERT_TRUE(client.wait(*first).ok());
  const auto third = client.submit(request);
  EXPECT_TRUE(third.ok()) << third.status().to_string();
  ASSERT_TRUE(client.wait(*third).ok());
}

TEST(GatewayEndToEnd, TokenBucketRateLimitsPerTenant) {
  GatewayOptions gopts;
  gopts.tenant_quotas["chatty"] = TenantQuota{/*submit_rate=*/0.001,
                                              /*burst=*/2.0,
                                              /*max_inflight=*/100};
  LiveGateway gw({}, gopts);
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  runtime::RunRequest request =
      runtime::RunRequest::gate_source(ghz_source(2), 16);
  request.tenant = "chatty";
  const auto a = client.submit(request);
  const auto b = client.submit(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto c = client.submit(request);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(c.status().message().find("rate limit"), std::string::npos);

  // Other tenants are untouched by chatty's empty bucket.
  request.tenant = "quiet";
  const auto d = client.submit(request);
  EXPECT_TRUE(d.ok()) << d.status().to_string();
  ASSERT_TRUE(client.wait(*a).ok());
  ASSERT_TRUE(client.wait(*b).ok());
  ASSERT_TRUE(client.wait(*d).ok());
}

TEST(GatewayEndToEnd, CancelResolvesToCancelled) {
  service::ServiceOptions sopts;
  sopts.start_paused = true;  // job cannot dispatch before the cancel lands
  LiveGateway gw(sopts);
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  const auto id = client.submit(
      runtime::RunRequest::gate_source(ghz_source(2), 64));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.cancel(*id).ok());
  gw.svc.resume();
  const auto result = client.wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kCancelled);
}

TEST(GatewayEndToEnd, StreamProgressDeliversShardSnapshots) {
  service::ServiceOptions sopts;
  sopts.shard_shots = 64;
  // Per-shot trajectories, so shards take time.
  LiveGateway gw(sopts, {}, trajectory_gate(8));
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  runtime::RunRequest request =
      runtime::RunRequest::gate_source(ghz_source(8), 2048, /*seed=*/3);
  const auto id = client.submit(request);
  ASSERT_TRUE(id.ok());

  std::vector<ProgressUpdate> updates;
  const Status s = client.stream_progress(
      *id, [&](const ProgressUpdate& u) { updates.push_back(u); });
  ASSERT_TRUE(s.ok()) << s.to_string();

  const auto result = client.wait(*id);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  EXPECT_EQ(result->histogram.total(), 2048u);

  // 2048 shots / 64-shot shards = 32 shard boundaries. However early or
  // late the stream attached, it delivers snapshots monotone in seq, each
  // a partial histogram of whole shards, and ends with the terminal
  // snapshot: every shard merged, partial equal to the final histogram.
  ASSERT_FALSE(updates.empty());
  std::uint64_t prev_seq = 0;
  for (const auto& u : updates) {
    EXPECT_GT(u.seq, prev_seq);
    prev_seq = u.seq;
    EXPECT_EQ(u.shards_total, 32u);
    EXPECT_LE(u.shards_done, 32u);
    EXPECT_LE(u.partial.total(), 2048u);
    EXPECT_EQ(u.partial.total(), u.shards_done * 64u);
  }
  EXPECT_EQ(updates.back().shards_done, 32u);
  EXPECT_EQ(updates.back().partial.counts(), result->histogram.counts());
}

TEST(GatewayEndToEnd, StreamOpenedAfterCompletionGetsTerminalSnapshot) {
  service::ServiceOptions sopts;
  sopts.shard_shots = 64;
  LiveGateway gw(sopts);
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  const auto id = client.submit(
      runtime::RunRequest::gate_source(ghz_source(4), 256, /*seed=*/5));
  ASSERT_TRUE(id.ok());
  gw.svc.drain();  // finished before the stream opens

  std::vector<ProgressUpdate> updates;
  ASSERT_TRUE(client
                  .stream_progress(*id, [&](const ProgressUpdate& u) {
                    updates.push_back(u);
                  })
                  .ok());
  const auto result = client.wait(*id);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].seq, 4u);
  EXPECT_EQ(updates[0].shards_total, 4u);
  EXPECT_EQ(updates[0].shards_done, 4u);
  EXPECT_EQ(updates[0].partial.counts(), result->histogram.counts());
}

TEST(GatewayEndToEnd, MetricsOpExposesHistogramsAndTenantFamilies) {
  LiveGateway gw;
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  runtime::RunRequest request =
      runtime::RunRequest::gate_source(ghz_source(2), 32);
  request.tenant = "acme";
  const auto id = client.submit(request);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.wait(*id).ok());

  const auto text = client.metrics();
  ASSERT_TRUE(text.ok()) << text.status().to_string();
  EXPECT_NE(text->find("qs_queue_wait_seconds"), std::string::npos);
  EXPECT_NE(text->find("qs_tenant_admitted_total{tenant=\"acme\"}"),
            std::string::npos);
  EXPECT_NE(text->find("qs_tenant_inflight{tenant=\"acme\"}"),
            std::string::npos);
  EXPECT_NE(text->find("qs_gateway_submits_total"), std::string::npos);
}

TEST(GatewayEndToEnd, VersionNegotiationRefusesDisjointRanges) {
  LiveGateway gw;
  Socket sock;
  ASSERT_TRUE(connect_tcp("127.0.0.1", gw.server.port(), &sock).ok());

  HelloRequest hello;
  hello.min_version = 99;  // future client, no overlap with the server
  hello.max_version = 99;
  hello.client_name = "from-the-future";
  Encoder e;
  encode_hello(hello, &e);
  ASSERT_TRUE(write_frame(sock, Op::kHello, e.bytes()).ok());

  Frame f;
  ASSERT_TRUE(read_frame(sock, &f).ok());
  ASSERT_EQ(f.op, Op::kError);
  WireError err;
  Decoder d(f.payload);
  ASSERT_TRUE(decode_error(&d, &err));
  EXPECT_EQ(err.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(err.status.message().find("version"), std::string::npos);
}

TEST(GatewayEndToEnd, FirstFrameMustBeHello) {
  LiveGateway gw;
  Socket sock;
  ASSERT_TRUE(connect_tcp("127.0.0.1", gw.server.port(), &sock).ok());

  Encoder e;
  encode_poll(PollRequest{1, 0}, &e);
  ASSERT_TRUE(write_frame(sock, Op::kPoll, e.bytes()).ok());

  Frame f;
  ASSERT_TRUE(read_frame(sock, &f).ok());
  ASSERT_EQ(f.op, Op::kError);
  WireError err;
  Decoder d(f.payload);
  ASSERT_TRUE(decode_error(&d, &err));
  EXPECT_EQ(err.status.code(), StatusCode::kFailedPrecondition);
}

TEST(GatewayEndToEnd, GarbageBytesCloseTheConnectionWithoutCrashing) {
  LiveGateway gw;
  Socket sock;
  ASSERT_TRUE(connect_tcp("127.0.0.1", gw.server.port(), &sock).ok());
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(write_all(sock, garbage.data(), garbage.size()).ok());
  // The server cannot resynchronize a corrupt stream: it hangs up.
  Frame f;
  EXPECT_FALSE(read_frame(sock, &f).ok());

  // And the gateway still serves fresh connections.
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());
  const auto id = client.submit(
      runtime::RunRequest::gate_source(ghz_source(2), 16));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(client.wait(*id).ok());
}

TEST(GatewayEndToEnd, DisconnectedClientsJobsAreCancelledAndReleased) {
  GatewayOptions gopts;
  gopts.default_quota.max_inflight = 1;
  service::ServiceOptions sopts;
  sopts.start_paused = true;
  LiveGateway gw(sopts, gopts);

  {
    GatewayClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());
    runtime::RunRequest request =
        runtime::RunRequest::gate_source(ghz_source(2), 32);
    request.tenant = "droppy";
    ASSERT_TRUE(client.submit(request).ok());
  }  // connection drops with the job unretrieved

  // The dead connection's in-flight slot must come back; bounded wait for
  // the server to reap the connection.
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  GatewayClient client2;
  ASSERT_TRUE(client2.connect("127.0.0.1", gw.server.port()).ok());
  runtime::RunRequest request =
      runtime::RunRequest::gate_source(ghz_source(2), 32);
  request.tenant = "droppy";
  for (;;) {
    const auto id = client2.submit(request);
    if (id.ok()) {
      gw.svc.resume();
      ASSERT_TRUE(client2.wait(*id).ok());
      break;
    }
    ASSERT_EQ(id.status().code(), StatusCode::kResourceExhausted);
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "slot never released";
    std::this_thread::sleep_for(5ms);
  }
}

TEST(GatewayEndToEnd, GracefulShutdownRejectsNewWorkAndDrains) {
  GatewayOptions gopts;
  gopts.drain_timeout = std::chrono::milliseconds(5000);
  service::ServiceOptions sopts;
  sopts.shard_shots = 64;
  LiveGateway gw(sopts, gopts, trajectory_gate(8));
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  const auto slow = client.submit(
      runtime::RunRequest::gate_source(ghz_source(8), 1024));
  ASSERT_TRUE(slow.ok());

  std::thread shutter([&] { gw.server.shutdown(); });
  // Wait until the drain gate is actually closed, then verify the reject.
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    const auto extra = client.submit(
        runtime::RunRequest::gate_source(ghz_source(2), 16));
    if (!extra.ok()) {
      EXPECT_EQ(extra.status().code(), StatusCode::kUnavailable);
      EXPECT_NE(extra.status().message().find("draining"), std::string::npos);
      break;
    }
    // Raced ahead of the drain flag: retrieve and try again.
    ASSERT_TRUE(client.wait(*extra).ok());
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
  }

  // The already-admitted job survives the drain and is retrievable.
  const auto result = client.wait(*slow);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->status.ok());
  EXPECT_EQ(result->histogram.total(), 1024u);
  shutter.join();
  EXPECT_EQ(gw.server.outstanding_jobs(), 0u);
}

TEST(GatewayEndToEnd, WeightedTenantsShareDispatchByWeight) {
  service::ServiceOptions sopts;
  sopts.workers = 1;
  sopts.queue_capacity = 64;
  sopts.start_paused = true;  // let the backlog build, then release
  sopts.tenant_weights = {{"gold", 3.0}, {"silver", 1.0}, {"bronze", 1.0}};
  LiveGateway gw(sopts);
  GatewayClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", gw.server.port()).ok());

  std::map<std::string, std::vector<std::uint64_t>> ids;
  for (int i = 0; i < 10; ++i) {
    for (const char* tenant : {"gold", "silver", "bronze"}) {
      runtime::RunRequest request =
          runtime::RunRequest::gate_source(ghz_source(2), 16);
      request.tenant = tenant;
      const auto id = client.submit(request);
      ASSERT_TRUE(id.ok()) << id.status().to_string();
      ids[tenant].push_back(*id);
    }
  }
  gw.svc.resume();

  std::map<std::string, std::vector<std::uint64_t>> dispatch_seq;
  for (auto& [tenant, jobs] : ids)
    for (const auto id : jobs) {
      const auto result = client.wait(id);
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(result->status.ok());
      dispatch_seq[tenant].push_back(result->stats.dispatch_seq);
    }

  // Among the first 15 dispatches, weights 3:1:1 predict 9/3/3. Allow one
  // slot of slack (the resume point is not atomic with the backlog).
  std::map<std::string, int> early;
  for (const auto& [tenant, seqs] : dispatch_seq)
    for (const auto seq : seqs)
      if (seq <= 15) ++early[tenant];
  EXPECT_NEAR(early["gold"], 9, 1);
  EXPECT_NEAR(early["silver"], 3, 1);
  EXPECT_NEAR(early["bronze"], 3, 1);
}

}  // namespace
}  // namespace qs::gateway
