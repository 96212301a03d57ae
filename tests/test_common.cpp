// Unit tests for the common substrate: RNG, matrices, stats, config, the
// robustness primitives (Status, backoff, cancellation), and the shared
// byte codec — its primitives, the RunRequest / RunResult bodies pinned to
// protocol-v4 golden bytes, and seeded mutation tests of every decoder
// built on it (wire bodies, journal replay, checkpoints, store codecs).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/cancellation.h"
#include "common/codec.h"
#include "common/config.h"
#include "common/hash.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "compiler/kernel.h"
#include "runtime/accelerator.h"
#include "runtime/run_codec.h"
#include "service/cache.h"
#include "service/checkpoint.h"
#include "service/final_state_cache.h"
#include "service/journal.h"
#include "sim/simulator.h"

namespace qs {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, DiscreteFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 40000; ++i)
    ones += rng.discrete(weights) == 1 ? 1 : 0;
  EXPECT_NEAR(ones / 40000.0, 0.75, 0.02);
}

TEST(Rng, DiscreteRejectsBadInput) {
  Rng rng(1);
  EXPECT_THROW(rng.discrete({}), std::invalid_argument);
  EXPECT_THROW(rng.discrete({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.discrete({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// The division-free bounded draw must be Rng::uniform_int exactly: same
// values and same number of draws, including rejected ones.
TEST(UniformInt, MatchesRngUniformIntDrawForDraw) {
  for (std::uint64_t n = 1; n <= 64; ++n) {
    const UniformInt draw(n);
    Rng a(n), b(n);
    for (int t = 0; t < 2000; ++t) ASSERT_EQ(draw(a), b.uniform_int(n)) << n;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << n;
  }
}

TEST(UniformInt, ThresholdAndRemainderOnAdversarialDraws) {
  constexpr std::uint64_t kMax = ~0ULL;
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t n = 1; n <= 64; ++n) bounds.push_back(n);
  bounds.insert(bounds.end(),
                {1000003, (1ULL << 32) - 1, (1ULL << 32) + 1, (1ULL << 63) - 1,
                 1ULL << 63, (1ULL << 63) + 1, kMax - 1, kMax});
  for (std::uint64_t n : bounds) {
    const UniformInt draw(n);
    const std::uint64_t threshold = (0ULL - n) % n;
    std::vector<std::uint64_t> rs = {0, 1, threshold, threshold + 1,
                                     kMax, kMax - 1};
    if (threshold > 0) rs.push_back(threshold - 1);
    // Multiples of n and their neighbours, at the bottom and the top of
    // the 64-bit range (where the quotient estimate is most strained).
    const std::uint64_t top = kMax / n;
    for (std::uint64_t q : {std::uint64_t{1}, std::uint64_t{2}, top / 2,
                            top - 1, top}) {
      if (q == 0) continue;
      const std::uint64_t m = q * n;
      rs.insert(rs.end(), {m - 1, m, m + 1});
    }
    for (std::uint64_t r : rs) {
      EXPECT_EQ(draw.accepts(r), r >= threshold) << n << " " << r;
      EXPECT_EQ(draw.reduce(r), r % n) << n << " " << r;
    }
  }
  EXPECT_THROW(UniformInt(0), std::invalid_argument);
}

TEST(Shuffler, MatchesRngShuffle) {
  for (std::size_t n = 0; n <= 40; ++n) {
    const Shuffler shuffle(n);
    Rng a(100 + n), b(100 + n);
    std::vector<std::size_t> u(n), v(n);
    std::iota(u.begin(), u.end(), 0);
    std::iota(v.begin(), v.end(), 0);
    for (int t = 0; t < 50; ++t) {
      shuffle(u, a);
      b.shuffle(v);
      ASSERT_EQ(u, v) << n;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << n;
  }
  std::vector<int> too_long(5);
  Rng rng(1);
  EXPECT_THROW(Shuffler(4)(too_long, rng), std::length_error);
}

// ------------------------------------------------------------- Matrix ----

TEST(Matrix, IdentityTimesAnything) {
  const Matrix m{{1, 2}, {3, cplx(0, 1)}};
  EXPECT_TRUE((Matrix::identity(2) * m).approx_equal(m));
  EXPECT_TRUE((m * Matrix::identity(2)).approx_equal(m));
}

TEST(Matrix, MultiplyKnownProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix expect{{19, 22}, {43, 50}};
  EXPECT_TRUE((a * b).approx_equal(expect));
}

TEST(Matrix, DaggerOfProduct) {
  const Matrix a{{cplx(0, 1), 1}, {0, 2}};
  const Matrix b{{1, cplx(2, -1)}, {3, 0}};
  // (AB)^dag = B^dag A^dag
  EXPECT_TRUE((a * b).dagger().approx_equal(b.dagger() * a.dagger()));
}

TEST(Matrix, KronDimensions) {
  const Matrix a = Matrix::identity(2);
  const Matrix b = Matrix::identity(4);
  const Matrix k = a.kron(b);
  EXPECT_EQ(k.rows(), 8u);
  EXPECT_TRUE(k.approx_equal(Matrix::identity(8)));
}

TEST(Matrix, KronOfPaulis) {
  const Matrix x{{0, 1}, {1, 0}};
  const Matrix z{{1, 0}, {0, -1}};
  const Matrix xz = x.kron(z);
  // X(x)Z maps |00> (col 0) to |10> with +1: entry (2,0) = 1.
  EXPECT_NEAR(std::abs(xz(2, 0) - cplx(1, 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(xz(3, 1) - cplx(-1, 0)), 0.0, 1e-12);
}

TEST(Matrix, UnitarityChecks) {
  const double s = 1.0 / std::sqrt(2.0);
  const Matrix h{{s, s}, {s, -s}};
  EXPECT_TRUE(h.is_unitary());
  const Matrix not_unitary{{1, 1}, {0, 1}};
  EXPECT_FALSE(not_unitary.is_unitary());
}

TEST(Matrix, EqualUpToPhase) {
  const Matrix x{{0, 1}, {1, 0}};
  const cplx phase = std::exp(cplx(0, 1.234));
  EXPECT_TRUE((x * phase).equal_up_to_phase(x));
  const Matrix z{{1, 0}, {0, -1}};
  EXPECT_FALSE((x * phase).equal_up_to_phase(z));
}

TEST(Matrix, TraceAndErrors) {
  const Matrix m{{1, 2}, {3, cplx(4, 5)}};
  EXPECT_NEAR(std::abs(m.trace() - cplx(5, 5)), 0.0, 1e-12);
  const Matrix rect(2, 3);
  EXPECT_THROW(rect.trace(), std::invalid_argument);
  EXPECT_THROW(rect + m, std::invalid_argument);
  EXPECT_THROW(m * rect.dagger(), std::invalid_argument);
  EXPECT_NO_THROW(m * rect);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

// -------------------------------------------------------------- Stats ----

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, CountsAndMode) {
  Histogram h;
  h.add("00");
  h.add("01", 3);
  h.add("00");
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count("00"), 2u);
  EXPECT_EQ(h.count("10"), 0u);
  EXPECT_NEAR(h.frequency("01"), 0.6, 1e-12);
  EXPECT_EQ(h.mode(), "01");
}

TEST(Histogram, EmptyMode) {
  Histogram h;
  EXPECT_EQ(h.mode(), "");
  EXPECT_EQ(h.frequency("x"), 0.0);
}

TEST(StatsHelpers, MeanStd) {
  EXPECT_EQ(mean_of({}), 0.0);
  EXPECT_NEAR(mean_of({1, 2, 3}), 2.0, 1e-12);
  EXPECT_NEAR(stddev_of({2, 4}), std::sqrt(2.0), 1e-12);
  EXPECT_EQ(stddev_of({5}), 0.0);
}

// -------------------------------------------------------------- Config ----

TEST(Config, ParseSectionsAndTypes) {
  const Config cfg = Config::parse(R"(
# comment line
top = 1
[platform]
name = test
qubits = 17
scale = 2.5
enabled = true
)");
  EXPECT_EQ(cfg.get_string("", "top"), "1");
  EXPECT_EQ(cfg.get_string("platform", "name"), "test");
  EXPECT_EQ(cfg.get_int("platform", "qubits", 0), 17);
  EXPECT_NEAR(cfg.get_double("platform", "scale", 0), 2.5, 1e-12);
  EXPECT_TRUE(cfg.get_bool("platform", "enabled", false));
}

TEST(Config, FallbacksForMissingKeys) {
  const Config cfg = Config::parse("[a]\nx = 1\n");
  EXPECT_EQ(cfg.get_int("a", "missing", -7), -7);
  EXPECT_EQ(cfg.get_string("nosection", "x", "def"), "def");
  EXPECT_FALSE(cfg.has("a", "missing"));
  EXPECT_TRUE(cfg.has("a", "x"));
}

TEST(Config, SyntaxErrors) {
  EXPECT_THROW(Config::parse("[unterminated\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("keywithoutvalue\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("= value\n"), std::runtime_error);
}

TEST(Config, RoundTrip) {
  Config cfg;
  cfg.set("s", "k", "v");
  cfg.set("s", "n", "42");
  const Config back = Config::parse(cfg.to_string());
  EXPECT_EQ(back.get_string("s", "k"), "v");
  EXPECT_EQ(back.get_int("s", "n", 0), 42);
}

TEST(Config, BadBooleanThrows) {
  const Config cfg = Config::parse("[a]\nflag = maybe\n");
  EXPECT_THROW(cfg.get_bool("a", "flag", false), std::runtime_error);
}

TEST(Config, KeysAndSectionsSorted) {
  const Config cfg = Config::parse("[b]\nz=1\na=2\n[a]\nq=3\n");
  const auto keys = cfg.keys("b");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "z");
  const auto sections = cfg.sections();
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0], "a");
}

// ------------------------------------------------------------- Status ----

TEST(Status, EveryCodeRendersADistinctName) {
  std::set<std::string> names;
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kCancelled, StatusCode::kInvalidArgument,
        StatusCode::kDeadlineExceeded, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    names.insert(to_string(code));
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Cancelled("x"), Status::Cancelled("x"));
  EXPECT_NE(Status::Cancelled("x"), Status::Cancelled("y"));
  EXPECT_NE(Status::Cancelled("x"), Status::Internal("x"));
  EXPECT_TRUE(Status().ok());
}

TEST(StatusOr, MovesValueOutOnce) {
  StatusOr<std::string> s(std::string(100, 'a'));
  ASSERT_TRUE(s.ok());
  const std::string taken = std::move(s.value());
  EXPECT_EQ(taken.size(), 100u);
  EXPECT_THROW(StatusOr<int>(Status::Internal("boom")).value(),
               std::logic_error);
}

// ------------------------------------------------------------ Backoff ----

TEST(BackoffPolicy, DefaultPolicyIsMonotonicUpToCap) {
  const BackoffPolicy policy;
  for (std::size_t attempt = 0; attempt + 1 < 10; ++attempt)
    EXPECT_LE(policy.delay(attempt), policy.delay(attempt + 1));
  EXPECT_LE(policy.delay(64), policy.cap);  // no overflow at high attempts
}

TEST(BackoffPolicy, SaturatesAtCapForHugeAttemptsAndHugeCaps) {
  // Regression: delay() used to compute min(initial * mult^attempt, cap)
  // in double and cast back to the microseconds rep. With cap near
  // microseconds::max() the cap itself rounds *up* when converted to
  // double, so the cast was UB for large attempts (pow -> inf). The fix
  // saturates by comparison and returns cap exactly.
  BackoffPolicy policy;
  policy.initial = std::chrono::microseconds{200};
  policy.multiplier = 2.0;
  policy.cap = std::chrono::microseconds::max();
  EXPECT_EQ(policy.delay(0), std::chrono::microseconds{200});
  EXPECT_EQ(policy.delay(10), std::chrono::microseconds{200 << 10});
  // Well past the point where the double math reaches inf.
  EXPECT_EQ(policy.delay(1 << 20), std::chrono::microseconds::max());
  EXPECT_EQ(policy.delay(std::numeric_limits<std::size_t>::max()),
            std::chrono::microseconds::max());
}

TEST(BackoffPolicy, CapSmallerThanInitialClampsImmediately) {
  BackoffPolicy policy;
  policy.initial = std::chrono::microseconds{500};
  policy.cap = std::chrono::microseconds{100};
  EXPECT_EQ(policy.delay(0), policy.cap);
  EXPECT_EQ(policy.delay(7), policy.cap);
}

TEST(BackoffPolicy, NonPositiveInitialAndFlatMultiplierAreSafe) {
  BackoffPolicy zero;
  zero.initial = std::chrono::microseconds{0};
  EXPECT_EQ(zero.delay(0), std::chrono::microseconds{0});
  EXPECT_EQ(zero.delay(1000), std::chrono::microseconds{0});

  BackoffPolicy flat;
  flat.initial = std::chrono::microseconds{300};
  flat.multiplier = 0.5;  // clamped to 1.0: backoff never shrinks
  flat.cap = std::chrono::microseconds{5000};
  EXPECT_EQ(flat.delay(0), std::chrono::microseconds{300});
  EXPECT_EQ(flat.delay(50), std::chrono::microseconds{300});
}

// ------------------------------------------------------- Cancellation ----

TEST(CancelToken, FutureDeadlineIsNotExpired) {
  CancelSource source;
  const CancelToken token =
      source.token(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(token.stop_requested());
  EXPECT_NO_THROW(throw_if_stopped(token));
  source.request_cancel();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(token.deadline_expired());
}

TEST(CancelToken, CopiesObserveTheSameSource) {
  CancelSource source;
  const CancelToken original = source.token();
  const CancelToken copy = original;
  source.request_cancel();
  EXPECT_TRUE(copy.cancelled());
}


// -------------------------------------------------------------- Codec ----

std::string to_hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(Codec, PrimitivesAreLittleEndianAndRoundTrip) {
  Encoder e;
  e.u8(0xab);
  e.u16(0x1234);
  e.u32(0xdeadbeef);
  e.u64(0x0102030405060708ull);
  e.i32(-2);
  e.f64(-0.0);
  e.str("hi");
  e.raw("!");
  EXPECT_EQ(to_hex(e.bytes()),
            "ab"
            "3412"
            "efbeadde"
            "0807060504030201"
            "feffffff"
            "0000000000000080"
            "020000006869"
            "21");

  Decoder d(e.bytes());
  std::uint8_t u8;
  std::uint16_t u16;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int32_t i32;
  double f64;
  std::string str;
  std::string_view raw;
  ASSERT_TRUE(d.u8(&u8) && d.u16(&u16) && d.u32(&u32) && d.u64(&u64) &&
              d.i32(&i32) && d.f64(&f64) && d.str(&str) && d.raw(1, &raw) &&
              d.finish());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(i32, -2);
  EXPECT_TRUE(std::signbit(f64));  // the bit pattern, not the value
  EXPECT_EQ(str, "hi");
  EXPECT_EQ(raw, "!");
}

TEST(Codec, HistogramIsEntryCountThenKeyOrderedPairs) {
  Histogram h;
  h.add("11", 2);
  h.add("00", 1);
  Encoder e;
  e.histogram(h);
  EXPECT_EQ(to_hex(e.bytes()),
            "02000000"
            "020000003030" "0100000000000000"
            "020000003131" "0200000000000000");
  Decoder d(e.bytes());
  Histogram back;
  ASSERT_TRUE(d.histogram(&back) && d.finish());
  EXPECT_EQ(back.counts(), h.counts());
}

TEST(Codec, DecoderLatchesTheFirstFailure) {
  Encoder e;
  e.u32(1000);  // a string length prefix claiming 1000 bytes
  e.u8('x');    // only one follows
  Decoder d(e.bytes());
  std::string s;
  EXPECT_FALSE(d.str(&s));  // refused before allocating
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(d.status().message().find("truncated"), std::string::npos);
  std::uint8_t b;
  EXPECT_FALSE(d.u8(&b));  // latched: later reads fail too
  d.fail("second failure");  // the first message wins
  EXPECT_NE(d.status().message().find("truncated"), std::string::npos);

  Decoder trailing(std::string_view("\x01\x02", 2));
  ASSERT_TRUE(trailing.u8(&b));
  EXPECT_FALSE(trailing.finish());
  EXPECT_NE(trailing.status().message().find("trailing"), std::string::npos);

  Decoder empty(std::string_view{});
  std::string_view view;
  EXPECT_TRUE(empty.raw(0, &view));
  EXPECT_FALSE(empty.raw(1, &view));
}

TEST(Codec, StatusTravelsAsWireCodeAndMessage) {
  Encoder e;
  encode_status(Status::DeadlineExceeded("late"), &e);
  Decoder d(e.bytes());
  Status back;
  ASSERT_TRUE(decode_status(&d, &back) && d.finish());
  EXPECT_EQ(back.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(back.message(), "late");
}

// ----------------------------------------------- Run bodies: golden bytes ----
// Recorded from the protocol-v4 gateway codec before it moved to
// runtime/run_codec: the move must not change one byte on the wire.

runtime::RunRequest golden_gate_request() {
  runtime::RunRequest g = runtime::RunRequest::gate_source(
      "version 1.0\nqubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n", 1000,
      42, -3);
  g.tenant = "tenant-a";
  g.session = 7;
  g.deadline = std::chrono::microseconds(1500000);
  g.sim_threads = 2;
  g.tag = "exp-1";
  g.idempotency_key = "idem-9";
  g.precision = Precision::kF32;
  return g;
}

runtime::RunRequest golden_anneal_request() {
  anneal::Qubo q(3);
  q.add(0, 0, -1.5);
  q.add(0, 1, 2.0);
  q.add(1, 2, -0.25);
  runtime::RunRequest a = runtime::RunRequest::anneal(q, 8, 5, 1);
  a.session = 3;
  a.tag = "tsp";
  return a;
}

/// Every JobStats field nonzero, so a dropped or reordered field shows.
runtime::RunResult golden_result() {
  runtime::RunResult r;
  r.job_id = 77;
  r.kind = runtime::JobKind::Gate;
  r.tag = "exp-1";
  r.status = Status::DeadlineExceeded("expired mid-run");
  r.histogram.add("00", 480);
  r.histogram.add("11", 520);
  r.best_solution = {1, 0, 1};
  r.best_energy = -2.75;
  r.stats.queue_wait_us = 12.5;
  r.stats.run_us = 480.25;
  r.stats.compile_cache_hit = true;
  r.stats.compile_cache_tier = runtime::CacheTier::kDisk;
  r.stats.retries = 2;
  r.stats.shards = 4;
  r.stats.failovers = 1;
  r.stats.shards_resumed = 3;
  r.stats.shards_executed = 5;
  r.stats.dispatch_seq = 9;
  r.stats.sampled = true;
  r.stats.final_state_cache_hit = true;
  r.stats.final_state_cache_tier = runtime::CacheTier::kMemory;
  r.stats.journal_recovered = true;
  r.stats.idempotent_hit = true;
  r.stats.precision = Precision::kF32;
  r.stats.fused_gates = 11;
  r.stats.fused_ops = 6;
  r.stats.fused_max_run = 4;
  return r;
}

const char kGoldenGateRequest[] =
    "0800000074656e616e742d610700000000000000003800000076657273696f6e"
    "20312e300a71756269747320320a6820715b305d0a636e6f7420715b305d2c20"
    "715b315d0a6d6561737572655f616c6c0ae8030000000000002a000000000000"
    "00fdffffff0160e31600000000000200000000000000050000006578702d3106"
    "0000006964656d2d3901";

const char kGoldenAnnealRequest[] =
    "0000000003000000000000000103000000030000000000000000000000000000"
    "000000f8bf000000000100000000000000000000400100000002000000000000"
    "000000d0bf080000000000000005000000000000000100000000000000000000"
    "0000030000007473700000000000";

const char kGoldenResult[] =
    "4d0000000000000000050000006578702d3104000f0000006578706972656420"
    "6d69642d72756e02000000020000003030e00100000000000002000000313108"
    "020000000000000300000001000000000000000100000000000000000006c000"
    "000000000029400000000000047e400102000000000000000400000000000000"
    "0100000000000000030000000000000005000000000000000900000000000000"
    "010102010101010b0000000000000006000000000000000400000000000000";

std::string request_bytes(const runtime::RunRequest& r) {
  Encoder e;
  runtime::encode_run_request(r, &e);
  return e.take();
}

std::string result_bytes(const runtime::RunResult& r) {
  Encoder e;
  runtime::encode_run_result(r, &e);
  return e.take();
}

std::optional<runtime::RunRequest> decode_request(std::string_view bytes) {
  Decoder d(bytes);
  runtime::RunRequest r;
  if (!runtime::decode_run_request(&d, &r)) return std::nullopt;
  return r;
}

std::optional<runtime::RunResult> decode_result(std::string_view bytes) {
  Decoder d(bytes);
  runtime::RunResult r;
  if (!runtime::decode_run_result(&d, &r)) return std::nullopt;
  return r;
}

TEST(RunCodecGolden, GateRequestKeepsProtocolV4Bytes) {
  const std::string bytes = request_bytes(golden_gate_request());
  EXPECT_EQ(to_hex(bytes), kGoldenGateRequest);
  const auto back = decode_request(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->precision, Precision::kF32);
  EXPECT_EQ(back->idempotency_key, "idem-9");
  EXPECT_EQ(request_bytes(*back), bytes);
}

TEST(RunCodecGolden, AnnealRequestKeepsProtocolV4Bytes) {
  const std::string bytes = request_bytes(golden_anneal_request());
  EXPECT_EQ(to_hex(bytes), kGoldenAnnealRequest);
  const auto back = decode_request(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->qubo.has_value());
  EXPECT_EQ(back->qubo->terms(), golden_anneal_request().qubo->terms());
  EXPECT_EQ(request_bytes(*back), bytes);
}

TEST(RunCodecGolden, ResultWithEveryStatKeepsProtocolV4Bytes) {
  const std::string bytes = result_bytes(golden_result());
  EXPECT_EQ(to_hex(bytes), kGoldenResult);
  const auto back = decode_result(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->stats.precision, Precision::kF32);
  EXPECT_EQ(back->stats.fused_max_run, 4u);
  EXPECT_EQ(back->stats.final_state_cache_tier, runtime::CacheTier::kMemory);
  EXPECT_EQ(result_bytes(*back), bytes);
}

TEST(RunCodec, EmptyQuboIsRefusedNotThrown) {
  // n = 0 must not reach the Qubo constructor, which throws; a decoder of
  // untrusted bytes refuses with a typed status instead.
  Encoder e;
  e.str("");
  e.u64(0);
  e.u8(1);   // QUBO payload
  e.u32(0);  // zero variables
  e.u32(0);
  Decoder d(e.bytes());
  runtime::RunRequest r;
  EXPECT_FALSE(runtime::decode_run_request(&d, &r));
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunCodec, DeadlineBeyondKMaxDeadlineIsRefused) {
  // Converting a larger count to the clock's nanoseconds would overflow a
  // signed integer (undefined behaviour; the mutation tests hit it under
  // UBSan), so the decoder refuses it while it is still an integer.
  const auto with_deadline_us = [](std::uint64_t us) {
    Encoder e;
    e.str("");  // tenant
    e.u64(0);   // session
    e.u8(0);    // cQASM payload
    e.str("version 1.0\nqubits 1\nmeasure_all\n");
    e.u64(1);   // shots
    e.u64(1);   // seed
    e.i32(0);   // priority
    e.u8(1);    // has deadline
    e.u64(us);
    e.u64(0);   // sim_threads
    e.str("");  // tag
    e.str("");  // idempotency key
    e.u8(0);    // precision
    return e.take();
  };
  const std::uint64_t max_us = static_cast<std::uint64_t>(
      std::chrono::microseconds(runtime::kMaxDeadline).count());
  const auto at_max = decode_request(with_deadline_us(max_us));
  ASSERT_TRUE(at_max.has_value());
  EXPECT_TRUE(at_max->validate().ok());
  for (const std::uint64_t us : {max_us + 1, std::uint64_t{1} << 60,
                                 std::numeric_limits<std::uint64_t>::max()})
    EXPECT_FALSE(decode_request(with_deadline_us(us)).has_value()) << us;
}

// ------------------------------------------- Decoder mutation testing ----
// Seeded from real encodings, each mutant stacks one to three byte flips,
// boundary-value overwrites, truncations or insertions. Every decoder
// must terminate without a crash (the ASan CI job runs this binary), and
// any mutant it accepts must re-encode to canonical bytes that decode
// again and re-encode identically. Counts are fixed; seeds are constant.

std::string mutate(const std::string& seed, std::mt19937_64& rng) {
  static const unsigned char kEdge[] = {0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff};
  std::string m = seed;
  const int ops = 1 + static_cast<int>(rng() % 3);
  for (int k = 0; k < ops; ++k) {
    const std::size_t pos = m.empty() ? 0 : rng() % m.size();
    switch (rng() % 4) {
      case 0:  // bit flip
        if (!m.empty()) m[pos] ^= static_cast<char>(1u << (rng() % 8));
        break;
      case 1:  // boundary value (length prefixes and tags trip on these)
        if (!m.empty()) m[pos] = static_cast<char>(kEdge[rng() % 6]);
        break;
      case 2:  // truncation
        m.resize(pos);
        break;
      default: {  // insertion
        std::string bytes(1 + rng() % 8, '\0');
        for (char& c : bytes) c = static_cast<char>(rng());
        m.insert(pos, bytes);
        break;
      }
    }
  }
  return m;
}

/// Runs `per_seed` mutants of every seed through `decode` (returning an
/// optional or a pointer); returns how many were accepted.
template <typename Decode, typename Encode>
std::size_t fuzz_decoder(const std::vector<std::string>& seeds,
                         std::uint64_t rng_seed, int per_seed,
                         const Decode& decode, const Encode& encode) {
  std::mt19937_64 rng(rng_seed);
  std::size_t accepted = 0;
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(decode(seed)) << "seed encoding must decode";
    for (int i = 0; i < per_seed; ++i) {
      const std::string mutant = mutate(seed, rng);
      const auto value = decode(mutant);
      if (!value) continue;
      ++accepted;
      const std::string canonical = encode(*value);
      const auto again = decode(canonical);
      if (!again) {
        ADD_FAILURE() << "re-encoding of accepted mutant refused: "
                      << to_hex(mutant);
        continue;
      }
      EXPECT_EQ(encode(*again), canonical) << to_hex(mutant);
    }
  }
  return accepted;
}

TEST(CodecMutation, RunRequestBodies) {
  compiler::Program ghz("ghz", 3);
  ghz.add_kernel("main").ghz(3).measure_all();
  const std::vector<std::string> seeds = {
      request_bytes(golden_gate_request()),
      request_bytes(golden_anneal_request()),
      request_bytes(runtime::RunRequest::gate(ghz.to_qasm(), 64, 9)),
  };
  EXPECT_GT(fuzz_decoder(seeds, 101, 2000, decode_request, request_bytes), 0u);
}

TEST(CodecMutation, RunResultBodies) {
  runtime::RunResult anneal;
  anneal.kind = runtime::JobKind::Anneal;
  anneal.best_solution = {0, 1, 1, 0};
  anneal.best_energy = -3.0;
  anneal.histogram.add("0110", 8);
  const std::vector<std::string> seeds = {result_bytes(golden_result()),
                                          result_bytes(anneal)};
  EXPECT_GT(fuzz_decoder(seeds, 202, 2000, decode_result, result_bytes), 0u);
}

TEST(CodecMutation, JobCheckpoints) {
  service::JobCheckpoint cp;
  cp.fingerprint = 0xfeedbeef;
  cp.shards = 5;
  cp.shard_done = {1, 0, 1, 1, 0};
  cp.merged.add("010", 7);
  cp.merged.add("111", 3);
  cp.has_best = true;
  cp.best_energy = -2.625;
  cp.best_read = 12;
  cp.best_solution = {0, 1, 1};
  service::JobCheckpoint bare;
  bare.fingerprint = 3;
  bare.shards = 2;
  bare.shard_done = {0, 1};
  const auto decode =
      [](std::string_view b) -> std::optional<service::JobCheckpoint> {
    StatusOr<service::JobCheckpoint> cp =
        service::JobCheckpoint::deserialize(b);
    if (!cp.ok()) return std::nullopt;
    return std::move(*cp);
  };
  const auto encode = [](const service::JobCheckpoint& c) {
    return c.serialize();
  };
  EXPECT_GT(fuzz_decoder({cp.serialize(), bare.serialize()}, 303, 2000, decode,
                         encode),
            0u);
}

TEST(CodecMutation, CompiledEntries) {
  compiler::Program ghz("ghz", 3);
  ghz.add_kernel("main").ghz(3).measure_all();
  const runtime::GateAccelerator gate(compiler::Platform::perfect(3), {},
                                      runtime::GatePath::MicroArch);
  service::CompiledEntry entry;
  entry.key = 42;
  entry.compiled = gate.compile_const(ghz.to_qasm());
  entry.eqasm = std::make_shared<const microarch::EqProgram>(
      gate.assemble(entry.compiled));

  for (const bool want_eqasm : {true, false}) {
    const store::Codec<service::CompiledEntry> codec =
        service::compiled_entry_codec(
            {3, sim::QubitModel::perfect(), want_eqasm});
    const auto decode = [&codec](std::string_view b) {
      return codec.decode(std::string(b));
    };
    EXPECT_GT(fuzz_decoder({codec.encode(entry)}, want_eqasm ? 404 : 405,
                           1000, decode, codec.encode),
              0u);
  }
}

TEST(CodecMutation, FinalDistributions) {
  compiler::Program ghz("ghz", 3);
  ghz.add_kernel("main").ghz(3).measure_all();
  const std::vector<qasm::Instruction> flat = ghz.to_qasm().flatten();
  const sim::TrajectoryAnalysis analysis =
      sim::analyze_trajectory(flat, 3, sim::QubitModel::perfect());
  sim::Simulator simulator(3);
  const sim::FinalDistribution dist =
      simulator.final_distribution(flat, analysis);
  const store::Codec<sim::FinalDistribution> codec =
      service::final_distribution_codec();
  const auto decode = [&codec](std::string_view b) {
    return codec.decode(std::string(b));
  };
  EXPECT_GT(fuzz_decoder({codec.encode(dist)}, 505, 2000, decode, codec.encode),
            0u);
}

/// A replayed journal as comparable bytes: every inflight and finished
/// job with its request / result bodies.
std::string replay_summary(const service::JournalReplay& r) {
  Encoder e;
  for (const auto& job : r.inflight) {
    e.u64(job.job_id);
    e.u8(job.dispatched ? 1 : 0);
    e.str(service::JobJournal::encode_request(job.request));
  }
  for (const auto& job : r.finished) {
    e.u64(job.job_id);
    e.str(service::JobJournal::encode_request(job.request));
    e.str(service::JobJournal::encode_result(job.result));
  }
  return e.take();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CodecMutation, JournalReplay) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "qs_codec_mutation_journal";
  std::filesystem::remove_all(dir);
  const service::JobJournal::Options options{dir.string(),
                                             /*sync_writes=*/false, 256};
  const std::filesystem::path file = dir / "journal.qsj";

  // Seed: a real journal with a finished gate job and an in-flight
  // anneal job.
  runtime::RunRequest gate = golden_gate_request();
  gate.checkpoint_key = "ckpt-1";
  {
    service::JobJournal journal(options);
    journal.replay();
    ASSERT_TRUE(journal.append_admitted(1, gate));
    ASSERT_TRUE(journal.append_dispatched(1));
    ASSERT_TRUE(journal.append_terminal(1, golden_result()));
    ASSERT_TRUE(journal.append_admitted(2, golden_anneal_request()));
    ASSERT_TRUE(journal.append_dispatched(2));
  }
  const std::string seed = read_file(file);

  // The seed split into record payloads, so mutants can also be
  // re-framed with valid checksums and reach the record decoders.
  const std::size_t magic = 8;
  std::vector<std::string> records;
  {
    Decoder d(std::string_view(seed).substr(magic));
    std::uint64_t len, checksum;
    std::string_view payload;
    while (d.remaining() > 0) {
      ASSERT_TRUE(d.u64(&len) && d.u64(&checksum) && d.raw(len, &payload));
      records.emplace_back(payload);
    }
  }
  ASSERT_EQ(records.size(), 5u);
  const auto frame = [&](const std::vector<std::string>& payloads) {
    Encoder e;
    e.raw(std::string_view(seed).substr(0, magic));
    for (const std::string& p : payloads) {
      e.u64(p.size());
      e.u64(fnv1a64(p));
      e.raw(p);
    }
    return e.take();
  };

  std::mt19937_64 rng(606);
  for (int i = 0; i < 400; ++i) {
    std::string mutant;
    if (i % 2 == 0) {
      mutant = mutate(seed, rng);  // raw file damage
    } else {
      std::vector<std::string> payloads = records;
      std::string& victim = payloads[rng() % payloads.size()];
      victim = mutate(victim, rng);  // checksummed but malformed records
      mutant = frame(payloads);
    }
    std::filesystem::create_directories(dir);
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    std::string before;
    {
      service::JobJournal journal(options);
      const service::JournalReplay state = journal.replay();
      before = replay_summary(state);
      // What replay accepted must survive a rewrite: compaction
      // re-encodes it, and a second replay reads back the same jobs.
      ASSERT_TRUE(journal.compact(state));
    }
    service::JobJournal journal(options);
    const service::JournalReplay again = journal.replay();
    EXPECT_EQ(again.truncated_bytes, 0u) << to_hex(mutant);
    EXPECT_EQ(replay_summary(again), before) << to_hex(mutant);
  }
  std::filesystem::remove_all(dir);
}
}  // namespace
}  // namespace qs
