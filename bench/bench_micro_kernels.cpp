// Google-benchmark micro-kernels for the hot paths of the stack: state-
// vector gate application, measurement, annealer sweeps, cQASM parsing and
// the compiler pipeline. These complement the bench_e* experiment
// harnesses with ns-level performance tracking.
#include <benchmark/benchmark.h>

#include "anneal/annealer.h"
#include "apps/tsp/qubo_encode.h"
#include "apps/tsp/tsp.h"
#include "compiler/compiler.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "sim/gates.h"
#include "sim/statevector.h"

namespace {

using namespace qs;

void BM_StateVector_H(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  const Matrix h = sim::hadamard();
  QubitIndex q = 0;
  for (auto _ : state) {
    sv.apply_1q(h, q);
    q = (q + 1) % static_cast<QubitIndex>(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_H)->Arg(10)->Arg(16)->Arg(20);

void BM_StateVector_CNOT(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  const Matrix x = sim::pauli_x();
  for (auto _ : state) sv.apply_controlled_1q(x, {0}, 1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_CNOT)->Arg(10)->Arg(16)->Arg(20);

void BM_StateVector_X_Generic(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  const Matrix x = sim::pauli_x();
  for (auto _ : state) sv.apply_1q(x, 0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_X_Generic)->Arg(16)->Arg(20);

void BM_StateVector_X_Fused(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  for (auto _ : state) sv.apply_x(0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_X_Fused)->Arg(16)->Arg(20);

void BM_StateVector_RZ_Generic(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  const Matrix m = sim::rz(0.37);
  for (auto _ : state) sv.apply_1q(m, 0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_RZ_Generic)->Arg(16)->Arg(20);

void BM_StateVector_RZ_Fused(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  const cplx d0 = std::exp(cplx(0.0, -0.37 / 2.0));
  const cplx d1 = std::exp(cplx(0.0, 0.37 / 2.0));
  for (auto _ : state) sv.apply_diag(0, d0, d1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_RZ_Fused)->Arg(16)->Arg(20);

void BM_StateVector_CNOT_Fused(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  for (auto _ : state) sv.apply_cnot(0, 1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_CNOT_Fused)->Arg(10)->Arg(16)->Arg(20);

// Backend/precision sweep over the dense 1q sweep: simd vs forced-scalar
// backends at f64, plus the f32 tier (half the bytes per amplitude, twice
// the lane count). items/s is directly comparable across the three.
void BM_StateVector_H_Scalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n, Precision::kF64, 0, SimdMode::kOff);
  const Matrix h = sim::hadamard();
  for (auto _ : state) sv.apply_1q(h, 0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_H_Scalar)->Arg(16)->Arg(20);

void BM_StateVector_H_F32(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n, Precision::kF32);
  const Matrix h = sim::hadamard();
  for (auto _ : state) sv.apply_1q(h, 0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_H_F32)->Arg(16)->Arg(20);

void BM_StateVector_CNOT_Fused_Scalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n, Precision::kF64, 0, SimdMode::kOff);
  for (auto _ : state) sv.apply_cnot(0, 1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_CNOT_Fused_Scalar)->Arg(16)->Arg(20);

void BM_StateVector_CNOT_Fused_F32(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n, Precision::kF32);
  for (auto _ : state) sv.apply_cnot(0, 1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_CNOT_Fused_F32)->Arg(16)->Arg(20);

// The fused-diagonal-chain kernel: one table sweep standing in for a
// whole run of diagonal gates (sim/fusion.h builds the tables).
void BM_StateVector_DiagWindow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  std::vector<cplx> table(1u << 8);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = std::exp(cplx(0.0, 0.001 * static_cast<double>(i)));
  for (auto _ : state) sv.apply_diag_window(0, 8, table.data());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_DiagWindow)->Arg(16)->Arg(20);

void BM_StateVector_H_Threaded(benchmark::State& state) {
  const std::size_t n = 20;
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  sim::StateVector sv(n);
  sv.set_kernel_policy({&pool, 0});
  const Matrix h = sim::hadamard();
  for (auto _ : state) sv.apply_1q(h, 0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_H_Threaded)->Arg(1)->Arg(2)->Arg(4);

void BM_StateVector_ProbOne(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  const Matrix h = sim::hadamard();
  sv.apply_1q(h, 0);
  for (auto _ : state) benchmark::DoNotOptimize(sv.prob_one(0));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_StateVector_ProbOne)->Arg(16)->Arg(20);

void BM_StateVector_Measure(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix h = sim::hadamard();
  for (auto _ : state) {
    sim::StateVector sv(n);
    sv.apply_1q(h, 0);
    benchmark::DoNotOptimize(sv.measure(0, rng));
  }
}
BENCHMARK(BM_StateVector_Measure)->Arg(10)->Arg(16);

void BM_Annealer_Sweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  anneal::IsingModel model(n);
  Rng build_rng(7);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < i + 5 && j < n; ++j)
      model.add_coupling(i, j, build_rng.uniform(-1, 1));
  anneal::AnnealSchedule schedule;
  schedule.sweeps = 10;
  const anneal::SimulatedAnnealer annealer(schedule);
  Rng rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(annealer.solve(model, rng).best_energy);
  state.SetItemsProcessed(state.iterations() * 10 *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Annealer_Sweep)->Arg(64)->Arg(512)->Arg(2048);

// One read of the annealing accelerator on the paper's Fig. 9 problem: the
// 16-variable Netherlands-4 TSP QUBO, default SQA schedule (500 sweeps x 16
// Trotter slices x 16 spins = 128k Metropolis proposals).
void BM_QuantumAnnealer_TspRead(benchmark::State& state) {
  const apps::tsp::TspQubo tsp(apps::tsp::TspInstance::netherlands4());
  const anneal::IsingModel model = tsp.qubo().to_ising();
  const anneal::SimulatedQuantumAnnealer annealer;
  Rng rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(annealer.solve(model, rng).best_energy);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantumAnnealer_TspRead)->Unit(benchmark::kMillisecond);

void BM_Parser_Roundtrip(benchmark::State& state) {
  compiler::Program p("bench", 8);
  auto& k = p.add_kernel("main");
  k.qft({0, 1, 2, 3, 4, 5, 6, 7});
  const std::string text = qasm::to_cqasm(p.to_qasm());
  for (auto _ : state)
    benchmark::DoNotOptimize(qasm::Parser::parse(text).total_instructions());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Parser_Roundtrip);

void BM_Compiler_FullPipeline(benchmark::State& state) {
  compiler::Program p("bench", 6);
  auto& k = p.add_kernel("main");
  k.qft({0, 1, 2, 3, 4, 5});
  k.measure_all();
  compiler::Compiler compiler(compiler::Platform::superconducting17());
  compiler::CompileOptions opts;
  opts.map = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(compiler.compile(p, opts).gates_after);
}
BENCHMARK(BM_Compiler_FullPipeline);

}  // namespace

BENCHMARK_MAIN();
