// google-benchmark micro benchmarks for the hot paths:
//   * p-bit Monte-Carlo sweep throughput (the quantity the paper budgets
//     in MCS),
//   * the O(n) lambda refresh (LagrangianModel::set_lambda) vs a full
//     model rebuild — the optimization that makes the SAIM outer loop
//     essentially free,
//   * energy evaluations and QUBO->Ising conversion,
//   * recompute-every-visit vs incremental vs bit-sliced sweeps.
//
// The BENCH_sweep.json report (sweep-engine throughput comparison, CI
// floor) lives in bench/sweep_rates.cpp, which does not need
// google-benchmark.
#include <benchmark/benchmark.h>

#include <vector>

#include "ising/convert.hpp"
#include "pbit/pbit_machine.hpp"
#include "sweep_common.hpp"

namespace {

using namespace saim;
using benchfix::bench_instance;
using benchfix::incremental_sweep;
using benchfix::recompute_sweep;

void BM_PbitSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto density = static_cast<int>(state.range(1));
  const auto inst = bench_instance(n, density);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  pbit::PBitMachine machine(model.ising());
  util::Xoshiro256pp rng(1);
  pbit::AnnealOptions opts;
  opts.sweeps = 10;
  for (auto _ : state) {
    auto result =
        machine.anneal(pbit::Schedule::linear(10.0), opts, rng);
    benchmark::DoNotOptimize(result.last_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10 * static_cast<std::int64_t>(model.n()));
  state.counters["MCS/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 10.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PbitSweep)
    ->Args({100, 25})
    ->Args({100, 50})
    ->Args({200, 50})
    ->Args({300, 50});

void BM_LambdaRefresh(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   50);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  std::vector<double> lambda = {0.0};
  for (auto _ : state) {
    lambda[0] += 0.01;
    model.set_lambda(lambda);
    benchmark::DoNotOptimize(model.ising().field(0));
  }
}
BENCHMARK(BM_LambdaRefresh)->Arg(100)->Arg(200)->Arg(300);

void BM_FullModelRebuild(benchmark::State& state) {
  // The naive alternative to set_lambda: rebuild the Lagrangian from
  // scratch every iteration. Compare with BM_LambdaRefresh.
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   50);
  const auto mapping = problems::qkp_to_problem(inst);
  for (auto _ : state) {
    lagrange::LagrangianModel model(mapping.problem, 2.0);
    benchmark::DoNotOptimize(model.ising().field(0));
  }
}
BENCHMARK(BM_FullModelRebuild)->Arg(100)->Arg(200)->Arg(300);

void BM_QuboEnergy(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   50);
  const auto mapping = problems::qkp_to_problem(inst);
  util::Xoshiro256pp rng(2);
  ising::Bits x(mapping.problem.n());
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapping.problem.objective().energy(x));
  }
}
BENCHMARK(BM_QuboEnergy)->Arg(100)->Arg(300);

void BM_QuboToIsing(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   50);
  const auto mapping = problems::qkp_to_problem(inst);
  for (auto _ : state) {
    auto ising = ising::qubo_to_ising(mapping.problem.objective());
    benchmark::DoNotOptimize(ising.field(0));
  }
}
BENCHMARK(BM_QuboToIsing)->Arg(100)->Arg(300);

void BM_QkpGenerate(benchmark::State& state) {
  problems::QkpGeneratorParams params;
  params.n = static_cast<std::size_t>(state.range(0));
  params.density = 0.5;
  for (auto _ : state) {
    params.seed++;
    auto inst = problems::generate_qkp(params);
    benchmark::DoNotOptimize(inst.capacity());
  }
}
BENCHMARK(BM_QkpGenerate)->Arg(100)->Arg(300);

void BM_SweepRecompute(benchmark::State& state) {
  const auto inst = bench_instance(200, 25);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const ising::Adjacency adj(model.ising());
  const double beta = static_cast<double>(state.range(0)) / 10.0;
  util::Xoshiro256pp rng(5);
  ising::Spins m(model.n());
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  for (auto _ : state) {
    recompute_sweep(model.ising(), adj, m, beta, rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.counters["sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepRecompute)->Arg(1)->Arg(50);

void BM_SweepIncremental(benchmark::State& state) {
  const auto inst = bench_instance(200, 25);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const ising::Adjacency adj(model.ising());
  const double beta = static_cast<double>(state.range(0)) / 10.0;
  util::Xoshiro256pp rng(5);
  ising::Spins m(model.n());
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  ising::LocalFieldState lfs(model.ising(), adj);
  lfs.reset(m);
  for (auto _ : state) {
    incremental_sweep(lfs, m, beta, rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.counters["sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepIncremental)->Arg(1)->Arg(50);

void BM_SweepBitsliced(benchmark::State& state) {
  const auto inst = bench_instance(200, 25);
  const auto mapping = problems::qkp_to_problem(inst);
  lagrange::LagrangianModel model(mapping.problem, 2.0);
  const ising::Adjacency adj(model.ising());
  const auto replicas = static_cast<std::size_t>(state.range(0));
  const double beta = static_cast<double>(state.range(1)) / 10.0;

  util::Xoshiro256pp rng(5);
  ising::Spins m(model.n());
  for (auto& s : m) s = rng.bernoulli(0.5) ? 1 : -1;
  std::vector<ising::SliceLane> lanes(replicas);
  const double energy = model.ising().energy(m);
  for (std::size_t r = 0; r < replicas; ++r) {
    lanes[r].spins = m;
    lanes[r].energy = energy;
    lanes[r].fields = model.ising().fields().data();
    lanes[r].rng = util::Xoshiro256pp(util::derive_seed(5, r)).state();
  }
  constexpr std::size_t kSweeps = 16;
  const std::vector<double> betas(kSweeps, beta);
  ising::SliceOptions so;
  so.dynamics = ising::SliceDynamics::kMetropolis;
  so.betas = betas;
  so.track_best = false;
  const ising::BitSliceEngine engine(adj);
  for (auto _ : state) {
    auto results = engine.run(lanes, so);
    benchmark::DoNotOptimize(results.data());
  }
  state.counters["replica_sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kSweeps * replicas),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepBitsliced)
    ->Args({1, 50})
    ->Args({32, 50})
    ->Args({64, 1})
    ->Args({64, 50});

}  // namespace

BENCHMARK_MAIN();
