// Microbenchmarks for the Sec. VI discussion: deferred acceptance is far
// cheaper than Hungarian (max-weight) matching while staying collective,
// which underpins the paper's "<10 minutes end-to-end" claim (Sec. VII-C).

#include <benchmark/benchmark.h>

#include "ceaff/common/random.h"
#include "ceaff/la/matrix.h"
#include "ceaff/matching/matching.h"

namespace {

using ceaff::Rng;
using ceaff::la::Matrix;

Matrix RandomSimilarity(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextFloat();
  return m;
}

void BM_GreedyIndependent(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::GreedyIndependent(m));
  }
}
BENCHMARK(BM_GreedyIndependent)->Arg(100)->Arg(400)->Arg(1600);

/// The adversarial DAA instance: every source ranks the targets in the
/// same order while every target prefers the highest source index, so each
/// proposal to a held target displaces its holder (≈ n²/2 proposals).
Matrix DeepChainSimilarity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      m.at(i, j) = static_cast<float>(n - j) +
                   0.5f * static_cast<float>(i) / static_cast<float>(n);
    }
  }
  return m;
}

/// Args: {n, instance}, instance 0 = uniform random, 1 = deep chain.
void BM_DeferredAcceptance(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix m = state.range(1) == 0 ? RandomSimilarity(n, 2)
                                 : DeepChainSimilarity(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::DeferredAcceptance(m));
  }
}
BENCHMARK(BM_DeferredAcceptance)
    ->Args({100, 0})
    ->Args({400, 0})
    ->Args({1600, 0})
    ->Args({1000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_GreedyOneToOne(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::GreedyOneToOne(m));
  }
}
BENCHMARK(BM_GreedyOneToOne)->Arg(100)->Arg(400)->Arg(1600);

void BM_Hungarian(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::HungarianMatch(m));
  }
}
// O(n^3): keep the largest size moderate.
BENCHMARK(BM_Hungarian)->Arg(100)->Arg(400)->Arg(800);

void BM_CountBlockingPairs(benchmark::State& state) {
  Matrix m = RandomSimilarity(static_cast<size_t>(state.range(0)), 5);
  ceaff::matching::MatchResult r = ceaff::matching::DeferredAcceptance(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ceaff::matching::CountBlockingPairs(m, r));
  }
}
BENCHMARK(BM_CountBlockingPairs)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
