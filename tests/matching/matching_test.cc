#include "ceaff/matching/matching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>

#include "ceaff/common/random.h"

namespace ceaff::matching {
namespace {

// The paper's Figure 1 / Figure 4 running example (values reconstructed so
// the narrated behaviour matches exactly): independent decisions produce
// (u1,v1), (u2,v1), (u3,v2) — two mismatches — while collective stable
// matching recovers the correct diagonal.
la::Matrix Figure1Matrix() {
  return la::Matrix::FromRows(
      {{0.9f, 0.6f, 0.1f}, {0.7f, 0.5f, 0.2f}, {0.2f, 0.4f, 0.3f}});
}

la::Matrix RandomMatrix(Rng* rng, size_t n1, size_t n2) {
  la::Matrix m(n1, n2);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->NextFloat();
  return m;
}

TEST(GreedyIndependentTest, ReproducesFigure1Mismatches) {
  MatchResult r = GreedyIndependent(Figure1Matrix());
  EXPECT_EQ(r.target_of_source, (std::vector<int64_t>{0, 0, 1}));
  // Both u1 and u2 chose v1 — the conflict collective EA fixes.
}

TEST(DeferredAcceptanceTest, ReproducesFigure1Correction) {
  MatchResult r = DeferredAcceptance(Figure1Matrix());
  EXPECT_EQ(r.target_of_source, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(CountBlockingPairs(Figure1Matrix(), r), 0u);
}

TEST(DaaTraceTest, ReproducesFigure4Narrative) {
  std::vector<DaaTraceEvent> trace;
  MatchResult r = DeferredAcceptanceTraced(Figure1Matrix(), &trace);
  EXPECT_EQ(r.target_of_source, (std::vector<int64_t>{0, 1, 2}));
  ASSERT_EQ(trace.size(), 5u);
  // Round 1: u1 -> v1 accepted; u2 -> v1 rejected; u3 -> v2 accepted.
  EXPECT_EQ(trace[0].source, 0u);
  EXPECT_EQ(trace[0].target, 0u);
  EXPECT_TRUE(trace[0].accepted);
  EXPECT_EQ(trace[1].source, 1u);
  EXPECT_EQ(trace[1].target, 0u);
  EXPECT_FALSE(trace[1].accepted);
  EXPECT_EQ(trace[2].source, 2u);
  EXPECT_EQ(trace[2].target, 1u);
  EXPECT_TRUE(trace[2].accepted);
  // Round 2: u2 -> v2 accepted, displacing u3.
  EXPECT_EQ(trace[3].source, 1u);
  EXPECT_EQ(trace[3].target, 1u);
  EXPECT_TRUE(trace[3].accepted);
  EXPECT_EQ(trace[3].displaced, 2);
  // Round 3: u3 -> v3 accepted.
  EXPECT_EQ(trace[4].source, 2u);
  EXPECT_EQ(trace[4].target, 2u);
  EXPECT_TRUE(trace[4].accepted);
}

TEST(GreedyOneToOneTest, CommitsGloballyBestCellsFirst) {
  la::Matrix m = la::Matrix::FromRows({{0.9f, 0.8f}, {0.85f, 0.1f}});
  MatchResult r = GreedyOneToOne(m);
  // (0,0) = 0.9 first, then (1,0) blocked, (0,1) blocked, (1,1) last.
  EXPECT_EQ(r.target_of_source, (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(r.num_matched(), 2u);
}

TEST(MatchResultTest, PairsSkipsUnmatched) {
  MatchResult r;
  r.target_of_source = {2, -1, 0};
  std::vector<kg::AlignmentPair> pairs = r.Pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].source, 0u);
  EXPECT_EQ(pairs[0].target, 2u);
  EXPECT_EQ(pairs[1].source, 2u);
  EXPECT_EQ(pairs[1].target, 0u);
  EXPECT_EQ(r.num_matched(), 2u);
}

TEST(DeferredAcceptanceTest, EmptyAndSingleton) {
  EXPECT_TRUE(DeferredAcceptance(la::Matrix()).target_of_source.empty());
  la::Matrix one(1, 1);
  one.Fill(0.5f);
  EXPECT_EQ(DeferredAcceptance(one).target_of_source,
            (std::vector<int64_t>{0}));
}

TEST(DeferredAcceptanceTest, MoreSourcesThanTargetsLeavesSomeUnmatched) {
  Rng rng(3);
  la::Matrix m = RandomMatrix(&rng, 6, 4);
  MatchResult r = DeferredAcceptance(m);
  EXPECT_EQ(r.num_matched(), 4u);
  // No target matched twice.
  std::vector<int64_t> seen;
  for (int64_t t : r.target_of_source) {
    if (t >= 0) seen.push_back(t);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(DeferredAcceptanceTest, MoreTargetsThanSourcesMatchesAllSources) {
  Rng rng(4);
  la::Matrix m = RandomMatrix(&rng, 4, 9);
  MatchResult r = DeferredAcceptance(m);
  EXPECT_EQ(r.num_matched(), 4u);
}

TEST(DeferredAcceptanceTest, DeterministicUnderTies) {
  la::Matrix m(3, 3);
  m.Fill(0.5f);
  MatchResult a = DeferredAcceptance(m);
  MatchResult b = DeferredAcceptance(m);
  EXPECT_EQ(a.target_of_source, b.target_of_source);
  // Ties resolve by index: the identity matching.
  EXPECT_EQ(a.target_of_source, (std::vector<int64_t>{0, 1, 2}));
}

TEST(TargetProposingDaaTest, AlsoStableAndSourcePessimal) {
  Rng rng(21);
  la::Matrix m = RandomMatrix(&rng, 8, 8);
  MatchResult src_opt = DeferredAcceptance(m);
  MatchResult tgt_opt = DeferredAcceptanceTargetProposing(m);
  EXPECT_EQ(CountBlockingPairs(m, tgt_opt), 0u);
  EXPECT_EQ(tgt_opt.num_matched(), 8u);
  // Proposer-optimality: every source does at least as well under the
  // source-proposing matching.
  for (size_t i = 0; i < 8; ++i) {
    float s_score = m.at(i, static_cast<size_t>(src_opt.target_of_source[i]));
    float t_score = m.at(i, static_cast<size_t>(tgt_opt.target_of_source[i]));
    EXPECT_GE(s_score, t_score - 1e-6f);
  }
}

TEST(TargetProposingDaaTest, ReproducesFigure1DiagonalToo) {
  // The running example has a unique stable matching, so both variants
  // must agree.
  MatchResult r = DeferredAcceptanceTargetProposing(Figure1Matrix());
  EXPECT_EQ(r.target_of_source, (std::vector<int64_t>{0, 1, 2}));
}

TEST(HungarianTest, SolvesKnownOptimum) {
  // Max-weight assignment of this matrix is the anti-diagonal.
  la::Matrix m = la::Matrix::FromRows(
      {{0.1f, 0.2f, 0.9f}, {0.2f, 0.8f, 0.3f}, {0.9f, 0.1f, 0.1f}});
  MatchResult r = HungarianMatch(m).value();
  EXPECT_EQ(r.target_of_source, (std::vector<int64_t>{2, 1, 0}));
}

TEST(HungarianTest, RejectsMoreSourcesThanTargets) {
  la::Matrix m(3, 2);
  EXPECT_TRUE(HungarianMatch(m).status().IsInvalidArgument());
}

TEST(HungarianTest, RectangularMatchesAllSources) {
  Rng rng(5);
  la::Matrix m = RandomMatrix(&rng, 3, 7);
  MatchResult r = HungarianMatch(m).value();
  EXPECT_EQ(r.num_matched(), 3u);
}

TEST(CountBlockingPairsTest, DetectsKnownBlockingPair) {
  // Matching u0-v1, u1-v0 under a matrix where both prefer the diagonal.
  la::Matrix m = la::Matrix::FromRows({{0.9f, 0.1f}, {0.1f, 0.9f}});
  MatchResult r;
  r.target_of_source = {1, 0};
  EXPECT_EQ(CountBlockingPairs(m, r), 2u);  // (u0,v0) and (u1,v1) both block
  r.target_of_source = {0, 1};
  EXPECT_EQ(CountBlockingPairs(m, r), 0u);
}

TEST(TotalWeightTest, SumsMatchedSimilarities) {
  la::Matrix m = Figure1Matrix();
  MatchResult r;
  r.target_of_source = {0, 1, 2};
  EXPECT_NEAR(TotalWeight(m, r), 0.9 + 0.5 + 0.3, 1e-6);
  r.target_of_source = {0, -1, 2};
  EXPECT_NEAR(TotalWeight(m, r), 0.9 + 0.3, 1e-6);
}

// ---------- Full-sort reference DAA (test-only oracle) ----------

/// The textbook Deferred Acceptance: every source's preference list is
/// argsorted up front (a stable sort by descending score, so equal scores,
/// +0 and -0 included, keep the lower index first), then sources propose
/// in the same FIFO order as the production engine. The production engine
/// derives the same lists lazily, so results and traces must agree
/// exactly.
MatchResult FullSortDaa(const la::Matrix& m,
                        std::vector<DaaTraceEvent>* trace) {
  const size_t n1 = m.rows();
  const size_t n2 = m.cols();
  MatchResult result;
  result.target_of_source.assign(n1, -1);
  if (n1 == 0 || n2 == 0) return result;
  std::vector<std::vector<uint32_t>> prefs(n1);
  for (size_t i = 0; i < n1; ++i) {
    const float* row = m.row(i);
    prefs[i].resize(n2);
    std::iota(prefs[i].begin(), prefs[i].end(), 0u);
    std::stable_sort(prefs[i].begin(), prefs[i].end(),
                     [row](uint32_t a, uint32_t b) { return row[a] > row[b]; });
  }
  std::vector<int64_t> source_of_target(n2, -1);
  std::vector<size_t> next(n1, 0);
  std::vector<size_t> round(n1, 1);
  std::deque<uint32_t> free_sources;
  for (uint32_t i = 0; i < n1; ++i) free_sources.push_back(i);
  while (!free_sources.empty()) {
    const uint32_t u = free_sources.front();
    free_sources.pop_front();
    if (next[u] == n2) continue;
    const uint32_t v = prefs[u][next[u]++];
    const int64_t inc = source_of_target[v];
    bool accepted = inc < 0;
    if (!accepted) {
      const float challenger = m.at(u, v);
      const float holder = m.at(static_cast<size_t>(inc), v);
      accepted = challenger > holder ||
                 (challenger == holder && u < static_cast<uint32_t>(inc));
    }
    if (trace != nullptr) {
      trace->push_back({round[u], u, v, accepted, accepted ? inc : -1});
    }
    if (accepted) {
      source_of_target[v] = u;
      result.target_of_source[u] = v;
      if (inc >= 0) {
        result.target_of_source[static_cast<size_t>(inc)] = -1;
        ++round[static_cast<size_t>(inc)];
        free_sources.push_back(static_cast<uint32_t>(inc));
      }
    } else {
      ++round[u];
      free_sources.push_back(u);
    }
  }
  return result;
}

/// Every source ranks the targets in the same order (target 0 first),
/// while every target prefers the highest source index, so each proposal
/// to a held target displaces its holder: about n1·n2/2 proposals.
la::Matrix DeepChainMatrix(size_t n1, size_t n2) {
  la::Matrix m(n1, n2);
  for (size_t i = 0; i < n1; ++i) {
    for (size_t j = 0; j < n2; ++j) {
      m.at(i, j) = static_cast<float>(n2 - j) +
                   0.5f * static_cast<float>(i) / static_cast<float>(n1);
    }
  }
  return m;
}

TEST(DeepChainTest, EverySourceWalksDownTheSharedOrder) {
  std::vector<DaaTraceEvent> trace;
  const MatchResult r = DeferredAcceptanceTraced(DeepChainMatrix(40, 40),
                                                 &trace);
  // Source i ends at target 39 - i after 40 - i proposals.
  EXPECT_EQ(trace.size(), 40u * 41u / 2u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(r.target_of_source[i], static_cast<int64_t>(39 - i));
  }
}

// ---------- Property tests over random similarity matrices ----------

/// Matrix kinds beyond uniform random, selected by high bits of the case
/// seed. MatchingCase keeps its 24-byte layout because gtest names each
/// value-parameterised case after the bytes of its parameter.
constexpr uint64_t kTieHeavy = uint64_t{1} << 40;   // 2-5 values, -0.0f too
constexpr uint64_t kDeepChain = uint64_t{1} << 41;  // DeepChainMatrix

struct MatchingCase {
  uint64_t seed;
  size_t n1, n2;
};

/// The case's matrix; `salt` varies the random draw per test.
la::Matrix CaseMatrix(const MatchingCase& c, uint64_t salt) {
  Rng rng(c.seed ^ salt);
  if ((c.seed & kDeepChain) != 0) return DeepChainMatrix(c.n1, c.n2);
  if ((c.seed & kTieHeavy) == 0) return RandomMatrix(&rng, c.n1, c.n2);
  const float palette[] = {0.5f, -0.0f, 0.25f, 0.0f, 0.75f};
  const size_t distinct = 2 + rng.NextBounded(4);
  la::Matrix m(c.n1, c.n2);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = palette[rng.NextBounded(distinct)];
  }
  return m;
}

class MatchingPropertyTest : public ::testing::TestWithParam<MatchingCase> {};

TEST_P(MatchingPropertyTest, DaaIsStable) {
  MatchingCase c = GetParam();
  la::Matrix m = CaseMatrix(c, 0);
  MatchResult r = DeferredAcceptance(m);
  EXPECT_EQ(CountBlockingPairs(m, r), 0u);
  EXPECT_EQ(r.num_matched(), std::min(c.n1, c.n2));
}

TEST_P(MatchingPropertyTest, DaaMatchesFullSortOracle) {
  MatchingCase c = GetParam();
  la::Matrix m = CaseMatrix(c, 0x55);
  std::vector<DaaTraceEvent> want_trace;
  const MatchResult want = FullSortDaa(m, &want_trace);
  EXPECT_EQ(DeferredAcceptance(m).target_of_source, want.target_of_source);
  std::vector<DaaTraceEvent> got_trace;
  const MatchResult got = DeferredAcceptanceTraced(m, &got_trace);
  EXPECT_EQ(got.target_of_source, want.target_of_source);
  ASSERT_EQ(got_trace.size(), want_trace.size());
  for (size_t k = 0; k < got_trace.size(); ++k) {
    const DaaTraceEvent& g = got_trace[k];
    const DaaTraceEvent& w = want_trace[k];
    ASSERT_TRUE(g.round == w.round && g.source == w.source &&
                g.target == w.target && g.accepted == w.accepted &&
                g.displaced == w.displaced)
        << "trace diverges at event " << k;
  }
}

TEST_P(MatchingPropertyTest, DaaIsOneToOne) {
  MatchingCase c = GetParam();
  la::Matrix m = CaseMatrix(c, 0x77);
  MatchResult r = DeferredAcceptance(m);
  std::vector<char> used(c.n2, 0);
  for (int64_t t : r.target_of_source) {
    if (t < 0) continue;
    EXPECT_FALSE(used[static_cast<size_t>(t)]);
    used[static_cast<size_t>(t)] = 1;
  }
}

TEST_P(MatchingPropertyTest, HungarianDominatesOtherMatchersInWeight) {
  MatchingCase c = GetParam();
  if (c.n1 > c.n2) GTEST_SKIP() << "Hungarian requires n1 <= n2";
  la::Matrix m = CaseMatrix(c, 0x99);
  double hungarian = TotalWeight(m, HungarianMatch(m).value());
  EXPECT_GE(hungarian + 1e-5, TotalWeight(m, DeferredAcceptance(m)));
  EXPECT_GE(hungarian + 1e-5, TotalWeight(m, GreedyOneToOne(m)));
}

TEST_P(MatchingPropertyTest, HungarianMatchesBruteForceOnSmallInstances) {
  MatchingCase c = GetParam();
  if (c.n1 > 5 || c.n1 > c.n2) GTEST_SKIP();
  la::Matrix m = CaseMatrix(c, 0xbb);
  double best = -1.0;
  std::vector<size_t> perm(c.n2);
  std::iota(perm.begin(), perm.end(), size_t{0});
  // Enumerate all injective assignments via permutations of targets.
  std::sort(perm.begin(), perm.end());
  do {
    double w = 0.0;
    for (size_t i = 0; i < c.n1; ++i) w += m.at(i, perm[i]);
    best = std::max(best, w);
  } while (std::next_permutation(perm.begin(), perm.end()));
  double got = TotalWeight(m, HungarianMatch(m).value());
  EXPECT_NEAR(got, best, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MatchingPropertyTest,
    ::testing::Values(MatchingCase{1, 5, 5}, MatchingCase{2, 4, 6},
                      MatchingCase{3, 6, 4}, MatchingCase{4, 1, 8},
                      MatchingCase{5, 8, 1}, MatchingCase{6, 12, 12},
                      MatchingCase{7, 3, 3}, MatchingCase{8, 20, 25},
                      MatchingCase{9, 25, 20}, MatchingCase{10, 2, 2},
                      // Sizes where proposal cursors must refill.
                      MatchingCase{11, 70, 130}, MatchingCase{12, 130, 70},
                      MatchingCase{kTieHeavy | 13, 64, 96},
                      MatchingCase{kTieHeavy | 14, 96, 64},
                      MatchingCase{kTieHeavy | 15, 80, 80},
                      MatchingCase{kDeepChain | 16, 120, 160}));

}  // namespace
}  // namespace ceaff::matching
