#include "ceaff/embed/gcn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "ceaff/common/thread_pool.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/ops.h"

namespace ceaff::embed {
namespace {

/// Two small isomorphic ring KGs with a few chords.
void MakeRingPair(kg::KnowledgeGraph* g1, kg::KnowledgeGraph* g2,
                  size_t n = 12) {
  for (size_t i = 0; i < n; ++i) {
    std::string a = "u" + std::to_string(i);
    std::string b = "u" + std::to_string((i + 1) % n);
    g1->AddTriple(a, "next", b);
    std::string c = "v" + std::to_string(i);
    std::string d = "v" + std::to_string((i + 1) % n);
    g2->AddTriple(c, "next", d);
  }
  g1->AddTriple("u0", "chord", "u5");
  g2->AddTriple("v0", "chord", "v5");
  g1->AddTriple("u2", "chord", "u8");
  g2->AddTriple("v2", "chord", "v8");
}

GcnOptions SmallOptions() {
  GcnOptions o;
  o.dim = 16;
  o.epochs = 50;
  o.seed = 3;
  return o;
}

TEST(GcnAlignerTest, EmbeddingShapesMatchKgs) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  g2.AddEntity("extra");
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
                 SmallOptions());
  EXPECT_EQ(gcn.embeddings1().rows(), g1.num_entities());
  EXPECT_EQ(gcn.embeddings2().rows(), g2.num_entities());
  EXPECT_EQ(gcn.embeddings1().cols(), 16u);
}

TEST(GcnAlignerTest, TrainRejectsOutOfRangePairs) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
                 SmallOptions());
  EXPECT_TRUE(gcn.Train({{999, 0}}).status().IsInvalidArgument());
  EXPECT_TRUE(gcn.Train({{0, 999}}).status().IsInvalidArgument());
}

TEST(GcnAlignerTest, TrainWithNoSeedsIsNoop) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
                 SmallOptions());
  auto loss = gcn.Train({});
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(loss.value(), 0.0);
}

TEST(GcnAlignerTest, TrainingReducesLossAndAlignsSeeds) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  std::vector<kg::AlignmentPair> seeds;
  for (uint32_t i = 0; i < 6; ++i) seeds.push_back({i, i});

  GcnOptions opt = SmallOptions();
  opt.epochs = 1;
  opt.tie_seed_features = false;
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2), opt);
  double first = gcn.Train(seeds).value();
  double last = first;
  for (int e = 0; e < 80; ++e) last = gcn.Train(seeds).value();
  EXPECT_LT(last, first);

  // Seed pairs should now be mutually most-similar more often than chance.
  la::Matrix sim =
      la::CosineSimilarity(gcn.embeddings1(), gcn.embeddings2());
  size_t hits = 0;
  for (const kg::AlignmentPair& p : seeds) {
    if (la::RowTopK(sim, p.source, 1)[0] == p.target) ++hits;
  }
  EXPECT_GE(hits, 4u);
}

TEST(GcnAlignerTest, DeterministicAcrossRuns) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  std::vector<kg::AlignmentPair> seeds{{0, 0}, {3, 3}, {7, 7}};
  GcnAligner a(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
               SmallOptions());
  GcnAligner b(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2),
               SmallOptions());
  EXPECT_EQ(a.Train(seeds).value(), b.Train(seeds).value());
  for (size_t i = 0; i < a.embeddings1().size(); ++i) {
    EXPECT_EQ(a.embeddings1().data()[i], b.embeddings1().data()[i]);
  }
}

TEST(GcnAlignerTest, WeightTransformModeAlsoTrains) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  std::vector<kg::AlignmentPair> seeds{{0, 0}, {3, 3}, {6, 6}, {9, 9}};
  GcnOptions opt = SmallOptions();
  opt.use_weight_transform = true;
  opt.epochs = 1;
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2), opt);
  double first = gcn.Train(seeds).value();
  double last = first;
  for (int e = 0; e < 60; ++e) last = gcn.Train(seeds).value();
  EXPECT_LT(last, first);
  EXPECT_FALSE(std::isnan(gcn.embeddings1().FrobeniusNorm()));
}

TEST(GcnAlignerTest, NumParametersAccounting) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2);
  GcnOptions opt = SmallOptions();
  opt.train_inputs = false;
  GcnAligner gcn(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2), opt);
  EXPECT_EQ(gcn.NumParameters(), 2 * 16u * 16u);
  opt.train_inputs = true;
  GcnAligner gcn2(kg::BuildAdjacency(g1), kg::BuildAdjacency(g2), opt);
  EXPECT_EQ(gcn2.NumParameters(),
            2 * 16u * 16u + (g1.num_entities() + g2.num_entities()) * 16u);
}

bool SameBytes(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// The margin loss and its gradient as one serial pass over the negatives,
/// scattering each active negative's sign terms in negative order.
double SerialLossGrad(const la::Matrix& z1, const la::Matrix& z2,
                      const std::vector<kg::AlignmentPair>& positives,
                      const std::vector<NegativePair>& negatives, float margin,
                      la::Matrix* dz1, la::Matrix* dz2) {
  *dz1 = la::Matrix(z1.rows(), z1.cols());
  *dz2 = la::Matrix(z2.rows(), z2.cols());
  const size_t d = z1.cols();
  std::vector<double> pos_dist(positives.size());
  for (size_t i = 0; i < positives.size(); ++i) {
    const float* u = z1.row(positives[i].source);
    const float* v = z2.row(positives[i].target);
    double s = 0.0;
    for (size_t c = 0; c < d; ++c) s += std::fabs(u[c] - v[c]);
    pos_dist[i] = s;
  }
  double loss = 0.0;
  for (const NegativePair& np : negatives) {
    const kg::AlignmentPair& pos = positives[np.positive_index];
    const float* un = z1.row(np.source);
    const float* vn = z2.row(np.target);
    double neg_dist = 0.0;
    for (size_t c = 0; c < d; ++c) neg_dist += std::fabs(un[c] - vn[c]);
    const double hinge = pos_dist[np.positive_index] - neg_dist + margin;
    if (hinge <= 0.0) continue;
    loss += hinge;
    const float* up = z1.row(pos.source);
    const float* vp = z2.row(pos.target);
    float* dup = dz1->row(pos.source);
    float* dvp = dz2->row(pos.target);
    float* dun = dz1->row(np.source);
    float* dvn = dz2->row(np.target);
    for (size_t c = 0; c < d; ++c) {
      const float sp = up[c] > vp[c] ? 1.0f : (up[c] < vp[c] ? -1.0f : 0.0f);
      dup[c] += sp;
      dvp[c] -= sp;
      const float sn = un[c] > vn[c] ? 1.0f : (un[c] < vn[c] ? -1.0f : 0.0f);
      dun[c] -= sn;
      dvn[c] += sn;
    }
  }
  return loss;
}

/// What GcnAligner::Train leaves behind: inputs, embeddings, mean loss.
struct TrainedModel {
  la::Matrix x1, x2, z1, z2;
  double loss = 0.0;
};

/// A serial reference of the GCN training epoch, one freshly allocated
/// matrix per product: SparseMatrix::Multiply for A·(.),
/// SparseMatrix::MultiplyTransposed for Aᵀ·(.), the naive dense products
/// (MatMulBTK on a sequential context, the one dense kernel whose float
/// lane order the naive MatMulBT does not share), then the separate
/// Axpy / L2NormalizeRows update. Initialisation replays the aligner's.
TrainedModel SerialOracleTrain(const la::SparseMatrix& a1,
                               const la::SparseMatrix& a2,
                               const GcnOptions& o,
                               const std::vector<kg::AlignmentPair>& seeds) {
  Rng init(o.seed);
  TrainedModel m;
  m.x1 = la::Matrix::TruncatedNormal(a1.rows(), o.dim, 1.0f, &init);
  m.x1.L2NormalizeRows();
  m.x2 = la::Matrix::TruncatedNormal(a2.rows(), o.dim, 1.0f, &init);
  m.x2.L2NormalizeRows();
  la::Matrix w1 = la::Matrix::GlorotUniform(o.dim, o.dim, &init);
  la::Matrix w2 = la::Matrix::GlorotUniform(o.dim, o.dim, &init);
  const la::KernelContext seq;
  struct Cache {
    la::Matrix ax, pre, ah1;
  };
  auto forward = [&](const la::SparseMatrix& a, const la::Matrix& x,
                     Cache* c) {
    c->ax = a.Multiply(x);
    if (!o.use_weight_transform) return a.Multiply(c->ax);
    c->pre = la::MatMul(c->ax, w1);
    la::Matrix h1 = c->pre;
    if (o.use_relu) h1.ReluInPlace();
    c->ah1 = a.Multiply(h1);
    return la::MatMul(c->ah1, w2);
  };
  auto backward = [&](const la::SparseMatrix& a, const Cache& c,
                      const la::Matrix& dz, la::Matrix* dw1, la::Matrix* dw2,
                      la::Matrix* dx) {
    if (!o.use_weight_transform) {
      *dx = a.MultiplyTransposed(a.MultiplyTransposed(dz));
      return;
    }
    dw2->Add(la::MatMulAT(c.ah1, dz));
    la::Matrix dh1 = a.MultiplyTransposed(la::MatMulBTK(seq, dz, w2));
    if (o.use_relu) {
      for (size_t i = 0; i < dh1.size(); ++i) {
        if (c.pre.data()[i] <= 0.0f) dh1.data()[i] = 0.0f;
      }
    }
    dw1->Add(la::MatMulAT(c.ax, dh1));
    *dx = a.MultiplyTransposed(la::MatMulBTK(seq, dh1, w1));
  };

  for (const kg::AlignmentPair& p : seeds) {
    std::memcpy(m.x2.row(p.target), m.x1.row(p.source),
                o.dim * sizeof(float));
  }
  Rng rng(Rng::SplitMix64(o.seed ^ 0x5eedull));
  std::vector<NegativePair> negatives;
  const float lr = o.learning_rate / static_cast<float>(seeds.size());
  for (size_t epoch = 0; epoch < o.epochs; ++epoch) {
    Cache c1, c2;
    m.z1 = forward(a1, m.x1, &c1);
    m.z2 = forward(a2, m.x2, &c2);
    if (epoch % o.negative_resample_every == 0) {
      negatives = SampleNegatives(seeds, a1.rows(), a2.rows(),
                                  o.negatives_per_positive, &rng);
    }
    la::Matrix dz1, dz2;
    m.loss = SerialLossGrad(m.z1, m.z2, seeds, negatives, o.margin, &dz1,
                            &dz2) /
             static_cast<double>(seeds.size());
    la::Matrix dw1(o.dim, o.dim), dw2(o.dim, o.dim), dx1, dx2;
    backward(a1, c1, dz1, &dw1, &dw2, &dx1);
    backward(a2, c2, dz2, &dw1, &dw2, &dx2);
    w1.Axpy(-lr, dw1);
    w2.Axpy(-lr, dw2);
    m.x1.Axpy(-lr, dx1);
    m.x2.Axpy(-lr, dx2);
    m.x1.L2NormalizeRows();
    m.x2.L2NormalizeRows();
    const float cap =
        o.weight_norm_cap_factor * std::sqrt(static_cast<float>(o.dim));
    for (la::Matrix* w : {&w1, &w2}) {
      const float norm = w->FrobeniusNorm();
      if (norm > cap) w->Scale(cap / norm);
    }
  }
  Cache c1, c2;
  m.z1 = forward(a1, m.x1, &c1);
  m.z2 = forward(a2, m.x2, &c2);
  return m;
}

// Threads, blocking and the reused epoch workspace change nothing: at any
// thread count and block size, training reproduces the serial oracle
// byte for byte, in both model modes.
TEST(GcnAlignerTest, TrainIsBitIdenticalAcrossThreadCounts) {
  kg::KnowledgeGraph g1, g2;
  MakeRingPair(&g1, &g2, 150);
  // Random chords, different per KG, and a many-to-few "in" relation
  // whose functionality (1) and inverse functionality (7/50) differ, so
  // A[h][t] != A[t][h]: the backward pass must use the real Aᵀ.
  Rng rng(17);
  for (int i = 0; i < 120; ++i) {
    g1.AddTriple("u" + std::to_string(rng.NextBounded(150)), "link",
                 "u" + std::to_string(rng.NextBounded(150)));
    g2.AddTriple("v" + std::to_string(rng.NextBounded(150)), "link",
                 "v" + std::to_string(rng.NextBounded(150)));
  }
  for (int i = 0; i < 150; i += 3) {
    g1.AddTriple("u" + std::to_string(i), "in", "u" + std::to_string(i % 7));
    g2.AddTriple("v" + std::to_string(i), "in", "v" + std::to_string(i % 7));
  }
  const la::SparseMatrix a1 = kg::BuildAdjacency(g1);
  const la::SparseMatrix a2 = kg::BuildAdjacency(g2);
  std::vector<kg::AlignmentPair> seeds;
  for (uint32_t i = 0; i < 150; i += 4) seeds.push_back({i, i});

  ThreadPool pool2(2), pool4(4);
  la::KernelContext two, four, four_b48;
  two.pool = &pool2;
  four.pool = &pool4;
  four_b48.pool = &pool4;
  four_b48.opts.OverrideBlock(48);
  for (const bool weights : {false, true}) {
    GcnOptions opt;
    opt.dim = 24;
    opt.epochs = 25;
    opt.seed = 9;
    opt.use_weight_transform = weights;
    const TrainedModel want = SerialOracleTrain(a1, a2, opt, seeds);
    for (const la::KernelContext* ctx :
         std::vector<const la::KernelContext*>{nullptr, &two, &four,
                                               &four_b48}) {
      opt.kernel = ctx;
      GcnAligner gcn(a1, a2, opt);
      const StatusOr<double> loss = gcn.Train(seeds);
      ASSERT_TRUE(loss.ok());
      const std::string where =
          std::string(weights ? "weight transform" : "propagation only") +
          (ctx == nullptr ? ", no kernel context"
                          : ", " + std::to_string(ctx->pool->num_threads()) +
                                " threads, block " +
                                std::to_string(ctx->opts.col_block));
      EXPECT_EQ(std::memcmp(&loss.value(), &want.loss, sizeof(double)), 0)
          << where << ": loss " << loss.value() << " vs " << want.loss;
      EXPECT_TRUE(SameBytes(gcn.features1(), want.x1)) << where;
      EXPECT_TRUE(SameBytes(gcn.features2(), want.x2)) << where;
      EXPECT_TRUE(SameBytes(gcn.embeddings1(), want.z1)) << where;
      EXPECT_TRUE(SameBytes(gcn.embeddings2(), want.z2)) << where;
    }
  }
}

// The parallel loss gradient equals the serial scatter over the negatives
// byte for byte, whatever the pool, including rows hit by many negatives.
TEST(MarginLossTest, ParallelGradientMatchesSerialScatter) {
  Rng rng(23);
  const la::Matrix z1 = la::Matrix::TruncatedNormal(90, 19, 1.0f, &rng);
  const la::Matrix z2 = la::Matrix::TruncatedNormal(70, 19, 1.0f, &rng);
  std::vector<kg::AlignmentPair> pos;
  for (uint32_t i = 0; i < 40; ++i) pos.push_back({i, (i * 7) % 70});
  std::vector<NegativePair> negs = SampleNegatives(pos, 90, 70, 9, &rng);
  // Pile negatives onto a few rows so their sums exceed a single term.
  for (uint32_t i = 0; i < 60; ++i) negs.push_back({i % 40, 3, 5});
  la::Matrix want1, want2;
  const double want =
      SerialLossGrad(z1, z2, pos, negs, 3.0f, &want1, &want2);
  ThreadPool pool(4);
  la::KernelContext ctx;
  ctx.pool = &pool;
  ctx.opts.OverrideBlock(10);
  for (const la::KernelContext* k :
       std::vector<const la::KernelContext*>{nullptr, &ctx}) {
    la::Matrix d1(1, 1), d2;  // wrong shapes: the call reshapes them
    const double got =
        MarginRankingLossGrad(z1, z2, pos, negs, 3.0f, &d1, &d2, k);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0);
    EXPECT_TRUE(SameBytes(d1, want1));
    EXPECT_TRUE(SameBytes(d2, want2));
  }
}

TEST(SampleNegativesTest, CorruptsExactlyOneSide) {
  std::vector<kg::AlignmentPair> pos{{1, 2}, {3, 4}};
  Rng rng(5);
  std::vector<NegativePair> negs = SampleNegatives(pos, 10, 10, 7, &rng);
  EXPECT_EQ(negs.size(), 14u);
  for (const NegativePair& n : negs) {
    const kg::AlignmentPair& p = pos[n.positive_index];
    bool src_same = n.source == p.source;
    bool tgt_same = n.target == p.target;
    EXPECT_TRUE(src_same || tgt_same);
    EXPECT_LT(n.source, 10u);
    EXPECT_LT(n.target, 10u);
  }
}

TEST(SampleHardNegativesTest, DrawsFromNearestNeighbours) {
  // z1: three well-separated clusters; the nearest entity to 0 is 1.
  la::Matrix z1 = la::Matrix::FromRows(
      {{1, 0}, {0.95f, 0.05f}, {0, 1}, {-1, 0}});
  la::Matrix z2 = z1;
  std::vector<kg::AlignmentPair> pos{{0, 0}};
  Rng rng(7);
  std::vector<NegativePair> negs =
      SampleHardNegatives(pos, z1, z2, 20, 1, &rng);
  for (const NegativePair& n : negs) {
    // With topk = 1 the only allowed corruption on either side is index 1.
    bool corrupt_src = n.source != 0;
    bool corrupt_tgt = n.target != 0;
    EXPECT_NE(corrupt_src, corrupt_tgt);
    if (corrupt_src) {
      EXPECT_EQ(n.source, 1u);
    }
    if (corrupt_tgt) {
      EXPECT_EQ(n.target, 1u);
    }
  }
}

TEST(MarginLossTest, ZeroWhenNegativesFarBeyondMargin) {
  la::Matrix z1 = la::Matrix::FromRows({{0, 0}, {100, 100}});
  la::Matrix z2 = la::Matrix::FromRows({{0, 0}, {-100, -100}});
  std::vector<kg::AlignmentPair> pos{{0, 0}};
  std::vector<NegativePair> negs{{0, 1, 0}, {0, 0, 1}};
  la::Matrix d1(2, 2), d2(2, 2);
  double loss = MarginRankingLossGrad(z1, z2, pos, negs, 3.0f, &d1, &d2);
  EXPECT_EQ(loss, 0.0);
  EXPECT_EQ(d1.FrobeniusNorm(), 0.0f);
  EXPECT_EQ(d2.FrobeniusNorm(), 0.0f);
}

TEST(MarginLossTest, GradientMatchesFiniteDifference) {
  Rng rng(11);
  la::Matrix z1 = la::Matrix::TruncatedNormal(4, 3, 1.0f, &rng);
  la::Matrix z2 = la::Matrix::TruncatedNormal(4, 3, 1.0f, &rng);
  std::vector<kg::AlignmentPair> pos{{0, 0}, {1, 1}};
  std::vector<NegativePair> negs{{0, 2, 0}, {0, 0, 3}, {1, 3, 1}};
  la::Matrix d1(4, 3), d2(4, 3);
  double base = MarginRankingLossGrad(z1, z2, pos, negs, 3.0f, &d1, &d2);
  const float eps = 1e-3f;
  for (size_t i = 0; i < z1.size(); ++i) {
    float saved = z1.data()[i];
    z1.data()[i] = saved + eps;
    la::Matrix t1(4, 3), t2(4, 3);
    double up = MarginRankingLossGrad(z1, z2, pos, negs, 3.0f, &t1, &t2);
    z1.data()[i] = saved;
    double numeric = (up - base) / eps;
    // The L1 subgradient is exact except at kinks; allow loose tolerance.
    EXPECT_NEAR(numeric, d1.data()[i], 0.15);
  }
}

}  // namespace
}  // namespace ceaff::embed
