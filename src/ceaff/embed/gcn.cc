#include "ceaff/embed/gcn.h"

#include <algorithm>
#include <cmath>

#include "ceaff/common/logging.h"

namespace ceaff::embed {

namespace {

/// Kernel context for the forward/backward passes: the caller's when
/// provided, otherwise a shared default (sequential, default blocks).
const la::KernelContext& Ctx(const la::KernelContext* kernel) {
  static const la::KernelContext kDefault;
  return kernel != nullptr ? *kernel : kDefault;
}

/// x += s·dx, then (with `renormalize`) every row L2-normalised:
/// Matrix::Axpy followed by Matrix::L2NormalizeRows, fused into one
/// row-panel pass with the same per-element expressions, so the bits equal
/// those two serial calls' at any thread count.
void StepInputs(const la::KernelContext& ctx, float s, const la::Matrix& dx,
                bool renormalize, la::Matrix* x) {
  CEAFF_CHECK(x->SameShape(dx));
  const size_t cols = x->cols();
  la::ParallelPanels(ctx, x->rows(), ctx.opts.row_block,
                     [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      float* p = x->row(r);
      const float* g = dx.row(r);
      for (size_t c = 0; c < cols; ++c) p[c] += s * g[c];
      if (!renormalize) continue;
      double sq = 0.0;
      for (size_t c = 0; c < cols; ++c) sq += static_cast<double>(p[c]) * p[c];
      if (sq <= 0.0) continue;
      const float inv = static_cast<float>(1.0 / std::sqrt(sq));
      for (size_t c = 0; c < cols; ++c) p[c] *= inv;
    }
  });
}

}  // namespace

GcnAligner::GcnAligner(la::SparseMatrix a1, la::SparseMatrix a2,
                       const GcnOptions& options)
    : options_(options),
      a1_(std::move(a1)),
      a2_(std::move(a2)),
      at1_(a1_.Transposed()),
      at2_(a2_.Transposed()) {
  CEAFF_CHECK(a1_.rows() == a1_.cols()) << "A1 must be square";
  CEAFF_CHECK(a2_.rows() == a2_.cols()) << "A2 must be square";
  Rng rng(options_.seed);
  // "The initial feature matrix X is sampled from truncated normal
  // distribution with L2-normalization on rows" (Sec. IV-A).
  x1_ = la::Matrix::TruncatedNormal(a1_.rows(), options_.dim, 1.0f, &rng);
  x1_.L2NormalizeRows();
  x2_ = la::Matrix::TruncatedNormal(a2_.rows(), options_.dim, 1.0f, &rng);
  x2_.L2NormalizeRows();
  w1_ = la::Matrix::GlorotUniform(options_.dim, options_.dim, &rng);
  w2_ = la::Matrix::GlorotUniform(options_.dim, options_.dim, &rng);
  Forward();
}

void GcnAligner::ForwardKg(const la::SparseMatrix& a, const la::Matrix& x,
                           Workspace* ws, la::Matrix* z) const {
  const la::KernelContext& ctx = Ctx(options_.kernel);
  la::SpMMK(ctx, a, x, &ws->ax);
  if (!options_.use_weight_transform) {
    // Pure propagation: Z = A·(A·X).
    la::SpMMK(ctx, a, ws->ax, z);
    return;
  }
  la::MatMulK(ctx, ws->ax, w1_, &ws->pre);
  const la::Matrix* h1 = &ws->pre;
  if (options_.use_relu) {
    ws->h1 = ws->pre;
    ws->h1.ReluInPlace();
    h1 = &ws->h1;
  }
  la::SpMMK(ctx, a, *h1, &ws->ah1);
  la::MatMulK(ctx, ws->ah1, w2_, z);
}

void GcnAligner::Forward() {
  Workspace ws;
  ForwardKg(a1_, x1_, &ws, &z1_);
  ForwardKg(a2_, x2_, &ws, &z2_);
}

void GcnAligner::BackwardKg(const la::SparseMatrix& at, bool want_dx,
                            Workspace* ws, la::Matrix* dw1,
                            la::Matrix* dw2) const {
  const la::KernelContext& ctx = Ctx(options_.kernel);
  if (!options_.use_weight_transform) {
    // Z = A·(A·X): pure propagation; dX = Aᵀ·(Aᵀ·dZ).
    if (want_dx) {
      la::SpMMK(ctx, at, ws->dz, &ws->g);
      la::SpMMK(ctx, at, ws->g, &ws->dx);
    }
    return;
  }
  // Z = (A·H1)·W2
  la::MatMulATK(ctx, ws->ah1, ws->dz, &ws->dw);
  dw2->Add(ws->dw);
  // dL/dH1 = Aᵀ · (dZ · W2ᵀ).
  la::MatMulBTK(ctx, ws->dz, w2_, &ws->g);
  la::SpMMK(ctx, at, ws->g, &ws->dh1);
  // ReLU mask.
  if (options_.use_relu) {
    const float* pre = ws->pre.data();
    float* dh1 = ws->dh1.data();
    for (size_t i = 0; i < ws->dh1.size(); ++i) {
      if (pre[i] <= 0.0f) dh1[i] = 0.0f;
    }
  }
  // P = (A·X)·W1
  la::MatMulATK(ctx, ws->ax, ws->dh1, &ws->dw);
  dw1->Add(ws->dw);
  if (want_dx) {
    la::MatMulBTK(ctx, ws->dh1, w1_, &ws->g);
    la::SpMMK(ctx, at, ws->g, &ws->dx);
  }
}

StatusOr<double> GcnAligner::Train(
    const std::vector<kg::AlignmentPair>& seed_pairs) {
  for (const kg::AlignmentPair& p : seed_pairs) {
    if (p.source >= a1_.rows() || p.target >= a2_.rows()) {
      return Status::InvalidArgument("seed pair id outside KG");
    }
  }
  if (seed_pairs.empty()) {
    Forward();
    return 0.0;
  }
  if (options_.tie_seed_features) {
    for (const kg::AlignmentPair& p : seed_pairs) {
      const float* src = x1_.row(p.source);
      float* dst = x2_.row(p.target);
      for (size_t c = 0; c < x1_.cols(); ++c) dst[c] = src[c];
    }
  }
  const la::KernelContext& ctx = Ctx(options_.kernel);
  Rng rng(Rng::SplitMix64(options_.seed ^ 0x5eedull));
  std::vector<NegativePair> negatives;
  double mean_loss = 0.0;
  const float lr = options_.learning_rate /
                   static_cast<float>(seed_pairs.size());
  // Every buffer of the epoch lives here: the kernels size each on the
  // first epoch and overwrite it in place afterwards.
  Workspace ws1, ws2;
  la::Matrix dw1(w1_.rows(), w1_.cols());
  la::Matrix dw2(w2_.rows(), w2_.cols());
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    CEAFF_RETURN_IF_ERROR(CheckCancel(options_.cancel, "gcn training"));
    ForwardKg(a1_, x1_, &ws1, &z1_);
    ForwardKg(a2_, x2_, &ws2, &z2_);
    if (epoch % std::max<size_t>(1, options_.negative_resample_every) == 0) {
      if (options_.hard_negative_topk > 0) {
        negatives = SampleHardNegatives(seed_pairs, z1_, z2_,
                                        options_.negatives_per_positive,
                                        options_.hard_negative_topk, &rng);
      } else {
        negatives = SampleNegatives(seed_pairs, a1_.rows(), a2_.rows(),
                                    options_.negatives_per_positive, &rng);
      }
    }

    const double loss =
        MarginRankingLossGrad(z1_, z2_, seed_pairs, negatives,
                              options_.margin, &ws1.dz, &ws2.dz, &ctx);
    mean_loss = loss / static_cast<double>(seed_pairs.size());

    dw1.SetZero();
    dw2.SetZero();
    BackwardKg(at1_, options_.train_inputs, &ws1, &dw1, &dw2);
    BackwardKg(at2_, options_.train_inputs, &ws2, &dw1, &dw2);

    if (options_.train_inputs) {
      StepInputs(ctx, -lr, ws1.dx, options_.renormalize_inputs, &x1_);
      StepInputs(ctx, -lr, ws2.dx, options_.renormalize_inputs, &x2_);
    }
    // Propagation-only training never reads W1/W2, so only the weight
    // transform steps them.
    if (options_.use_weight_transform) {
      w1_.Axpy(-lr, dw1);
      w2_.Axpy(-lr, dw2);
      // Rescale weights that outgrow the cap; the margin objective
      // otherwise inflates the embedding scale without bound.
      const float cap = options_.weight_norm_cap_factor *
                        std::sqrt(static_cast<float>(options_.dim));
      for (la::Matrix* w : {&w1_, &w2_}) {
        float norm = w->FrobeniusNorm();
        if (norm > cap) w->Scale(cap / norm);
      }
    }
  }
  Forward();
  return mean_loss;
}

size_t GcnAligner::NumParameters() const {
  size_t n = 2 * options_.dim * options_.dim;
  if (options_.train_inputs) n += x1_.size() + x2_.size();
  return n;
}

std::vector<NegativePair> SampleNegatives(
    const std::vector<kg::AlignmentPair>& positives, size_t n1, size_t n2,
    size_t k, Rng* rng) {
  std::vector<NegativePair> out;
  out.reserve(positives.size() * k);
  for (size_t i = 0; i < positives.size(); ++i) {
    for (size_t j = 0; j < k; ++j) {
      NegativePair np;
      np.positive_index = static_cast<uint32_t>(i);
      np.source = positives[i].source;
      np.target = positives[i].target;
      // Corrupt one side, chosen uniformly.
      if (rng->NextBounded(2) == 0) {
        np.source = static_cast<uint32_t>(rng->NextBounded(n1));
      } else {
        np.target = static_cast<uint32_t>(rng->NextBounded(n2));
      }
      out.push_back(np);
    }
  }
  return out;
}

std::vector<NegativePair> SampleHardNegatives(
    const std::vector<kg::AlignmentPair>& positives, const la::Matrix& z1,
    const la::Matrix& z2, size_t k, size_t topk, Rng* rng) {
  // Nearest candidates are computed around the *positive* pair's entities:
  // corrupting the target draws from entities near v in KG2 (they are the
  // confusable ones), and symmetrically for the source.
  std::vector<NegativePair> out;
  out.reserve(positives.size() * k);
  // Normalised copies once; per-seed similarity rows afterwards.
  la::Matrix z1n = z1, z2n = z2;
  z1n.L2NormalizeRows();
  z2n.L2NormalizeRows();
  auto nearest = [&](const la::Matrix& zn, uint32_t anchor, size_t exclude,
                     std::vector<uint32_t>* cand) {
    const float* a = zn.row(anchor);
    std::vector<std::pair<float, uint32_t>> scored;
    scored.reserve(zn.rows());
    for (size_t r = 0; r < zn.rows(); ++r) {
      if (r == exclude) continue;
      const float* b = zn.row(r);
      float dot = 0.0f;
      for (size_t c = 0; c < zn.cols(); ++c) dot += a[c] * b[c];
      scored.push_back({dot, static_cast<uint32_t>(r)});
    }
    size_t take = std::min(topk, scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<long>(take), scored.end(),
                      [](const auto& x, const auto& y) {
                        return x.first > y.first;
                      });
    cand->clear();
    for (size_t i = 0; i < take; ++i) cand->push_back(scored[i].second);
  };
  std::vector<uint32_t> cand1, cand2;
  for (size_t i = 0; i < positives.size(); ++i) {
    // Confusable substitutes for the source (in KG1, near u) and for the
    // target (in KG2, near v).
    nearest(z1n, positives[i].source, positives[i].source, &cand1);
    nearest(z2n, positives[i].target, positives[i].target, &cand2);
    for (size_t j = 0; j < k; ++j) {
      NegativePair np;
      np.positive_index = static_cast<uint32_t>(i);
      np.source = positives[i].source;
      np.target = positives[i].target;
      if (rng->NextBounded(2) == 0 && !cand1.empty()) {
        np.source = cand1[rng->NextBounded(cand1.size())];
      } else if (!cand2.empty()) {
        np.target = cand2[rng->NextBounded(cand2.size())];
      }
      out.push_back(np);
    }
  }
  return out;
}

double MarginRankingLossGrad(const la::Matrix& z1, const la::Matrix& z2,
                             const std::vector<kg::AlignmentPair>& positives,
                             const std::vector<NegativePair>& negatives,
                             float margin, la::Matrix* dz1, la::Matrix* dz2,
                             const la::KernelContext* kernel) {
  CEAFF_CHECK(z1.cols() == z2.cols());
  // Every dz entry is a sum of sign terms in {-1, 0, +1}, at most two per
  // negative (a row can be both the positive's and the negative's end of a
  // pair). While 2·|negatives| < 2^24 every partial sum is an integer a
  // float holds exactly, so each addition is exact and the result does not
  // depend on the order the terms arrive in; no -0 can arise either (the
  // rows start at +0 and an exact zero sum rounds to +0). That is what lets
  // the scatter below split by destination row and still match the serial
  // pass over the negatives bit for bit. The bound here keeps a wide
  // margin under that limit.
  CEAFF_CHECK(negatives.size() < (size_t{1} << 22))
      << negatives.size() << " negatives: the gradient scatter is only "
      << "order-free below 2^22";
  const la::KernelContext& ctx = Ctx(kernel);
  const size_t d = z1.cols(), n1 = z1.rows(), n2 = z2.rows();
  if (dz1->rows() != n1 || dz1->cols() != d) *dz1 = la::Matrix(n1, d);
  if (dz2->rows() != n2 || dz2->cols() != d) *dz2 = la::Matrix(n2, d);
  const size_t block = ctx.opts.row_block;

  const auto l1 = [d](const float* u, const float* v) {
    double s = 0.0;
    for (size_t c = 0; c < d; ++c) s += std::fabs(u[c] - v[c]);
    return s;
  };
  // L1 distance of each positive pair, shared across its negatives.
  std::vector<double> pos_dist(positives.size());
  la::ParallelPanels(ctx, positives.size(), block, [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      pos_dist[i] = l1(z1.row(positives[i].source),
                       z2.row(positives[i].target));
    }
  });
  std::vector<double> hinge(negatives.size());
  la::ParallelPanels(ctx, negatives.size(), block, [&](size_t j0, size_t j1) {
    for (size_t j = j0; j < j1; ++j) {
      const NegativePair& np = negatives[j];
      hinge[j] = pos_dist[np.positive_index] -
                 l1(z1.row(np.source), z2.row(np.target)) + margin;
    }
  });

  // The loss sums in negative order on this thread. Each active negative
  // moves four rows of the stacked [dz1; dz2] (dz2 row t is row n1 + t):
  //   kind 0: +sign(u - v)   at the positive's source
  //   kind 1: -sign(un - vn) at the negative's source
  //   kind 2: -sign(u - v)   at the positive's target
  //   kind 3: +sign(un - vn) at the negative's target
  // Those updates are bucketed by destination row (a counting sort), so
  // each row is written by exactly one task.
  double loss = 0.0;
  std::vector<uint32_t> row_start(n1 + n2 + 1, 0);
  const auto dest = [&](const NegativePair& np, uint32_t kind) -> size_t {
    const kg::AlignmentPair& pos = positives[np.positive_index];
    switch (kind) {
      case 0: return pos.source;
      case 1: return np.source;
      case 2: return n1 + pos.target;
      default: return n1 + np.target;
    }
  };
  for (size_t j = 0; j < negatives.size(); ++j) {
    if (hinge[j] <= 0.0) continue;
    loss += hinge[j];
    for (uint32_t kind = 0; kind < 4; ++kind) {
      ++row_start[dest(negatives[j], kind) + 1];
    }
  }
  for (size_t r = 0; r < n1 + n2; ++r) row_start[r + 1] += row_start[r];
  std::vector<uint32_t> updates(row_start.back());  // (j << 2) | kind
  std::vector<uint32_t> next(row_start.begin(), row_start.end() - 1);
  for (size_t j = 0; j < negatives.size(); ++j) {
    if (hinge[j] <= 0.0) continue;
    for (uint32_t kind = 0; kind < 4; ++kind) {
      updates[next[dest(negatives[j], kind)]++] =
          static_cast<uint32_t>(j << 2) | kind;
    }
  }

  la::ParallelPanels(ctx, n1 + n2, block, [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      float* out = r < n1 ? dz1->row(r) : dz2->row(r - n1);
      std::fill(out, out + d, 0.0f);
      for (uint32_t k = row_start[r]; k < row_start[r + 1]; ++k) {
        const uint32_t kind = updates[k] & 3u;
        const NegativePair& np = negatives[updates[k] >> 2];
        const kg::AlignmentPair& pos = positives[np.positive_index];
        // d|u - v| / du = sign(u - v); subgradient 0 at equality. The
        // branch-free sign is +1.0f, -1.0f or +0.0f, the same floats the
        // serial pass adds, and vectorises where a ternary chain does not.
        const bool negative_pair = (kind & 1u) != 0;
        const float* u = z1.row(negative_pair ? np.source : pos.source);
        const float* v = z2.row(negative_pair ? np.target : pos.target);
        if (kind == 0 || kind == 3) {
          for (size_t c = 0; c < d; ++c) {
            out[c] += static_cast<float>((u[c] > v[c]) - (u[c] < v[c]));
          }
        } else {
          for (size_t c = 0; c < d; ++c) {
            out[c] -= static_cast<float>((u[c] > v[c]) - (u[c] < v[c]));
          }
        }
      }
    }
  });
  return loss;
}

}  // namespace ceaff::embed
