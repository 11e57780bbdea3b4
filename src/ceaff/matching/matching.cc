#include "ceaff/matching/matching.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <queue>

#include "ceaff/la/ops.h"

namespace ceaff::matching {

std::vector<kg::AlignmentPair> MatchResult::Pairs() const {
  std::vector<kg::AlignmentPair> out;
  for (size_t i = 0; i < target_of_source.size(); ++i) {
    if (target_of_source[i] >= 0) {
      out.push_back({static_cast<uint32_t>(i),
                     static_cast<uint32_t>(target_of_source[i])});
    }
  }
  return out;
}

size_t MatchResult::num_matched() const {
  size_t n = 0;
  for (int64_t t : target_of_source) n += (t >= 0);
  return n;
}

MatchResult GreedyIndependent(const la::Matrix& similarity) {
  MatchResult result;
  std::vector<size_t> best = la::RowArgmax(similarity);
  result.target_of_source.resize(similarity.rows());
  for (size_t i = 0; i < best.size(); ++i) {
    result.target_of_source[i] = static_cast<int64_t>(best[i]);
  }
  if (similarity.cols() == 0) {
    result.target_of_source.assign(similarity.rows(), -1);
  }
  return result;
}

MatchResult GreedyOneToOne(const la::Matrix& similarity) {
  struct Cell {
    float score;
    uint32_t row, col;
  };
  std::vector<Cell> cells;
  cells.reserve(similarity.rows() * similarity.cols());
  for (size_t i = 0; i < similarity.rows(); ++i) {
    const float* p = similarity.row(i);
    for (size_t j = 0; j < similarity.cols(); ++j) {
      cells.push_back({p[j], static_cast<uint32_t>(i),
                       static_cast<uint32_t>(j)});
    }
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.row != b.row) return a.row < b.row;
    return a.col < b.col;
  });
  MatchResult result;
  result.target_of_source.assign(similarity.rows(), -1);
  std::vector<char> used_col(similarity.cols(), 0);
  size_t matched = 0;
  const size_t want = std::min(similarity.rows(), similarity.cols());
  for (const Cell& c : cells) {
    if (matched == want) break;
    if (result.target_of_source[c.row] >= 0 || used_col[c.col]) continue;
    result.target_of_source[c.row] = c.col;
    used_col[c.col] = 1;
    ++matched;
  }
  return result;
}

namespace {

/// The one preference order of the collective step, for sources ranking
/// targets and targets ranking sources alike: the higher score first and,
/// on equal scores (+0 and -0 included), the lower index first.
bool Outranks(float score_a, uint32_t a, float score_b, uint32_t b) {
  return score_a != score_b ? score_a > score_b : a < b;
}

/// One source's preference list, derived from its similarity row on
/// demand instead of sorted up front. The cursor holds only the next
/// batch of targets in preference order. A refill scans the row once,
/// keeps the targets ranked after the last one handed out, and sorts only
/// the best `want_` of them; `want_` starts at 16 and doubles on every
/// refill, so a source that proposes p times refills O(log p) times and
/// holds at most p + 16 entries. Most sources of a real fused matrix
/// propose once or twice and never sort beyond their first 16 targets.
class ProposalCursor {
 public:
  /// Sets `*target` to the next target in preference order. False once
  /// every target of the row has been handed out. `scratch` is a buffer
  /// shared by all cursors of one run.
  bool Next(const float* row, size_t n2, std::vector<uint32_t>* scratch,
            uint32_t* target) {
    if (pos_ == batch_.size()) {
      if (last_batch_) return false;
      Refill(row, n2, scratch);
      if (batch_.empty()) return false;
    }
    *target = batch_[pos_++];
    return true;
  }

 private:
  void Refill(const float* row, size_t n2, std::vector<uint32_t>* scratch) {
    scratch->clear();
    if (batch_.empty()) {
      for (uint32_t j = 0; j < n2; ++j) scratch->push_back(j);
    } else {
      const uint32_t last = batch_.back();
      const float last_score = row[last];
      for (uint32_t j = 0; j < n2; ++j) {
        if (Outranks(last_score, last, row[j], j)) scratch->push_back(j);
      }
    }
    const auto ranks_before = [row](uint32_t a, uint32_t b) {
      return Outranks(row[a], a, row[b], b);
    };
    const size_t take = std::min(want_, scratch->size());
    const auto mid = scratch->begin() + static_cast<std::ptrdiff_t>(take);
    std::partial_sort(scratch->begin(), mid, scratch->end(), ranks_before);
    batch_.assign(scratch->begin(), mid);
    pos_ = 0;
    last_batch_ = take == scratch->size();
    want_ *= 2;
  }

  std::vector<uint32_t> batch_;  // the next targets, best first
  size_t pos_ = 0;               // first entry of batch_ not handed out
  size_t want_ = 16;             // batch size of the next refill
  bool last_batch_ = false;      // batch_ holds every remaining target
};

/// Shared Gale–Shapley engine; `trace` and `cancel` may be null. The
/// cancellation token is polled once per n1 proposals (one nominal
/// "round"), so even adversarial instances with O(n1·n2) proposals stay
/// responsive without paying an atomic load per proposal.
StatusOr<MatchResult> DaaImpl(const la::Matrix& similarity,
                              std::vector<DaaTraceEvent>* trace,
                              const CancellationToken* cancel) {
  const size_t n1 = similarity.rows();
  const size_t n2 = similarity.cols();
  MatchResult result;
  result.target_of_source.assign(n1, -1);
  if (n1 == 0 || n2 == 0) return result;

  std::vector<ProposalCursor> cursors(n1);
  std::vector<uint32_t> scratch;
  scratch.reserve(n2);
  std::vector<int64_t> source_of_target(n2, -1);
  // Track the proposal round per source for the trace (round = how many
  // times it has re-entered the free queue).
  std::vector<size_t> round_of_source(n1, 1);
  std::queue<uint32_t> free_sources;
  for (uint32_t i = 0; i < n1; ++i) free_sources.push(i);

  size_t proposals = 0;
  while (!free_sources.empty()) {
    if (proposals++ % n1 == 0) {
      CEAFF_RETURN_IF_ERROR(CheckCancel(cancel, "deferred acceptance"));
    }
    uint32_t u = free_sources.front();
    free_sources.pop();
    uint32_t v = 0;
    if (!cursors[u].Next(similarity.row(u), n2, &scratch, &v)) {
      continue;  // exhausted (only when n1 > n2)
    }
    // Target-side preference, compared directly on the matrix column.
    int64_t incumbent = source_of_target[v];
    bool accepted =
        incumbent < 0 ||
        Outranks(similarity.at(u, v), u,
                 similarity.at(static_cast<size_t>(incumbent), v),
                 static_cast<uint32_t>(incumbent));
    if (trace != nullptr) {
      trace->push_back({round_of_source[u], u, v, accepted,
                        accepted ? incumbent : -1});
    }
    if (accepted) {
      source_of_target[v] = u;
      result.target_of_source[u] = v;
      if (incumbent >= 0) {
        result.target_of_source[incumbent] = -1;
        round_of_source[incumbent]++;
        free_sources.push(static_cast<uint32_t>(incumbent));
      }
    } else {
      round_of_source[u]++;
      free_sources.push(u);
    }
  }
  return result;
}

}  // namespace

MatchResult DeferredAcceptance(const la::Matrix& similarity) {
  // No token ⇒ DaaImpl cannot fail.
  return DaaImpl(similarity, nullptr, nullptr).value();
}

StatusOr<MatchResult> DeferredAcceptanceChecked(
    const la::Matrix& similarity, const CancellationToken* cancel) {
  return DaaImpl(similarity, nullptr, cancel);
}

MatchResult DeferredAcceptanceTraced(const la::Matrix& similarity,
                                     std::vector<DaaTraceEvent>* trace) {
  trace->clear();
  return DaaImpl(similarity, trace, nullptr).value();
}

MatchResult DeferredAcceptanceTargetProposing(const la::Matrix& similarity) {
  // Run the source-proposing engine on the transposed instance, then map
  // the target-side assignment back to source order.
  MatchResult transposed =
      DaaImpl(similarity.Transposed(), nullptr, nullptr).value();
  MatchResult result;
  result.target_of_source.assign(similarity.rows(), -1);
  for (size_t j = 0; j < transposed.target_of_source.size(); ++j) {
    int64_t i = transposed.target_of_source[j];
    if (i >= 0) {
      result.target_of_source[static_cast<size_t>(i)] =
          static_cast<int64_t>(j);
    }
  }
  return result;
}

StatusOr<MatchResult> HungarianMatch(const la::Matrix& similarity) {
  const size_t n1 = similarity.rows();
  const size_t n2 = similarity.cols();
  if (n1 > n2) {
    return Status::InvalidArgument(
        "HungarianMatch requires rows <= cols (sources <= targets)");
  }
  MatchResult result;
  result.target_of_source.assign(n1, -1);
  if (n1 == 0) return result;

  // Jonker–Volgenant style shortest augmenting path on cost = -similarity,
  // 1-based arrays per the classical formulation.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n1 + 1, 0.0), v(n2 + 1, 0.0);
  std::vector<size_t> p(n2 + 1, 0);    // p[j]: source matched to target j
  std::vector<size_t> way(n2 + 1, 0);  // back-pointers along the alt path
  for (size_t i = 1; i <= n1; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(n2 + 1, kInf);
    std::vector<char> used(n2 + 1, 0);
    do {
      used[j0] = 1;
      size_t i0 = p[j0], j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= n2; ++j) {
        if (used[j]) continue;
        double cost = -static_cast<double>(similarity.at(i0 - 1, j - 1));
        double cur = cost - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= n2; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  for (size_t j = 1; j <= n2; ++j) {
    if (p[j] != 0) {
      result.target_of_source[p[j] - 1] = static_cast<int64_t>(j - 1);
    }
  }
  return result;
}

size_t CountBlockingPairs(const la::Matrix& similarity,
                          const MatchResult& match) {
  const size_t n1 = similarity.rows();
  const size_t n2 = similarity.cols();
  CEAFF_CHECK(match.target_of_source.size() == n1);
  // source_of_target from the match.
  std::vector<int64_t> source_of_target(n2, -1);
  for (size_t i = 0; i < n1; ++i) {
    int64_t t = match.target_of_source[i];
    if (t >= 0) source_of_target[static_cast<size_t>(t)] = static_cast<int64_t>(i);
  }
  auto src_pref = [&similarity](uint32_t i, uint32_t j, int64_t cur) {
    // Does source i strictly prefer target j to its current target?
    if (cur < 0) return true;  // unmatched prefers anyone
    const uint32_t c = static_cast<uint32_t>(cur);
    return Outranks(similarity.at(i, j), j, similarity.at(i, c), c);
  };
  auto dst_pref = [&similarity](uint32_t j, uint32_t i, int64_t cur) {
    if (cur < 0) return true;
    const uint32_t c = static_cast<uint32_t>(cur);
    return Outranks(similarity.at(i, j), i, similarity.at(c, j), c);
  };
  size_t blocking = 0;
  for (uint32_t i = 0; i < n1; ++i) {
    for (uint32_t j = 0; j < n2; ++j) {
      if (match.target_of_source[i] == static_cast<int64_t>(j)) continue;
      if (src_pref(i, j, match.target_of_source[i]) &&
          dst_pref(j, i, source_of_target[j])) {
        ++blocking;
      }
    }
  }
  return blocking;
}

double TotalWeight(const la::Matrix& similarity, const MatchResult& match) {
  double sum = 0.0;
  for (size_t i = 0; i < match.target_of_source.size(); ++i) {
    int64_t t = match.target_of_source[i];
    if (t >= 0) sum += similarity.at(i, static_cast<size_t>(t));
  }
  return sum;
}

}  // namespace ceaff::matching
