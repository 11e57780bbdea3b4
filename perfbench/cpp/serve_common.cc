#include "serve_common.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using ceaff::Rng;
using ceaff::StatusOr;
namespace serve = ceaff::serve;

std::string PerturbName(const std::string& name,
                        const std::unordered_set<std::string>& avoid,
                        Rng* rng) {
  if (name.size() >= 2) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::string out = name;
      const size_t pos = rng->NextBounded(out.size() - 1);
      std::swap(out[pos], out[pos + 1]);
      if (out != name && avoid.count(out) == 0) return out;
    }
  }
  std::string out = name + " x";
  while (avoid.count(out) != 0) out += "x";
  return out;
}

std::vector<Query> MakeQueries(const std::vector<std::string>& source_names,
                               const std::vector<uint32_t>& rows, Rng* rng) {
  const std::unordered_set<std::string> known(source_names.begin(),
                                              source_names.end());
  std::vector<Query> queries;
  queries.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::string& name = source_names[rows[i]];
    if (i % 2 == 0) {
      queries.push_back({name, rows[i], true});
    } else {
      queries.push_back({PerturbName(name, known, rng), rows[i], false});
    }
  }
  return queries;
}

ZipfSampler::ZipfSampler(size_t n, double exponent) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

ceaff::text::WordEmbeddingStore QueryEmbedder(
    const serve::AlignmentIndex& index) {
  const size_t dim = index.target_name_emb.cols() > 0
                         ? index.target_name_emb.cols()
                         : index.source_name_emb.cols();
  return ceaff::text::WordEmbeddingStore(dim, index.semantic_seed);
}

StatusOr<serve::TopKResult> ExhaustiveTopK(
    const serve::AlignmentIndex& index,
    const ceaff::text::WordEmbeddingStore& embedder, const std::string& query,
    size_t k) {
  return serve::TopKScan(index, embedder, query, k,
                         /*allow_structural=*/true, /*cancel=*/nullptr,
                         {0, index.num_targets()});
}

StatusOr<serve::TopKResult> RangeMergedTopK(
    const serve::AlignmentIndex& index,
    const ceaff::text::WordEmbeddingStore& embedder, const std::string& query,
    size_t k, const std::vector<std::pair<size_t, size_t>>& ranges,
    const serve::AnnOptions& ann) {
  serve::TopKResult merged;
  merged.query = query;
  for (const auto& [begin, end] : ranges) {
    auto part = serve::TopKScan(index, embedder, query, k,
                                /*allow_structural=*/true, /*cancel=*/nullptr,
                                {begin, end}, ann);
    if (!part.ok()) return part.status();
    merged.candidates.insert(merged.candidates.end(),
                             part->candidates.begin(),
                             part->candidates.end());
  }
  std::sort(merged.candidates.begin(), merged.candidates.end(),
            [](const serve::Candidate& a, const serve::Candidate& b) {
              if (a.combined != b.combined) return a.combined > b.combined;
              return a.target < b.target;
            });
  if (merged.candidates.size() > k) merged.candidates.resize(k);
  return merged;
}

bool SameCandidates(const std::vector<serve::Candidate>& a,
                    const std::vector<serve::Candidate>& b) {
  if (a.size() != b.size()) return false;
  auto same_bits = [](float x, float y) {
    return std::memcmp(&x, &y, sizeof(float)) == 0;
  };
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].target != b[i].target || a[i].target_name != b[i].target_name ||
        !same_bits(a[i].combined, b[i].combined) ||
        !same_bits(a[i].string_score, b[i].string_score) ||
        !same_bits(a[i].semantic_score, b[i].semantic_score) ||
        !same_bits(a[i].structural_score, b[i].structural_score)) {
      return false;
    }
  }
  return true;
}

double RecallAt(const std::vector<serve::Candidate>& got,
                const std::vector<serve::Candidate>& want) {
  if (want.empty()) return 1.0;
  size_t hit = 0;
  for (const serve::Candidate& w : want) {
    for (const serve::Candidate& g : got) {
      if (g.target == w.target) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(want.size());
}

int64_t Top1(const serve::TopKResult& result) {
  return result.candidates.empty()
             ? -1
             : static_cast<int64_t>(result.candidates.front().target);
}

}  // namespace perfbench
