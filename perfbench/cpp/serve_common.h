// Pieces both serving workloads share: the query mix (known source names
// and perturbed unseen names, Zipf-skewed repeats), the reference scans a
// served answer is checked against, and candidate-list comparison.
#ifndef PERFBENCH_SERVE_COMMON_H_
#define PERFBENCH_SERVE_COMMON_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ceaff/common/random.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/service_types.h"
#include "ceaff/serve/topk_scan.h"
#include "ceaff/text/word_embedding.h"

namespace perfbench {

/// One distinct query string and the target row that is its gold answer.
struct Query {
  std::string name;
  uint32_t gold = 0;
  /// True for a known source name (the structural feature fires); false
  /// for a perturbed unseen name (text features only).
  bool known = false;
};

/// `name` with two adjacent characters swapped at an RNG-chosen position,
/// retried until the result is not in `avoid`.
std::string PerturbName(const std::string& name,
                        const std::unordered_set<std::string>& avoid,
                        ceaff::Rng* rng);

/// One distinct query per entry of `rows` (rows of `source_names`, which
/// are also the gold target rows): even positions are known source names,
/// odd positions perturbed ones.
std::vector<Query> MakeQueries(const std::vector<std::string>& source_names,
                               const std::vector<uint32_t>& rows,
                               ceaff::Rng* rng);

/// Draws pool ranks with probability proportional to 1 / (rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);
  size_t Draw(ceaff::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// The query-side embedder every serving process reconstructs from the
/// index (hash-fallback store keyed by the index's semantic seed).
ceaff::text::WordEmbeddingStore QueryEmbedder(
    const ceaff::serve::AlignmentIndex& index);

/// Exact single-range scan over every target: the exhaustive reference.
ceaff::StatusOr<ceaff::serve::TopKResult> ExhaustiveTopK(
    const ceaff::serve::AlignmentIndex& index,
    const ceaff::text::WordEmbeddingStore& embedder, const std::string& query,
    size_t k);

/// What a sharded fleet must answer: per-range scans with the fleet's ANN
/// settings, merged by (combined desc, target asc) and cut to k.
ceaff::StatusOr<ceaff::serve::TopKResult> RangeMergedTopK(
    const ceaff::serve::AlignmentIndex& index,
    const ceaff::text::WordEmbeddingStore& embedder, const std::string& query,
    size_t k, const std::vector<std::pair<size_t, size_t>>& ranges,
    const ceaff::serve::AnnOptions& ann);

/// Bitwise equality of two candidate lists (ids, names, every score).
bool SameCandidates(const std::vector<ceaff::serve::Candidate>& a,
                    const std::vector<ceaff::serve::Candidate>& b);

/// |ids(got) ∩ ids(want)| / |want|.
double RecallAt(const std::vector<ceaff::serve::Candidate>& got,
                const std::vector<ceaff::serve::Candidate>& want);

/// Top-1 target of a result, or -1 when it has no candidates.
int64_t Top1(const ceaff::serve::TopKResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_COMMON_H_
