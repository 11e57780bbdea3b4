// Workload inputs: every workload's KG pair comes from
// data::GenerateBenchmark with the run's seed and is written to disk
// before any timing starts; the program under test only reads it back.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <string>

#include "ceaff/common/statusor.h"
#include "ceaff/kg/knowledge_graph.h"
#include "ceaff/text/word_embedding.h"

namespace perfbench {

struct KgInputs {
  std::string config;
  double scale = 0.0;
  /// KG pair in the kg::SaveKgPair layout.
  std::string data_dir;
  /// Word vectors of every name token, in the fastText text format (empty
  /// when not written).
  std::string vectors_path;
  size_t embedding_dim = 0;
  size_t entities1 = 0;
  size_t entities2 = 0;
  size_t seed_links = 0;
  size_t test_links = 0;
};

/// Generates the standard config `config` at `scale` with `seed` and saves
/// it under `dir`. With `with_vectors`, the generated word store (which
/// carries the cross-lingual translation pairs) is materialised as explicit
/// vectors for every token of every entity name; tokens the store marks
/// out-of-vocabulary are left out, so a store loaded with the hash
/// fallback off resolves exactly the tokens the generated one does.
ceaff::StatusOr<KgInputs> WriteKgInputs(const std::string& config,
                                        double scale, uint64_t seed,
                                        const std::string& dir,
                                        bool with_vectors);

/// Store seed shared by every workload (the CLI default).
inline constexpr uint64_t kStoreSeed = 17;

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
