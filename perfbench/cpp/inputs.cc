#include "inputs.h"

#include <filesystem>
#include <set>

#include "ceaff/data/synthetic.h"
#include "ceaff/kg/io.h"
#include "ceaff/text/embedding_io.h"
#include "ceaff/text/tokenizer.h"

namespace perfbench {

using ceaff::Status;
using ceaff::StatusOr;

StatusOr<KgInputs> WriteKgInputs(const std::string& config, double scale,
                                 uint64_t seed, const std::string& dir,
                                 bool with_vectors) {
  CEAFF_ASSIGN_OR_RETURN(ceaff::data::SyntheticKgOptions options,
                         ceaff::data::BenchmarkConfigByName(config, scale,
                                                            seed));
  CEAFF_ASSIGN_OR_RETURN(ceaff::data::SyntheticBenchmark bench,
                         ceaff::data::GenerateBenchmark(options));
  KgInputs inputs;
  inputs.config = config;
  inputs.scale = scale;
  inputs.data_dir = dir + "/kg";
  inputs.embedding_dim = bench.store.dim();
  inputs.entities1 = bench.pair.kg1.num_entities();
  inputs.entities2 = bench.pair.kg2.num_entities();
  inputs.seed_links = bench.pair.seed_alignment.size();
  inputs.test_links = bench.pair.test_alignment.size();
  std::filesystem::create_directories(inputs.data_dir);
  CEAFF_RETURN_IF_ERROR(ceaff::kg::SaveKgPair(bench.pair, inputs.data_dir));
  if (!with_vectors) return inputs;

  inputs.vectors_path = dir + "/vectors.txt";

  std::set<std::string> tokens;
  for (const ceaff::kg::KnowledgeGraph* g :
       {&bench.pair.kg1, &bench.pair.kg2}) {
    for (uint32_t e = 0; e < g->num_entities(); ++e) {
      for (std::string& tok : ceaff::text::TokenizeName(g->entity_name(e))) {
        tokens.insert(std::move(tok));
      }
    }
  }
  ceaff::text::WordEmbeddingStore vectors(bench.store.dim(), kStoreSeed);
  std::vector<float> vec;
  for (const std::string& tok : tokens) {
    if (!bench.store.Lookup(tok, &vec)) continue;
    CEAFF_RETURN_IF_ERROR(vectors.SetVector(tok, vec));
  }
  CEAFF_RETURN_IF_ERROR(
      ceaff::text::SaveTextEmbeddings(vectors, inputs.vectors_path));
  return inputs;
}

}  // namespace perfbench
