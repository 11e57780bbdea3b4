#include "ceaff/delta/delta_state.h"

#include <cstring>

#include "ceaff/common/crc32.h"
#include "ceaff/common/string_util.h"
#include "ceaff/text/name_embedding.h"

namespace ceaff::delta {

namespace {

constexpr char kMagic[8] = {'C', 'E', 'A', 'F', 'F', 'D', 'L', 'T'};
/// Version 2 dropped the per-source preference lists that version 1
/// appended after the fused matrix; DAA derives them from `fused`.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kVersionWithPrefs = 1;
constexpr size_t kHeaderBytes = sizeof(kMagic) + 4;
constexpr size_t kTrailerBytes = 4;

// ---- little-endian writers --------------------------------------------------

template <typename T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void PutStr(std::string* out, const std::string& s) {
  Put<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutDoubleVec(std::string* out, const std::vector<double>& v) {
  Put<uint32_t>(out, static_cast<uint32_t>(v.size()));
  for (double d : v) Put(out, d);
}

void PutU32Vec(std::string* out, const std::vector<uint32_t>& v) {
  Put<uint64_t>(out, v.size());
  for (uint32_t x : v) Put(out, x);
}

void PutKg(std::string* out, const kg::KnowledgeGraph& g) {
  Put<uint64_t>(out, g.num_entities());
  for (uint32_t e = 0; e < g.num_entities(); ++e) {
    PutStr(out, g.entity_uri(e));
    PutStr(out, g.entity_name(e));
  }
  Put<uint64_t>(out, g.num_relations());
  for (uint32_t r = 0; r < g.num_relations(); ++r) {
    PutStr(out, g.relation_uri(r));
  }
  Put<uint64_t>(out, g.num_triples());
  for (const kg::Triple& t : g.triples()) {
    Put(out, t.head);
    Put(out, t.relation);
    Put(out, t.tail);
  }
}

/// A matrix section: rows (u64), cols (u64), then rows*cols float32,
/// row-major.
void PutMatrix(std::string* out, const la::Matrix& m) {
  Put<uint64_t>(out, m.rows());
  Put<uint64_t>(out, m.cols());
  if (m.size() > 0) {  // an empty matrix has null data()
    out->append(reinterpret_cast<const char*>(m.data()),
                m.size() * sizeof(float));
  }
}

// ---- bounded reader ---------------------------------------------------------

/// Little-endian reader over the state's bytes, in place. Every read checks
/// the bytes left first, and every count is bounded by them before
/// anything is allocated, so corrupt input fails as kDataLoss instead of
/// reading or allocating past the end.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : rest_(bytes) {}

  uint64_t remaining() const { return rest_.size(); }

  template <typename T>
  Status Take(T* v, const char* what) {
    if (rest_.size() < sizeof(T)) {
      return Status::DataLoss(StrFormat("truncated delta state (%s)", what));
    }
    std::memcpy(v, rest_.data(), sizeof(T));
    rest_.remove_prefix(sizeof(T));
    return Status::OK();
  }

  Status Bool(bool* v) {
    uint8_t b = 0;
    CEAFF_RETURN_IF_ERROR(Take(&b, "u8"));
    if (b > 1) return Status::DataLoss("delta-state bool out of range");
    *v = b != 0;
    return Status::OK();
  }

  Status Str(std::string* s) {
    uint32_t len = 0;
    CEAFF_RETURN_IF_ERROR(Take(&len, "u32"));
    if (len > rest_.size()) {
      return Status::DataLoss("oversized delta-state string");
    }
    s->assign(rest_.data(), len);
    rest_.remove_prefix(len);
    return Status::OK();
  }

  Status DoubleVec(std::vector<double>* v) {
    uint32_t n = 0;
    CEAFF_RETURN_IF_ERROR(Take(&n, "u32"));
    if (n > 64) return Status::DataLoss("implausible delta-state weight count");
    v->resize(n);
    for (double& d : *v) CEAFF_RETURN_IF_ERROR(Take(&d, "double"));
    return Status::OK();
  }

  Status U32Vec(std::vector<uint32_t>* v) {
    uint64_t n = 0;
    CEAFF_RETURN_IF_ERROR(Take(&n, "u64"));
    if (n > rest_.size() / 4) {
      return Status::DataLoss("oversized delta-state id vector");
    }
    v->resize(n);
    for (uint32_t& x : *v) CEAFF_RETURN_IF_ERROR(Take(&x, "u32"));
    return Status::OK();
  }

  Status Matrix(la::Matrix* m) {
    uint64_t rows = 0, cols = 0;
    if (!Take(&rows, "u64").ok() || !Take(&cols, "u64").ok()) {
      return Status::DataLoss("cannot read matrix section shape");
    }
    const uint64_t elems = rows * cols;
    if (cols != 0 && rows != elems / cols) {
      return Status::DataLoss("matrix section shape overflows");
    }
    if (elems > rest_.size() / sizeof(float)) {
      return Status::DataLoss(StrFormat(
          "matrix section declares %llux%llu (%llu bytes) but only %llu "
          "bytes remain — truncated or corrupted artifact",
          static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(cols),
          static_cast<unsigned long long>(elems * sizeof(float)),
          static_cast<unsigned long long>(rest_.size())));
    }
    *m = la::Matrix(static_cast<size_t>(rows), static_cast<size_t>(cols));
    const size_t payload = static_cast<size_t>(elems) * sizeof(float);
    if (payload > 0) std::memcpy(m->data(), rest_.data(), payload);
    rest_.remove_prefix(payload);
    return Status::OK();
  }

  /// Skips a version-1 preference block: u64 rows, u64 cols, then
  /// rows*cols u32 target ids, which must match the serving split.
  Status SkipPrefs(size_t sources, size_t targets) {
    uint64_t rows = 0, cols = 0;
    CEAFF_RETURN_IF_ERROR(Take(&rows, "u64"));
    CEAFF_RETURN_IF_ERROR(Take(&cols, "u64"));
    if (rows != sources || cols != targets ||
        (cols != 0 && rows > rest_.size() / 4 / cols)) {
      return Status::DataLoss("delta-state preference shape mismatch");
    }
    rest_.remove_prefix(static_cast<size_t>(rows * cols * 4));
    return Status::OK();
  }

 private:
  std::string_view rest_;
};

Status TakeKg(Reader* in, kg::KnowledgeGraph* g) {
  uint64_t num_entities = 0;
  CEAFF_RETURN_IF_ERROR(in->Take(&num_entities, "u64"));
  // Each entity costs at least the two length prefixes.
  if (num_entities > in->remaining() / 8) {
    return Status::DataLoss("oversized delta-state entity count");
  }
  for (uint64_t e = 0; e < num_entities; ++e) {
    std::string uri, name;
    CEAFF_RETURN_IF_ERROR(in->Str(&uri));
    CEAFF_RETURN_IF_ERROR(in->Str(&name));
    const uint32_t id = g->AddEntity(uri);
    if (id != e) {
      return Status::DataLoss("duplicate entity URI in delta-state snapshot");
    }
    // Set unconditionally: AddEntity derives a default from the URI, but
    // the snapshot carries the exact (possibly empty) serving name.
    g->SetEntityName(id, name);
  }
  uint64_t num_relations = 0;
  CEAFF_RETURN_IF_ERROR(in->Take(&num_relations, "u64"));
  if (num_relations > in->remaining() / 4) {
    return Status::DataLoss("oversized delta-state relation count");
  }
  for (uint64_t r = 0; r < num_relations; ++r) {
    std::string uri;
    CEAFF_RETURN_IF_ERROR(in->Str(&uri));
    if (g->AddRelation(uri) != r) {
      return Status::DataLoss(
          "duplicate relation URI in delta-state snapshot");
    }
  }
  uint64_t num_triples = 0;
  CEAFF_RETURN_IF_ERROR(in->Take(&num_triples, "u64"));
  if (num_triples > in->remaining() / 12) {
    return Status::DataLoss("oversized delta-state triple count");
  }
  for (uint64_t t = 0; t < num_triples; ++t) {
    uint32_t head, rel, tail;
    CEAFF_RETURN_IF_ERROR(in->Take(&head, "u32"));
    CEAFF_RETURN_IF_ERROR(in->Take(&rel, "u32"));
    CEAFF_RETURN_IF_ERROR(in->Take(&tail, "u32"));
    Status st = g->AddTriple(head, rel, tail);
    if (!st.ok()) {
      return Status::DataLoss("out-of-range triple in delta-state snapshot");
    }
  }
  return Status::OK();
}

}  // namespace

std::string SerializeDeltaState(const DeltaState& state) {
  const la::Matrix* const matrices[] = {
      &state.x1,           &state.x2,           &state.src_struct_emb,
      &state.tgt_struct_emb, &state.src_name_emb, &state.tgt_name_emb,
      &state.fused};
  size_t matrix_bytes = 0;
  for (const la::Matrix* m : matrices) matrix_bytes += m->size() * 4 + 16;
  std::string out;
  out.reserve(matrix_bytes + 4096);
  out.append(kMagic, sizeof(kMagic));
  Put(&out, kVersion);
  Put(&out, state.watermark);
  PutStr(&out, state.dataset);
  Put(&out, state.semantic_dim);
  Put(&out, state.semantic_seed);
  Put(&out, state.gcn_dim);
  Put(&out, state.gcn_seed);
  for (bool b : {state.use_structural, state.use_semantic, state.use_string}) {
    Put<uint8_t>(&out, b ? 1 : 0);
  }
  Put(&out, state.string_metric);
  for (bool b : {state.two_stage, state.adj_functionality_weighted,
                 state.adj_add_self_loops, state.adj_symmetric_normalize}) {
    Put<uint8_t>(&out, b ? 1 : 0);
  }
  PutDoubleVec(&out, state.textual_weights);
  PutDoubleVec(&out, state.final_weights);
  PutKg(&out, state.kg1);
  PutKg(&out, state.kg2);
  PutU32Vec(&out, state.source_ids);
  PutU32Vec(&out, state.target_ids);
  for (const la::Matrix* m : matrices) PutMatrix(&out, *m);
  Put(&out, Crc32Of(out.data(), out.size()));
  return out;
}

Status ValidateDeltaStateBytes(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return Status::DataLoss("delta state too small");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("bad delta-state magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), 4);
  if (version != kVersion && version != kVersionWithPrefs) {
    return Status::DataLoss(
        StrFormat("unsupported delta-state version %u", version));
  }
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - kTrailerBytes, 4);
  const uint32_t actual = Crc32Of(bytes.data(), bytes.size() - kTrailerBytes);
  if (stored != actual) {
    return Status::DataLoss("delta-state CRC mismatch");
  }
  return Status::OK();
}

StatusOr<DeltaState> ParseDeltaState(std::string_view bytes) {
  CEAFF_RETURN_IF_ERROR(ValidateDeltaStateBytes(bytes));
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), 4);
  Reader in(bytes.substr(kHeaderBytes,
                         bytes.size() - kHeaderBytes - kTrailerBytes));

  DeltaState state;
  CEAFF_RETURN_IF_ERROR(in.Take(&state.watermark, "u64"));
  CEAFF_RETURN_IF_ERROR(in.Str(&state.dataset));
  CEAFF_RETURN_IF_ERROR(in.Take(&state.semantic_dim, "u32"));
  CEAFF_RETURN_IF_ERROR(in.Take(&state.semantic_seed, "u64"));
  CEAFF_RETURN_IF_ERROR(in.Take(&state.gcn_dim, "u32"));
  CEAFF_RETURN_IF_ERROR(in.Take(&state.gcn_seed, "u64"));
  CEAFF_RETURN_IF_ERROR(in.Bool(&state.use_structural));
  CEAFF_RETURN_IF_ERROR(in.Bool(&state.use_semantic));
  CEAFF_RETURN_IF_ERROR(in.Bool(&state.use_string));
  CEAFF_RETURN_IF_ERROR(in.Take(&state.string_metric, "u8"));
  CEAFF_RETURN_IF_ERROR(in.Bool(&state.two_stage));
  CEAFF_RETURN_IF_ERROR(in.Bool(&state.adj_functionality_weighted));
  CEAFF_RETURN_IF_ERROR(in.Bool(&state.adj_add_self_loops));
  CEAFF_RETURN_IF_ERROR(in.Bool(&state.adj_symmetric_normalize));
  CEAFF_RETURN_IF_ERROR(in.DoubleVec(&state.textual_weights));
  CEAFF_RETURN_IF_ERROR(in.DoubleVec(&state.final_weights));
  CEAFF_RETURN_IF_ERROR(TakeKg(&in, &state.kg1));
  CEAFF_RETURN_IF_ERROR(TakeKg(&in, &state.kg2));
  CEAFF_RETURN_IF_ERROR(in.U32Vec(&state.source_ids));
  CEAFF_RETURN_IF_ERROR(in.U32Vec(&state.target_ids));
  for (la::Matrix* m :
       {&state.x1, &state.x2, &state.src_struct_emb, &state.tgt_struct_emb,
        &state.src_name_emb, &state.tgt_name_emb, &state.fused}) {
    CEAFF_RETURN_IF_ERROR(in.Matrix(m));
  }
  if (version == kVersionWithPrefs) {
    CEAFF_RETURN_IF_ERROR(
        in.SkipPrefs(state.source_ids.size(), state.target_ids.size()));
  }
  if (in.remaining() != 0) {
    return Status::DataLoss("trailing bytes in delta state");
  }
  return state;
}

StatusOr<std::unique_ptr<GenerationalStore>> OpenDeltaStateStore(
    const std::string& dir) {
  GenerationalStore::Options options;
  options.failpoint_scope = "delta_state";
  auto store = std::make_unique<GenerationalStore>(dir, options);
  CEAFF_RETURN_IF_ERROR(store->Init());
  return store;
}

Status SaveDeltaState(const DeltaState& state, GenerationalStore* store) {
  return store->Put("state", SerializeDeltaState(state));
}

StatusOr<DeltaState> LoadDeltaState(GenerationalStore* store) {
  CEAFF_ASSIGN_OR_RETURN(std::string bytes,
                         store->Get("state", ValidateDeltaStateBytes));
  return ParseDeltaState(bytes);
}

StatusOr<DeltaState> BuildDeltaState(const kg::KgPair& pair,
                                     const text::WordEmbeddingStore& store,
                                     const core::CeaffOptions& options,
                                     const core::CeaffFeatures& features,
                                     const core::CeaffResult& result,
                                     const std::string& dataset) {
  if (options.use_attribute || options.use_relation) {
    return Status::FailedPrecondition(
        "delta export does not support the attribute/relation features");
  }
  if (options.csls_k > 0) {
    return Status::FailedPrecondition(
        "delta export does not support CSLS post-processing");
  }
  if (options.decision_mode != core::DecisionMode::kCollective) {
    return Status::FailedPrecondition(
        "delta export requires the collective (DAA) decision mode");
  }
  if (options.fusion_mode == core::FusionMode::kLearned) {
    return Status::FailedPrecondition(
        "delta export does not support learned fusion");
  }
  if (options.use_structural && options.gcn.use_weight_transform) {
    return Status::FailedPrecondition(
        "delta export requires the propagation-only GCN "
        "(gcn.use_weight_transform = false)");
  }
  if (options.use_string &&
      options.string_metric ==
          core::CeaffOptions::StringMetric::kLevenshteinRatio &&
      !options.force_exact_string_kernel) {
    return Status::FailedPrecondition(
        "delta export with the Levenshtein metric requires "
        "force_exact_string_kernel (the banded auto-kernel depends on "
        "global matrix shape)");
  }
  if (result.fused.empty() || result.match.target_of_source.empty()) {
    return Status::FailedPrecondition("delta export needs a finished run");
  }

  DeltaState state;
  state.watermark = 0;
  state.dataset = dataset;
  state.semantic_dim = static_cast<uint32_t>(store.dim());
  state.semantic_seed = store.seed();
  state.gcn_dim = static_cast<uint32_t>(options.gcn.dim);
  state.gcn_seed = options.gcn.seed;
  state.use_structural = options.use_structural;
  state.use_semantic = options.use_semantic;
  state.use_string = options.use_string;
  state.string_metric = static_cast<uint8_t>(options.string_metric);
  state.two_stage = options.fusion_mode == core::FusionMode::kAdaptive &&
                    options.use_structural && options.use_semantic &&
                    options.use_string;
  state.adj_functionality_weighted = options.adjacency.functionality_weighted;
  state.adj_add_self_loops = options.adjacency.add_self_loops;
  state.adj_symmetric_normalize = options.adjacency.symmetric_normalize;
  state.textual_weights = result.textual_weights;
  state.final_weights = result.final_weights;
  state.kg1 = pair.kg1;
  state.kg2 = pair.kg2;
  core::TestIds(pair, &state.source_ids, &state.target_ids);
  if (state.source_ids.empty() || state.target_ids.empty()) {
    return Status::FailedPrecondition("delta export needs a test split");
  }

  if (options.use_structural) {
    if (features.structural_x1.empty() || features.structural_x2.empty() ||
        features.structural_src_emb.empty() ||
        features.structural_tgt_emb.empty()) {
      return Status::FailedPrecondition(
          "delta export needs the GCN input features and raw embeddings "
          "(structural stage restored from a pre-delta checkpoint?)");
    }
    state.x1 = features.structural_x1;
    state.x2 = features.structural_x2;
    state.src_struct_emb = features.structural_src_emb;
    state.tgt_struct_emb = features.structural_tgt_emb;
  }
  if (options.use_semantic) {
    state.src_name_emb = text::EmbedNames(
        store, core::GatherNames(pair.kg1, state.source_ids));
    state.tgt_name_emb = text::EmbedNames(
        store, core::GatherNames(pair.kg2, state.target_ids));
  }
  state.fused = result.fused;
  return state;
}

}  // namespace ceaff::delta
