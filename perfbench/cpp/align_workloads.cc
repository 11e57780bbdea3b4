// align_dense and align_text: the batch `ceaff align` run.
//
// Untraced runs time CeaffPipeline::Run (with index export) back to back
// for the run's duration; op_ms is their first quartile. The traced run
// times Run()'s own stages through its stage callback, then splits those
// stages by calling the layers' public entry points on Run()'s inputs and
// outputs; every probe must reproduce what Run() produced byte for byte.
// Last, the exported index is opened and queried as `ceaff_serve` would.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>

#include "ceaff/common/thread_pool.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/embed/gcn.h"
#include "ceaff/eval/metrics.h"
#include "ceaff/fusion/adaptive_fusion.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/kg/io.h"
#include "ceaff/la/kernels.h"
#include "ceaff/matching/matching.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/ann_build.h"
#include "ceaff/serve/service.h"
#include "ceaff/text/embedding_io.h"
#include "ceaff/text/word_embedding.h"
#include "harness.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ceaff;  // NOLINT: benchmark-local brevity

struct AlignSpec {
  const char* config;
  double scale;
  bool structural;
  /// DAA accuracy below this fails the run (the generated data is easy
  /// enough that a correct pipeline clears it on every seed).
  double hits1_floor;
};

AlignSpec SpecFor(const std::string& workload) {
  if (workload == "align_dense") {
    return {"DBP100K_DBP_WD", 0.75, true, 0.80};
  }
  return {"SRPRS_EN_FR", 2.5, false, 0.50};
}

/// Set-up runs this many times before the first measured operation. A load
/// takes well under a second and follows the host's speed, so the untraced
/// run also repeats it before every Run(): the setup_s median then draws on
/// the whole run, as op_ms does, not only on its first second.
constexpr int kSetupReps = 7;
/// Timed Run()s never drop below this, whatever --seconds says. The first
/// Run() of the process comes on top: it pays for first-touch page faults
/// and thread start-up (about 20% slower), so it is checked but not timed.
constexpr int kMinAlignReps = 4;
/// Opens and TOPK queries of the exported index in the traced run.
constexpr int kOpenReps = 3;
constexpr size_t kServeProbes = 200;

core::CeaffOptions AlignOptions(const AlignSpec& spec, const RunConfig& config,
                                const std::string& index_path) {
  // The `ceaff align` defaults.
  core::CeaffOptions options;
  options.use_structural = spec.structural;
  options.gcn.dim = 128;
  options.gcn.epochs = 200;
  options.gcn.learning_rate = 1.0f;
  options.fusion.theta1 = 0.98;
  options.fusion.theta2 = 0.1;
  options.num_threads = config.threads;
  options.export_index_path = index_path;
  return options;
}

bool SameMatrix(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() * a.cols() == 0 ||
          std::memcmp(a.data(), b.data(),
                      a.rows() * a.cols() * sizeof(float)) == 0);
}

uint64_t MatrixDigest(const la::Matrix& m) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (size_t i = 0; i < m.rows() * m.cols() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

/// Set-up: the program's load of the generated inputs. Each Load() is one
/// repetition; setup_s is the median over all of them.
class Loads {
 public:
  Loads(const KgInputs& inputs, Tracer* tracer, Result* result)
      : inputs_(inputs), tracer_(tracer), result_(result) {}

  void Load(kg::KgPair* pair, text::WordEmbeddingStore* store) {
    ScopedSpan setup(tracer_, "setup");
    Status st;
    {
      ScopedSpan load(tracer_, "kg.load");
      *pair = kg::KgPair();
      st = kg::LoadKgPair(inputs_.data_dir, pair);
      kg_load_s_.push_back(load.Stop());
    }
    if (st.ok()) {
      ScopedSpan vectors(tracer_, "text.load_vectors");
      *store = text::WordEmbeddingStore(inputs_.embedding_dim, kStoreSeed);
      st = text::LoadTextEmbeddings(inputs_.vectors_path, store);
      store->set_hash_fallback(false);
    }
    setup_s_.push_back(setup.Stop());
    if (result_->Check(st.ok(), "load inputs: " + st.ToString())) ++ok_;
  }

  /// Records the phase and its samples; returns the median set-up time.
  double Finish() {
    result_->Phase("setup", setup_s_.size(), ok_);
    result_->RecordSamples("setup_s_samples", setup_s_);
    return Median(setup_s_);
  }

  const std::vector<double>& kg_load_s() const { return kg_load_s_; }

 private:
  const KgInputs& inputs_;
  Tracer* tracer_;
  Result* result_;
  std::vector<double> setup_s_;
  std::vector<double> kg_load_s_;
  uint64_t ok_ = 0;
};

void AddCommonRecord(const AlignSpec& spec, const KgInputs& inputs,
                     const std::string& digest, Result* result) {
  result->RecordString("inputs_digest", digest);
  result->RecordString("config", spec.config);
  result->RecordNumber("scale", spec.scale);
  result->RecordNumber("entities1", static_cast<double>(inputs.entities1));
  result->RecordNumber("entities2", static_cast<double>(inputs.entities2));
  result->RecordNumber("test_links", static_cast<double>(inputs.test_links));
  result->RecordNumber("seed_links", static_cast<double>(inputs.seed_links));
  result->RecordNumber("hits1_floor", spec.hits1_floor);
}

void RunUntraced(const RunConfig& config, const AlignSpec& spec,
                 const KgInputs& inputs, Result* result) {
  kg::KgPair pair;
  text::WordEmbeddingStore store(inputs.embedding_dim, kStoreSeed);
  Loads loads(inputs, nullptr, result);
  for (int rep = 0; rep < kSetupReps; ++rep) loads.Load(&pair, &store);

  const core::CeaffOptions options =
      AlignOptions(spec, config, config.work_dir + "/index.idx");
  std::vector<double> align_ms;
  double hits1 = 0.0;
  uint64_t first_fused = 0;
  std::vector<int64_t> first_match;
  uint64_t sent = 0, ok = 0;
  const int64_t start = NowNs();
  while (sent < kMinAlignReps + 1 || SecondsSince(start) < config.seconds) {
    if (sent > 0) loads.Load(&pair, &store);
    ++sent;
    core::CeaffPipeline pipe(&pair, &store, options);
    const int64_t t0 = NowNs();
    auto run = pipe.Run();
    const double seconds = SecondsSince(t0);
    if (!result->Check(run.ok(), "CeaffPipeline::Run: " +
                                     run.status().ToString())) {
      continue;
    }
    if (sent > 1) align_ms.push_back(seconds * 1e3);
    const uint64_t fused = MatrixDigest(run->fused);
    if (sent == 1) {
      hits1 = run->accuracy;
      first_fused = fused;
      first_match = run->match.target_of_source;
    }
    bool good = result->Check(run->accuracy >= spec.hits1_floor,
                              "hits1 " + JsonNumber(run->accuracy) +
                                  " below floor " +
                                  JsonNumber(spec.hits1_floor));
    good &= result->Check(fused == first_fused &&
                              run->match.target_of_source == first_match,
                          "repeated Run() changed the fused matrix or match");
    if (good) ++ok;
  }
  result->Phase("align", sent, ok);
  result->Add("setup_s", loads.Finish(), "s");
  // The first quartile, not the median: on a shared host, contention from
  // other tenants only ever adds time and comes in waves several Run()s
  // long. Over the same 6 align_dense runs on a shared 4-vCPU VM, the
  // median spread 0.17 between runs and the first quartile 0.09.
  result->Add("op_ms", Quantile(align_ms, 0.25), "ms");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("hits1", hits1, "ratio");
  result->Add("ok_frac",
              static_cast<double>(result->attempted() - result->failed()) /
                  static_cast<double>(result->attempted()),
              "ratio");
  result->RecordSamples("op_ms_samples", align_ms);
}

/// Span name for each stage boundary Run() reports through its stage
/// callback; the span runs from the previous boundary to this one.
std::string StageSpanName(const std::string& stage) {
  if (stage == "structural") return "embed.structural";
  if (stage == "semantic") return "text.semantic";
  if (stage == "string") return "text.string";
  // Everything after the last feature stage: fusion, decision, ranking
  // metrics and the index export.
  if (stage == "export_index") return "core.decide_export";
  return "core.run." + stage;
}

/// One CeaffPipeline::Run() whose stage callback closes a top-level span
/// per stage and reads VmHWM at each boundary.
struct StagedRun {
  StatusOr<core::CeaffResult> result = Status::Internal("not run");
  /// Span name -> seconds and VmHWM (MB) at its end, in Run()'s order.
  std::vector<std::pair<std::string, double>> seconds;
  std::vector<std::pair<std::string, double>> peak_mb;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_s = 0.0;

  double Seconds(const std::string& name) const {
    for (const auto& [n, v] : seconds) {
      if (n == name) return v;
    }
    return 0.0;
  }
};

StagedRun RunStaged(const kg::KgPair& pair,
                    const text::WordEmbeddingStore& store,
                    core::CeaffOptions options, Tracer* tracer) {
  StagedRun staged;
  int64_t stage_start = 0;
  options.stage_callback = [&](const std::string& stage, bool) {
    const int64_t now = NowNs();
    const std::string name = StageSpanName(stage);
    tracer->Add(name, stage_start, now, /*parent=*/-1);
    staged.seconds.push_back(
        {name, static_cast<double>(now - stage_start) * 1e-9});
    staged.peak_mb.push_back({name, PeakRssMb()});
    stage_start = now;
  };
  core::CeaffPipeline pipe(&pair, &store, options);
  const double cpu_start = ProcessCpuSeconds();
  staged.start_ns = NowNs();
  stage_start = staged.start_ns;
  staged.result = pipe.Run();
  staged.end_ns = NowNs();
  staged.cpu_s = ProcessCpuSeconds() - cpu_start;
  return staged;
}

/// True when both files read back the same, non-empty bytes.
bool SameFile(const std::string& a, const std::string& b) {
  auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string bytes = read(a);
  return !bytes.empty() && bytes == read(b);
}

/// Splits of what Run() reports as one stage: each calls a layer's public
/// entry point on the traced run's own inputs or outputs, times it, and
/// checks that it reproduces what Run() produced.
void RunProbes(const kg::KgPair& pair, const text::WordEmbeddingStore& store,
               const core::CeaffOptions& options, const core::CeaffResult& run,
               const RunConfig& config, Tracer* tracer, Result* result) {
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  la::KernelContext ctx;
  ctx.pool = pool.get();
  ctx.opts.OverrideBlock(options.block_size);
  std::vector<uint32_t> test_src, test_tgt, seed_src, seed_tgt;
  core::TestIds(pair, &test_src, &test_tgt);
  for (const kg::AlignmentPair& p : pair.seed_alignment) {
    seed_src.push_back(p.source);
    seed_tgt.push_back(p.target);
  }

  // The structural stage: adjacency, GCN training, cosine similarity.
  core::CeaffFeatures features;
  if (options.use_structural) {
    la::SparseMatrix a1, a2;
    {
      ScopedSpan span(tracer, "kg.adjacency");
      a1 = kg::BuildAdjacency(pair.kg1, options.adjacency);
      a2 = kg::BuildAdjacency(pair.kg2, options.adjacency);
      result->Detail("kg.adjacency_s", span.Stop(), "s");
    }
    embed::GcnOptions gcn_options = options.gcn;
    gcn_options.kernel = &ctx;
    embed::GcnAligner gcn(std::move(a1), std::move(a2), gcn_options);
    {
      ScopedSpan span(tracer, "embed.gcn_train");
      auto loss = gcn.Train(pair.seed_alignment);
      const double train_s = span.Stop();
      result->Check(loss.ok(),
                    "GcnAligner::Train: " + loss.status().ToString());
      result->Detail("embed.gcn_train_s", train_s, "s");
      result->Detail("embed.gcn_epoch_ms",
                  train_s * 1e3 / static_cast<double>(options.gcn.epochs),
                  "ms");
    }
    features.structural_src_emb = core::GatherRows(gcn.embeddings1(), test_src);
    features.structural_tgt_emb = core::GatherRows(gcn.embeddings2(), test_tgt);
    {
      ScopedSpan span(tracer, "la.struct_cosine");
      auto test = la::CosineSimilarityChecked(ctx, features.structural_src_emb,
                                              features.structural_tgt_emb);
      auto seed = la::CosineSimilarityChecked(
          ctx, core::GatherRows(gcn.embeddings1(), seed_src),
          core::GatherRows(gcn.embeddings2(), seed_tgt));
      result->Detail("la.struct_cosine_s", span.Stop(), "s");
      result->Check(test.ok() && seed.ok() && SameMatrix(*test, run.structural),
                    "structural probe differs from Run()'s structural "
                    "matrix");
    }
    std::vector<double> forward_ms;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span(tracer, "embed.gcn_forward");
      gcn.Forward();
      forward_ms.push_back(span.Stop() * 1e3);
    }
    result->Detail("embed.gcn_forward_ms", Median(forward_ms), "ms");
  }
  result->Detail("text.string_pruned",
              la::ChooseStringKernel(core::GatherNames(pair.kg1, test_src),
                                     core::GatherNames(pair.kg2, test_tgt))
                      .pruned
                  ? 1.0
                  : 0.0,
              "count");

  // The stage after the features: fusion, DAA, ranking metrics, export.
  core::CeaffResult out;
  {
    ScopedSpan span(tracer, "fusion.fuse");
    if (options.use_structural) {
      auto two = fusion::TwoStageFuse(run.structural, run.semantic,
                                      run.string_sim, options.fusion);
      if (result->Check(two.ok(),
                        "TwoStageFuse: " + two.status().ToString())) {
        out.fused = std::move(two->fused);
        out.textual_weights = std::move(two->textual_weights);
        out.final_weights = std::move(two->final_weights);
      }
    } else {
      fusion::FeatureWeightReport report;
      auto fused = fusion::AdaptiveFuse({&run.semantic, &run.string_sim},
                                        options.fusion, &report);
      if (result->Check(fused.ok(),
                        "AdaptiveFuse: " + fused.status().ToString())) {
        out.fused = std::move(fused).value();
        out.final_weights = report.weights;
      }
    }
    result->Detail("fusion.fuse_s", span.Stop(), "s");
    result->Check(SameMatrix(out.fused, run.fused),
                  "fusion probe differs from Run()'s fused matrix");
  }
  {
    ScopedSpan span(tracer, "matching.daa");
    auto match = matching::DeferredAcceptanceChecked(out.fused, nullptr);
    result->Detail("matching.daa_s", span.Stop(), "s");
    if (result->Check(match.ok(), "DeferredAcceptanceChecked: " +
                                      match.status().ToString())) {
      out.match = std::move(match).value();
    }
    result->Check(out.match.target_of_source == run.match.target_of_source,
                  "DAA probe differs from Run()'s matching");
  }
  {
    ScopedSpan span(tracer, "matching.daa_traced");
    std::vector<matching::DaaTraceEvent> events;
    const matching::MatchResult match =
        matching::DeferredAcceptanceTraced(out.fused, &events);
    result->Check(match.target_of_source == run.match.target_of_source,
                  "DeferredAcceptanceTraced differs from Run()'s matching");
    result->Detail("matching.proposals", static_cast<double>(events.size()),
                "count");
  }
  {
    ScopedSpan span(tracer, "eval.ranking");
    std::vector<int64_t> gold(out.fused.rows());
    std::iota(gold.begin(), gold.end(), int64_t{0});
    out.accuracy = eval::Accuracy(out.match, gold);
    out.ranking = eval::ComputeRankingMetrics(out.fused, gold);
    result->Detail("eval.ranking_s", span.Stop(), "s");
  }
  {
    core::CeaffOptions probe_options = options;
    probe_options.export_index_path = config.work_dir + "/probe.idx";
    core::CeaffPipeline exporter(&pair, &store, probe_options);
    ScopedSpan span(tracer, "core.export");
    const Status st = exporter.ExportIndex(features, out);
    result->Add("core.export_s", span.Stop(), "s");
    result->Check(st.ok(), "ExportIndex: " + st.ToString());
    result->Check(SameFile(probe_options.export_index_path,
                           options.export_index_path),
                  "export probe differs from Run()'s exported index");
  }
  {
    auto index = serve::LoadAlignmentIndex(options.export_index_path);
    if (result->Check(index.ok(), "load exported index: " +
                                      index.status().ToString())) {
      // Copying materialises the memory-mapped matrices the loader hands
      // out, which the trainer must be able to rewrite.
      serve::AlignmentIndex owned = *index;
      serve::AnnBuildOptions ann_options;
      ann_options.num_centroids = options.ann_centroids;
      ScopedSpan span(tracer, "ann.train");
      const Status st = serve::BuildAnnSections(&owned, ann_options);
      result->Add("ann.train_s", span.Stop(), "s");
      result->Check(st.ok(), "BuildAnnSections: " + st.ToString());
    }
  }
  // The exported index served with the `ceaff_serve` defaults: opened a
  // few times, then one (uncached) TOPK per test source name.
  std::unique_ptr<serve::AlignmentService> service;
  std::vector<double> open_s;
  for (int rep = 0; rep < kOpenReps; ++rep) {
    serve::ServiceOptions serve_options;
    serve_options.num_threads = config.threads;
    ScopedSpan span(tracer, "serve.open");
    auto opened = serve::AlignmentService::Open(options.export_index_path,
                                                serve_options);
    open_s.push_back(span.Stop());
    if (!result->Check(opened.ok(), "open exported index: " +
                                        opened.status().ToString())) {
      return;
    }
    service = std::move(opened).value();
  }
  result->Add("serve.open_s", Median(open_s), "s");
  const std::vector<std::string> names = core::GatherNames(pair.kg1, test_src);
  std::vector<double> topk_ms;
  for (size_t i = 0; i < std::min(names.size(), kServeProbes); ++i) {
    ScopedSpan span(tracer, "serve.topk");
    auto r = service->TopK(names[i], 10);
    topk_ms.push_back(span.Stop() * 1e3);
    result->Check(r.ok() && !r->degraded && !r->candidates.empty(),
                  "TOPK on the exported index failed for '" + names[i] + "'");
  }
  result->Add("serve.topk_ms", Median(topk_ms), "ms");
}

/// The traced run. CeaffPipeline::Run() runs three times: first with a
/// callback that only reads VmHWM at each stage boundary while it is still
/// fresh (the memory metrics), then untraced as the reference, then traced,
/// with one span per stage Run() reports. All three must agree byte for
/// byte. Probes afterwards split the stages Run() reports as one.
void RunTraced(const RunConfig& config, const AlignSpec& spec,
               const KgInputs& inputs, Tracer* tracer, Result* result) {
  kg::KgPair pair;
  text::WordEmbeddingStore store(inputs.embedding_dim, kStoreSeed);
  Loads loads(inputs, tracer, result);
  for (int rep = 0; rep < kSetupReps; ++rep) loads.Load(&pair, &store);
  loads.Finish();
  result->Add("kg.load_s", Median(loads.kg_load_s()), "s");
  const core::CeaffOptions options =
      AlignOptions(spec, config, config.work_dir + "/traced.idx");

  Tracer off(false);
  core::CeaffOptions cold_options = options;
  cold_options.export_index_path = config.work_dir + "/cold.idx";
  const StagedRun cold = RunStaged(pair, store, cold_options, &off);
  double features_mb = 0.0;
  for (const auto& [name, mb] : cold.peak_mb) {
    if (name == "text.string") features_mb = mb;
  }
  result->Detail("mem.features_mb", features_mb, "MB");
  result->Detail("mem.decide_mb", PeakRssMb(), "MB");

  core::CeaffOptions untraced_options = options;
  untraced_options.export_index_path = config.work_dir + "/untraced.idx";
  core::CeaffPipeline pipe(&pair, &store, untraced_options);
  const int64_t untraced_start = NowNs();
  auto untraced = pipe.Run();
  const double untraced_s = SecondsSince(untraced_start);

  const StagedRun traced = RunStaged(pair, store, options, tracer);
  const double traced_s =
      static_cast<double>(traced.end_ns - traced.start_ns) * 1e-9;
  // Each run counts as succeeded when it ran and agrees with the untraced
  // reference, which itself must clear the hits1 floor.
  uint64_t ok = 0;
  if (result->Check(untraced.ok(),
                    "CeaffPipeline::Run: " + untraced.status().ToString()) &&
      result->Check(untraced->accuracy >= spec.hits1_floor,
                    "hits1 " + JsonNumber(untraced->accuracy) +
                        " below floor " + JsonNumber(spec.hits1_floor))) {
    ++ok;
    for (const StagedRun* run : {&cold, &traced}) {
      const bool same =
          run->result.ok() && SameMatrix(run->result->fused, untraced->fused) &&
          run->result->match.target_of_source ==
              untraced->match.target_of_source;
      if (result->Check(same, "staged Run() differs from the untraced Run()")) {
        ++ok;
      }
    }
  }
  result->Check(SameFile(options.export_index_path,
                         untraced_options.export_index_path),
                "traced Run() exported a different index");
  result->Phase("align", 3, ok);

  result->Detail("text.semantic_s", traced.Seconds("text.semantic"), "s");
  result->Detail("text.string_s", traced.Seconds("text.string"), "s");
  result->Add("cpu_util",
              traced.cpu_s /
                  (traced_s * static_cast<double>(options.num_threads)),
              "ratio");
  result->Detail("align.traced_s", traced_s, "s");
  result->Detail("align.untraced_s", untraced_s, "s");
  const double coverage = tracer->Coverage(traced.start_ns, traced.end_ns);
  result->Check(coverage >= 0.95, "stage spans cover only " +
                                      JsonNumber(coverage) +
                                      " of the traced Run()");
  result->Add("trace.coverage", coverage, "ratio");
  result->Add("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
              "ratio");

  if (ok == 3) {
    RunProbes(pair, store, options, *traced.result, config, tracer, result);
  }
}

}  // namespace

void RunAlignWorkload(const RunConfig& config, Tracer* tracer,
                      Result* result) {
  const AlignSpec spec = SpecFor(config.workload);
  auto inputs = WriteKgInputs(spec.config, spec.scale, config.seed,
                              config.work_dir + "/inputs",
                              /*with_vectors=*/true);
  if (!result->Check(inputs.ok(),
                     "generate inputs: " + inputs.status().ToString())) {
    return;
  }
  AddCommonRecord(spec, *inputs, DigestTree(config.work_dir + "/inputs"),
                  result);
  if (config.trace) {
    RunTraced(config, spec, *inputs, tracer, result);
  } else {
    RunUntraced(config, spec, *inputs, result);
  }
}

}  // namespace perfbench
