// serve_fleet: a ShardRouter fleet (2 ranges x 2 replicas, ANN on) over an
// index exported, with its delta state, by a small full-CEAFF align in
// set-up. One thread sends open-loop TOPK requests (the router is a
// single-caller object); beside it an ingest thread journals a patch batch
// every few seconds, runs delta::ApplyDelta, and hands the published
// generation to the query thread, which calls ShardRouter::Reload between
// requests and then probes for the renamed entity.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "ceaff/core/pipeline.h"
#include "ceaff/delta/delta_apply.h"
#include "ceaff/delta/delta_journal.h"
#include "ceaff/delta/delta_patch.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/kg/io.h"
#include "ceaff/serve/ann_build.h"
#include "ceaff/serve/router.h"
#include "ceaff/serve/service.h"
#include "harness.h"
#include "inputs.h"
#include "open_loop.h"
#include "serve_common.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ceaff;  // NOLINT: benchmark-local brevity

constexpr const char* kConfig = "DBP100K_DBP_WD";
/// 1050 served targets: each of the two ranges is larger than the ANN
/// shortlist, so the shards really take the ANN path.
constexpr double kScale = 0.75;
/// Open-loop arrival rate (fixed; see serve_topk.cc).
constexpr double kRatePerS = 200.0;
constexpr size_t kK = 10;
constexpr size_t kPoolSize = 1050;
/// The router keeps no cache, so requests draw the pool uniformly.
constexpr double kZipfExponent = 0.0;
constexpr int kSetupReps = 4;
constexpr size_t kWarmupQueries = 128;
constexpr size_t kCheckQueries = 96;
/// Seconds between patch batches, and before the first one.
constexpr double kPatchEvery = 1.25;

serve::ShardRouterOptions RouterOptions() {
  serve::ShardRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 2;
  options.ann.enabled = true;
  options.ann.nprobe = 16;
  options.ann.shortlist = 128;
  return options;
}

struct Fleet {
  std::unique_ptr<serve::ShardRouter> router;
  std::string index_dir;
  std::string state_dir;
  std::string journal_dir;
  double kg_load_s = 0.0;
  double export_s = 0.0;
  double start_s = 0.0;
};

/// Produces and opens the served state: load, full CEAFF align, index +
/// delta-state export, fleet start, warm-up.
StatusOr<Fleet> SetUp(const KgInputs& inputs, const RunConfig& config,
                      const std::string& dir,
                      const std::vector<Query>& warmup, Tracer* tracer) {
  Fleet fleet;
  fleet.index_dir = dir + "/index";
  fleet.state_dir = dir + "/state";
  fleet.journal_dir = dir + "/wal";
  std::filesystem::create_directories(fleet.index_dir);
  {
    kg::KgPair pair;
    {
      ScopedSpan span(tracer, "kg.load");
      CEAFF_RETURN_IF_ERROR(kg::LoadKgPair(inputs.data_dir, &pair));
      fleet.kg_load_s = span.Stop();
    }
    // The CLI's default hash-fallback store: the serving side embeds query
    // names with exactly this store (rebuilt from the index's semantic
    // seed), so index and queries live in one embedding space.
    const text::WordEmbeddingStore store(inputs.embedding_dim, kStoreSeed);
    core::CeaffOptions options;  // the `ceaff align` defaults
    options.gcn.dim = 128;
    options.gcn.epochs = 200;
    options.gcn.learning_rate = 1.0f;
    options.fusion.theta1 = 0.98;
    options.fusion.theta2 = 0.1;
    options.num_threads = config.threads;
    options.export_index_path = fleet.index_dir;
    // Delta export needs every string cell exact (as --export_delta_state).
    options.force_exact_string_kernel = true;
    core::CeaffPipeline pipe(&pair, &store, options);
    ScopedSpan span(tracer, "core.align_export");
    CEAFF_ASSIGN_OR_RETURN(core::CeaffFeatures features,
                           pipe.GenerateFeatures());
    CEAFF_ASSIGN_OR_RETURN(core::CeaffResult result,
                           pipe.RunOnFeatures(features));
    {
      ScopedSpan export_span(tracer, "core.export");
      CEAFF_RETURN_IF_ERROR(pipe.ExportIndex(features, result));
      fleet.export_s = export_span.Stop();
    }
    CEAFF_ASSIGN_OR_RETURN(
        delta::DeltaState state,
        delta::BuildDeltaState(pair, store, options, features, result,
                               "perfbench-serve-fleet"));
    CEAFF_ASSIGN_OR_RETURN(auto state_store,
                           delta::OpenDeltaStateStore(fleet.state_dir));
    CEAFF_RETURN_IF_ERROR(delta::SaveDeltaState(state, state_store.get()));
  }
  {
    ScopedSpan span(tracer, "router.start");
    CEAFF_ASSIGN_OR_RETURN(
        fleet.router, serve::ShardRouter::Start(fleet.index_dir,
                                                RouterOptions()));
    fleet.start_s = span.Stop();
  }
  {
    ScopedSpan span(tracer, "router.warmup");
    for (const Query& q : warmup) {
      CEAFF_RETURN_IF_ERROR(fleet.router->TopK(q.name, kK).status());
    }
  }
  return fleet;
}

/// Compares the fleet's answers on `sample` with the in-process scans of
/// the generation it serves: per-range ANN scans merged (must be
/// byte-identical) and the exhaustive scan (recall@10).
void CheckFleet(serve::ShardRouter* router, const std::string& index_dir,
                const std::vector<Query>& sample, Result* result,
                std::vector<double>* recall) {
  auto index = serve::LoadAlignmentIndex(index_dir);
  if (!result->Check(index.ok(), "load served index: " +
                                     index.status().ToString())) {
    return;
  }
  const text::WordEmbeddingStore embedder = QueryEmbedder(*index);
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t w = 0; w < router->num_shards(); w += router->num_replicas()) {
    ranges.push_back(router->shard_range(w));
  }
  uint64_t ok = 0;
  for (const Query& q : sample) {
    auto got = router->TopK(q.name, kK);
    auto want = RangeMergedTopK(*index, embedder, q.name, kK, ranges,
                                RouterOptions().ann);
    auto exact = ExhaustiveTopK(*index, embedder, q.name, kK);
    const bool same = got.ok() && want.ok() && !got->degraded &&
                      SameCandidates(got->candidates, want->candidates);
    if (got.ok() && exact.ok()) {
      recall->push_back(RecallAt(got->candidates, exact->candidates));
    }
    if (result->Check(same, "fleet answer differs from the single-process "
                            "scan for '" + q.name + "'")) {
      ++ok;
    }
  }
  result->Phase("check", sample.size(), ok);
}

/// A published generation waiting for the query thread to load it.
struct Publish {
  int64_t append_start_ns = 0;
  std::string renamed_to;
  uint32_t target = 0;
};

}  // namespace

void RunServeFleetWorkload(const RunConfig& config, Tracer* tracer,
                           Result* result) {
  auto inputs = WriteKgInputs(kConfig, kScale, config.seed,
                              config.work_dir + "/inputs",
                              /*with_vectors=*/false);
  if (!result->Check(inputs.ok(),
                     "generate inputs: " + inputs.status().ToString())) {
    return;
  }
  result->RecordString("inputs_digest",
                       DigestTree(config.work_dir + "/inputs"));
  result->RecordString("config", kConfig);
  result->RecordNumber("scale", kScale);
  result->RecordNumber("targets", static_cast<double>(inputs->test_links));
  result->RecordNumber("rate_per_s", kRatePerS);

  kg::KgPair names;
  if (!result->Check(kg::LoadKgPair(inputs->data_dir, &names).ok(),
                     "read generated names")) {
    return;
  }
  const int64_t run_start = NowNs();
  std::vector<uint32_t> test_src, test_tgt;
  core::TestIds(names, &test_src, &test_tgt);
  const std::vector<std::string> source_names =
      core::GatherNames(names.kg1, test_src);
  const size_t n = test_src.size();
  Rng rng(config.seed * 7919 + 11);
  std::vector<uint32_t> rows;
  for (size_t r : rng.SampleWithoutReplacement(n, std::min(kPoolSize, n))) {
    rows.push_back(static_cast<uint32_t>(r));
  }
  const std::vector<Query> pool = MakeQueries(source_names, rows, &rng);
  const ZipfSampler zipf(pool.size(), kZipfExponent);
  std::vector<Query> warmup;
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    warmup.push_back(pool[zipf.Draw(&rng)]);
  }
  const std::vector<Query> sample(pool.begin(), pool.begin() + kCheckQueries);

  // ---- Set-up, several times; the last fleet is the one measured. ----
  Fleet fleet;
  std::vector<double> setup_s, kg_load_s, export_s, start_s;
  uint64_t setup_ok = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet = Fleet();  // stops the previous fleet's workers
    ScopedSpan span(tracer, "setup");
    auto f = SetUp(*inputs, config,
                   config.work_dir + "/fleet" + std::to_string(rep), warmup,
                   tracer);
    setup_s.push_back(span.Stop());
    if (result->Check(f.ok(), "set-up: " + f.status().ToString())) {
      fleet = std::move(f).value();
      kg_load_s.push_back(fleet.kg_load_s);
      export_s.push_back(fleet.export_s);
      start_s.push_back(fleet.start_s);
      ++setup_ok;
    }
  }
  result->Phase("setup", kSetupReps, setup_ok);
  result->RecordSamples("setup_s_samples", setup_s);
  if (fleet.router == nullptr) return;
  serve::ShardRouter& router = *fleet.router;

  std::vector<double> recall;
  {
    ScopedSpan span(tracer, "check.fleet");
    CheckFleet(&router, fleet.index_dir, sample, result, &recall);
  }

  // ---- Open-loop reads with journaled writes beside them. ----
  OpenLoopOptions open;
  open.rate_per_s = kRatePerS;
  open.duration_s = config.seconds;
  open.workers = 1;
  open.seed = config.seed * 104729 + 13;
  std::vector<size_t> schedule_queries;
  {
    Rng mix(config.seed * 15485863 + 17);
    const size_t max_requests =
        static_cast<size_t>(open.rate_per_s * open.duration_s * 2 + 100);
    for (size_t i = 0; i < max_requests; ++i) {
      schedule_queries.push_back(zipf.Draw(&mix));
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  std::optional<Publish> pending;  // guarded by mu
  bool stop = false;               // guarded by mu
  std::vector<double> append_ms, repair_s, verify_s, publish_s, dirty_rows;
  uint64_t applies = 0, applies_ok = 0;

  // Query-thread-only state.
  std::vector<double> reload_s, freshness_s, router_ms;
  std::vector<std::pair<int64_t, int64_t>> reload_windows;
  uint64_t reloads = 0, reloads_ok = 0, probes = 0, probes_ok = 0;
  auto load_generation = [&](const Publish& p) {
    ++reloads;
    ScopedSpan span(tracer, "router.reload");
    const int64_t t0 = NowNs();
    const Status st = router.Reload(fleet.index_dir);
    reload_windows.push_back({t0, NowNs()});
    reload_s.push_back(span.Stop());
    if (!result->Check(st.ok(), "ShardRouter::Reload: " + st.ToString())) {
      return;
    }
    ++reloads_ok;
    ++probes;
    ScopedSpan probe(tracer, "router.fresh_probe");
    auto r = router.TopK(p.renamed_to, kK);
    const bool seen = r.ok() && !r->degraded && !r->candidates.empty() &&
                      r->candidates.front().target == p.target &&
                      r->candidates.front().target_name == p.renamed_to;
    if (result->Check(seen, "fresh probe did not see '" + p.renamed_to + "'")) {
      ++probes_ok;
      freshness_s.push_back(SecondsSince(p.append_start_ns));
    }
  };

  std::thread ingest([&] {
    auto journal = delta::DeltaJournal::Open(fleet.journal_dir);
    if (!result->Check(journal.ok(), "open journal: " +
                                         journal.status().ToString())) {
      return;
    }
    delta::DeltaApplyOptions apply;
    apply.journal_dir = fleet.journal_dir;
    apply.state_dir = fleet.state_dir;
    apply.index_dir = fleet.index_dir;
    apply.num_threads = 1;
    Rng patch_rng(config.seed * 2654435761u + 19);
    const std::vector<kg::Triple> kg2_triples = names.kg2.triples();
    const int64_t first = NowNs();
    for (size_t batch = 0;; ++batch) {
      const int64_t due =
          first + static_cast<int64_t>(kPatchEvery * 1e9 *
                                       static_cast<double>(batch + 1));
      // The last batch must be loaded and probed inside the read window.
      if (due > first + static_cast<int64_t>(
                            (config.seconds - kPatchEvery) * 1e9)) {
        break;
      }
      {
        std::unique_lock<std::mutex> lock(mu);
        if (cv.wait_until(lock,
                          Clock::time_point(std::chrono::nanoseconds(due)),
                          [&] { return stop; })) {
          break;
        }
      }
      // A batch: rename one served target, add a kg1 triple, remove a kg2
      // triple.
      const uint32_t target = static_cast<uint32_t>(patch_rng.NextBounded(n));
      Publish publish;
      publish.target = target;
      publish.renamed_to = "perfbench fresh " + std::to_string(batch) + " " +
                           names.kg2.entity_name(test_tgt[target]);
      std::vector<delta::PatchRecord> records(3);
      records[0].op = delta::PatchOp::kRenameEntity;
      records[0].kg = 2;
      records[0].uri = names.kg2.entity_uri(test_tgt[target]);
      records[0].name = publish.renamed_to;
      records[1].op = delta::PatchOp::kAddTriple;
      records[1].kg = 1;
      const size_t head = patch_rng.NextBounded(n);
      const size_t tail = (head + 1 + patch_rng.NextBounded(n - 1)) % n;
      records[1].head = names.kg1.entity_uri(test_src[head]);
      records[1].rel = names.kg1.relation_uri(0);
      records[1].tail = names.kg1.entity_uri(test_src[tail]);
      const kg::Triple& gone =
          kg2_triples[(batch * 7919 + 1) % kg2_triples.size()];
      records[2].op = delta::PatchOp::kRemoveTriple;
      records[2].kg = 2;
      records[2].head = names.kg2.entity_uri(gone.head);
      records[2].rel = names.kg2.relation_uri(gone.relation);
      records[2].tail = names.kg2.entity_uri(gone.tail);

      ++applies;
      bool ok = true;
      publish.append_start_ns = NowNs();
      {
        ScopedSpan span(tracer, "delta.append");
        for (const delta::PatchRecord& r : records) {
          auto id = (*journal)->Append(r);
          ok &= result->Check(id.ok(), "journal append: " +
                                           id.status().ToString());
        }
        append_ms.push_back(span.Stop() * 1e3);
      }
      {
        ScopedSpan span(tracer, "delta.apply");
        auto report = delta::ApplyDelta(apply);
        ok &= result->Check(report.ok() && !report->no_op &&
                                !report->rebuilt,
                            "ApplyDelta: " + report.status().ToString());
        if (report.ok()) {
          repair_s.push_back(report->seconds_repair);
          verify_s.push_back(report->seconds_verify);
          publish_s.push_back(report->seconds_publish);
          dirty_rows.push_back(static_cast<double>(report->stats.dirty_rows));
        }
      }
      if (!ok) continue;
      ++applies_ok;
      std::unique_lock<std::mutex> lock(mu);
      pending = publish;
      cv.notify_all();
      // One generation in flight: wait until the query thread loaded it.
      cv.wait(lock, [&] { return stop || !pending.has_value(); });
      if (stop) break;
    }
  });

  OpenLoopStats stats;
  uint64_t ann_answers = 0, ann_probes = 0, answers = 0;
  double open_wall = 0.0, open_cpu = 0.0;
  {
    ScopedSpan span(tracer, "phase.open_loop");
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    stats = RunOpenLoop(
        open,
        [&](size_t, uint64_t request_id, size_t index) {
          std::optional<Publish> publish;
          {
            std::lock_guard<std::mutex> lock(mu);
            publish.swap(pending);
          }
          if (publish.has_value()) {
            load_generation(*publish);
            cv.notify_all();
          }
          const Query& q =
              pool[schedule_queries[index % schedule_queries.size()]];
          ScopedSpan call(tracer, "router.topk", request_id);
          auto r = router.TopK(q.name, kK);
          router_ms.push_back(call.Stop() * 1e3);
          if (!r.ok() || r->degraded) return false;
          ++answers;
          if (r->ann_used) {
            ++ann_answers;
            ann_probes += r->ann_probes;
          }
          return true;
        },
        tracer);
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    ingest.join();
    // A generation published as the reads ended is still loaded and probed.
    if (pending.has_value()) load_generation(*pending);
    open_wall = SecondsSince(t0);
    open_cpu = ProcessCpuSeconds() - cpu0;
  }
  // Accuracy over the whole pool, each query once, on the final
  // generation: the open loop draws the pool with repeats, and that draw
  // alone moved hits1 by several percent between seeds. These 1050
  // scatters also close the last reload's canary window (below) before the
  // final check.
  uint64_t hits[2] = {0, 0}, asked[2] = {0, 0}, answered = 0;
  {
    ScopedSpan span(tracer, "phase.accuracy");
    for (const Query& q : pool) {
      auto r = router.TopK(q.name, kK);
      ++asked[q.known];
      if (!r.ok() || r->degraded) continue;
      ++answered;
      if (Top1(*r) == static_cast<int64_t>(q.gold)) ++hits[q.known];
    }
  }
  result->Phase("accuracy", pool.size(), answered);
  result->Phase("open_loop", stats.sent, stats.succeeded);
  result->Phase("delta_apply", applies, applies_ok);
  // A reload whose generation the router's post-reload canary rolled back
  // is a failed operation, not a wrong answer: the fleet keeps answering
  // from the generation it serves, which the checks compare against. The
  // canary (`ceaff_serve` defaults: p99 of the next 64 scatters above 8x
  // the warm baseline) can fire on a host stall right after a reload.
  const uint64_t rolled_back =
      std::min<uint64_t>(router.rollbacks(), reloads_ok);
  result->Phase("reload", reloads, reloads_ok - rolled_back);
  result->Detail("router.rollbacks", static_cast<double>(router.rollbacks()),
                 "count");
  result->Phase("fresh_probe", probes, probes_ok);
  result->Check(stats.sent >= 1000,
                "open loop measured " + std::to_string(stats.sent) +
                    " requests; p99 needs at least 1000");
  result->Check(applies >= 3, "fewer than 3 patch batches ran");
  {
    ScopedSpan span(tracer, "check.fleet");
    CheckFleet(&router, fleet.index_dir, sample, result, &recall);
  }
  const int64_t run_end = NowNs();

  double stall_ms = 0.0;
  for (size_t i = 0; i < stats.requests.size(); ++i) {
    const OpenLoopRecord& rec = stats.requests[i];
    if (!rec.measured) continue;
    for (const auto& [a, b] : reload_windows) {
      if (rec.due_ns < b && rec.end_ns > a) {
        stall_ms = std::max(
            stall_ms, static_cast<double>(rec.end_ns - rec.due_ns) * 1e-6);
      }
    }
  }
  double peak_rss = PeakRssMb();
  for (size_t w = 0; w < router.num_shards(); ++w) {
    if (router.shard_alive(w)) peak_rss += PeakRssMbOf(router.shard_pid(w));
  }
  const double ok_frac =
      static_cast<double>(result->attempted() - result->failed()) /
      static_cast<double>(result->attempted());

  if (!config.trace) {
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("peak_rss_mb", peak_rss, "MB");
    result->Add("hits1",
                static_cast<double>(hits[0] + hits[1]) /
                    static_cast<double>(pool.size()),
                "ratio");
    // The unit operation is one ingested patch batch: journal append to the
    // first TOPK answer that reflects it. Read latency is host-dominated
    // here (a sub-ms IPC round trip, and reload stalls in the tail), so it
    // is a detail.
    result->Add("op_ms", Median(freshness_s) * 1e3, "ms");
    result->Add("ok_frac", ok_frac, "ratio");
    result->Detail("topk_p50_ms", Quantile(stats.latency_ms, 0.50), "ms");
    result->Detail("topk_p99_ms", Quantile(stats.latency_ms, 0.99), "ms");
    result->Detail("recall10", Mean(recall), "ratio");
    result->Detail("hits1_known", static_cast<double>(hits[1]) /
                                      static_cast<double>(asked[1]),
                   "ratio");
    result->Detail("hits1_unseen", static_cast<double>(hits[0]) /
                                       static_cast<double>(asked[0]),
                   "ratio");
    RecordLatency(stats, result);
    result->RecordSamples("freshness_s_samples", freshness_s);
    return;
  }

  result->Add("kg.load_s", Median(kg_load_s), "s");
  result->Add("core.export_s", Median(export_s), "s");
  result->Add("cpu_util",
              open_cpu / (open_wall * static_cast<double>(config.threads)),
              "ratio");
  // The layers every workload reports, on the generation the fleet serves
  // now: ANN training on a copy of its index, and one in-process service
  // (the `ceaff_serve` defaults) answering uncached TOPKs from the pool.
  {
    auto index = serve::LoadAlignmentIndex(fleet.index_dir);
    if (result->Check(index.ok(), "load served index: " +
                                      index.status().ToString())) {
      serve::AlignmentIndex owned = *index;
      ScopedSpan span(tracer, "ann.train");
      const Status st = serve::BuildAnnSections(&owned);
      result->Add("ann.train_s", span.Stop(), "s");
      result->Check(st.ok(), "BuildAnnSections: " + st.ToString());
    }
    std::unique_ptr<serve::AlignmentService> service;
    std::vector<double> open_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      serve::ServiceOptions options;
      options.num_threads = config.threads;
      ScopedSpan span(tracer, "serve.open");
      auto opened = serve::AlignmentService::Open(fleet.index_dir, options);
      open_s.push_back(span.Stop());
      if (!result->Check(opened.ok(), "open served index: " +
                                          opened.status().ToString())) {
        return;
      }
      service = std::move(opened).value();
    }
    result->Add("serve.open_s", Median(open_s), "s");
    std::vector<double> topk_ms;
    for (size_t i = 0; i < std::min<size_t>(pool.size(), 200); ++i) {
      ScopedSpan span(tracer, "serve.topk");
      const bool ok = service->TopK(pool[i].name, kK).ok();
      topk_ms.push_back(span.Stop() * 1e3);
      result->Check(ok, "in-process TOPK '" + pool[i].name + "' failed");
    }
    result->Add("serve.topk_ms", Median(topk_ms), "ms");
  }
  result->Detail("router.start_s", Median(start_s), "s");
  result->Detail("router.topk_ms", Median(router_ms), "ms");
  result->Detail("router.failovers", static_cast<double>(router.failovers()),
              "count");
  result->Detail("router.degraded",
              static_cast<double>(router.degraded_answers()), "count");
  result->Detail("router.reload_s", Median(reload_s), "s");
  result->Detail("router.reload_stall_ms", stall_ms, "ms");
  result->Detail("ann.fallback_frac",
              answers > 0 ? 1.0 - static_cast<double>(ann_answers) /
                                      static_cast<double>(answers)
                          : 0.0,
              "ratio");
  result->Detail("ann.probes_per_query",
              ann_answers > 0 ? static_cast<double>(ann_probes) /
                                    static_cast<double>(ann_answers)
                              : 0.0,
              "count");
  result->Detail("delta.append_ms", Median(append_ms), "ms");
  result->Detail("delta.repair_s", Median(repair_s), "s");
  result->Detail("delta.verify_s", Median(verify_s), "s");
  result->Detail("delta.publish_s", Median(publish_s), "s");
  result->Detail("delta.dirty_rows", Median(dirty_rows), "count");
  result->Detail("gen.queue_wait_ms", Median(stats.queue_wait_ms), "ms");
  result->Detail("gen.late_max_ms", stats.late_max_ms, "ms");
  result->Add("trace.coverage", tracer->Coverage(run_start, run_end), "ratio");

  // Tracing overhead at request grain: the same router queries (the
  // router keeps no cache), first without spans and then with one each.
  {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < 200; ++i) {
      (void)router.TopK(pool[i % pool.size()].name, kK);
    }
    const double untraced = SecondsSince(t0);
    const int64_t t1 = NowNs();
    for (size_t i = 0; i < 200; ++i) {
      ScopedSpan span(tracer, "router.topk", i + 1);
      (void)router.TopK(pool[i % pool.size()].name, kK);
    }
    const double traced = SecondsSince(t1);
    result->Add("trace.overhead_frac", (traced - untraced) / untraced,
                "ratio");
  }
}

}  // namespace perfbench
