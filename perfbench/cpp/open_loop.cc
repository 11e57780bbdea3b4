#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "ceaff/common/random.h"

namespace perfbench {

namespace {
/// How long before a due time a waiting worker stops sleeping and spins.
constexpr int64_t kSpinNs = 200'000;
}  // namespace

OpenLoopStats RunOpenLoop(const OpenLoopOptions& options,
                          const OpenLoopExecutor& execute, Tracer* tracer) {
  // The whole schedule is drawn up front from the seeded RNG.
  ceaff::Rng rng(options.seed);
  std::vector<double> offsets_s;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / options.rate_per_s;
    if (t >= options.duration_s) break;
    offsets_s.push_back(t);
  }
  OpenLoopStats stats;
  stats.requests.resize(offsets_s.size());
  const int64_t origin = NowNs() + 1'000'000;  // 1 ms to start the threads
  for (size_t i = 0; i < offsets_s.size(); ++i) {
    stats.requests[i].due_ns =
        origin + static_cast<int64_t>(offsets_s[i] * 1e9);
    stats.requests[i].measured = offsets_s[i] >= options.warmup_s;
  }

  // Each worker claims the next request in schedule order and releases it
  // at its due time: it sleeps until shortly before, then spins, so the
  // generator's own wake-up delay stays out of the measured latency. A
  // request claimed after its due time waited for a free worker; that wait
  // is part of its latency.
  std::atomic<size_t> next{0};
  std::vector<double> late_ms(options.workers, 0.0);
  auto worker_main = [&](size_t worker) {
    for (;;) {
      const size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= stats.requests.size()) return;
      OpenLoopRecord& rec = stats.requests[index];
      if (NowNs() < rec.due_ns) {
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(rec.due_ns - kSpinNs)));
        while (NowNs() < rec.due_ns) {
        }
        late_ms[worker] = std::max(
            late_ms[worker], static_cast<double>(NowNs() - rec.due_ns) * 1e-6);
      }
      const uint64_t request_id = index + 1;
      const int span = tracer->BeginAt("gen.request", rec.due_ns, request_id);
      rec.start_ns = NowNs();
      tracer->Add("gen.queue_wait", rec.due_ns, rec.start_ns, span,
                  request_id);
      rec.ok = execute(worker, request_id, index);
      rec.end_ns = NowNs();
      tracer->End(span);
    }
  };
  std::vector<std::thread> workers;
  for (size_t w = 0; w < options.workers; ++w) {
    workers.emplace_back(worker_main, w);
  }
  for (std::thread& t : workers) t.join();

  stats.late_max_ms = *std::max_element(late_ms.begin(), late_ms.end());
  const double window_ms = (options.duration_s - options.warmup_s) * 1e3;
  for (const OpenLoopRecord& rec : stats.requests) {
    if (!rec.measured) {
      ++stats.warmup_sent;
      continue;
    }
    ++stats.sent;
    if (rec.ok) ++stats.succeeded;
    stats.latency_ms.push_back(
        rec.ok ? static_cast<double>(rec.end_ns - rec.due_ns) * 1e-6
               : window_ms);
    stats.queue_wait_ms.push_back(
        static_cast<double>(rec.start_ns - rec.due_ns) * 1e-6);
  }
  return stats;
}

void RecordLatency(const OpenLoopStats& stats, Result* result) {
  result->RecordNumber("open_loop_samples", static_cast<double>(stats.sent));
  result->RecordSamples("latency_p50_p90_p99_p999_ms",
                        {Quantile(stats.latency_ms, 0.50),
                         Quantile(stats.latency_ms, 0.90),
                         Quantile(stats.latency_ms, 0.99),
                         Quantile(stats.latency_ms, 0.999)});
}

}  // namespace perfbench
