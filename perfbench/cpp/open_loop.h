// Open-loop load generator shared by the serving workloads: a Poisson
// arrival schedule drawn from a seeded RNG at a fixed rate, executed by
// worker threads that each release the next request at its due time.
// Latency is timed from the due time, so a stall also charges the requests
// queued behind it.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "harness.h"

namespace perfbench {

struct OpenLoopOptions {
  double rate_per_s = 100.0;
  double duration_s = 5.0;
  /// Requests due before this offset are executed but left out of every
  /// statistic (warm-up).
  double warmup_s = 0.5;
  /// Threads executing requests; they also pace the schedule.
  size_t workers = 1;
  uint64_t seed = 1;
};

/// Executes request `index` (0-based, in schedule order) on worker thread
/// `worker`. `request_id` is the id stamped on the request's spans. Returns
/// true when the request succeeded at full tier; failed, shed, rejected and
/// degraded answers return false.
using OpenLoopExecutor =
    std::function<bool(size_t worker, uint64_t request_id, size_t index)>;

struct OpenLoopRecord {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  bool measured = false;
};

struct OpenLoopStats {
  /// One entry per scheduled request, warm-up included.
  std::vector<OpenLoopRecord> requests;
  /// Over measured requests: due -> completion. A failed request counts
  /// as missing any latency limit: its latency is the measured window's
  /// length.
  std::vector<double> latency_ms;
  /// Over measured requests: due -> start of execution.
  std::vector<double> queue_wait_ms;
  /// Worst lateness of the generator itself: how late an idle worker
  /// released a request it had claimed before its due time.
  double late_max_ms = 0.0;
  uint64_t sent = 0;       // measured requests
  uint64_t succeeded = 0;  // measured requests that returned true
  uint64_t warmup_sent = 0;
};

/// Runs the schedule to completion (every scheduled request is executed
/// and every thread joined before returning). Span parents: each request
/// records a "gen.request" span from due time to completion when tracing.
OpenLoopStats RunOpenLoop(const OpenLoopOptions& options,
                          const OpenLoopExecutor& execute, Tracer* tracer);

/// Records the measured sample size and the latency quantiles p50, p90,
/// p99 and p99.9 (ms) in the run's record.
void RecordLatency(const OpenLoopStats& stats, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
