// Shared plumbing of the end-to-end benchmark: clocks and order
// statistics, the result/record printer, process resource probes, the
// input digest and the in-memory span recorder used by traced runs.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the origin is arbitrary but shared by
/// every thread of the process).
int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// Order statistics over a copy of `v`. Quantile uses linear interpolation
/// between closest ranks; both return 0 for an empty sample.
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Parameters every workload receives from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory owned by this run (inputs, artifacts, journals).
  std::string work_dir;
  /// Compute threads for the align pipeline and closed-loop callers.
  size_t threads = 1;
};

/// What one run reports: metrics, per-phase operation counts, correctness
/// checks and the input/environment record. Check() and Phase() may be
/// called from several threads.
class Result {
 public:
  /// A metric of the result line. Every workload reports the same names:
  /// the manifest's end-to-end metrics untraced, its per-layer metrics
  /// traced.
  void Add(const std::string& name, double value, const std::string& unit);

  /// A workload-specific figure (a layer only this workload exercises, a
  /// latency quantile, a throughput): printed in the record's "details"
  /// object, not in the result line.
  void Detail(const std::string& name, double value, const std::string& unit);

  /// Records a correctness check. A failed check is printed to stderr at
  /// once and turns the run's `correct` flag false.
  bool Check(bool ok, const std::string& what);

  /// Operation accounting for one phase: sent, succeeded (at full tier),
  /// failed. Every phase's counts also go into the run totals.
  void Phase(const std::string& phase, uint64_t sent, uint64_t succeeded);

  /// Free-form record entries (inputs, sizes, rates) as raw JSON values.
  void Record(const std::string& key, const std::string& json_value);
  void RecordNumber(const std::string& key, double value);
  void RecordString(const std::string& key, const std::string& value);
  /// A sample behind a reported median, so spreads can be inspected.
  void RecordSamples(const std::string& key, const std::vector<double>& v);

  bool correct() const;
  uint64_t attempted() const;
  uint64_t failed() const;

  /// Prints the record line, then the result object as the last line.
  void Print(const RunConfig& config) const;

  /// The record object alone (also embedded in the trace JSON).
  std::string RecordJson(const RunConfig& config) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      details_;
  std::vector<std::string> failed_checks_;
  size_t checks_ = 0;
  std::vector<std::pair<std::string, std::string>> record_;
  std::string phases_json_;
  uint64_t attempted_ = 0;
  uint64_t succeeded_ = 0;
};

std::string JsonEscape(const std::string& s);
/// `s` escaped and wrapped in double quotes.
std::string JsonQuote(const std::string& s);
std::string JsonNumber(double v);

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
/// VmHWM of another live process, in MB (0 when unreadable).
double PeakRssMbOf(pid_t pid);
/// User + system CPU seconds of this process, all threads.
double ProcessCpuSeconds();

/// 64-bit FNV-1a over the names and bytes of every regular file below
/// `dir`, visited in sorted path order, as 16 hex digits.
std::string DigestTree(const std::string& dir);

/// In-memory span recorder for traced runs. Spans carry a name, start,
/// end, parent span and an optional request id; the parent is the span
/// open on the calling thread when Begin() runs. Written as JSON once, at
/// the end of the run. When disabled every call is a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const std::string& name, uint64_t request = 0);
  /// Begin() with an explicit start time (a request span that starts at
  /// its due time, before the worker picked it up).
  int BeginAt(const std::string& name, int64_t start_ns, uint64_t request);
  void End(int id);
  /// A finished span with explicit times (request spans whose start is
  /// the generator's due time). Parent is given explicitly.
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, uint64_t request = 0);

  std::vector<Span> Snapshot() const;

  /// Share of [start_ns, end_ns] covered by the union of top-level spans
  /// (spans without a parent) inside that window.
  double Coverage(int64_t start_ns, int64_t end_ns) const;

  /// Writes {"record": ..., "spans": [...], "self_ms_by_name": {...}} to
  /// `path`; self time is a span's duration minus the part of it covered
  /// by its children.
  bool WriteJson(const std::string& path, const std::string& record) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: always times its scope (seconds() works with tracing off)
/// and records a span only when the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early and returns its duration in seconds.
  double Stop();
  double seconds() const;

 private:
  Tracer* tracer_;
  int id_ = -1;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
