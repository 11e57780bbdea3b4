#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonQuote(const std::string& s) {
  std::string out(1, '"');
  out += JsonEscape(s);
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

using NamedValues =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// {"name": {"value": v, "unit": u}, ...} without the braces.
std::string ValuesJson(const NamedValues& values) {
  std::string json;
  for (const auto& [name, vu] : values) {
    if (!json.empty()) json += ", ";
    json += JsonQuote(name) + ": {\"value\": " + JsonNumber(vu.first) +
            ", \"unit\": " + JsonQuote(vu.second) + "}";
  }
  return json;
}

}  // namespace

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, {value, unit}});
}

bool Result::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++checks_;
  if (!ok) {
    failed_checks_.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Result::Phase(const std::string& phase, uint64_t sent,
                   uint64_t succeeded) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!phases_json_.empty()) phases_json_ += ", ";
  phases_json_ += JsonQuote(phase) + ": {\"sent\": " +
                  std::to_string(sent) +
                  ", \"succeeded\": " + std::to_string(succeeded) +
                  ", \"failed\": " + std::to_string(sent - succeeded) + "}";
  attempted_ += sent;
  succeeded_ += succeeded;
}

bool Result::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_checks_.empty();
}

uint64_t Result::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t Result::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_ - succeeded_;
}

void Result::Record(const std::string& key, const std::string& json_value) {
  record_.push_back({key, json_value});
}

void Result::RecordNumber(const std::string& key, double value) {
  Record(key, JsonNumber(value));
}

void Result::RecordString(const std::string& key, const std::string& value) {
  Record(key, JsonQuote(value));
}

void Result::RecordSamples(const std::string& key,
                           const std::vector<double>& v) {
  std::string json = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonNumber(v[i]);
  }
  Record(key, json + "]");
}

std::string Result::RecordJson(const RunConfig& config) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string json = "{\"workload\": " + JsonQuote(config.workload) +
                     ", \"seed\": " + std::to_string(config.seed) +
                     ", \"seconds\": " + JsonNumber(config.seconds) +
                     ", \"trace\": " + (config.trace ? "1" : "0") +
                     ", \"threads\": " + std::to_string(config.threads) +
                     ", \"nproc\": " +
                     std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                     "\", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  for (const auto& [key, value] : record_) {
    json += ", " + JsonQuote(key) + ": " + value;
  }
  json += ", \"details\": {" + ValuesJson(details_) + "}";
  json += ", \"phases\": {" + phases_json_ + "}";
  json += ", \"checks\": " + std::to_string(checks_) +
          ", \"failed_checks\": [";
  for (size_t i = 0; i < failed_checks_.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonQuote(failed_checks_[i]);
  }
  json += "]}";
  return json;
}

void Result::Print(const RunConfig& config) const {
  const std::string metrics = ValuesJson(metrics_);
  std::printf("{\"record\": %s}\n", RecordJson(config).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted()),
      static_cast<unsigned long long>(failed()), metrics.c_str());
  std::fflush(stdout);
}

namespace {

double ParseStatusKb(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() {
  return ParseStatusKb("/proc/self/status", "VmHWM:") / 1024.0;
}

double PeakRssMbOf(pid_t pid) {
  return ParseStatusKb("/proc/" + std::to_string(pid) + "/status",
                       "VmHWM:") /
         1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string DigestTree(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ull;
    }
  };
  std::vector<char> buf(1 << 16);
  for (const std::string& path : files) {
    const std::string rel = fs::relative(path, dir).string();
    mix(rel.data(), rel.size() + 1);
    std::ifstream in(path, std::ios::binary);
    while (in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      mix(buf.data(), static_cast<size_t>(in.gcount()));
    }
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

int Tracer::Begin(const std::string& name, uint64_t request) {
  return BeginAt(name, NowNs(), request);
}

int Tracer::BeginAt(const std::string& name, int64_t start_ns,
                    uint64_t request) {
  if (!enabled_) return -1;
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  const int64_t now = start_ns;
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, now, 0, parent, request});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

int Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                int parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Tracer::Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

double Tracer::Coverage(int64_t start_ns, int64_t end_ns) const {
  if (end_ns <= start_ns) return 0.0;
  std::vector<std::pair<int64_t, int64_t>> top;
  for (const Span& s : Snapshot()) {
    if (s.parent < 0) top.push_back({s.start_ns, s.end_ns});
  }
  return static_cast<double>(UnionLength(std::move(top), start_ns, end_ns)) /
         static_cast<double>(end_ns - start_ns);
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& record) const {
  const std::vector<Span> spans = Snapshot();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::map<std::string, double> self_ms_by_name;
  std::string out = "{\"record\": " + record + ", \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t self =
        (s.end_ns - s.start_ns) -
        UnionLength(children[i], s.start_ns, s.end_ns);
    self_ms_by_name[s.name] += static_cast<double>(self) * 1e-6;
    if (i > 0) out += ",";
    out += "\n  {\"id\": " + std::to_string(i) + ", \"name\": " +
           JsonQuote(s.name) + ", \"start_ms\": " +
           JsonNumber(static_cast<double>(s.start_ns - origin) * 1e-6) +
           ", \"end_ms\": " +
           JsonNumber(static_cast<double>(s.end_ns - origin) * 1e-6) +
           ", \"self_ms\": " + JsonNumber(static_cast<double>(self) * 1e-6) +
           ", \"parent\": " + std::to_string(s.parent);
    if (s.request != 0) out += ", \"request\": " + std::to_string(s.request);
    out += "}";
  }
  out += "\n], \"self_ms_by_name\": {";
  bool first = true;
  for (const auto& [name, ms] : self_ms_by_name) {
    if (!first) out += ", ";
    first = false;
    out += JsonQuote(name) + ": " + JsonNumber(ms);
  }
  out += "}}\n";
  std::ofstream file(path);
  file << out;
  return static_cast<bool>(file);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name,
                       uint64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(name, request);
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() { Stop(); }

double ScopedSpan::Stop() {
  if (end_ns_ == 0) {
    end_ns_ = NowNs();
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  return seconds();
}

double ScopedSpan::seconds() const {
  const int64_t end = end_ns_ == 0 ? NowNs() : end_ns_;
  return static_cast<double>(end - start_ns_) * 1e-9;
}

}  // namespace perfbench
