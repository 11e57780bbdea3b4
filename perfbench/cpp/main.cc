// ceaff_perfbench: runs one end-to-end benchmark workload in this process
// and prints its record line and result line (see ../README.md).
//
//   ceaff_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work_dir DIR
//
// Compute threads are always the number of online CPUs.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "ceaff/common/logging.h"
#include "harness.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "ceaff_perfbench: %s\nusage: ceaff_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --work_dir DIR\n",
               why);
  return 2;
}

/// Refuses to measure a build whose numbers would not mean anything.
const char* BuildProblem() {
#ifdef PERFBENCH_SANITIZED
  return "sanitizer build";
#endif
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return "build type is not Release";
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  config.threads = online > 0 ? static_cast<size_t>(online) : 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work_dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in --name value pairs");
  if (config.workload.empty() || config.work_dir.empty()) {
    return Usage("--workload and --work_dir are required");
  }
  if (!(config.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }
  if (const char* problem = BuildProblem()) {
    std::fprintf(stderr, "ceaff_perfbench: refusing to report: %s\n",
                 problem);
    return 3;
  }
  // Journals, state stores and indexes are created fresh in the work
  // directory; leftovers from an earlier run would change what is measured.
  std::error_code ec;
  if (std::filesystem::exists(config.work_dir, ec) &&
      !std::filesystem::is_empty(config.work_dir, ec)) {
    return Usage("--work_dir must be empty or absent");
  }
  ceaff::SetLogLevel(ceaff::LogLevel::kWarning);
  std::filesystem::create_directories(config.work_dir);

  perfbench::Tracer tracer(config.trace);
  perfbench::Result result;
  if (config.workload == "align_dense" || config.workload == "align_text") {
    perfbench::RunAlignWorkload(config, &tracer, &result);
  } else if (config.workload == "serve_topk") {
    perfbench::RunServeTopkWorkload(config, &tracer, &result);
  } else if (config.workload == "serve_fleet") {
    perfbench::RunServeFleetWorkload(config, &tracer, &result);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (config.trace) {
    const std::string path = config.work_dir + "/trace.json";
    result.Check(tracer.WriteJson(path, result.RecordJson(config)),
                 "write " + path);
  }
  result.Print(config);
  return result.correct() ? 0 : 1;
}
