#include "ceaff/common/flags.h"

#include <cstdio>
#include <cstdlib>

#include "ceaff/common/string_util.h"

namespace ceaff {

StatusOr<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser p;
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (flags_done || arg.size() < 3 || arg.substr(0, 2) != "--") {
      if (arg == "--") {
        flags_done = true;
        continue;
      }
      p.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      p.flags_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
      continue;
    }
    // `--flag value` form; a following token starting with "--" means the
    // flag is boolean-style ("true").
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      p.flags_[std::string(arg)] = argv[++i];
    } else {
      p.flags_[std::string(arg)] = "true";
    }
  }
  return p;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = flags_.find(name);
  read_[name] = true;
  return it == flags_.end() ? fallback : it->second;
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  read_[name] = true;
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  return end == it->second.c_str() ? fallback : v;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  auto it = flags_.find(name);
  read_[name] = true;
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  return end == it->second.c_str() ? fallback : v;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  read_[name] = true;
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

bool FlagParser::GetSize(const std::string& cmd, const std::string& name,
                         size_t fallback, size_t min, size_t* out) const {
  const int64_t value = GetInt(name, static_cast<int64_t>(fallback));
  if (value < static_cast<int64_t>(min)) {
    std::fprintf(stderr, "%s: --%s must be >= %zu\n", cmd.c_str(),
                 name.c_str(), min);
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

std::vector<std::string> FlagParser::UnreadFlags() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (!read_.count(name)) out.push_back(name);
  }
  return out;
}

}  // namespace ceaff
