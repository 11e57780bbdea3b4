#ifndef CEAFF_COMMON_FLAGS_H_
#define CEAFF_COMMON_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ceaff/common/statusor.h"

namespace ceaff {

/// Minimal command-line parser for the CLI tools: positional arguments
/// plus `--name value` / `--name=value` flags. No registration step —
/// callers query typed getters with defaults and may ask which flags were
/// never read (to reject typos).
class FlagParser {
 public:
  /// Parses argv[1..). A standalone `--` ends flag parsing; later tokens
  /// are positional. Returns InvalidArgument for a flag missing its value.
  static StatusOr<FlagParser> Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  /// Typed getters; the default is returned when the flag is absent.
  /// Malformed numerics return the default as well (the CLI treats flags
  /// as best-effort configuration).
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Reads a non-negative integer flag that must be >= `min`. On a smaller
  /// value prints "<cmd>: --<name> must be >= <min>" to stderr and returns
  /// false, leaving `*out` untouched; the CLI then exits 2 (usage error).
  bool GetSize(const std::string& cmd, const std::string& name,
               size_t fallback, size_t min, size_t* out) const;

  /// Flags that were parsed but never queried — typo detection.
  std::vector<std::string> UnreadFlags() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace ceaff

#endif  // CEAFF_COMMON_FLAGS_H_
