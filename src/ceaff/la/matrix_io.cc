#include "ceaff/la/matrix_io.h"

#include <cstdint>
#include <cstring>

#include "ceaff/common/crc32.h"
#include "ceaff/common/durable_io.h"
#include "ceaff/common/string_util.h"

namespace ceaff::la {

namespace {

constexpr char kMagic[8] = {'C', 'E', 'A', 'F', 'F', 'M', 'A', 'T'};
constexpr uint32_t kVersion = 1;
constexpr size_t kPrefixBytes = 16;  // magic + version + reserved
constexpr size_t kHeaderBytes = 32;  // prefix + rows + cols
constexpr size_t kFooterBytes = 4;

/// The fixed artifact preamble preceding the matrix section.
struct Prefix {
  char magic[8];
  uint32_t version;
  uint32_t reserved;
};
static_assert(sizeof(Prefix) == kPrefixBytes, "artifact prefix must pack");

}  // namespace

std::string SerializeMatrixArtifact(const Matrix& m) {
  Prefix prefix;
  std::memcpy(prefix.magic, kMagic, sizeof(kMagic));
  prefix.version = kVersion;
  prefix.reserved = 0;

  const uint64_t rows = m.rows();
  const uint64_t cols = m.cols();
  const size_t payload = m.size() * sizeof(float);

  std::string bytes;
  bytes.reserve(kHeaderBytes + payload + kFooterBytes);
  bytes.append(reinterpret_cast<const char*>(&prefix), sizeof(prefix));
  bytes.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  bytes.append(reinterpret_cast<const char*>(&cols), sizeof(cols));
  if (payload > 0) {  // empty matrix: data() is null
    bytes.append(reinterpret_cast<const char*>(m.data()), payload);
  }
  const uint32_t checksum = Crc32Of(bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

StatusOr<Matrix> ParseMatrixArtifact(std::string_view bytes,
                                     const std::string& context) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return Status::DataLoss(
        StrFormat("%s: truncated artifact (%llu bytes, need at least %zu)",
                  context.c_str(),
                  static_cast<unsigned long long>(bytes.size()),
                  kHeaderBytes + kFooterBytes));
  }

  Prefix prefix;
  std::memcpy(&prefix, bytes.data(), sizeof(prefix));
  if (std::memcmp(prefix.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss(context +
                            ": bad magic, not a CEAFF matrix artifact");
  }
  if (prefix.version != kVersion) {
    return Status::DataLoss(
        StrFormat("%s: unsupported artifact version %u (expected %u)",
                  context.c_str(), prefix.version, kVersion));
  }

  uint64_t rows = 0, cols = 0;
  std::memcpy(&rows, bytes.data() + kPrefixBytes, sizeof(rows));
  std::memcpy(&cols, bytes.data() + kPrefixBytes + sizeof(rows),
              sizeof(cols));
  const uint64_t elems = rows * cols;
  if (cols != 0 && rows != elems / cols) {
    return Status::DataLoss(context + ": matrix section shape overflows");
  }

  // The single-matrix artifact is exactly prefix + section + footer; any
  // slack either way means truncation or a foreign file.
  const uint64_t payload = elems * sizeof(float);
  const uint64_t expected = kHeaderBytes + payload + kFooterBytes;
  if (bytes.size() != expected) {
    return Status::DataLoss(StrFormat(
        "%s: size mismatch (%llu bytes, %llu expected for %llux%llu)"
        " — truncated or corrupted artifact",
        context.c_str(), static_cast<unsigned long long>(bytes.size()),
        static_cast<unsigned long long>(expected),
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(cols)));
  }

  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - kFooterBytes,
              sizeof(stored_crc));
  const uint32_t computed = Crc32Of(bytes.data(), bytes.size() - kFooterBytes);
  if (computed != stored_crc) {
    return Status::DataLoss(StrFormat(
        "%s: CRC mismatch (stored %08x, computed %08x) — corrupted artifact",
        context.c_str(), stored_crc, computed));
  }

  Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  if (payload > 0) {  // empty matrix: data() is null, memcpy(null,…,0) is UB
    std::memcpy(m.data(), bytes.data() + kHeaderBytes,
                static_cast<size_t>(payload));
  }
  return m;
}

Status SaveMatrixArtifact(const Matrix& m, const std::string& path,
                          const std::string& scope) {
  return WriteFileAtomic(path, SerializeMatrixArtifact(m), scope);
}

StatusOr<Matrix> LoadMatrixArtifact(const std::string& path) {
  CEAFF_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return ParseMatrixArtifact(bytes, path);
}

}  // namespace ceaff::la
