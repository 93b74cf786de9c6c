// digest.hpp -- the output-correctness gate.
//
// Every result a workload produces is reduced to a 64-bit FNV-1a digest of
// its to_json() serialization (or of its raw sets, for a detection
// database) under a stable key such as "bbara.worst_case".  A run is
// correct only when every digest it produced equals the reference one:
// either the checked-in file perfbench/reference_digests.json, or a
// single-thread recomputation made outside the timed region.  A key
// missing on either side is a mismatch too, so an output that silently
// stops being produced fails the gate.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ndet {
class DetectionDb;
}

namespace perfbench {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash = kFnvOffset);

/// Lower-case 16-digit hex.
std::string hex64(std::uint64_t value);

/// Digest of a string (hex64 of fnv1a64).
std::string digest_of(std::string_view bytes);

/// Digest of a detection database: every T(f) and T(g), element by element.
std::string digest_of(const ndet::DetectionDb& db);

using Digests = std::map<std::string, std::string>;

struct Mismatch {
  std::string key;
  std::string expected;  ///< empty when the reference lacks the key
  std::string actual;    ///< empty when the run lacks the key
};

std::vector<Mismatch> compare_digests(const Digests& expected,
                                      const Digests& actual);

/// Reads one named section of a reference file; throws when the file or
/// the section is missing.
Digests load_reference(const std::string& path, const std::string& section);

/// Serializes sections as the reference file format.
std::string reference_json(const std::map<std::string, Digests>& sections);

}  // namespace perfbench
