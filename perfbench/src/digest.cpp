#include "digest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/detection_db.hpp"
#include "util/json.hpp"

namespace perfbench {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string digest_of(std::string_view bytes) { return hex64(fnv1a64(bytes)); }

namespace {

std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  hash *= 0xff51afd7ed558ccdull;
  return hash ^ (hash >> 33);
}

/// Hashes the set's non-zero 64-bit words with their indices, so dense and
/// sparse storage of the same set digest identically.
std::uint64_t mix_set(std::uint64_t hash, const ndet::DetectionSet& set) {
  hash = mix(hash, set.universe_size());
  hash = mix(hash, set.count());
  if (set.representation() == ndet::DetectionSet::Rep::kDense) {
    const std::size_t words = ndet::DetectionSet::dense_memory_bytes(
                                  set.universe_size()) /
                              sizeof(ndet::Bitset::word_type);
    const ndet::Bitset::word_type* data = set.dense_words();
    for (std::size_t i = 0; i < words; ++i)
      if (data[i] != 0) hash = mix(mix(hash, i), data[i]);
    return hash;
  }
  std::uint64_t word = 0;
  std::size_t index = 0;
  bool pending = false;
  for (const std::uint32_t element : set.sparse_elements()) {
    const std::size_t w = element / 64;
    if (pending && w != index) {
      hash = mix(mix(hash, index), word);
      word = 0;
    }
    index = w;
    pending = true;
    word |= std::uint64_t{1} << (element % 64);
  }
  if (pending) hash = mix(mix(hash, index), word);
  return hash;
}

}  // namespace

std::string digest_of(const ndet::DetectionDb& db) {
  std::uint64_t hash = mix(kFnvOffset, db.vector_count());
  hash = mix(hash, db.target_sets().size());
  for (const ndet::DetectionSet& set : db.target_sets()) hash = mix_set(hash, set);
  hash = mix(hash, db.untargeted_sets().size());
  for (const ndet::DetectionSet& set : db.untargeted_sets())
    hash = mix_set(hash, set);
  return hex64(hash);
}

std::vector<Mismatch> compare_digests(const Digests& expected,
                                      const Digests& actual) {
  std::vector<Mismatch> mismatches;
  for (const auto& [key, want] : expected) {
    const auto it = actual.find(key);
    if (it == actual.end())
      mismatches.push_back({key, want, ""});
    else if (it->second != want)
      mismatches.push_back({key, want, it->second});
  }
  for (const auto& [key, got] : actual)
    if (expected.find(key) == expected.end())
      mismatches.push_back({key, "", got});
  return mismatches;
}

Digests load_reference(const std::string& path, const std::string& section) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests " + path);
  std::stringstream text;
  text << in.rdbuf();
  const ndet::json::Value root = ndet::json::parse(text.str());
  const ndet::json::Value* found = root.find(section);
  if (found == nullptr)
    throw std::runtime_error("reference digests " + path + " lack section " +
                             section);
  Digests digests;
  for (const auto& [key, value] : found->as_object())
    digests.emplace(key, value.as_string());
  return digests;
}

std::string reference_json(const std::map<std::string, Digests>& sections) {
  // One key per line keeps the checked-in file reviewable in a diff.
  std::string out = "{\n";
  bool first_section = true;
  for (const auto& [section, digests] : sections) {
    out += first_section ? "" : ",\n";
    first_section = false;
    out += "  \"" + section + "\": {";
    bool first = true;
    for (const auto& [key, digest] : digests) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + key + "\": \"" + digest + "\"";
    }
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

}  // namespace perfbench
