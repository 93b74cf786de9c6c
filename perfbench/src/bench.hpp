// bench.hpp -- what every perfbench workload receives and returns.
//
// A workload runs in its own process: it sets up (several times, keeping
// the median), measures for the requested number of seconds with tracing
// off, checks every output against a reference, and returns its
// end-to-end metrics.  With tracing on it instead returns the per-layer
// metrics computed from the spans it recorded around its calls into each
// layer, and writes those spans as a Chrome trace.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "digest.hpp"
#include "trace.hpp"

namespace ndet {
class DetectionDb;
}

namespace perfbench {

/// The seed whose digests are checked in (perfbench/reference_digests.json).
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool rates = false;  ///< serve: also latency at fixed rates and max_rate_rps
  std::string ndetd;       ///< the daemon binary (serve workloads)
  std::string reference;   ///< the checked-in reference digests
  std::string trace_path;  ///< where a traced run writes its spans
  unsigned nproc = 1;      ///< CPUs this process may run on
  std::int64_t start_ns = 0;  ///< process start, for the first set-up
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::map<std::string, Metric> metrics;  ///< end-to-end or per-layer
  std::map<std::string, double> info;     ///< sample counts, rates, ...
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;        ///< every mismatch, spelled out

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one checked operation; a failed check is recorded with `what`.
  void check(bool ok, const std::string& what);
  /// Compares digests key by key, counting each key as one operation.
  void check_digests(const Digests& expected, const Digests& actual,
                     const std::string& context);
};

/// Work counted where it happens, behind the per-layer rates; for a given
/// seed every count repeats exactly.
struct WorkCounts {
  double faults_simulated = 0;  ///< |F| + enumerated |G|, per database built
  double fault_vectors = 0;     ///< (|F| + enumerated |G|) * |U|
  double pairs = 0;             ///< |G| * detectable |F|
  double tests_def1 = 0;
  double tests_def2 = 0;
  double def2_queries = 0;
  double def2_verdict_hits = 0;
  double def2_verdict_lookups = 0;
  double db_set_bytes = 0;
  double cones = 0;

  void add_db(const ndet::DetectionDb& db);
};

/// Sets the per-layer stage times, per-unit rates and counts shared by all
/// workloads, from the self time (seconds) of each span name -- the
/// stage spans plus "session", the facade's own time -- and the counts.
void set_layer_metrics(Result& result, const std::map<std::string, double>& self,
                       const WorkCounts& counts);

/// Set-up is repeated until it has run kMinSetups times and for
/// kSetupSeconds, and the median is reported: the host's speed wanders on a
/// scale of tens of milliseconds, so a short set-up needs many repeats.
inline constexpr std::size_t kMinSetups = 5;
inline constexpr double kSetupSeconds = 1.5;

inline bool more_setups(std::size_t done, std::int64_t first_start_ns) {
  return done < kMinSetups ||
         static_cast<double>(now_ns() - first_start_ns) * 1e-9 < kSetupSeconds;
}

Result run_tables_cold(const Options& options);
Result run_table6_def2(const Options& options);
Result run_serve(const Options& options, bool hot);

/// Digests for the reference file at the default seed, computed by the
/// single-thread direct path (perfbench --emit-reference).
std::map<std::string, Digests> reference_sections();

}  // namespace perfbench
