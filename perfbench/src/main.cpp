// main.cpp -- ndet_perfbench: runs one workload and prints its result.
//
//   ndet_perfbench --workload=tables_cold --seed=1 --seconds=12 --trace=0
//       --ndetd=PATH --reference=perfbench/reference_digests.json
//       --trace-out=PATH --commit=ID --build-type=Release
//
// The last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"}, where metrics are the end-to-end metrics with
// --trace=0 and every per-layer metric with --trace=1.  The line before it
// is the full record: seed, machine and build stamp, sample counts.  With
// --rates=1 the serve workloads also measure latency at their fixed rates
// and search for the highest rate meeting the p99 limit (several times
// --seconds more), and put those figures in the record.
// perfbench/run.py builds this binary and is the intended entry point.
// --emit-reference prints the reference digest file instead.

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

void Result::check_digests(const Digests& expected, const Digests& actual,
                           const std::string& context) {
  const std::vector<Mismatch> mismatches = compare_digests(expected, actual);
  std::set<std::string> bad;
  for (const Mismatch& m : mismatches) {
    bad.insert(m.key);
    check(false, context + ": " + m.key + " expected " +
                     (m.expected.empty() ? "nothing" : m.expected) + ", got " +
                     (m.actual.empty() ? "nothing" : m.actual));
  }
  for (const auto& [key, digest] : expected)
    if (!bad.contains(key)) check(true, key);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports all of them.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"}, {"pass_s", "s"}, {"ok_ratio", "share"}, {"peak_rss_mb", "MB"}};

// Per-layer metrics: every workload reports all of them; a layer the
// workload does not exercise reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"fsm.synth_s", "s"},
    {"sim.db_build_s", "s"},
    {"sim.ns_per_fault_vector", "ns"},
    {"core.worst_case_s", "s"},
    {"core.ns_per_pair", "ns"},
    {"core.procedure1_def1_s", "s"},
    {"core.ns_per_test", "ns"},
    {"core.procedure1_def2_s", "s"},
    {"sim.def2_ns_per_query", "ns"},
    {"sim.def2_verdict_hit_ratio", "share"},
    {"core.partition_s", "s"},
    {"core.partition_cones", "count"},
    {"session.self_s", "s"},
    {"serve.server_ms.p50", "ms"},
    {"serve.server_ms.p99", "ms"},
    {"serve.outside_ms.p50", "ms"},
    {"serve.outside_ms.p99", "ms"},
    {"serve.parse_us", "us"},
    {"serve.lease_us", "us"},
    {"serve.compute_us", "us"},
    {"serve.serialize_us", "us"},
    {"serve.cache_update_us", "us"},
    {"cache.hit_ratio", "share"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"admission.peak_depth", "count"},
    {"admission.shed", "count"},
    {"transport.ping_rtt_us.p50", "us"},
    {"count.faults_simulated", "count"},
    {"count.pairs", "count"},
    {"count.tests_added", "count"},
    {"count.def2_queries", "count"},
    {"count.db_set_bytes", "count"},
    {"gen.late_ms.p99", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

unsigned cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

void write_stamp(ndet::JsonWriter& w, const Options& options,
                 const ndet::CliArgs& args) {
  const char* simd_env = std::getenv("NDET_SIMD_LEVEL");
  w.key("stamp").begin_object();
  w.key("nproc").value(options.nproc);
  w.key("cpu_model").value(cpu_model());
  w.key("simd_level").value(ndet::simd::level_name(ndet::simd::active_level()));
  if (simd_env != nullptr)
    w.key("simd_override").value(simd_env);
  else
    w.key("simd_override").null();
  w.key("compiler").value(__VERSION__);
  w.key("optimized").value(kOptimized);
  w.key("sanitized").value(kSanitized);
  w.key("build_type").value(args.get("build-type", "unknown"));
  w.key("commit").value(args.get("commit", "unknown"));
  w.end_object();
}

int run(int argc, char** argv, std::int64_t start_ns) {
  const ndet::CliArgs args(argc, argv,
                           {"workload", "seed", "seconds", "trace", "ndetd",
                            "reference", "trace-out", "commit", "build-type",
                            "emit-reference", "rates"});
  if (args.has("emit-reference")) {
    std::cout << reference_json(reference_sections());
    return 0;
  }
  if (!kOptimized || kSanitized) {
    std::cerr << "perfbench: refusing to report from an unoptimized or "
                 "sanitizer build\n";
    return 3;
  }

  Options options;
  options.workload = args.get("workload", "");
  options.seed = args.get_u64("seed", kDefaultSeed);
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_u64("trace", 0) != 0;
  options.rates = args.get_u64("rates", 0) != 0;
  options.ndetd = args.get("ndetd", "");
  options.reference = args.get("reference", "perfbench/reference_digests.json");
  options.trace_path = args.get("trace-out", "perfbench.trace.json");
  options.nproc = cpus_available();
  options.start_ns = start_ns;

  Result result;
  if (options.workload == "tables_cold") {
    result = run_tables_cold(options);
  } else if (options.workload == "table6_def2") {
    result = run_table6_def2(options);
  } else if (options.workload == "serve_hot" || options.workload == "serve_miss") {
    result = run_serve(options, options.workload == "serve_hot");
  } else {
    std::cerr << "perfbench: unknown --workload '" << options.workload
              << "' (tables_cold, table6_def2, serve_hot, serve_miss)\n";
    return 2;
  }

  if (!options.trace) {
    result.set("ok_ratio",
               result.attempted == 0
                   ? 0.0
                   : static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted),
               "share");
  }
  const std::vector<MetricSpec>& specs = options.trace ? kPerLayer : kEndToEnd;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      if (!options.trace)
        throw std::logic_error(std::string("metric not measured: ") + spec.name);
      result.set(spec.name, 0.0, spec.unit);
    } else if (it->second.unit != spec.unit) {
      throw std::logic_error(std::string("unit mismatch for ") + spec.name);
    }
  }

  for (const std::string& error : result.errors)
    std::cerr << "perfbench: FAILED CHECK: " << error << "\n";
  const bool correct = result.failed == 0 && result.attempted > 0;

  auto write_metrics = [&](ndet::JsonWriter& w) {
    w.key("metrics").begin_object();
    for (const MetricSpec& spec : specs) {
      const Metric& metric = result.metrics.at(spec.name);
      w.key(spec.name)
          .begin_object()
          .key("value")
          .value(metric.value)
          .key("unit")
          .value(metric.unit)
          .end_object();
    }
    w.end_object();
  };

  ndet::JsonWriter record;
  record.begin_object();
  record.key("workload").value(options.workload);
  record.key("seed").value(options.seed);
  record.key("seconds").value(options.seconds);
  record.key("trace").value(options.trace);
  write_stamp(record, options, args);
  record.key("info").begin_object();
  for (const auto& [key, value] : result.info) record.key(key).value(value);
  record.end_object();
  record.key("correct").value(correct);
  record.key("attempted").value(result.attempted);
  record.key("failed").value(result.failed);
  write_metrics(record);
  record.end_object();
  std::cout << record.str() << "\n";

  ndet::JsonWriter line;
  line.begin_object();
  line.key("correct").value(correct);
  line.key("attempted").value(result.attempted);
  line.key("failed").value(result.failed);
  write_metrics(line);
  line.end_object();
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t start_ns = perfbench::now_ns();
  try {
    return perfbench::run(argc, argv, start_ns);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
