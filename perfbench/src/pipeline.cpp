// pipeline.cpp -- the paper-table workloads: tables_cold (Tables 2/3/5 and
// partitioning over the whole FSM suite, fresh sessions every pass) and
// table6_def2 (Procedure 1 under Definition 2 and its Definition-1 twin on
// two tail circuits, the slowest user path in the repository).

#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/session.hpp"
#include "fsm/benchmarks.hpp"
#include "reference.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr int kNmax = 10;               // the paper's Tables 5 and 6
constexpr std::size_t kTablesK = 200;   // Definition-1 sets per tail circuit
constexpr std::size_t kDef2K = 8;       // Definition-2 sets per circuit
// Sets per batch group for Definition 2: K / 2 = 4 groups keep four CPUs
// busy (a single group would run on one).  Results do not depend on it.
constexpr std::size_t kDef2BatchWidth = 2;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Peak resident memory of this process so far, in MiB.  Read when the
/// timed region ends, so the reference recomputation after it is excluded.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct NamedCircuit {
  std::string name;
  ndet::Circuit circuit;
};

std::vector<NamedCircuit> synthesize(const std::vector<std::string>& names,
                                     Tracer& tracer) {
  ScopedSpan span(tracer, "fsm.synth", 0, tracer.next_op());
  std::vector<NamedCircuit> circuits;
  circuits.reserve(names.size());
  for (const std::string& name : names)
    circuits.push_back({name, ndet::fsm_benchmark_circuit(name)});
  return circuits;
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const ndet::FsmBenchmarkInfo& info : ndet::fsm_benchmark_suite())
    names.push_back(info.name);
  return names;
}

ndet::Procedure1Request tables_request(std::uint64_t seed) {
  ndet::Procedure1Request request;
  request.nmax = kNmax;
  request.num_sets = kTablesK;
  request.seed = seed;
  return request;
}

ndet::PartitionOptions structure_partition(const ndet::Circuit& circuit) {
  ndet::PartitionOptions options;
  options.max_inputs = circuit.inputs().size();
  options.by_structure = true;
  return options;
}

/// One tables_cold circuit through a fresh session: the timed work.
struct CircuitOutcome {
  double seconds = 0.0;
  Digests digests;
  Digests recomputed;  ///< single-thread Procedure-1 reference, on request
};

/// With `recompute`, Procedure 1 is also rerun on one thread, outside the
/// timed region, over the session's database (itself checked against the
/// checked-in digests).
CircuitOutcome run_circuit(const NamedCircuit& work, unsigned threads,
                           std::uint64_t seed, Tracer& tracer,
                           std::uint32_t parent, WorkCounts* counts,
                           bool recompute = false) {
  CircuitOutcome outcome;
  const std::uint32_t op = tracer.next_op();
  ndet::SessionOptions options;
  options.num_threads = threads;

  const std::int64_t start = now_ns();
  const std::uint32_t session_span = tracer.begin("session", parent, op);
  auto session = std::make_unique<ndet::AnalysisSession>(work.circuit, options);
  {
    ScopedSpan span(tracer, "sim.db_build", session_span, op);
    session->db();
  }
  {
    ScopedSpan span(tracer, "core.worst_case", session_span, op);
    session->worst_case();
  }
  const bool tail = !session->monitored(kNmax).empty();
  const ndet::AverageCaseResult* average = nullptr;
  if (tail) {
    ScopedSpan span(tracer, "core.procedure1_def1", session_span, op);
    average = &session->average_case(tables_request(seed));
  }
  const std::vector<ndet::ConeReport>* cones = nullptr;
  {
    ScopedSpan span(tracer, "core.partition", session_span, op);
    cones = &session->partitioned(structure_partition(work.circuit));
  }
  tracer.end(session_span);
  const std::int64_t computed = now_ns();

  // Untimed: reduce the outputs to digests while the session is alive.
  outcome.digests[work.name + ".db"] = digest_of(session->db());
  outcome.digests[work.name + ".worst_case"] =
      digest_of(ndet::to_json(session->worst_case()));
  outcome.digests[work.name + ".partition"] = digest_of(cones_json(*cones));
  if (average != nullptr)
    outcome.digests[work.name + ".average_case"] =
        digest_of(ndet::to_json(*average));
  if (average != nullptr && recompute) {
    ndet::Procedure1Config config;
    config.nmax = kNmax;
    config.num_sets = kTablesK;
    config.seed = seed;
    config.num_threads = 1;
    outcome.recomputed[work.name + ".average_case"] = digest_of(ndet::to_json(
        ndet::run_procedure1(session->db(), session->monitored(kNmax), config)));
  }
  if (counts != nullptr) {
    counts->add_db(session->db());
    counts->cones += static_cast<double>(cones->size());
    if (average != nullptr)
      counts->tests_def1 += static_cast<double>(average->stats.tests_added);
  }

  const std::int64_t teardown = now_ns();
  session.reset();
  const std::int64_t end = now_ns();
  tracer.add("session", teardown, end, parent, op);
  outcome.seconds = static_cast<double>((computed - start) + (end - teardown)) * 1e-9;
  return outcome;
}

bool is_seed_dependent(const std::string& key) {
  const std::string suffix = ".average_case";
  return key.size() > suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Median over traced passes of each per-pass self time.
std::map<std::string, double> median_self(
    const std::vector<std::map<std::string, double>>& passes) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& pass : passes)
    for (const auto& [name, seconds] : pass) by_name[name].push_back(seconds);
  std::map<std::string, double> medians;
  for (auto& [name, values] : by_name) {
    values.resize(passes.size(), 0.0);  // a pass without the span spent 0
    medians[name] = median(values);
  }
  return medians;
}

/// Runs timed passes for `seconds`: at least `min_passes` untraced ones, or,
/// when tracing, alternating untraced and traced passes (at least one of
/// each) so the run also measures the tracer's overhead.  Each pass notes
/// the CPU time the hypervisor stole while it ran.
template <typename Pass>
void timed_passes(const Options& options, int min_passes, Tracer& tracer,
                  Pass&& pass, std::vector<TimedPass>& untraced,
                  std::vector<TimedPass>& traced,
                  std::vector<std::map<std::string, double>>& traced_self) {
  const std::int64_t start = now_ns();
  for (int i = 0;; ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    const bool enough =
        options.trace ? (!untraced.empty() && !traced.empty())
                      : static_cast<int>(untraced.size()) >= min_passes;
    if (enough && seconds_since(start) >= options.seconds) break;
    tracer.set_enabled(trace_this);
    const std::uint32_t first = static_cast<std::uint32_t>(tracer.spans().size() + 1);
    const std::int64_t pass_start = now_ns();
    const double stolen = stolen_cpu_seconds();
    const double seconds = pass();
    const TimedPass measured{seconds, steal_share_since(pass_start, stolen)};
    tracer.set_enabled(false);
    if (trace_this) {
      traced.push_back(measured);
      traced_self.push_back(self_seconds_by_name(
          tracer.spans(), first, static_cast<std::uint32_t>(tracer.spans().size())));
    } else {
      untraced.push_back(measured);
    }
  }
}

void finish_common(Result& result, const Options& options,
                   const std::vector<double>& setups,
                   const std::vector<double>& synth,
                   const std::vector<TimedPass>& untraced,
                   const std::vector<TimedPass>& traced, double rss_mb) {
  result.info["passes"] = static_cast<double>(untraced.size());
  result.info["traced_passes"] = static_cast<double>(traced.size());
  result.info["pass_steal_share"] = median_steal_share(untraced);
  if (!options.trace) {
    result.set("setup_s", median(setups), "s");
    result.set("pass_s", quieter_half_median(untraced), "s");
    result.set("peak_rss_mb", rss_mb, "MB");
    return;
  }
  result.set("fsm.synth_s", median(synth), "s");
  result.set("trace.overhead_ratio", quieter_half_median(traced) / quieter_half_median(untraced),
             "ratio");
}

}  // namespace

// --- tables_cold -------------------------------------------------------------

Result run_tables_cold(const Options& options) {
  Result result;
  Tracer tracer(false);
  const std::vector<std::string> names = suite_names();

  // Set-up: synthesize the suite and warm the allocator and thread pool on
  // the smallest circuit.  Repeated; the median is reported.
  std::vector<double> setups, synth;
  std::vector<NamedCircuit> circuits;
  while (more_setups(setups.size(), options.start_ns)) {
    const std::int64_t start = setups.empty() ? options.start_ns : now_ns();
    tracer.set_enabled(options.trace);
    const std::int64_t synth_start = now_ns();
    circuits = synthesize(names, tracer);
    synth.push_back(seconds_since(synth_start));
    tracer.set_enabled(false);
    run_circuit(circuits.front(), options.nproc, options.seed, tracer, 0, nullptr);
    setups.push_back(seconds_since(start));
  }

  const Digests reference = load_reference(options.reference, "tables_cold");
  const Digests reference_seeded =
      options.seed == kDefaultSeed
          ? load_reference(options.reference, "tables_cold.seed1")
          : Digests{};
  Digests first_pass;  // every later pass must reproduce it exactly
  Digests recomputed;  // seeds without checked-in digests
  std::vector<WorkCounts> traced_counts;

  auto pass = [&]() {
    double seconds = 0.0;
    WorkCounts counts;
    const bool traced = tracer.enabled();
    const std::uint32_t pass_span = tracer.begin("pass", 0, tracer.next_op());
    Digests digests;
    const bool recompute = first_pass.empty() && options.seed != kDefaultSeed;
    for (const NamedCircuit& work : circuits) {
      CircuitOutcome outcome = run_circuit(work, options.nproc, options.seed,
                                           tracer, pass_span, &counts, recompute);
      seconds += outcome.seconds;
      digests.insert(outcome.digests.begin(), outcome.digests.end());
      recomputed.insert(outcome.recomputed.begin(), outcome.recomputed.end());
    }
    tracer.end(pass_span);
    if (first_pass.empty()) {
      first_pass = digests;
    } else {
      result.check_digests(first_pass, digests, "pass vs first pass");
    }
    if (traced) traced_counts.push_back(counts);
    return seconds;
  };

  std::vector<TimedPass> untraced, traced;
  std::vector<std::map<std::string, double>> traced_self;
  timed_passes(options, 2, tracer, pass, untraced, traced, traced_self);
  const double rss_mb = peak_rss_mb();

  // Outputs: seed-independent stages against the checked-in digests; the
  // seeded Procedure-1 results against the checked-in digests at the
  // default seed, or a single-thread recomputation at any other seed.
  Digests fixed, seeded;
  for (const auto& [key, digest] : first_pass)
    (is_seed_dependent(key) ? seeded : fixed)[key] = digest;
  result.check_digests(reference, fixed, "tables_cold vs reference");
  if (options.seed == kDefaultSeed) {
    result.check_digests(reference_seeded, seeded, "tables_cold seed 1 vs reference");
  } else {
    result.check_digests(recomputed, seeded, "tables_cold vs single-thread recomputation");
  }

  finish_common(result, options, setups, synth, untraced, traced, rss_mb);
  if (options.trace) {
    set_layer_metrics(result, median_self(traced_self), traced_counts.front());
    tracer.write_chrome_trace(options.trace_path);
  }
  return result;
}

// --- table6_def2 ---------------------------------------------------------------

Result run_table6_def2(const Options& options) {
  Result result;
  Tracer tracer(false);
  const std::vector<std::string> names = {"ex4", "cse"};

  // Set-up: synthesis, database and worst case; repeated, median reported.
  std::vector<double> setups, synth;
  std::vector<NamedCircuit> circuits;
  std::vector<std::unique_ptr<ndet::AnalysisSession>> sessions;
  std::map<std::string, double> setup_self;
  while (more_setups(setups.size(), options.start_ns)) {
    const std::int64_t start = setups.empty() ? options.start_ns : now_ns();
    sessions.clear();
    tracer.set_enabled(options.trace);
    const std::uint32_t first = static_cast<std::uint32_t>(tracer.spans().size() + 1);
    const std::int64_t synth_start = now_ns();
    circuits = synthesize(names, tracer);
    synth.push_back(seconds_since(synth_start));
    for (const NamedCircuit& work : circuits) {
      ndet::SessionOptions session_options;
      session_options.num_threads = options.nproc;
      const std::uint32_t op = tracer.next_op();
      ScopedSpan span(tracer, "session", 0, op);
      sessions.push_back(
          std::make_unique<ndet::AnalysisSession>(work.circuit, session_options));
      {
        ScopedSpan db_span(tracer, "sim.db_build", span.id(), op);
        sessions.back()->db();
      }
      ScopedSpan wc_span(tracer, "core.worst_case", span.id(), op);
      sessions.back()->worst_case();
    }
    if (options.trace)
      setup_self = self_seconds_by_name(
          tracer.spans(), first, static_cast<std::uint32_t>(tracer.spans().size()));
    tracer.set_enabled(false);
    setups.push_back(seconds_since(start));
  }

  auto config_for = [&](ndet::DetectionDefinition definition) {
    ndet::Procedure1Config config;
    config.nmax = kNmax;
    config.num_sets = kDef2K;
    config.seed = options.seed;
    config.definition = definition;
    config.batch_width = kDef2BatchWidth;
    return config;
  };

  Digests first_rep;
  WorkCounts counts;
  for (std::size_t i = 0; i < circuits.size(); ++i) counts.add_db(sessions[i]->db());
  auto rep = [&]() {
    double seconds = 0.0;
    Digests digests;
    const std::uint32_t rep_span = tracer.begin("pass", 0, tracer.next_op());
    WorkCounts rep_counts;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      ndet::AnalysisSession& session = *sessions[i];
      const std::span<const std::size_t> monitored = session.monitored(kNmax);
      const std::uint32_t op = tracer.next_op();
      // Fresh Procedure-1 runs on the session's database and pool: the
      // session memo would turn every repetition after the first into a
      // lookup.
      std::int64_t start = now_ns();
      std::optional<ndet::AverageCaseResult> def2, def1;
      {
        ScopedSpan span(tracer, "core.procedure1_def2", rep_span, op);
        def2.emplace(ndet::run_procedure1(session.db(), monitored,
                                          config_for(ndet::DetectionDefinition::kDissimilar),
                                          session.pool()));
      }
      {
        ScopedSpan span(tracer, "core.procedure1_def1", rep_span, op);
        def1.emplace(ndet::run_procedure1(session.db(), monitored,
                                          config_for(ndet::DetectionDefinition::kStandard),
                                          session.pool()));
      }
      seconds += seconds_since(start);
      digests[circuits[i].name + ".def2"] = digest_of(ndet::to_json(*def2));
      digests[circuits[i].name + ".def1"] = digest_of(ndet::to_json(*def1));
      rep_counts.tests_def2 += static_cast<double>(def2->stats.tests_added);
      rep_counts.tests_def1 += static_cast<double>(def1->stats.tests_added);
      rep_counts.def2_queries += static_cast<double>(def2->stats.distinct_queries);
      rep_counts.def2_verdict_hits += static_cast<double>(def2->def2_cache.verdict_hits);
      rep_counts.def2_verdict_lookups +=
          static_cast<double>(def2->def2_cache.verdict_hits + def2->def2_cache.verdict_misses);
    }
    tracer.end(rep_span);
    if (first_rep.empty())
      first_rep = digests;
    else
      result.check_digests(first_rep, digests, "repetition vs first repetition");
    counts.tests_def1 = rep_counts.tests_def1;
    counts.tests_def2 = rep_counts.tests_def2;
    counts.def2_queries = rep_counts.def2_queries;
    counts.def2_verdict_hits = rep_counts.def2_verdict_hits;
    counts.def2_verdict_lookups = rep_counts.def2_verdict_lookups;
    return seconds;
  };

  std::vector<TimedPass> untraced, traced;
  std::vector<std::map<std::string, double>> traced_self;
  timed_passes(options, 3, tracer, rep, untraced, traced, traced_self);
  const double rss_mb = peak_rss_mb();

  // Outputs: the set-up stages against the checked-in digests, Procedure 1
  // against them at the default seed or a single-thread recomputation.
  Digests fixed;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    fixed[circuits[i].name + ".db"] = digest_of(sessions[i]->db());
    fixed[circuits[i].name + ".worst_case"] =
        digest_of(ndet::to_json(sessions[i]->worst_case()));
  }
  result.check_digests(load_reference(options.reference, "table6_def2"), fixed,
                       "table6_def2 vs reference");
  if (options.seed == kDefaultSeed) {
    result.check_digests(load_reference(options.reference, "table6_def2.seed1"),
                         first_rep, "table6_def2 seed 1 vs reference");
  } else {
    Digests recomputed;
    for (const NamedCircuit& work : circuits) {
      const DirectCircuit direct(work.circuit);
      recomputed[work.name + ".def2"] =
          digest_of(direct.average_json(config_for(ndet::DetectionDefinition::kDissimilar)));
      recomputed[work.name + ".def1"] =
          digest_of(direct.average_json(config_for(ndet::DetectionDefinition::kStandard)));
    }
    result.check_digests(recomputed, first_rep,
                         "table6_def2 vs single-thread recomputation");
  }

  finish_common(result, options, setups, synth, untraced, traced, rss_mb);
  if (options.trace) {
    std::map<std::string, double> self = median_self(traced_self);
    self["sim.db_build"] = setup_self["sim.db_build"];
    self["core.worst_case"] = setup_self["core.worst_case"];
    self["session"] = setup_self["session"];
    set_layer_metrics(result, self, counts);
    tracer.write_chrome_trace(options.trace_path);
  }
  return result;
}

// --- the reference file ----------------------------------------------------------

std::map<std::string, Digests> reference_sections() {
  std::map<std::string, Digests> sections;
  for (const std::string& name : suite_names()) {
    const ndet::Circuit circuit = ndet::fsm_benchmark_circuit(name);
    const DirectCircuit direct(circuit);
    std::fprintf(stderr, "perfbench: reference %s\n", name.c_str());
    Digests& fixed = sections["tables_cold"];
    fixed[name + ".db"] = digest_of(direct.db());
    fixed[name + ".worst_case"] = digest_of(ndet::to_json(direct.worst_case()));
    fixed[name + ".partition"] = digest_of(direct.partition_json(structure_partition(circuit)));
    if (!direct.monitored(kNmax).empty()) {
      ndet::Procedure1Config config;
      config.nmax = kNmax;
      config.num_sets = kTablesK;
      config.seed = kDefaultSeed;
      sections["tables_cold.seed1"][name + ".average_case"] =
          digest_of(direct.average_json(config));
    }
    if (name == "ex4" || name == "cse") {
      sections["table6_def2"][name + ".db"] = fixed[name + ".db"];
      sections["table6_def2"][name + ".worst_case"] = fixed[name + ".worst_case"];
      ndet::Procedure1Config config;
      config.nmax = kNmax;
      config.num_sets = kDef2K;
      config.seed = kDefaultSeed;
      config.definition = ndet::DetectionDefinition::kDissimilar;
      sections["table6_def2.seed1"][name + ".def2"] = digest_of(direct.average_json(config));
      config.definition = ndet::DetectionDefinition::kStandard;
      sections["table6_def2.seed1"][name + ".def1"] = digest_of(direct.average_json(config));
    }
  }
  return sections;
}

}  // namespace perfbench
