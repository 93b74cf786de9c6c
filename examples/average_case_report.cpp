// average_case_report.cpp -- the paper's Section-3 analysis as a CLI tool.
//
//   average_case_report [circuit] [--k=500] [--nmax=10] [--seed=1]
//                       [--def=1|2] [--threads=0] [--deadline-ms=0]
//                       [--json=<path>]
//
// Opens an AnalysisSession, finds the faults an nmax-detection test set is
// not guaranteed to detect (the worst-case stage), then estimates their
// detection probabilities with K random n-detection test sets (Procedure 1)
// and prints the Table-5-style histogram together with the escape
// statistics the paper suggests deriving from it.  --json= writes the
// worst-case and average-case results plus session telemetry as JSON.
// --deadline-ms= bounds the whole run; exit codes follow run_cli (124 on a
// deadline/cancel, 2 on invalid input, 1 on internal errors).

#include <algorithm>
#include <cstdio>

#include "core/escape.hpp"
#include "core/reports.hpp"
#include "core/session.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace ndet;
  return run_cli([&] {
  const CliArgs args(argc, argv,
                     {"k", "nmax", "seed", "def", "threads", "deadline-ms",
                      "json"});
  const std::string name =
      args.positional().empty() ? "beecount" : args.positional()[0];
  Procedure1Request request;
  request.num_sets = args.get_u64("k", 500);
  request.nmax = static_cast<int>(args.get_u64("nmax", 10));
  request.seed = args.get_u64("seed", 1);
  request.definition = args.get_u64("def", 1) == 2
                           ? DetectionDefinition::kDissimilar
                           : DetectionDefinition::kStandard;

  SessionOptions options;
  options.num_threads = static_cast<unsigned>(args.get_u64("threads", 0));
  options.deadline_ms = args.get_u64("deadline-ms", 0);
  AnalysisSession session(name, options);

  const auto write_json = [&](const AverageCaseResult* avg) {
    if (!args.has("json")) return;
    const std::string path = args.get("json", "");
    write_json_file(path, session_report_json(session, avg));
    std::printf("\nwrote %s\n", path.c_str());
  };

  const auto monitored = session.monitored(request.nmax);
  std::printf("%s: %zu bridging faults, %zu not guaranteed by an "
              "%d-detection test set\n",
              name.c_str(), session.db().untargeted().size(), monitored.size(),
              request.nmax);
  if (monitored.empty()) {
    std::printf("nothing to estimate: every fault is guaranteed at "
                "n <= %d.\n", request.nmax);
    write_json(nullptr);
    return 0;
  }

  const AverageCaseResult& avg = session.average_case(request);
  std::printf("%s\n", describe_set_memory(session.db()).c_str());
  const unsigned workers = session.pool().thread_count();
  if (request.definition == DetectionDefinition::kDissimilar)
    std::printf("def2 oracle (%u workers): %llu word passes, %llu (t, s) "
                "lanes simulated for %llu charged queries\n",
                workers,
                static_cast<unsigned long long>(avg.def2_cache.word_passes),
                static_cast<unsigned long long>(
                    avg.def2_cache.verdict_misses),
                static_cast<unsigned long long>(
                    avg.stats.distinct_queries));
  std::printf("\nK = %zu random %d-detection test sets (Definition %d, "
              "%u workers); faults with p(%d,g) >= threshold:\n\n",
              request.num_sets, request.nmax,
              request.definition == DetectionDefinition::kStandard ? 1 : 2,
              workers, request.nmax);
  std::fputs(
      render_table5({make_probability_row(name, avg, request.nmax)})
          .render()
          .c_str(),
      stdout);

  // The paper: "The probabilities of detection ... can be used to calculate
  // the probability that an untargeted fault escapes detection."
  const EscapeReport escape = compute_escape_report(avg, request.nmax);
  std::printf("\nescape analysis at n = %d:\n", escape.n);
  std::printf("  faults detected with probability 1 : %zu of %zu\n",
              escape.guaranteed_detected, escape.monitored_faults);
  std::printf("  expected number of escaping faults : %.3f\n",
              escape.expected_escapes);
  std::printf("  probability at least one escapes   : %.3f\n",
              escape.prob_any_escape);
  std::printf("  hardest fault detection probability: %.3f\n",
              escape.worst_fault_probability);

  // Show the five hardest faults explicitly.
  const WorstCaseResult& worst = session.worst_case();
  std::vector<std::size_t> order(monitored.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return avg.probability(request.nmax, a) < avg.probability(request.nmax, b);
  });
  std::printf("\nhardest faults:\n");
  for (std::size_t r = 0; r < std::min<std::size_t>(5, order.size()); ++r) {
    const std::size_t j = order[r];
    std::printf("  %-14s nmin = %-6llu p(%d,g) = %.3f\n",
                to_string(session.db().untargeted()[monitored[j]],
                          session.circuit())
                    .c_str(),
                static_cast<unsigned long long>(worst.nmin[monitored[j]]),
                request.nmax, avg.probability(request.nmax, j));
  }
  write_json(&avg);
  return 0;
  });
}
