// batch_sim_test.cpp -- the batched engine against the per-fault oracles.
//
// BatchFaultSimulator derives every T(f) from one flip simulation per fault
// site (Obs(site) AND the fault's activation condition) and hands out the
// Obs rows themselves, from which DetectionDb composes every T(g).  Its
// contract is that every set is bit-identical to per-fault injection and
// every Obs row equals T(site/0) | T(site/1) by injection.  The suite holds
// it to that against both independent engines: the per-fault FaultSimulator
// across the FSM benchmark circuits (bridging sets through the database
// built on the engine), and sim/reference's naive gate-by-gate injection
// on small circuits, in explicit-vector (list) mode, on spans with
// duplicate faults and unobservable sites, under varying worker-pool
// widths, and under cancellation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/detection_db.hpp"
#include "faults/bridging.hpp"
#include "faults/stuck_at.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "netlist/graph.hpp"
#include "sim/batch_fault_sim.hpp"
#include "sim/exhaustive.hpp"
#include "sim/fault_sim.hpp"
#include "sim/reference.hpp"
#include "test_util.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace ndet {
namespace {

using testing::to_vector;

/// Machines exercised exhaustively: every suite entry whose synthesized
/// circuit keeps the 2^PI vector space small enough for test time.
constexpr int kMaxInputsForCrossValidation = 12;

std::vector<std::string> cross_validation_machines() {
  std::vector<std::string> names;
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite()) {
    const Circuit circuit = fsm_benchmark_circuit(info.name);
    if (static_cast<int>(circuit.input_count()) <= kMaxInputsForCrossValidation)
      names.push_back(info.name);
  }
  return names;
}

void expect_identical_sets(const std::vector<Bitset>& reference,
                           const std::vector<Bitset>& batched,
                           const std::string& machine, const char* family) {
  ASSERT_EQ(reference.size(), batched.size()) << machine << " " << family;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i], batched[i])
        << machine << " " << family << " fault " << i;
  }
}

/// T(h) by sim/reference's naive per-fault injection, one vector at a
/// time over the simulator's vectors (list mode maps position -> vector id).
template <typename Fault, typename Model>
Bitset reference_set(const ExhaustiveSimulator& good, const Model& model,
                     const Fault& fault) {
  Bitset set(good.vector_count());
  for (std::uint64_t p = 0; p < good.vector_count(); ++p) {
    const std::uint64_t id = good.exhaustive() ? p : good.explicit_vectors()[p];
    if (reference_detects(model, fault, id)) set.set(p);
  }
  return set;
}

/// Obs(site) by injection: flipping the site is stuck-at-0 where it carries
/// 1 and stuck-at-1 where it carries 0, so Obs = T(site/0) | T(site/1).
Bitset reference_obs(const ExhaustiveSimulator& good, const LineModel& lines,
                     LineId site) {
  Bitset obs = reference_set(good, lines, StuckAtFault{site, false});
  obs |= reference_set(good, lines, StuckAtFault{site, true});
  return obs;
}

/// Row k of a flat observability() result as a Bitset.
Bitset obs_row(const std::vector<Bitset::word_type>& rows, std::size_t k,
               std::size_t vector_count) {
  Bitset row(vector_count);
  std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(k * row.word_count()),
              row.word_count(), row.words());
  return row;
}

/// Every stuck-at set and every Obs row of the batched engine against the
/// naive reference.
void expect_matches_reference(const ExhaustiveSimulator& good,
                              const LineModel& lines,
                              const std::vector<StuckAtFault>& stuck,
                              const std::vector<LineId>& sites,
                              const std::string& label) {
  const BatchFaultSimulator batched(good, lines, {.num_threads = 2});
  const std::vector<Bitset> stuck_sets = batched.detection_sets(stuck);
  ASSERT_EQ(stuck_sets.size(), stuck.size()) << label;
  for (std::size_t i = 0; i < stuck.size(); ++i) {
    ASSERT_EQ(stuck_sets[i], reference_set(good, lines, stuck[i]))
        << label << " stuck-at " << to_string(stuck[i], lines);
    ASSERT_EQ(batched.detection_set(stuck[i]), stuck_sets[i])
        << label << " single stuck-at " << to_string(stuck[i], lines);
  }
  const std::vector<Bitset::word_type> rows = batched.observability(sites);
  ASSERT_EQ(rows.size(), sites.size() * good.word_count()) << label;
  for (std::size_t k = 0; k < sites.size(); ++k) {
    ASSERT_EQ(obs_row(rows, k, good.vector_count()),
              reference_obs(good, lines, sites[k]))
        << label << " Obs(" << lines.line(sites[k]).name << ")";
  }
}

std::vector<LineId> all_lines(const LineModel& lines) {
  std::vector<LineId> sites(lines.line_count());
  for (LineId l = 0; l < lines.line_count(); ++l) sites[l] = l;
  return sites;
}

/// The database built on the engine holds exactly the enumerated bridges
/// whose per-fault set is non-empty, in order, each with that set.
void expect_db_bridges_match(const Circuit& circuit,
                             const FaultSimulator& reference,
                             const std::string& machine) {
  const DetectionDb db = DetectionDb::build(circuit);
  const std::vector<BridgingFault> bridges =
      enumerate_four_way_bridging(circuit);
  const std::vector<Bitset> expected = reference.detection_sets(bridges);
  std::size_t j = 0;
  for (std::size_t i = 0; i < bridges.size(); ++i) {
    if (expected[i].none()) continue;
    ASSERT_LT(j, db.untargeted().size()) << machine;
    ASSERT_EQ(db.untargeted()[j], bridges[i]) << machine << " bridge " << i;
    ASSERT_EQ(db.untargeted_sets().bitset(j), expected[i])
        << machine << " bridge " << i;
    ++j;
  }
  EXPECT_EQ(j, db.untargeted().size()) << machine;
}

/// One driver feeding two slots of the same sink (a into AND(a, a, b), b
/// into XOR(b, b)), so a branch flip must override exactly its own slot,
/// plus a multi-input gate that reaches no output.
Circuit repeated_fanin_circuit() {
  CircuitBuilder b("repeated_fanin");
  const GateId a = b.add_input("a");
  const GateId in_b = b.add_input("b");
  const GateId c = b.add_input("c");
  const GateId p = b.add_gate(GateType::kAnd, "p", {a, a, in_b});
  const GateId q = b.add_gate(GateType::kXor, "q", {in_b, in_b});
  const GateId r = b.add_gate(GateType::kOr, "r", {p, c});
  const GateId s = b.add_gate(GateType::kXnor, "s", {q, r});
  b.add_gate(GateType::kNand, "dangling", {a, c});
  b.mark_output(p);
  b.mark_output(s);
  return b.build();
}

TEST(BatchFaultSim, CrossValidatesAgainstReferenceOnFsmSuite) {
  const std::vector<std::string> machines = cross_validation_machines();
  // The filter must not silently shrink coverage to a token sample.
  ASSERT_GE(machines.size(), 10u);
  for (const std::string& name : machines) {
    const Circuit circuit = fsm_benchmark_circuit(name);
    const LineModel lines(circuit);
    const ExhaustiveSimulator good(circuit);
    const FaultSimulator reference(good, lines);
    const BatchFaultSimulator batched(good, lines);

    const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);
    expect_identical_sets(reference.detection_sets(targets),
                          batched.detection_sets(targets), name, "stuck-at");

    expect_db_bridges_match(circuit, reference, name);
  }
}

TEST(BatchFaultSim, CrossValidatesInExplicitVectorMode) {
  // ndetect's compactor grades test sets through list-mode simulators; the
  // batched engine must agree with the reference there too.
  const Circuit circuit = fsm_benchmark_circuit("bbara");
  const LineModel lines(circuit);
  const std::vector<std::uint64_t> vectors = {0, 3, 7, 11, 42, 63, 100, 255};
  const ExhaustiveSimulator good(circuit, vectors);
  const FaultSimulator reference(good, lines);
  const BatchFaultSimulator batched(good, lines);
  const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);
  expect_identical_sets(reference.detection_sets(targets),
                        batched.detection_sets(targets), "bbara", "list-mode");
}

TEST(BatchFaultSim, FactoredSetsMatchPerFaultInjection) {
  // Exhaustive mode: every line's two stuck-at faults (collapsing would
  // hide faults on unobservable lines) and every line's Obs row.
  const std::vector<std::pair<std::string, Circuit>> circuits = {
      {"paper_example", paper_example()},
      {"repeated_fanin", repeated_fanin_circuit()},
      {"lion", fsm_benchmark_circuit("lion")},
      {"train4", fsm_benchmark_circuit("train4")},
      {"tav", fsm_benchmark_circuit("tav")}};
  for (const auto& [name, circuit] : circuits) {
    const LineModel lines(circuit);
    const ExhaustiveSimulator good(circuit);
    expect_matches_reference(good, lines, all_stuck_at_faults(lines),
                             all_lines(lines), name);
  }

  // lion has gates outside every output cone: their sites have an empty
  // Obs, and Obs(line) = T(line/0) | T(line/1).
  const Circuit lion = fsm_benchmark_circuit("lion");
  const LineModel lion_lines(lion);
  const ExhaustiveSimulator lion_good(lion);
  const BatchFaultSimulator lion_sim(lion_good, lion_lines);
  std::vector<LineId> unobservable;
  for (LineId l = 0; l < lion_lines.line_count(); ++l) {
    const Line& line = lion_lines.line(l);
    const GateId root = line.kind == LineKind::kStem ? line.driver : line.sink;
    if (lion_sim.cone_outputs(root).empty()) {
      unobservable.push_back(l);
      Bitset obs = lion_sim.detection_set(StuckAtFault{l, false});
      obs |= lion_sim.detection_set(StuckAtFault{l, true});
      EXPECT_TRUE(obs.none()) << line.name;
    }
  }
  ASSERT_FALSE(unobservable.empty());

  // A span with duplicates, unobservable sites and sites in no particular
  // order: every slot still gets its own fault's set.
  std::vector<StuckAtFault> mixed;
  const std::vector<StuckAtFault> all = all_stuck_at_faults(lion_lines);
  for (std::size_t i = all.size(); i-- > 0;) {
    mixed.push_back(all[i]);
    if (i % 3 == 0) mixed.push_back(all[(i * 7) % all.size()]);
  }
  for (const LineId l : unobservable) {
    mixed.push_back(StuckAtFault{l, false});
    mixed.push_back(StuckAtFault{l, true});
  }
  std::vector<LineId> mixed_sites;
  for (LineId l = lion_lines.line_count(); l-- > 0;) {
    mixed_sites.push_back(l);
    if (l % 3 == 0) mixed_sites.push_back((l * 7) % lion_lines.line_count());
  }
  mixed_sites.insert(mixed_sites.end(), unobservable.begin(),
                     unobservable.end());
  expect_matches_reference(lion_good, lion_lines, mixed, mixed_sites,
                           "lion mixed span");

  // List mode with 100 vectors: two words, the second masked to 36 bits --
  // the path the n-detection compactor grades test sets through.
  const Circuit s8 = fsm_benchmark_circuit("s8");
  const LineModel s8_lines(s8);
  std::vector<std::uint64_t> vectors;
  for (std::uint64_t p = 0; p < 100; ++p)
    vectors.push_back((37 * p + 11) % s8.vector_space_size());
  const ExhaustiveSimulator s8_good(s8, vectors);
  ASSERT_EQ(s8_good.word_count(), 2u);
  ASSERT_NE(s8_good.vector_count() % 64, 0u);
  expect_matches_reference(s8_good, s8_lines, all_stuck_at_faults(s8_lines),
                           all_lines(s8_lines), "s8 list mode");
}

TEST(BatchFaultSim, DeterministicAcrossThreadCounts) {
  const Circuit circuit = fsm_benchmark_circuit("bbara");
  const LineModel lines(circuit);
  const ExhaustiveSimulator good(circuit);
  const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);
  const std::vector<LineId> sites = all_lines(lines);
  // Small batches: one Obs site, and the stuck-at faults of three lines
  // (three sites) -- fewer sites than the wider pools have workers.
  const std::vector<LineId> one_site = {sites[sites.size() / 2]};
  const std::vector<StuckAtFault> three_sites(targets.end() - 5,
                                              targets.end());
  const FaultSimulator reference(good, lines);
  const Bitset one_site_expected = reference_obs(good, lines, one_site[0]);
  const std::vector<Bitset> three_sites_expected =
      reference.detection_sets(three_sites);

  const BatchFaultSimulator single(good, lines, {.num_threads = 1});
  const std::vector<Bitset> stuck_baseline = single.detection_sets(targets);
  const std::vector<Bitset::word_type> obs_baseline =
      single.observability(sites);

  for (const unsigned threads : {1u, 2u, 8u, 0u}) {
    const BatchFaultSimulator pool(good, lines, {.num_threads = threads});
    EXPECT_EQ(pool.thread_count(), resolve_thread_count(threads));
    const std::string label = "bbara threads=" + std::to_string(threads);
    expect_identical_sets(stuck_baseline, pool.detection_sets(targets), label,
                          "stuck-at");
    EXPECT_EQ(pool.observability(sites), obs_baseline) << label;
    EXPECT_EQ(obs_row(pool.observability(one_site), 0, good.vector_count()),
              one_site_expected)
        << label;
    expect_identical_sets(three_sites_expected,
                          pool.detection_sets(three_sites), label,
                          "three-site stuck-at");
  }
}

TEST(BatchFaultSim, CancelledTokenRaisesFaultSimError) {
  // Every dk16 line observed 100 times over runs tens of milliseconds on
  // one worker, so a 1 ms deadline fires while sites are being simulated.
  const Circuit circuit = fsm_benchmark_circuit("dk16");
  const LineModel lines(circuit);
  const ExhaustiveSimulator good(circuit);
  std::vector<LineId> sites;
  for (int repeat = 0; repeat < 100; ++repeat)
    for (LineId l = 0; l < lines.line_count(); ++l) sites.push_back(l);
  const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);

  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const BatchFaultSimulator batched(good, lines, {.num_threads = threads});

    CancelToken fired;
    fired.cancel();
    try {
      (void)batched.detection_sets(targets, &fired);
      FAIL() << "expected Error from a pre-fired token";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
      EXPECT_EQ(e.stage(), "fault_sim");
    }

    CancelToken deadline;
    deadline.set_deadline_after_ms(1);
    try {
      (void)batched.observability(sites, &deadline);
      FAIL() << "expected Error from a deadline inside the batch";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded);
      EXPECT_EQ(e.stage(), "fault_sim");
    }
  }
}

TEST(BatchFaultSim, PrecomputedConesMatchOnDemandComputation) {
  const Circuit circuit = fsm_benchmark_circuit("bbtas");
  const LineModel lines(circuit);
  const ExhaustiveSimulator good(circuit);
  const BatchFaultSimulator batched(good, lines);
  const NetlistGraph graph(circuit);
  for (GateId g = 0; g < circuit.gate_count(); ++g) {
    const std::vector<GateId> expected = fanout_cone(graph, g);
    const std::span<const GateId> actual = batched.cone_gates(g);
    ASSERT_EQ(std::vector<GateId>(actual.begin(), actual.end()), expected)
        << "gate " << g;
    std::vector<GateId> expected_outputs;
    for (const GateId c : expected)
      if (circuit.is_output(c)) expected_outputs.push_back(c);
    const std::span<const GateId> outputs = batched.cone_outputs(g);
    ASSERT_EQ(std::vector<GateId>(outputs.begin(), outputs.end()),
              expected_outputs)
        << "gate " << g;
  }
}

TEST(BatchFaultSim, SingleFaultConvenienceMatchesPaperOracle) {
  const Circuit circuit = paper_example();
  const LineModel lines(circuit);
  const ExhaustiveSimulator good(circuit);
  const BatchFaultSimulator batched(good, lines);
  const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);
  const auto& oracle = testing::paper_example_faults();
  ASSERT_EQ(targets.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    const int index =
        testing::find_fault(targets, oracle[i].line, oracle[i].value);
    ASSERT_GE(index, 0);
    EXPECT_EQ(to_vector(batched.detection_set(
                  targets[static_cast<std::size_t>(index)])),
              oracle[i].tests)
        << "fault " << i;
  }
}

TEST(BatchFaultSim, DetectionDbUsesIdenticalSets) {
  // DetectionDb::build now runs on the batched engine and freezes the sets
  // into the adaptive representation; thawed back to Bitsets they must
  // still match a from-scratch per-fault computation.
  const Circuit circuit = fsm_benchmark_circuit("dk27");
  const DetectionDb db = DetectionDb::build(circuit);
  const ExhaustiveSimulator good(db.circuit());
  const FaultSimulator reference(good, db.lines());
  const std::vector<Bitset> reference_targets =
      reference.detection_sets(db.targets());
  ASSERT_EQ(reference_targets.size(), db.target_sets().size());
  for (std::size_t i = 0; i < reference_targets.size(); ++i) {
    EXPECT_EQ(reference_targets[i], db.target_sets()[i].to_bitset())
        << "db stuck-at fault " << i;
  }
  for (std::size_t i = 0; i < db.untargeted().size(); ++i) {
    EXPECT_EQ(reference.detection_set(db.untargeted()[i]),
              db.untargeted_sets()[i].to_bitset())
        << "db bridging fault " << i;
  }
}

}  // namespace
}  // namespace ndet
