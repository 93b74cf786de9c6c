// faults_test.cpp -- stuck-at enumeration/collapsing and bridging
// enumeration, validated against the paper's Figure-1 example and, for the
// non-feedback condition, against an independent all-pairs closure.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "faults/bridging.hpp"
#include "faults/stuck_at.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/generator.hpp"
#include "netlist/library.hpp"
#include "test_util.hpp"

namespace ndet {
namespace {

using testing::paper_example_faults;

TEST(StuckAt, UncollapsedIsTwoPerLine) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const auto faults = all_stuck_at_faults(lines);
  EXPECT_EQ(faults.size(), 22u);  // 11 lines x 2
  // Ordered by (line, s-a-0 first).
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults[i].line, static_cast<LineId>(i / 2));
    EXPECT_EQ(faults[i].stuck_value, i % 2 == 1);
  }
}

TEST(StuckAt, CollapseMatchesPaperTable1Indices) {
  // The paper's fault indices on the example circuit: f0 = 1/1, f1 = 2/0,
  // f3 = 3/0, f9 = 8/0, f11 = 9/1, f12 = 10/0, f14 = 11/0.  The full
  // collapsed list has 16 faults; the expected (line, value) sequence is the
  // Table-1 oracle in test_util.hpp.
  const Circuit c = paper_example();
  const LineModel lines(c);
  const auto collapsed = collapse_stuck_at_faults(lines);
  const auto& oracle = paper_example_faults();
  ASSERT_EQ(collapsed.size(), oracle.size());
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    EXPECT_EQ(collapsed[i].line, oracle[i].line) << "fault index " << i;
    EXPECT_EQ(collapsed[i].stuck_value, oracle[i].value) << "fault index " << i;
  }
}

TEST(StuckAt, CollapseSavingsOnExample) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  // 22 uncollapsed - 16 collapsed = 6 faults merged away (two 3-element
  // classes for the ANDs, one 3-element class for the OR).
  EXPECT_EQ(collapse_savings(lines), 6u);
}

TEST(StuckAt, CollapsedIsSubsetAndOrdered) {
  const Circuit c = alu2();
  const LineModel lines(c);
  const auto collapsed = collapse_stuck_at_faults(lines);
  const auto all = all_stuck_at_faults(lines);
  EXPECT_LT(collapsed.size(), all.size());
  for (std::size_t i = 1; i < collapsed.size(); ++i) {
    const bool ordered =
        collapsed[i - 1].line < collapsed[i].line ||
        (collapsed[i - 1].line == collapsed[i].line &&
         !collapsed[i - 1].stuck_value && collapsed[i].stuck_value);
    EXPECT_TRUE(ordered) << "at " << i;
  }
}

TEST(StuckAt, InverterChainCollapsesToOneClassPerPolarity) {
  // a -> NOT n1 -> NOT n2 (output).  Classes: {a/0, n1/1, n2/0} and
  // {a/1, n1/0, n2/1}; representative is the last line of the chain.
  CircuitBuilder b("chain");
  const GateId a = b.add_input("a");
  const GateId n1 = b.add_gate(GateType::kNot, "n1", {a});
  const GateId n2 = b.add_gate(GateType::kNot, "n2", {n1});
  b.mark_output(n2);
  const Circuit c = b.build();
  const LineModel lines(c);
  const auto collapsed = collapse_stuck_at_faults(lines);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed[0].line, lines.stem_of(n2));
  EXPECT_EQ(collapsed[1].line, lines.stem_of(n2));
}

TEST(StuckAt, XorGateHasNoEquivalences) {
  CircuitBuilder b("xor");
  const GateId a = b.add_input("a");
  const GateId x = b.add_input("x");
  const GateId g = b.add_gate(GateType::kXor, "g", {a, x});
  b.mark_output(g);
  const Circuit c = b.build();
  const LineModel lines(c);
  EXPECT_EQ(collapse_stuck_at_faults(lines).size(),
            all_stuck_at_faults(lines).size());
}

TEST(StuckAt, NamesAreReadable) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  EXPECT_EQ(to_string(StuckAtFault{0, true}, lines), "1/1");
  EXPECT_EQ(to_string(StuckAtFault{8, false}, lines), "9/0");
}

// --- Bridging enumeration --------------------------------------------------

TEST(Bridging, PaperExampleEnumeratesTwelve) {
  const Circuit c = paper_example();
  const auto faults = enumerate_four_way_bridging(c);
  // Three independent pairs of multi-input gates x four ways each.
  EXPECT_EQ(faults.size(), 12u);
}

TEST(Bridging, PaperExampleG0IsFirst) {
  const Circuit c = paper_example();
  const auto faults = enumerate_four_way_bridging(c);
  // g0 = (9,0,10,1): victim 9 forced to 1 when 10 carries 1.
  EXPECT_EQ(c.gate(faults[0].victim).name, "9");
  EXPECT_FALSE(faults[0].victim_value);
  EXPECT_EQ(c.gate(faults[0].aggressor).name, "10");
  EXPECT_TRUE(faults[0].aggressor_value);
  EXPECT_EQ(to_string(faults[0], c), "(9,0,10,1)");
}

TEST(Bridging, FourWaysPerPairAreComplementary) {
  const Circuit c = paper_example();
  const auto faults = enumerate_four_way_bridging(c);
  for (std::size_t p = 0; p < faults.size(); p += 4) {
    // Within a pair: (x,0,y,1), (x,1,y,0), (y,0,x,1), (y,1,x,0).
    EXPECT_EQ(faults[p].victim, faults[p + 1].victim);
    EXPECT_EQ(faults[p + 2].victim, faults[p + 3].victim);
    EXPECT_EQ(faults[p].victim, faults[p + 2].aggressor);
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_NE(faults[p + i].victim_value, faults[p + i].aggressor_value);
  }
}

TEST(Bridging, FeedbackPairsAreExcluded) {
  // g = AND(a,b); h = OR(g,c): g reaches h, so {g,h} is a feedback pair.
  CircuitBuilder b("feedback");
  const GateId a = b.add_input("a");
  const GateId x = b.add_input("x");
  const GateId cc = b.add_input("c");
  const GateId g = b.add_gate(GateType::kAnd, "g", {a, x});
  const GateId h = b.add_gate(GateType::kOr, "h", {g, cc});
  b.mark_output(h);
  const Circuit c = b.build();
  EXPECT_TRUE(enumerate_four_way_bridging(c).empty());
}

TEST(Bridging, SingleInputGatesAreNotSites) {
  CircuitBuilder b("no_sites");
  const GateId a = b.add_input("a");
  const GateId n1 = b.add_gate(GateType::kNot, "n1", {a});
  const GateId n2 = b.add_gate(GateType::kBuf, "n2", {a});
  b.mark_output(n1);
  b.mark_output(n2);
  const Circuit c = b.build();
  EXPECT_TRUE(enumerate_four_way_bridging(c).empty());
}

TEST(Bridging, CountsGrowQuadratically) {
  // A flat circuit of k independent AND gates has C(k,2) pairs.
  CircuitBuilder b("flat");
  std::vector<GateId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(b.add_input("i" + std::to_string(i)));
  for (int k = 0; k < 4; ++k) {
    const GateId g = b.add_gate(GateType::kAnd, "g" + std::to_string(k),
                                {ins[static_cast<std::size_t>(2 * k)],
                                 ins[static_cast<std::size_t>(2 * k + 1)]});
    b.mark_output(g);
  }
  const Circuit c = b.build();
  EXPECT_EQ(enumerate_four_way_bridging(c).size(), 24u);  // C(4,2) x 4 ways
}

/// The expected enumeration from first principles: every gate's transitive
/// fanout by a BFS over Gate::fanouts, and a site pair kept only when
/// neither gate reaches the other.  It checks both directions and shares no
/// code with the graph core, so it does not lean on the id-order argument
/// the production enumeration uses.
std::vector<BridgingFault> reference_bridging(const Circuit& circuit) {
  const std::size_t n = circuit.gate_count();
  std::vector<std::vector<bool>> reaches(n, std::vector<bool>(n, false));
  for (GateId root = 0; root < n; ++root) {
    std::vector<GateId> queue(circuit.gate(root).fanouts.begin(),
                              circuit.gate(root).fanouts.end());
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const GateId g = queue[head];
      if (reaches[root][g]) continue;
      reaches[root][g] = true;
      for (const GateId next : circuit.gate(g).fanouts)
        if (!reaches[root][next]) queue.push_back(next);
    }
  }
  std::vector<GateId> sites;
  for (GateId g = 0; g < n; ++g)
    if (is_multi_input(circuit.gate(g).type)) sites.push_back(g);
  std::vector<BridgingFault> faults;
  for (std::size_t i = 0; i < sites.size(); ++i)
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      const GateId x = sites[i];
      const GateId y = sites[j];
      if (reaches[x][y] || reaches[y][x]) continue;
      faults.push_back({x, false, y, true});
      faults.push_back({x, true, y, false});
      faults.push_back({y, false, x, true});
      faults.push_back({y, true, x, false});
    }
  return faults;
}

void expect_matches_reference(const Circuit& circuit) {
  const auto actual = enumerate_four_way_bridging(circuit);
  const auto expected = reference_bridging(circuit);
  ASSERT_EQ(actual.size(), expected.size()) << circuit.name();
  for (std::size_t i = 0; i < actual.size(); ++i)
    ASSERT_EQ(actual[i], expected[i])
        << circuit.name() << " fault " << i << ": got "
        << to_string(actual[i], circuit) << ", expected "
        << to_string(expected[i], circuit);
}

TEST(Bridging, NonFeedbackPairsMatchAnIndependentClosure) {
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite())
    expect_matches_reference(fsm_benchmark_circuit(info.name));
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    GeneratorConfig config;
    config.num_inputs = 8;
    config.num_gates = 60;
    expect_matches_reference(generate_random_circuit(config, seed));
  }

  // g reaches h only through NOT then BUF, so {g,h} is a feedback pair even
  // though h is not a direct fanout of g.  k is independent of both.
  CircuitBuilder b("chain");
  const GateId a = b.add_input("a");
  const GateId x = b.add_input("x");
  const GateId cc = b.add_input("c");
  const GateId g = b.add_gate(GateType::kAnd, "g", {a, x});
  const GateId n1 = b.add_gate(GateType::kNot, "n1", {g});
  const GateId n2 = b.add_gate(GateType::kBuf, "n2", {n1});
  b.mark_output(b.add_gate(GateType::kOr, "h", {n2, cc}));
  const GateId k = b.add_gate(GateType::kAnd, "k", {x, cc});
  b.mark_output(k);
  const Circuit chain = b.build();
  expect_matches_reference(chain);
  const auto faults = enumerate_four_way_bridging(chain);
  ASSERT_EQ(faults.size(), 8u);  // {g,k} and {h,k} only
  for (const BridgingFault& f : faults)
    EXPECT_TRUE(f.victim == k || f.aggressor == k) << to_string(f, chain);
}

}  // namespace
}  // namespace ndet
