// netlist_test.cpp -- circuit construction, line model, .bench I/O,
// reachability (as the non-feedback test of bridging enumeration), generator
// and embedded library.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "faults/bridging.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/circuit.hpp"
#include "netlist/generator.hpp"
#include "netlist/library.hpp"
#include "netlist/lines.hpp"
#include "netlist/stats.hpp"
#include "util/check.hpp"

namespace ndet {
namespace {

TEST(CircuitBuilder, BuildsPaperExample) {
  const Circuit c = paper_example();
  EXPECT_EQ(c.name(), "paper_example");
  EXPECT_EQ(c.input_count(), 4u);
  EXPECT_EQ(c.output_count(), 3u);
  EXPECT_EQ(c.gate_count(), 7u);
  EXPECT_EQ(c.vector_space_size(), 16u);
  EXPECT_EQ(c.depth(), 1);
}

TEST(CircuitBuilder, FanoutsAreDerivedPerConnection) {
  const Circuit c = paper_example();
  const GateId in2 = *c.find("2");
  const GateId in3 = *c.find("3");
  const GateId in1 = *c.find("1");
  EXPECT_EQ(c.gate(in2).fanouts.size(), 2u);
  EXPECT_EQ(c.gate(in3).fanouts.size(), 2u);
  EXPECT_EQ(c.gate(in1).fanouts.size(), 1u);
}

TEST(CircuitBuilder, RejectsDuplicateNames) {
  CircuitBuilder b("dup");
  b.add_input("a");
  EXPECT_THROW(b.add_input("a"), contract_error);
}

TEST(CircuitBuilder, RejectsWrongFaninCounts) {
  CircuitBuilder b("bad");
  const GateId a = b.add_input("a");
  EXPECT_THROW(b.add_gate(GateType::kAnd, "g", {a}), contract_error);
  EXPECT_THROW(b.add_gate(GateType::kNot, "h", {a, a}), contract_error);
}

TEST(CircuitBuilder, RejectsForwardReferences) {
  CircuitBuilder b("fwd");
  const GateId a = b.add_input("a");
  EXPECT_THROW(b.add_gate(GateType::kNot, "g", {static_cast<GateId>(a + 5)}),
               contract_error);
}

TEST(CircuitBuilder, RejectsDoubleOutputMark) {
  CircuitBuilder b("out");
  const GateId a = b.add_input("a");
  const GateId g = b.add_gate(GateType::kNot, "g", {a});
  b.mark_output(g);
  EXPECT_THROW(b.mark_output(g), contract_error);
}

TEST(CircuitBuilder, RequiresInputsAndOutputs) {
  CircuitBuilder no_out("no_out");
  no_out.add_input("a");
  EXPECT_THROW((void)no_out.build(), contract_error);
}

TEST(Circuit, InputIndexAndLookup) {
  const Circuit c = paper_example();
  EXPECT_EQ(c.input_index(*c.find("1")), 0u);
  EXPECT_EQ(c.input_index(*c.find("4")), 3u);
  EXPECT_FALSE(c.find("nonexistent").has_value());
  EXPECT_THROW((void)c.input_index(*c.find("9")), contract_error);
}

TEST(Circuit, LevelsFollowLongestPath) {
  // chain: a -> n1 -> n2, plus g = AND(a, n2).
  CircuitBuilder b("levels");
  const GateId a = b.add_input("a");
  const GateId n1 = b.add_gate(GateType::kNot, "n1", {a});
  const GateId n2 = b.add_gate(GateType::kNot, "n2", {n1});
  const GateId g = b.add_gate(GateType::kAnd, "g", {a, n2});
  b.mark_output(g);
  const Circuit c = b.build();
  EXPECT_EQ(c.gate(a).level, 0);
  EXPECT_EQ(c.gate(n1).level, 1);
  EXPECT_EQ(c.gate(n2).level, 2);
  EXPECT_EQ(c.gate(g).level, 3);
  EXPECT_EQ(c.depth(), 3);
}

// --- Line model -----------------------------------------------------------

/// One edit to same_netlist's base circuit.
struct NetlistVariant {
  GateType y_type = GateType::kAnd;
  bool swap_fanins = false;   ///< y = AND(b, a)
  bool swap_inputs = false;   ///< declare input b before a
  bool swap_outputs = false;  ///< outputs (z, y)
  bool duplicate_y = false;   ///< extra output w = BUF(y)
};

/// y = AND(a, b) and z = OR(a, b) as outputs (y, z); w = BUF(y) is always
/// built, and marked an output only by `duplicate_y`.
Circuit variant_netlist(const std::string& name, NetlistVariant v = {}) {
  CircuitBuilder b(name);
  GateId a = b.add_input(v.swap_inputs ? "b" : "a");
  GateId c = b.add_input(v.swap_inputs ? "a" : "b");
  if (v.swap_inputs) std::swap(a, c);
  const GateId y =
      b.add_gate(v.y_type, "y",
                 v.swap_fanins ? std::vector<GateId>{c, a}
                               : std::vector<GateId>{a, c});
  const GateId z = b.add_gate(GateType::kOr, "z", {a, c});
  const GateId w = b.add_gate(GateType::kBuf, "w", {y});
  b.mark_output(v.swap_outputs ? z : y);
  b.mark_output(v.swap_outputs ? y : z);
  if (v.duplicate_y) b.mark_output(w);
  return b.build();
}

TEST(Circuit, SameNetlistComparesStructureNotName) {
  const Circuit base = variant_netlist("base");
  EXPECT_TRUE(same_netlist(base, base));
  EXPECT_TRUE(same_netlist(base, variant_netlist("renamed")));
  EXPECT_FALSE(same_netlist(base, variant_netlist("t", {.y_type = GateType::kNand})));
  EXPECT_FALSE(same_netlist(base, variant_netlist("f", {.swap_fanins = true})));
  EXPECT_FALSE(same_netlist(base, variant_netlist("i", {.swap_inputs = true})));
  EXPECT_FALSE(same_netlist(base, variant_netlist("o", {.swap_outputs = true})));
  const Circuit duplicated = variant_netlist("d", {.duplicate_y = true});
  EXPECT_FALSE(same_netlist(base, duplicated));
  EXPECT_FALSE(same_netlist(duplicated, base));
}

TEST(LineModel, PaperExampleLineNumbering) {
  // The paper's Figure 1 labels: 1-4 inputs, 5,6 branches of input 2,
  // 7,8 branches of input 3, 9-11 gate outputs.
  const Circuit c = paper_example();
  const LineModel lines(c);
  ASSERT_EQ(lines.line_count(), 11u);
  // Lines 0..3: input stems in declaration order.
  for (LineId l = 0; l < 4; ++l) {
    EXPECT_EQ(lines.line(l).kind, LineKind::kStem);
    EXPECT_EQ(lines.line(l).name, std::to_string(l + 1));
  }
  // Lines 4,5: branches of input "2" to gates "9" and "10".
  EXPECT_EQ(lines.line(4).kind, LineKind::kBranch);
  EXPECT_EQ(c.gate(lines.line(4).driver).name, "2");
  EXPECT_EQ(c.gate(lines.line(4).sink).name, "9");
  EXPECT_EQ(c.gate(lines.line(5).sink).name, "10");
  // Lines 6,7: branches of input "3" to gates "10" and "11".
  EXPECT_EQ(c.gate(lines.line(6).driver).name, "3");
  EXPECT_EQ(c.gate(lines.line(6).sink).name, "10");
  EXPECT_EQ(c.gate(lines.line(7).sink).name, "11");
  // Lines 8..10: gate stems "9", "10", "11".
  EXPECT_EQ(lines.line(8).name, "9");
  EXPECT_EQ(lines.line(9).name, "10");
  EXPECT_EQ(lines.line(10).name, "11");
}

TEST(LineModel, SingleFanoutHasNoBranch) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  // Input "1" feeds only gate "9": its connection is the stem itself.
  const GateId g9 = *c.find("9");
  EXPECT_EQ(lines.line_for_connection(g9, 0), lines.stem_of(*c.find("1")));
  // Input "2" branches: connection line differs from the stem.
  EXPECT_NE(lines.line_for_connection(g9, 1), lines.stem_of(*c.find("2")));
}

TEST(LineModel, ConnectionCounts) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  EXPECT_EQ(lines.connection_count(*c.find("2")), 2u);
  EXPECT_EQ(lines.connection_count(*c.find("1")), 1u);
  EXPECT_EQ(lines.connection_count(*c.find("9")), 0u);  // output only
}

TEST(LineModel, DuplicateFaninGetsTwoBranches) {
  CircuitBuilder b("twice");
  const GateId a = b.add_input("a");
  const GateId x = b.add_input("x");
  const GateId g = b.add_gate(GateType::kAnd, "g", {a, a});
  const GateId h = b.add_gate(GateType::kOr, "h", {g, x});
  b.mark_output(h);
  const Circuit c = b.build();
  const LineModel lines(c);
  const LineId l0 = lines.line_for_connection(g, 0);
  const LineId l1 = lines.line_for_connection(g, 1);
  EXPECT_NE(l0, l1);
  EXPECT_EQ(lines.line(l0).kind, LineKind::kBranch);
  EXPECT_EQ(lines.line(l1).kind, LineKind::kBranch);
}

// --- .bench I/O -----------------------------------------------------------

TEST(BenchIo, ParsesC17StyleText) {
  const std::string text = R"(
# c17 fragment
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, b)
)";
  const Circuit c = parse_bench(text, "mini");
  EXPECT_EQ(c.input_count(), 2u);
  EXPECT_EQ(c.output_count(), 1u);
  EXPECT_EQ(c.gate(*c.find("y")).type, GateType::kNand);
}

TEST(BenchIo, HandlesForwardReferences) {
  const std::string text = R"(
INPUT(a)
OUTPUT(z)
z = NOT(y)
y = BUF(a)
)";
  const Circuit c = parse_bench(text, "fwd");
  EXPECT_EQ(c.gate_count(), 3u);
  // Topological order: y must precede z.
  EXPECT_LT(*c.find("y"), *c.find("z"));
}

TEST(BenchIo, RoundTripPreservesStructure) {
  for (const auto& name : combinational_library_names()) {
    const Circuit original = combinational_library(name);
    const Circuit reparsed = parse_bench(write_bench(original), original.name());
    EXPECT_EQ(reparsed.input_count(), original.input_count()) << name;
    EXPECT_EQ(reparsed.output_count(), original.output_count()) << name;
    EXPECT_EQ(reparsed.gate_count(), original.gate_count()) << name;
  }
}

TEST(BenchIo, RejectsSequentialElements) {
  const std::string text = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
  EXPECT_THROW((void)parse_bench(text, "seq"), contract_error);
}

/// Parses `text`, expecting Error{kInvalidInput} whose message carries
/// `fragment`: the offending line number plus a diagnostic.
void expect_bench_error(const std::string& text, const std::string& fragment) {
  try {
    (void)parse_bench(text, "bad");
    FAIL() << "expected a parse error containing '" << fragment << "'";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message '" << e.what() << "' lacks '" << fragment << "'";
  }
}

TEST(BenchIo, RejectsUndefinedSignals) {
  // The line is the gate that uses the undefined signal.
  expect_bench_error("INPUT(a)\nOUTPUT(z)\nz = NOT(ghost)\n",
                     "line 3: signal 'ghost'");
  expect_bench_error(
      "INPUT(a)\nOUTPUT(z)\n\nz = AND(a, m)\nm = OR(a, ghost)\n",
      "line 5: signal 'ghost'");
  // An OUTPUT nothing drives names its declaration line.
  expect_bench_error("INPUT(a)\nOUTPUT(z)\nOUTPUT(w)\nz = NOT(a)\n",
                     "line 3: OUTPUT 'w'");
}

TEST(BenchIo, RejectsCycles) {
  // The line is the definition of the gate the cycle closes on.
  expect_bench_error("INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUF(x)\n",
                     "line 3: combinational cycle through 'x'");
  expect_bench_error("INPUT(a)\nOUTPUT(z)\nz = NOT(p)\np = AND(a, q)\n"
                     "q = BUF(p)\n",
                     "line 4: combinational cycle through 'p'");
}

TEST(BenchIo, RejectsDuplicateDefinitions) {
  const std::string text =
      "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUF(a)\n";
  EXPECT_THROW((void)parse_bench(text, "dup"), contract_error);
}

TEST(BenchIo, MalformedFixtureTable) {
  struct Fixture {
    const char* label;
    const char* text;
    const char* fragment;
  };
  const Fixture fixtures[] = {
      {"dup_input", "INPUT(a)\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
       "line 2: INPUT 'a' declared twice"},
      {"dup_output", "INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n",
       "line 3: OUTPUT 'z' declared twice"},
      {"trailing_text", "INPUT(a) junk\nOUTPUT(z)\nz = NOT(a)\n",
       "line 1: unexpected text 'junk' after ')'"},
      {"empty_operand", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a,,b)\n",
       "line 4: empty operand"},
      {"unknown_gate", "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n",
       "line 3: unknown gate type 'FROB'"},
      {"input_and_gate", "INPUT(a)\nINPUT(z)\nOUTPUT(z)\nz = NOT(a)\n",
       "line 4: signal 'z' is both INPUT and gate output"},
  };
  for (const Fixture& f : fixtures) {
    SCOPED_TRACE(f.label);
    expect_bench_error(f.text, f.fragment);
  }
}

TEST(BenchIo, ErrorsCarryLineNumbers) {
  const std::string text = "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n";
  try {
    (void)parse_bench(text, "frob");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// --- Reachability ---------------------------------------------------------

/// Number of enumerated bridging faults between the gates named `a` and
/// `b`: 4 for a non-feedback pair, 0 when a path joins them.
std::size_t bridges_between(const Circuit& c, const std::string& a,
                            const std::string& b) {
  const GateId x = *c.find(a);
  const GateId y = *c.find(b);
  std::size_t count = 0;
  for (const BridgingFault& f : enumerate_four_way_bridging(c))
    if ((f.victim == x && f.aggressor == y) ||
        (f.victim == y && f.aggressor == x))
      ++count;
  return count;
}

TEST(Reach, PaperExampleIndependence) {
  // The three multi-input gates of Figure 1 share inputs but no path.
  const Circuit c = paper_example();
  EXPECT_EQ(bridges_between(c, "9", "10"), 4u);
  EXPECT_EQ(bridges_between(c, "9", "11"), 4u);
  EXPECT_EQ(bridges_between(c, "10", "11"), 4u);
}

TEST(Reach, TransitivePaths) {
  const Circuit c = c17();
  // In c17, 11 = NAND(3,6) feeds 16 and 19, which feed 22 and 23: 16 -> 22
  // is a direct edge and 11 -> 22 a two-hop path, so neither pair bridges.
  EXPECT_EQ(bridges_between(c, "16", "22"), 0u);
  EXPECT_EQ(bridges_between(c, "11", "22"), 0u);
  EXPECT_EQ(bridges_between(c, "10", "19"), 4u);
}

// --- Random generator ----------------------------------------------------

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, StructuralInvariants) {
  GeneratorConfig config;
  config.num_inputs = 5;
  config.num_gates = 40;
  config.num_outputs = 4;
  const Circuit c = generate_random_circuit(config, GetParam());
  EXPECT_EQ(c.input_count(), 5u);
  EXPECT_GE(c.output_count(), 4u);
  // Topological order is enforced by construction; every non-output gate
  // must have at least one fanout (no dead logic).
  for (GateId g = 0; g < c.gate_count(); ++g) {
    const Gate& gate = c.gate(g);
    for (const GateId fi : gate.fanins) EXPECT_LT(fi, g);
    if (gate.type != GateType::kInput && !c.is_output(g)) {
      EXPECT_FALSE(gate.fanouts.empty());
    }
  }
}

TEST_P(GeneratorProperty, DeterministicInSeed) {
  GeneratorConfig config;
  const Circuit a = generate_random_circuit(config, GetParam());
  const Circuit b = generate_random_circuit(config, GetParam());
  EXPECT_EQ(write_bench(a), write_bench(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

TEST(Generator, RejectsBadConfig) {
  GeneratorConfig config;
  config.num_inputs = 0;
  EXPECT_THROW((void)generate_random_circuit(config, 1), contract_error);
  config = GeneratorConfig{};
  config.max_fanin = 1;
  EXPECT_THROW((void)generate_random_circuit(config, 1), contract_error);
}

// --- Library and stats ----------------------------------------------------

TEST(Library, AllCircuitsBuildAndAreSane) {
  for (const auto& name : combinational_library_names()) {
    const Circuit c = combinational_library(name);
    EXPECT_GE(c.input_count(), 1u) << name;
    EXPECT_GE(c.output_count(), 1u) << name;
    EXPECT_LE(c.input_count(), 17u) << name;  // exhaustive budget
  }
  EXPECT_THROW((void)combinational_library("nope"), contract_error);
}

TEST(Library, AdderHasExpectedInterface) {
  const Circuit c = ripple_adder(3);
  EXPECT_EQ(c.input_count(), 7u);   // a0..2, b0..2, cin
  EXPECT_EQ(c.output_count(), 4u);  // s0..2, cout
  EXPECT_THROW((void)ripple_adder(0), contract_error);
  EXPECT_THROW((void)ripple_adder(9), contract_error);
}

TEST(Stats, CountsPaperExample) {
  const CircuitStats stats = compute_stats(paper_example());
  EXPECT_EQ(stats.inputs, 4u);
  EXPECT_EQ(stats.outputs, 3u);
  EXPECT_EQ(stats.gates, 3u);
  EXPECT_EQ(stats.lines, 11u);
  EXPECT_EQ(stats.branches, 4u);
  EXPECT_EQ(stats.multi_input_gates, 3u);
  EXPECT_EQ(stats.gates_by_type.at("and"), 2u);
  EXPECT_EQ(stats.gates_by_type.at("or"), 1u);
  EXPECT_FALSE(to_string(stats).empty());
}

}  // namespace
}  // namespace ndet
