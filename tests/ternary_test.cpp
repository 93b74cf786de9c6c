// ternary_test.cpp -- three-valued simulation and the Definition-2
// similarity oracle.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "faults/stuck_at.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "sim/exhaustive.hpp"
#include "sim/fault_sim.hpp"
#include "sim/ternary_sim.hpp"
#include "test_util.hpp"

namespace ndet {
namespace {

using testing::find_fault;

std::vector<Ternary> fully_specified(const Circuit& c, std::uint64_t v) {
  std::vector<Ternary> inputs(c.input_count());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    inputs[i] = ternary_of(((v >> (c.input_count() - 1 - i)) & 1u) != 0);
  return inputs;
}

TEST(TernarySim, FullySpecifiedMatchesBinarySimulation) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  const ExhaustiveSimulator sim(c);
  for (std::uint64_t v = 0; v < 16; ++v) {
    const auto values = tsim.good_values(fully_specified(c, v));
    for (GateId g = 0; g < c.gate_count(); ++g) {
      ASSERT_TRUE(is_binary(values[g]));
      EXPECT_EQ(values[g] == Ternary::kOne, sim.good_value(g, v))
          << "v=" << v << " gate=" << c.gate(g).name;
    }
  }
}

TEST(TernarySim, XPropagatesOnlyWhereUnresolved) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  // inputs (X,1,1,X): 9 = X&1 = X; 10 = 1&1 = 1; 11 = 1|X = 1.
  const std::vector<Ternary> inputs{Ternary::kX, Ternary::kOne, Ternary::kOne,
                                    Ternary::kX};
  const auto values = tsim.good_values(inputs);
  EXPECT_EQ(values[*c.find("9")], Ternary::kX);
  EXPECT_EQ(values[*c.find("10")], Ternary::kOne);
  EXPECT_EQ(values[*c.find("11")], Ternary::kOne);
}

// Soundness of pessimistic 3-valued detection: if the partial vector
// definitely detects the fault, EVERY completion must detect it.
TEST(TernarySim, DefiniteDetectionHoldsForAllCompletions) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const auto faults = collapse_stuck_at_faults(lines);
  const auto sets = fsim.detection_sets(faults);

  // Enumerate all 3^4 partial input vectors.
  const Ternary vals[3] = {Ternary::kZero, Ternary::kOne, Ternary::kX};
  for (int code = 0; code < 81; ++code) {
    std::vector<Ternary> inputs(4);
    int rem = code;
    for (int i = 0; i < 4; ++i) {
      inputs[static_cast<std::size_t>(i)] = vals[rem % 3];
      rem /= 3;
    }
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (!tsim.detects(faults[fi], inputs)) continue;
      // Every completion must be in T(f).
      for (std::uint64_t v = 0; v < 16; ++v) {
        bool compatible = true;
        for (std::size_t i = 0; i < 4 && compatible; ++i) {
          if (inputs[i] == Ternary::kX) continue;
          const bool bit = ((v >> (3 - i)) & 1u) != 0;
          compatible = (inputs[i] == ternary_of(bit));
        }
        if (compatible) {
          EXPECT_TRUE(sets[fi].test(v))
              << "fault " << fi << " code " << code << " completion " << v;
        }
      }
    }
  }
}

TEST(TernarySim, CommonVectorKeepsAgreedBits) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  // t1 = 6 = 0110, t2 = 12 = 1100: agreement pattern (X,1,X,0).
  const auto tij = tsim.common_vector(6, 12);
  ASSERT_EQ(tij.size(), 4u);
  EXPECT_EQ(tij[0], Ternary::kX);
  EXPECT_EQ(tij[1], Ternary::kOne);
  EXPECT_EQ(tij[2], Ternary::kX);
  EXPECT_EQ(tij[3], Ternary::kZero);
  // Identical tests agree everywhere.
  const auto same = tsim.common_vector(9, 9);
  for (const Ternary t : same) EXPECT_TRUE(is_binary(t));
}

// --- Definition 2 oracle ----------------------------------------------------

class Def2Fixture : public ::testing::Test {
 protected:
  Def2Fixture()
      : circuit_(paper_example()),
        lines_(circuit_),
        faults_(collapse_stuck_at_faults(lines_)),
        program_(lines_, faults_),
        oracle_(program_) {}

  Circuit circuit_;
  LineModel lines_;
  std::vector<StuckAtFault> faults_;
  Def2Program program_;
  Def2Oracle oracle_;
};

TEST_F(Def2Fixture, SameTestIsNeverDistinct) {
  const int f0 = find_fault(faults_, 0, true);
  ASSERT_GE(f0, 0);
  EXPECT_FALSE(oracle_.distinct(static_cast<std::size_t>(f0), 6, 6));
}

TEST_F(Def2Fixture, AllTestsOfFault0AreSimilar) {
  // f0 = 1/1 with T = {4,5,6,7}: all tests share b1=0, b2=1, which alone
  // detect the fault, so no pair counts as two detections.
  const auto f0 = static_cast<std::size_t>(find_fault(faults_, 0, true));
  const std::vector<std::uint64_t> tests{4, 5, 6, 7};
  for (const auto t1 : tests) {
    for (const auto t2 : tests) {
      if (t1 != t2) {
        EXPECT_FALSE(oracle_.distinct(f0, t1, t2)) << t1 << "," << t2;
      }
    }
  }
}

TEST_F(Def2Fixture, Fault2_0HasDistinctAndSimilarPairs) {
  // f1 = 2/0 with T = {6,7,12,13,14,15}: tests 6 and 7 share the detecting
  // core (b2=1, b3=1 through gate 10) -> similar; tests 6 and 12 agree only
  // on b2=1, b4=0, which does not detect -> distinct.
  const auto f1 = static_cast<std::size_t>(find_fault(faults_, 1, false));
  EXPECT_FALSE(oracle_.distinct(f1, 6, 7));
  EXPECT_TRUE(oracle_.distinct(f1, 6, 12));
  EXPECT_TRUE(oracle_.distinct(f1, 7, 12));
  EXPECT_FALSE(oracle_.distinct(f1, 12, 13));
}

TEST_F(Def2Fixture, DistinctIsSymmetric) {
  const auto f1 = static_cast<std::size_t>(find_fault(faults_, 1, false));
  for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{6, 12},
                            {6, 7},
                            {13, 14},
                            {12, 15}}) {
    EXPECT_EQ(oracle_.distinct(f1, a, b), oracle_.distinct(f1, b, a))
        << a << "," << b;
  }
}

TEST_F(Def2Fixture, DefinitionTwoIsStricterThanDefinitionOne) {
  // Any two *distinct* tests are one Def-1 detection each; under Def-2 the
  // pair counts as two detections only when the oracle says so.  Hence the
  // greedy Def-2 count over any test list is at most the Def-1 count.
  const ExhaustiveSimulator sim(circuit_);
  const FaultSimulator fsim(sim, lines_);
  for (std::size_t fi = 0; fi < faults_.size(); ++fi) {
    const auto tests = testing::to_vector(fsim.detection_set(faults_[fi]));
    std::vector<std::uint64_t> counted;
    for (const auto t : tests) {
      bool distinct_from_all = true;
      for (const auto s : counted)
        if (!oracle_.distinct(fi, s, t)) {
          distinct_from_all = false;
          break;
        }
      if (distinct_from_all) counted.push_back(t);
    }
    EXPECT_LE(counted.size(), tests.size());
    if (!tests.empty()) {
      EXPECT_GE(counted.size(), 1u);
    }
  }
}

TEST_F(Def2Fixture, BadFaultIndexThrows) {
  EXPECT_THROW((void)oracle_.distinct(faults_.size(), 0, 1), contract_error);
  const std::uint64_t t = 0;
  EXPECT_THROW((void)oracle_.detect_lanes(faults_.size(), &t, &t, 1),
               contract_error);
}

TEST_F(Def2Fixture, LaneCountOutsideOneTo64Throws) {
  const std::vector<std::uint64_t> tests(65, 3);
  EXPECT_THROW((void)oracle_.detect_lanes(0, tests.data(), tests.data(), 0),
               contract_error);
  EXPECT_THROW((void)oracle_.detect_lanes(0, tests.data(), tests.data(), 65),
               contract_error);
}

// --- Word-parallel kernel vs the scalar reference ---------------------------

/// The (t1, t2) pairs a kernel check runs.
struct Pairs {
  /// Every ordered pair over the circuit's vector space, t1-major.
  static Pairs all(const Circuit& c) {
    Pairs pairs;
    const std::uint64_t space = c.vector_space_size();
    for (std::uint64_t t1 = 0; t1 < space; ++t1)
      for (std::uint64_t t2 = 0; t2 < space; ++t2) pairs.add(t1, t2);
    return pairs;
  }

  /// `count` pseudo-random pairs, every eighth one with t1 == t2.
  static Pairs sample(const Circuit& c, std::size_t count) {
    Pairs pairs;
    const std::uint64_t space = c.vector_space_size();
    std::uint64_t x = 88172645463325252ull;
    const auto next = [&] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x % space;
    };
    for (std::size_t p = 0; p < count; ++p) {
      const std::uint64_t t1 = next();
      pairs.add(t1, p % 8 == 0 ? t1 : next());
    }
    return pairs;
  }

  void add(std::uint64_t t1, std::uint64_t t2) {
    ts.push_back(t1);
    ss.push_back(t2);
  }

  std::vector<std::uint64_t> ts, ss;
};

/// For every fault (uncollapsed, so every branch line is covered) and every
/// pair, the kernel's lane must be set exactly when the scalar simulator
/// detects the fault under common_vector(t1, t2) -- i.e. the lane's
/// "distinct" verdict is !detects.  Pairs go through detect_pairs in calls
/// of `lanes` pairs, so 65 exercises the 64-lane chunking.  Pairs with
/// t1 == t2 simulate the fully specified vector; distinct() itself never
/// calls them distinct.
void expect_kernel_matches_reference(const Circuit& c, const Pairs& pairs,
                                     std::initializer_list<std::size_t> lanes) {
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  const auto faults = all_stuck_at_faults(lines);
  const Def2Program program(lines, faults);
  Def2Oracle oracle(program);
  std::vector<std::vector<bool>> reference(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi)
    for (std::size_t p = 0; p < pairs.ts.size(); ++p)
      reference[fi].push_back(tsim.detects(
          faults[fi], tsim.common_vector(pairs.ts[p], pairs.ss[p])));

  for (const std::size_t width : lanes) {
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      for (std::size_t first = 0; first < pairs.ts.size(); first += width) {
        const std::size_t count = std::min(width, pairs.ts.size() - first);
        std::vector<std::uint64_t> detected((count + 63) / 64, ~std::uint64_t{0});
        oracle.detect_pairs(
            fi, std::span<const std::uint64_t>(pairs.ts).subspan(first, count),
            std::span<const std::uint64_t>(pairs.ss).subspan(first, count),
            detected);
        for (std::size_t l = 0; l < count; ++l) {
          const std::size_t p = first + l;
          const bool lane = ((detected[l / 64] >> (l % 64)) & 1u) != 0;
          ASSERT_EQ(lane, reference[fi][p])
              << c.name() << " width=" << width << " fault "
              << to_string(faults[fi], lines) << " t1=" << pairs.ts[p]
              << " t2=" << pairs.ss[p];
          if (pairs.ts[p] == pairs.ss[p]) {
            ASSERT_FALSE(oracle.distinct(fi, pairs.ts[p], pairs.ss[p]));
          }
        }
        // Bits past the last lane of the final word stay clear.
        if (count % 64 != 0) {
          ASSERT_EQ(detected.back() >> (count % 64), 0u);
        }
      }
    }
  }
}

TEST(Def2Kernel, MatchesScalarReferenceOnPaperExampleAtEveryLaneCount) {
  const Circuit c = paper_example();
  expect_kernel_matches_reference(c, Pairs::all(c), {1, 63, 64, 65});
}

TEST(Def2Kernel, MatchesScalarReferenceOnFsmCircuit) {
  const Circuit c = fsm_benchmark_circuit("lion");
  expect_kernel_matches_reference(c, Pairs::all(c), {64, 65});
}

TEST(Def2Kernel, MatchesScalarReferenceBeyondEightInputs) {
  // opus has 9 inputs, so the lane transpose spans two 8-bit blocks.
  const Circuit c = fsm_benchmark_circuit("opus");
  ASSERT_GT(c.input_count(), 8u);
  expect_kernel_matches_reference(c, Pairs::sample(c, 130), {64, 65});
}

/// a feeds both slots of g = AND(a, a), so a's stem branches into two
/// lines that enter the same sink.  A branch fault must override exactly
/// its own slot.  The rest of the circuit covers every other gate type and
/// a constant.
Circuit same_driver_twice() {
  CircuitBuilder b("and_a_a");
  const GateId a = b.add_input("a");
  const GateId in_b = b.add_input("b");
  const GateId in_c = b.add_input("c");
  const GateId zero = b.add_const(false, "zero");
  const GateId g = b.add_gate(GateType::kAnd, "g", {a, a});
  const GateId n = b.add_gate(GateType::kNand, "n", {g, in_b});
  const GateId x = b.add_gate(GateType::kXnor, "x", {n, in_c});
  const GateId o = b.add_gate(GateType::kNor, "o", {x, zero});
  const GateId buf = b.add_gate(GateType::kBuf, "buf", {g});
  const GateId inv = b.add_gate(GateType::kNot, "inv", {in_c});
  const GateId orr = b.add_gate(GateType::kOr, "orr", {buf, inv});
  const GateId w = b.add_gate(GateType::kXor, "w", {orr, in_b});
  b.mark_output(o);
  b.mark_output(w);
  return b.build();
}

TEST(Def2Kernel, MatchesScalarReferenceWhenADriverFeedsTwoSlots) {
  const Circuit c = same_driver_twice();
  expect_kernel_matches_reference(c, Pairs::all(c), {1, 63, 64, 65});
}

TEST(Def2Kernel, BranchFaultOverridesOnlyItsOwnSlot) {
  const Circuit c = same_driver_twice();
  const LineModel lines(c);
  const GateId g = *c.find("g");
  const LineId slot0 = lines.line_for_connection(g, 0);
  ASSERT_EQ(lines.line(slot0).kind, LineKind::kBranch);
  ASSERT_NE(slot0, lines.line_for_connection(g, 1));
  const std::vector<StuckAtFault> faults{{slot0, true}, {slot0, false}};
  const Def2Program program(lines, faults);
  Def2Oracle oracle(program);
  const std::uint64_t space = c.vector_space_size();
  const TernarySimulator tsim(lines);
  for (std::uint64_t t = 0; t < space; ++t) {
    const bool a = ((t >> 2) & 1u) != 0;
    // s-a-1 on one slot: g = AND(1, a) = a, never observable.
    EXPECT_EQ(oracle.detect_lanes(0, &t, &t, 1), 0u) << "t=" << t;
    // s-a-0 on one slot: g = 0, which differs from the good g = a only
    // when a = 1; the kernel must agree with the scalar simulator there.
    EXPECT_EQ(oracle.detect_lanes(1, &t, &t, 1) != 0,
              tsim.detects(faults[1], tsim.common_vector(t, t)))
        << "t=" << t;
    if (!a) {
      EXPECT_EQ(oracle.detect_lanes(1, &t, &t, 1), 0u) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace ndet
