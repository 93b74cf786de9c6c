// reference_test.cpp -- randomized cross-validation of the production
// bit-parallel simulator and both fault models against the naive reference
// implementation, over random circuits and the embedded library.

#include <gtest/gtest.h>

#include "faults/bridging.hpp"
#include "faults/stuck_at.hpp"
#include "netlist/generator.hpp"
#include "netlist/library.hpp"
#include "sim/exhaustive.hpp"
#include "sim/fault_sim.hpp"
#include "sim/reference.hpp"
#include "util/rng.hpp"

namespace ndet {
namespace {

/// Cross-validates everything computable about one circuit against the
/// reference path, sampling vectors and faults with the given seed.
void cross_validate(const Circuit& circuit, std::uint64_t seed) {
  const LineModel lines(circuit);
  const ExhaustiveSimulator sim(circuit);
  const FaultSimulator fsim(sim, lines);
  Rng rng(seed);

  const auto sample_vector = [&] {
    return rng.below(circuit.vector_space_size());
  };

  // 1. Fault-free values, all gates, sampled vectors.
  for (int trial = 0; trial < 16; ++trial) {
    const std::uint64_t v = sample_vector();
    const std::vector<bool> reference = reference_good_values(circuit, v);
    for (GateId g = 0; g < circuit.gate_count(); ++g)
      ASSERT_EQ(sim.good_value(g, v), reference[g])
          << circuit.name() << " gate " << circuit.gate(g).name << " v=" << v;
  }

  // 2. Stuck-at detection sets vs per-vector reference detection.
  const auto faults = collapse_stuck_at_faults(lines);
  for (int trial = 0; trial < 48; ++trial) {
    const auto& fault = faults[rng.below(faults.size())];
    const std::uint64_t v = sample_vector();
    ASSERT_EQ(fsim.detection_set(fault).test(v),
              reference_detects(lines, fault, v))
        << circuit.name() << " fault " << to_string(fault, lines)
        << " v=" << v;
  }

  // 3. Bridging detection sets vs per-vector reference detection.
  const auto bridges = enumerate_four_way_bridging(circuit);
  for (int trial = 0; trial < 48 && !bridges.empty(); ++trial) {
    const auto& fault = bridges[rng.below(bridges.size())];
    const std::uint64_t v = sample_vector();
    ASSERT_EQ(fsim.detection_set(fault).test(v),
              reference_detects(circuit, fault, v))
        << circuit.name() << " fault " << to_string(fault, circuit)
        << " v=" << v;
  }
}

class RandomCircuitCrossValidation
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuitCrossValidation, ProductionMatchesReference) {
  GeneratorConfig config;
  config.num_inputs = 6;
  config.num_gates = 40;
  config.num_outputs = 5;
  cross_validate(generate_random_circuit(config, GetParam()),
                 GetParam() * 31 + 7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitCrossValidation,
                         ::testing::Range<std::uint64_t>(1, 13));

class DeepRandomCircuitCrossValidation
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeepRandomCircuitCrossValidation, ProductionMatchesReference) {
  GeneratorConfig config;
  config.num_inputs = 9;
  config.num_gates = 120;
  config.num_outputs = 8;
  config.max_fanin = 4;
  config.inverter_fraction = 0.35;
  cross_validate(generate_random_circuit(config, GetParam()),
                 GetParam() * 53 + 11);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepRandomCircuitCrossValidation,
                         ::testing::Range<std::uint64_t>(100, 106));

class LibraryCrossValidation : public ::testing::TestWithParam<const char*> {};

TEST_P(LibraryCrossValidation, ProductionMatchesReference) {
  cross_validate(combinational_library(GetParam()), 2005);
}

INSTANTIATE_TEST_SUITE_P(Library, LibraryCrossValidation,
                         ::testing::Values("paper_example", "c17", "adder3",
                                           "mux4", "parity8", "majority3",
                                           "decoder2x4", "comparator2",
                                           "alu2"));

TEST(Reference, StemFaultOverridesOutputEvenWhenInputsAgree) {
  // Sanity of the reference itself: stuck value equal to the good value is
  // not a detection.
  const Circuit c = paper_example();
  const LineModel lines(c);
  // Gate "9" is 1 at v=12; 9/1 must not be detected there.
  EXPECT_FALSE(reference_detects(lines, StuckAtFault{8, true}, 12));
  EXPECT_TRUE(reference_detects(lines, StuckAtFault{8, false}, 12));
}

TEST(Reference, BridgingUsesFaultFreeAggressorValue) {
  // g0 = (9,0,10,1): at v=6 the aggressor 10 is 1 and the victim 9 is 0;
  // the reference must flip the victim and detect at output 9.
  const Circuit c = paper_example();
  const BridgingFault g0{*c.find("9"), false, *c.find("10"), true};
  EXPECT_TRUE(reference_detects(c, g0, 6));
  EXPECT_FALSE(reference_detects(c, g0, 0));
}

}  // namespace
}  // namespace ndet
