// logic_test.cpp -- gate evaluation in two-valued and three-valued logic.

#include <gtest/gtest.h>

#include <array>

#include "logic/eval.hpp"
#include "logic/gate_type.hpp"
#include "logic/ternary.hpp"
#include "util/check.hpp"

namespace ndet {
namespace {

TEST(GateType, RoundTripNames) {
  for (const GateType t :
       {GateType::kInput, GateType::kBuf, GateType::kNot, GateType::kAnd,
        GateType::kNand, GateType::kOr, GateType::kNor, GateType::kXor,
        GateType::kXnor, GateType::kConst0, GateType::kConst1}) {
    EXPECT_EQ(parse_gate_type(to_string(t)), t);
  }
}

TEST(GateType, ParseAliasesAndCase) {
  EXPECT_EQ(parse_gate_type("NAND"), GateType::kNand);
  EXPECT_EQ(parse_gate_type("Inv"), GateType::kNot);
  EXPECT_EQ(parse_gate_type("BUFF"), GateType::kBuf);
  EXPECT_EQ(parse_gate_type("vdd"), GateType::kConst1);
  EXPECT_THROW(parse_gate_type("majority"), contract_error);
}

TEST(GateType, MultiInputClassification) {
  EXPECT_TRUE(is_multi_input(GateType::kAnd));
  EXPECT_TRUE(is_multi_input(GateType::kNor));
  EXPECT_TRUE(is_multi_input(GateType::kXnor));
  EXPECT_FALSE(is_multi_input(GateType::kNot));
  EXPECT_FALSE(is_multi_input(GateType::kInput));
  EXPECT_FALSE(is_multi_input(GateType::kConst1));
}

TEST(GateType, InversionFlags) {
  EXPECT_TRUE(is_inverting(GateType::kNand));
  EXPECT_TRUE(is_inverting(GateType::kNor));
  EXPECT_TRUE(is_inverting(GateType::kXnor));
  EXPECT_TRUE(is_inverting(GateType::kNot));
  EXPECT_FALSE(is_inverting(GateType::kAnd));
  EXPECT_FALSE(is_inverting(GateType::kBuf));
}

// Truth-table check of the word evaluator against a scalar model, for every
// gate type and every 2-input combination.
struct TruthCase {
  GateType type;
  bool expected[4];  // f(00), f(01), f(10), f(11) with (a,b)
};

class TwoInputTruth : public ::testing::TestWithParam<TruthCase> {};

TEST_P(TwoInputTruth, MatchesTable) {
  const TruthCase& c = GetParam();
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const std::uint64_t wa = a ? ~0ull : 0ull;
      const std::uint64_t wb = b ? ~0ull : 0ull;
      const std::array<std::uint64_t, 2> fanins{wa, wb};
      const std::uint64_t out = eval_gate_words(c.type, fanins);
      const bool expected = c.expected[a * 2 + b];
      EXPECT_EQ(out, expected ? ~0ull : 0ull)
          << to_string(c.type) << "(" << a << "," << b << ")";
      const std::array<bool, 2> scalar{a != 0, b != 0};
      EXPECT_EQ(eval_gate_scalar(c.type, scalar), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, TwoInputTruth,
    ::testing::Values(
        TruthCase{GateType::kAnd, {false, false, false, true}},
        TruthCase{GateType::kNand, {true, true, true, false}},
        TruthCase{GateType::kOr, {false, true, true, true}},
        TruthCase{GateType::kNor, {true, false, false, false}},
        TruthCase{GateType::kXor, {false, true, true, false}},
        TruthCase{GateType::kXnor, {true, false, false, true}}));

TEST(Eval, BufAndNot) {
  const std::array<std::uint64_t, 1> low{0x0123456789abcdefull};
  EXPECT_EQ(eval_gate_words(GateType::kBuf, low), 0x0123456789abcdefull);
  EXPECT_EQ(eval_gate_words(GateType::kNot, low), ~0x0123456789abcdefull);
}

TEST(Eval, WideGates) {
  const std::array<std::uint64_t, 4> fanins{~0ull, ~0ull, ~0ull, 0b1010ull};
  EXPECT_EQ(eval_gate_words(GateType::kAnd, fanins), 0b1010ull);
  EXPECT_EQ(eval_gate_words(GateType::kOr, fanins), ~0ull);
  EXPECT_EQ(eval_gate_words(GateType::kXor, fanins), ~0b1010ull);
}

TEST(Eval, MixedBitsStayIndependent) {
  // Each bit lane must evaluate independently.
  const std::array<std::uint64_t, 2> fanins{0b1100ull, 0b1010ull};
  EXPECT_EQ(eval_gate_words(GateType::kAnd, fanins) & 0xFull, 0b1000ull);
  EXPECT_EQ(eval_gate_words(GateType::kOr, fanins) & 0xFull, 0b1110ull);
  EXPECT_EQ(eval_gate_words(GateType::kXor, fanins) & 0xFull, 0b0110ull);
}

TEST(Eval, WrongFaninCountThrows) {
  const std::array<std::uint64_t, 1> one{0};
  EXPECT_THROW((void)eval_gate_words(GateType::kAnd, one), contract_error);
  EXPECT_THROW((void)eval_gate_words(GateType::kInput, one), contract_error);
}

// --- Ternary logic -------------------------------------------------------

TEST(Ternary, Names) {
  EXPECT_EQ(to_string(Ternary::kZero), "0");
  EXPECT_EQ(to_string(Ternary::kOne), "1");
  EXPECT_EQ(to_string(Ternary::kX), "X");
}

TEST(Ternary, ControllingValueDecidesDespiteX) {
  const std::array<Ternary, 2> and_case{Ternary::kZero, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kAnd, and_case), Ternary::kZero);
  EXPECT_EQ(eval_gate_ternary(GateType::kNand, and_case), Ternary::kOne);
  const std::array<Ternary, 2> or_case{Ternary::kOne, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kOr, or_case), Ternary::kOne);
  EXPECT_EQ(eval_gate_ternary(GateType::kNor, or_case), Ternary::kZero);
}

TEST(Ternary, NonControllingXStaysX) {
  const std::array<Ternary, 2> and_case{Ternary::kOne, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kAnd, and_case), Ternary::kX);
  const std::array<Ternary, 2> or_case{Ternary::kZero, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kOr, or_case), Ternary::kX);
  const std::array<Ternary, 2> xor_case{Ternary::kOne, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kXor, xor_case), Ternary::kX);
}

TEST(Ternary, InverterTable) {
  EXPECT_EQ(eval_gate_ternary(GateType::kNot, std::array{Ternary::kZero}),
            Ternary::kOne);
  EXPECT_EQ(eval_gate_ternary(GateType::kNot, std::array{Ternary::kOne}),
            Ternary::kZero);
  EXPECT_EQ(eval_gate_ternary(GateType::kNot, std::array{Ternary::kX}),
            Ternary::kX);
}

TEST(Ternary, WrongFaninCountThrows) {
  const std::array<Ternary, 1> single{Ternary::kOne};
  EXPECT_THROW((void)eval_gate_ternary(GateType::kAnd, single), contract_error);
  EXPECT_THROW((void)eval_gate_ternary(GateType::kNot, std::span<const Ternary>{}),
               contract_error);
  EXPECT_THROW((void)eval_gate_ternary(GateType::kInput, single),
               contract_error);
}

// Property: on fully binary inputs, ternary evaluation agrees with the
// two-valued evaluator for every gate type and every input combination.
class TernaryBinaryAgreement : public ::testing::TestWithParam<GateType> {};

TEST_P(TernaryBinaryAgreement, MatchesBinaryEval) {
  const GateType type = GetParam();
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int c = 0; c < 2; ++c) {
        const std::array<Ternary, 3> tern{ternary_of(a != 0), ternary_of(b != 0),
                                          ternary_of(c != 0)};
        const std::array<bool, 3> bits{a != 0, b != 0, c != 0};
        EXPECT_EQ(eval_gate_ternary(type, tern),
                  ternary_of(eval_gate_scalar(type, bits)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMultiInput, TernaryBinaryAgreement,
                         ::testing::Values(GateType::kAnd, GateType::kNand,
                                           GateType::kOr, GateType::kNor,
                                           GateType::kXor, GateType::kXnor));

// Property: ternary evaluation is *consistent*: if the output is binary with
// some X inputs, then every completion of the X inputs yields that value.
class TernaryConsistency : public ::testing::TestWithParam<GateType> {};

TEST_P(TernaryConsistency, BinaryOutputsAreCompletionInvariant) {
  const GateType type = GetParam();
  // Enumerate all 3^3 ternary fanin combinations.
  const std::array<Ternary, 3> values{Ternary::kZero, Ternary::kOne,
                                      Ternary::kX};
  for (const Ternary a : values) {
    for (const Ternary b : values) {
      for (const Ternary c : values) {
        const std::array<Ternary, 3> fanins{a, b, c};
        const Ternary out = eval_gate_ternary(type, fanins);
        if (!is_binary(out)) continue;
        // All completions must agree with `out`.
        for (int bits = 0; bits < 8; ++bits) {
          std::array<bool, 3> completion{};
          bool valid = true;
          for (int i = 0; i < 3; ++i) {
            const bool bit = (bits >> i) & 1;
            if (is_binary(fanins[static_cast<std::size_t>(i)]) &&
                ternary_of(bit) != fanins[static_cast<std::size_t>(i)]) {
              valid = false;
              break;
            }
            completion[static_cast<std::size_t>(i)] = bit;
          }
          if (!valid) continue;
          EXPECT_EQ(ternary_of(eval_gate_scalar(type, completion)), out)
              << to_string(type);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMultiInput, TernaryConsistency,
                         ::testing::Values(GateType::kAnd, GateType::kNand,
                                           GateType::kOr, GateType::kNor,
                                           GateType::kXor, GateType::kXnor));

}  // namespace
}  // namespace ndet
