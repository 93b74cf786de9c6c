#include "logic/ternary.hpp"

#include "util/check.hpp"

namespace ndet {

std::string to_string(Ternary value) {
  switch (value) {
    case Ternary::kZero: return "0";
    case Ternary::kOne: return "1";
    case Ternary::kX: return "X";
  }
  throw contract_error("to_string: invalid Ternary");
}

namespace {

Ternary invert(Ternary v) {
  if (v == Ternary::kZero) return Ternary::kOne;
  if (v == Ternary::kOne) return Ternary::kZero;
  return Ternary::kX;
}

}  // namespace

Ternary eval_gate_ternary(GateType type, std::span<const Ternary> fanins) {
  if (fanins.size() < static_cast<std::size_t>(min_fanin(type)) ||
      min_fanin(type) < 1) {
    throw contract_error("eval_gate_ternary: wrong fanin count for " +
                         to_string(type));
  }
  switch (type) {
    case GateType::kBuf:
      return fanins[0];
    case GateType::kNot:
      return invert(fanins[0]);
    case GateType::kAnd:
    case GateType::kNand: {
      bool any_x = false;
      for (const Ternary v : fanins) {
        if (v == Ternary::kZero)
          return type == GateType::kNand ? Ternary::kOne : Ternary::kZero;
        any_x |= (v == Ternary::kX);
      }
      if (any_x) return Ternary::kX;
      return type == GateType::kNand ? Ternary::kZero : Ternary::kOne;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool any_x = false;
      for (const Ternary v : fanins) {
        if (v == Ternary::kOne)
          return type == GateType::kNor ? Ternary::kZero : Ternary::kOne;
        any_x |= (v == Ternary::kX);
      }
      if (any_x) return Ternary::kX;
      return type == GateType::kNor ? Ternary::kOne : Ternary::kZero;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool parity = false;
      for (const Ternary v : fanins) {
        if (v == Ternary::kX) return Ternary::kX;
        parity ^= (v == Ternary::kOne);
      }
      if (type == GateType::kXnor) parity = !parity;
      return ternary_of(parity);
    }
    default:
      throw contract_error("eval_gate_ternary: gate type " + to_string(type) +
                           " has no fanin evaluation");
  }
}

}  // namespace ndet
