#include "sim/ternary_sim.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace ndet {

TernarySimulator::TernarySimulator(const LineModel& lines)
    : lines_(&lines), graph_(lines.circuit()) {}

const Circuit& TernarySimulator::circuit() const { return lines_->circuit(); }

std::vector<Ternary> TernarySimulator::good_values(
    std::span<const Ternary> inputs) const {
  const Circuit& c = circuit();
  require(inputs.size() == c.input_count(),
          "TernarySimulator::good_values: wrong input count");
  std::vector<Ternary> values(c.gate_count(), Ternary::kX);
  std::vector<Ternary> fanins;
  for (GateId g = 0; g < c.gate_count(); ++g) {
    const Gate& gate = c.gate(g);
    switch (gate.type) {
      case GateType::kInput:
        values[g] = inputs[c.input_index(g)];
        break;
      case GateType::kConst0:
        values[g] = Ternary::kZero;
        break;
      case GateType::kConst1:
        values[g] = Ternary::kOne;
        break;
      default: {
        fanins.resize(gate.fanins.size());
        for (std::size_t i = 0; i < gate.fanins.size(); ++i)
          fanins[i] = values[gate.fanins[i]];
        values[g] = eval_gate_ternary(gate.type, fanins);
      }
    }
  }
  return values;
}

std::vector<Ternary> TernarySimulator::faulty_values(
    const StuckAtFault& fault, std::span<const Ternary> inputs,
    std::span<const Ternary> good) const {
  const Circuit& c = circuit();
  const Line& line = lines_->line(fault.line);
  const Ternary stuck = ternary_of(fault.stuck_value);
  const GateId start = line.kind == LineKind::kStem ? line.driver : line.sink;

  const std::vector<GateId> affected = fanout_cone(graph_, start);
  std::vector<Ternary> faulty(good.begin(), good.end());
  std::vector<Ternary> fanins;
  for (const GateId g : affected) {
    const Gate& gate = c.gate(g);
    if (line.kind == LineKind::kStem && g == start) {
      faulty[g] = stuck;
      continue;
    }
    if (gate.type == GateType::kInput) {
      faulty[g] = inputs[c.input_index(g)];
      continue;
    }
    fanins.resize(gate.fanins.size());
    for (std::size_t s = 0; s < gate.fanins.size(); ++s) {
      const GateId fi = gate.fanins[s];
      Ternary value = faulty[fi];
      if (line.kind == LineKind::kBranch && g == start &&
          static_cast<int>(s) == line.sink_slot)
        value = stuck;
      fanins[s] = value;
    }
    faulty[g] = eval_gate_ternary(gate.type, fanins);
  }
  return faulty;
}

bool TernarySimulator::detects_with_good(const StuckAtFault& fault,
                                         std::span<const Ternary> inputs,
                                         std::span<const Ternary> good) const {
  const std::vector<Ternary> faulty = faulty_values(fault, inputs, good);
  const Circuit& c = circuit();
  for (const GateId po : c.outputs()) {
    const Ternary gv = good[po];
    const Ternary fv = faulty[po];
    if (is_binary(gv) && is_binary(fv) && gv != fv) return true;
  }
  return false;
}

bool TernarySimulator::detects(const StuckAtFault& fault,
                               std::span<const Ternary> inputs) const {
  const std::vector<Ternary> good = good_values(inputs);
  return detects_with_good(fault, inputs, good);
}

std::vector<Ternary> TernarySimulator::common_vector(std::uint64_t t1,
                                                     std::uint64_t t2) const {
  const std::size_t pi = circuit().input_count();
  std::vector<Ternary> inputs(pi, Ternary::kX);
  for (std::size_t i = 0; i < pi; ++i) {
    const std::uint64_t b1 = (t1 >> (pi - 1 - i)) & 1u;
    const std::uint64_t b2 = (t2 >> (pi - 1 - i)) & 1u;
    if (b1 == b2) inputs[i] = ternary_of(b1 != 0);
  }
  return inputs;
}

namespace {

/// One dual-rail word pair: bit l of `zero` / `one` is set when lane l can
/// be 0 / can be 1.  0 = (1,0), 1 = (0,1), X = (1,1).
struct Rails {
  std::uint64_t zero;
  std::uint64_t one;
};

constexpr Rails rails_of(bool value) {
  return value ? Rails{0, ~std::uint64_t{0}} : Rails{~std::uint64_t{0}, 0};
}

/// Evaluates one gate in pessimistic three-valued logic over dual-rail
/// words; `fanin(s)` yields the rails of fanin slot s.  An AND is 0 where
/// any input is 0 and can be 1 only where every input can; XOR folds
/// pairwise, so an X on any input makes the output X.
template <typename Fanin>
inline Rails eval_rails(GateType type, std::size_t fanin_count, Fanin fanin) {
  Rails acc = fanin(0);
  switch (type) {
    case GateType::kBuf:
      return acc;
    case GateType::kNot:
      return {acc.one, acc.zero};
    case GateType::kAnd:
    case GateType::kNand:
      for (std::size_t s = 1; s < fanin_count; ++s) {
        const Rails a = fanin(s);
        acc.zero |= a.zero;
        acc.one &= a.one;
      }
      return type == GateType::kNand ? Rails{acc.one, acc.zero} : acc;
    case GateType::kOr:
    case GateType::kNor:
      for (std::size_t s = 1; s < fanin_count; ++s) {
        const Rails a = fanin(s);
        acc.zero &= a.zero;
        acc.one |= a.one;
      }
      return type == GateType::kNor ? Rails{acc.one, acc.zero} : acc;
    case GateType::kXor:
    case GateType::kXnor:
      for (std::size_t s = 1; s < fanin_count; ++s) {
        const Rails a = fanin(s);
        acc = {(acc.zero & a.zero) | (acc.one & a.one),
               (acc.zero & a.one) | (acc.one & a.zero)};
      }
      return type == GateType::kXnor ? Rails{acc.one, acc.zero} : acc;
    default:
      throw contract_error("Def2Oracle: gate type has no fanin evaluation");
  }
}

/// Transposes an 8x8 bit matrix held one row per byte (row r = byte r,
/// column c = bit c of the byte): afterwards byte c holds column c.
inline std::uint64_t transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Builds the lane-parallel input words of the common vectors t_l & s_l:
/// sets bit l of any_one[b] to bit b of (ts[l] | ss[l]) and bit l of
/// all_one[b] to bit b of (ts[l] & ss[l]), for b < bits, in outputs that
/// start zeroed.  Works in 8-lane x 8-bit blocks so each block costs one
/// byte-matrix transpose per output.
void transpose_lanes(const std::uint64_t* ts, const std::uint64_t* ss,
                     std::size_t lanes, std::size_t bits,
                     std::uint64_t* any_one, std::uint64_t* all_one) {
  for (std::size_t first_lane = 0; first_lane < lanes; first_lane += 8) {
    const std::size_t rows = std::min<std::size_t>(8, lanes - first_lane);
    for (std::size_t first_bit = 0; first_bit < bits; first_bit += 8) {
      std::uint64_t block_any = 0;
      std::uint64_t block_all = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t t = ts[first_lane + r] >> first_bit;
        const std::uint64_t s = ss[first_lane + r] >> first_bit;
        block_any |= ((t | s) & 0xFF) << (8 * r);
        block_all |= ((t & s) & 0xFF) << (8 * r);
      }
      block_any = transpose8x8(block_any);
      block_all = transpose8x8(block_all);
      const std::size_t columns = std::min<std::size_t>(8, bits - first_bit);
      for (std::size_t c = 0; c < columns; ++c) {
        any_one[first_bit + c] |= ((block_any >> (8 * c)) & 0xFF) << first_lane;
        all_one[first_bit + c] |= ((block_all >> (8 * c)) & 0xFF) << first_lane;
      }
    }
  }
}

}  // namespace

Def2Program::Def2Program(const LineModel& lines,
                         std::span<const StuckAtFault> faults)
    : Def2Program(lines, faults, NetlistGraph(lines.circuit())) {}

Def2Program::Def2Program(const LineModel& lines,
                         std::span<const StuckAtFault> faults,
                         const NetlistGraph& graph)
    : cones_(graph) {
  const Circuit& c = lines.circuit();
  require(c.input_count() <= 64, "Def2Program: more than 64 inputs");
  types_.reserve(c.gate_count());
  fanin_offsets_.reserve(c.gate_count() + 1);
  fanin_offsets_.push_back(0);
  for (GateId g = 0; g < c.gate_count(); ++g) {
    const Gate& gate = c.gate(g);
    types_.push_back(gate.type);
    fanin_storage_.insert(fanin_storage_.end(), gate.fanins.begin(),
                          gate.fanins.end());
    fanin_offsets_.push_back(static_cast<std::uint32_t>(fanin_storage_.size()));
    if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1)
      const_gates_.push_back(g);
  }
  input_gates_.assign(c.inputs().begin(), c.inputs().end());

  targets_.reserve(faults.size());
  for (const StuckAtFault& fault : faults) {
    const Line& line = lines.line(fault.line);
    Target target;
    target.stuck = fault.stuck_value;
    if (line.kind == LineKind::kStem) {
      target.root = line.driver;
    } else {
      target.root = line.sink;
      target.slot = line.sink_slot;
    }
    targets_.push_back(target);
    max_cone_outputs_ =
        std::max(max_cone_outputs_, cones_.cone_outputs(target.root).size());
  }

  std::vector<bool> is_root(c.gate_count(), false);
  for (const Target& target : targets_) is_root[target.root] = true;
  ConeQuery query(graph);
  support_offsets_.assign(c.gate_count() + 1, 0);
  for (GateId root = 0; root < c.gate_count(); ++root) {
    const std::span<const GateId> outputs = cones_.cone_outputs(root);
    if (is_root[root] && !outputs.empty())
      for (const GateId g : query.fanin(outputs))
        if (!c.gate(g).fanins.empty()) support_storage_.push_back(g);
    require(support_storage_.size() <=
                std::numeric_limits<std::uint32_t>::max(),
            "Def2Program: cumulative support size overflows the 32-bit CSR "
            "offsets");
    support_offsets_[root + 1] =
        static_cast<std::uint32_t>(support_storage_.size());
  }
}

Def2Oracle::Def2Oracle(const Def2Program& program)
    : program_(&program),
      zero_(program.types_.size()),
      one_(program.types_.size()),
      po_zero_(program.max_cone_outputs_),
      po_one_(program.max_cone_outputs_) {}

std::uint64_t Def2Oracle::detect_lanes(std::size_t fault_index,
                                       const std::uint64_t* ts,
                                       const std::uint64_t* ss,
                                       std::size_t lanes) {
  const Def2Program& p = *program_;
  require(fault_index < p.fault_count(),
          "Def2Oracle::detect_lanes: bad fault index");
  require(lanes >= 1 && lanes <= kLanes,
          "Def2Oracle::detect_lanes: lane count must be in 1..64");
  ++stats_.word_passes;
  stats_.verdict_misses += lanes;

  const Def2Program::Target& target = p.targets_[fault_index];
  const std::span<const GateId> outputs = p.cones_.cone_outputs(target.root);
  if (outputs.empty()) return 0;  // the fault effect is unobservable
  std::uint64_t* const zero = zero_.data();
  std::uint64_t* const one = one_.data();
  const GateId* const fanins = p.fanin_storage_.data();
  const std::uint32_t* const offsets = p.fanin_offsets_.data();
  const auto rails_at = [&](GateId g) { return Rails{zero[g], one[g]}; };
  const auto eval = [&](GateId g) {
    const GateId* fi = fanins + offsets[g];
    return eval_rails(p.types_[g], offsets[g + 1] - offsets[g],
                      [&](std::size_t s) { return rails_at(fi[s]); });
  };

  // Fault-free pass over the gates feeding the cone outputs.  Input i is
  // the vector's bit (pi - 1 - i); lane l's common vector is 1 where both
  // tests are 1, 0 where both are 0, X where they disagree -- i.e. it can
  // be 1 where either test is 1 and can be 0 where not both are.
  const std::size_t pi = p.input_gates_.size();
  std::uint64_t any_one[64] = {};
  std::uint64_t all_one[64] = {};
  transpose_lanes(ts, ss, lanes, pi, any_one, all_one);
  for (std::size_t i = 0; i < pi; ++i) {
    const GateId g = p.input_gates_[i];
    zero[g] = ~all_one[pi - 1 - i];
    one[g] = any_one[pi - 1 - i];
  }
  for (const GateId g : p.const_gates_) {
    const Rails value = rails_of(p.types_[g] == GateType::kConst1);
    zero[g] = value.zero;
    one[g] = value.one;
  }
  for (std::uint32_t k = p.support_offsets_[target.root];
       k < p.support_offsets_[target.root + 1]; ++k) {
    const GateId g = p.support_storage_[k];
    const Rails value = eval(g);
    zero[g] = value.zero;
    one[g] = value.one;
  }
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    po_zero_[j] = zero[outputs[j]];
    po_one_[j] = one[outputs[j]];
  }

  // Faulty pass, in place over the cone: gates outside it keep their
  // fault-free values, and the cone is in topological order, so every
  // fanin read is already the faulty-circuit value.  (Cone gates that reach
  // no output may read stale words; nothing observes them.)  A branch
  // fault overrides exactly one fanin slot of its sink -- a driver feeding
  // the sink through several slots keeps its value on the others.
  const Rails stuck = rails_of(target.stuck);
  const GateId root = target.root;
  Rails injected = stuck;
  if (target.slot >= 0) {
    const GateId* fi = fanins + offsets[root];
    const auto slot = static_cast<std::size_t>(target.slot);
    injected = eval_rails(p.types_[root], offsets[root + 1] - offsets[root],
                          [&](std::size_t s) {
                            return s == slot ? stuck : rails_at(fi[s]);
                          });
  }
  if (injected.zero == zero[root] && injected.one == one[root])
    return 0;  // not excited in any lane: nothing downstream changes
  zero[root] = injected.zero;
  one[root] = injected.one;
  for (const GateId g : p.cones_.cone_gates(root).subspan(1)) {
    const Rails value = eval(g);
    zero[g] = value.zero;
    one[g] = value.one;
  }

  // Detected where a cone output is binary in both circuits and differs.
  std::uint64_t detected = 0;
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    const std::uint64_t good_one = po_one_[j] & ~po_zero_[j];
    const std::uint64_t good_zero = po_zero_[j] & ~po_one_[j];
    const GateId po = outputs[j];
    const std::uint64_t bad_one = one[po] & ~zero[po];
    const std::uint64_t bad_zero = zero[po] & ~one[po];
    detected |= (good_one & bad_zero) | (good_zero & bad_one);
  }
  const std::uint64_t lane_mask =
      lanes == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  return detected & lane_mask;
}

void Def2Oracle::detect_pairs(std::size_t fault_index,
                              std::span<const std::uint64_t> ts,
                              std::span<const std::uint64_t> ss,
                              std::span<std::uint64_t> detected) {
  require(ts.size() == ss.size() &&
              detected.size() == (ts.size() + kLanes - 1) / kLanes,
          "Def2Oracle::detect_pairs: mismatched pair or result sizes");
  for (std::size_t first = 0, w = 0; first < ts.size(); first += kLanes, ++w)
    detected[w] = detect_lanes(fault_index, ts.data() + first,
                               ss.data() + first,
                               std::min(kLanes, ts.size() - first));
}

bool Def2Oracle::distinct(std::size_t fault_index, std::uint64_t t1,
                          std::uint64_t t2) {
  require(fault_index < program_->fault_count(),
          "Def2Oracle::distinct: bad fault index");
  if (t1 == t2) return false;  // a test is never a new detection of itself
  return (detect_lanes(fault_index, &t1, &t2, 1) & 1u) == 0;
}

}  // namespace ndet
