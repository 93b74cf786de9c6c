#include "netlist/circuit.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ndet {

const Gate& Circuit::gate(GateId id) const {
  require(id < gates_.size(), "Circuit::gate: id out of range");
  return gates_[id];
}

bool Circuit::is_output(GateId id) const {
  require(id < gates_.size(), "Circuit::is_output: id out of range");
  return is_output_[id];
}

std::size_t Circuit::input_index(GateId id) const {
  const auto it = std::find(inputs_.begin(), inputs_.end(), id);
  require(it != inputs_.end(), "Circuit::input_index: gate is not an input");
  return static_cast<std::size_t>(it - inputs_.begin());
}

std::optional<GateId> Circuit::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Circuit::vector_space_size() const {
  require(inputs_.size() <= 40,
          "Circuit::vector_space_size: too many inputs for exhaustive U");
  return std::uint64_t{1} << inputs_.size();
}

bool same_netlist(const Circuit& a, const Circuit& b) {
  if (a.inputs() != b.inputs() || a.outputs() != b.outputs() ||
      a.gate_count() != b.gate_count())
    return false;
  for (GateId g = 0; g < a.gate_count(); ++g) {
    const Gate& x = a.gate(g);
    const Gate& y = b.gate(g);
    if (x.type != y.type || x.name != y.name || x.fanins != y.fanins)
      return false;
  }
  return true;
}

CircuitBuilder::CircuitBuilder(std::string circuit_name) {
  circuit_.name_ = std::move(circuit_name);
}

GateId CircuitBuilder::add_input(const std::string& name) {
  const GateId id = add_gate(GateType::kInput, name, {});
  circuit_.inputs_.push_back(id);
  return id;
}

GateId CircuitBuilder::add_const(bool value, const std::string& name) {
  return add_gate(value ? GateType::kConst1 : GateType::kConst0, name, {});
}

GateId CircuitBuilder::add_gate(GateType type, const std::string& name,
                                const std::vector<GateId>& fanins) {
  require(!built_, "CircuitBuilder: build() was already called");
  require(!name.empty(), "CircuitBuilder::add_gate: empty gate name");
  require(!circuit_.by_name_.contains(name),
          "CircuitBuilder::add_gate: duplicate gate name '" + name + "'");
  const auto n = static_cast<int>(fanins.size());
  require(n >= min_fanin(type) && n <= max_fanin(type),
          "CircuitBuilder::add_gate: gate '" + name + "' of type " +
              to_string(type) + " cannot have " + std::to_string(n) +
              " fanins");
  const auto id = static_cast<GateId>(circuit_.gates_.size());
  for (const GateId fi : fanins)
    require(fi < id, "CircuitBuilder::add_gate: fanin of '" + name +
                         "' does not exist yet (topological order required)");
  Gate gate;
  gate.type = type;
  gate.name = name;
  gate.fanins = fanins;
  circuit_.gates_.push_back(std::move(gate));
  circuit_.by_name_.emplace(name, id);
  return id;
}

void CircuitBuilder::mark_output(GateId id) {
  require(!built_, "CircuitBuilder: build() was already called");
  require(id < circuit_.gates_.size(),
          "CircuitBuilder::mark_output: id out of range");
  if (circuit_.is_output_.size() < circuit_.gates_.size())
    circuit_.is_output_.resize(circuit_.gates_.size(), false);
  require(!circuit_.is_output_[id],
          "CircuitBuilder::mark_output: gate '" + circuit_.gates_[id].name +
              "' already marked as output");
  circuit_.is_output_[id] = true;
  circuit_.outputs_.push_back(id);
}

Circuit CircuitBuilder::build() {
  require(!built_, "CircuitBuilder: build() was already called");
  require(!circuit_.inputs_.empty(), "CircuitBuilder: circuit has no inputs");
  require(!circuit_.outputs_.empty(), "CircuitBuilder: circuit has no outputs");
  built_ = true;

  circuit_.is_output_.resize(circuit_.gates_.size(), false);

  // Derive fanouts (one entry per connection) and levels.
  for (GateId id = 0; id < circuit_.gates_.size(); ++id) {
    Gate& g = circuit_.gates_[id];
    int level = 0;
    for (const GateId fi : g.fanins) {
      circuit_.gates_[fi].fanouts.push_back(id);
      level = std::max(level, circuit_.gates_[fi].level + 1);
    }
    g.level = g.fanins.empty() ? 0 : level;
    circuit_.depth_ = std::max(circuit_.depth_, g.level);
  }
  return std::move(circuit_);
}

}  // namespace ndet
