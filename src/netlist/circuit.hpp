// circuit.hpp -- gate-level combinational circuit representation.
//
// A Circuit is an immutable, topologically ordered gate list: every gate's
// fanins have smaller ids than the gate itself.  Construction goes through
// CircuitBuilder, which validates fanin counts, name uniqueness and
// acyclicity (enforced by the ordering requirement) and derives fanout lists
// and logic levels.  Parsers that accept forward references (.bench) sort
// their gates topologically before feeding the builder.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/gate_type.hpp"

namespace ndet {

/// Index of a gate inside a Circuit (positional, 0-based, topological).
using GateId = std::uint32_t;

constexpr GateId kInvalidGate = std::numeric_limits<GateId>::max();

/// One gate of the circuit.  `fanouts` lists the gates this gate feeds, in
/// ascending id order; a sink appears once per connection (a gate using the
/// same signal on two pins contributes two entries).
struct Gate {
  GateType type = GateType::kInput;
  std::string name;
  std::vector<GateId> fanins;
  std::vector<GateId> fanouts;
  int level = 0;  ///< longest-path depth; inputs/constants are level 0
};

/// Immutable combinational circuit in topological order.
class Circuit {
 public:
  /// Circuit name (benchmark identifier), e.g. "paper_example" or "bbara*".
  const std::string& name() const { return name_; }

  std::size_t gate_count() const { return gates_.size(); }
  const Gate& gate(GateId id) const;

  /// Primary inputs in declaration order.
  const std::vector<GateId>& inputs() const { return inputs_; }
  /// Primary outputs in declaration order (ids of the driving gates).
  const std::vector<GateId>& outputs() const { return outputs_; }

  std::size_t input_count() const { return inputs_.size(); }
  std::size_t output_count() const { return outputs_.size(); }

  /// True when the gate drives a primary output.
  bool is_output(GateId id) const;

  /// Position of `id` in `inputs()`, for mapping input vectors to bits.
  /// Throws when the gate is not a primary input.
  std::size_t input_index(GateId id) const;

  /// Looks a gate up by name.
  std::optional<GateId> find(const std::string& name) const;

  /// Largest gate level (circuit depth).
  int depth() const { return depth_; }

  /// Number of exhaustive input vectors |U| = 2^input_count().
  /// Guarded against overflow: requires input_count() <= 40.
  std::uint64_t vector_space_size() const;

 private:
  friend class CircuitBuilder;
  Circuit() = default;

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<bool> is_output_;
  std::unordered_map<std::string, GateId> by_name_;
  int depth_ = 0;
};

/// True when the two circuits are the same netlist: the same inputs and the
/// same outputs in the same order, and the same gates (type, name, fanins)
/// at the same ids.  The circuit names are ignored.  Equal netlists give
/// identical fault lists, detection sets and nmin values.
bool same_netlist(const Circuit& a, const Circuit& b);

/// Incremental, validating circuit constructor.
class CircuitBuilder {
 public:
  explicit CircuitBuilder(std::string circuit_name);

  /// Adds a primary input gate and returns its id.
  GateId add_input(const std::string& name);

  /// Adds a constant-0 / constant-1 gate.
  GateId add_const(bool value, const std::string& name);

  /// Adds a logic gate whose fanins must already exist (topological
  /// construction); validates the fanin count against the gate type.
  GateId add_gate(GateType type, const std::string& name,
                  const std::vector<GateId>& fanins);

  /// Declares an existing gate as a primary output.  A gate may be declared
  /// an output only once; outputs are recorded in declaration order.
  void mark_output(GateId id);

  /// Finalizes: derives fanouts and levels and returns the circuit.
  /// Throws when the circuit has no inputs or no outputs.
  Circuit build();

 private:
  Circuit circuit_;
  bool built_ = false;
};

}  // namespace ndet
