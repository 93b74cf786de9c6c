// graph.hpp -- the netlist graph core: one directed-graph layer under every
// structural query.
//
// NetlistGraph is one immutable structure built once per circuit:
//
//   * CSR adjacency in both directions (forward = fanouts, reverse =
//     fanins): two offset arrays plus two flattened edge arrays, so every
//     traversal is a cache-friendly array scan instead of pointer chasing
//     through per-gate vectors;
//   * cone queries (ConeQuery for reusable scratch, ConeIndex for the
//     all-roots CSR table the batch simulator uses) -- both return gates in
//     ascending id order, which is topological order because CircuitBuilder
//     gives every fanin a smaller id than its sink;
//   * DOT export with per-gate labels and optional subgraph restriction
//     (whole circuit or one cone), the visual artifact behind the report
//     CLIs' --dot= flag.
//
// Its consumers are partitioning, the fault simulators, bridging-fault
// enumeration (the non-feedback test) and the report CLIs.  The layer is
// read-only after construction and safe to share across threads; ConeQuery
// owns mutable scratch and is therefore one-per-thread, mirroring the
// scratch-arena discipline of the simulators.  See DESIGN.md "Netlist graph
// core".

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace ndet {

/// Edge orientation of a traversal: forward follows fanouts (driver to
/// sink), reverse follows fanins (sink to driver).
enum class Direction { kForward, kReverse };

/// Immutable directed graph over gate ids, CSR in both directions.
class NetlistGraph {
 public:
  /// Builds the graph of a circuit.  The circuit must outlive the graph
  /// (node labels and output flags are read through it on demand).
  explicit NetlistGraph(const Circuit& circuit);

  std::size_t node_count() const { return node_count_; }
  std::size_t edge_count() const { return forward_storage_.size(); }

  /// Gates fed by `node` (its fanouts), ascending.
  std::span<const GateId> successors(GateId node) const;
  /// Gates feeding `node` (its fanins), in pin order.
  std::span<const GateId> predecessors(GateId node) const;

  /// Neighbors along `dir`.
  std::span<const GateId> neighbors(GateId node, Direction dir) const {
    return dir == Direction::kForward ? successors(node) : predecessors(node);
  }

  /// The circuit this graph was built from.
  const Circuit& circuit() const { return *circuit_; }

 private:
  const Circuit* circuit_;
  std::size_t node_count_ = 0;
  std::vector<std::uint32_t> forward_offsets_;  ///< node_count + 1 entries
  std::vector<GateId> forward_storage_;
  std::vector<std::uint32_t> reverse_offsets_;  ///< node_count + 1 entries
  std::vector<GateId> reverse_storage_;
};

/// Cone queries with caller-owned scratch: fanout(root) is root plus its
/// transitive fanout, fanin(roots) the roots plus their transitive fanin,
/// both in ascending id order (= topological order).  The
/// returned span aliases internal storage and is valid until the next
/// query.  One instance per thread.
class ConeQuery {
 public:
  explicit ConeQuery(const NetlistGraph& graph);

  std::span<const GateId> fanout(GateId root);
  std::span<const GateId> fanin(GateId root);
  std::span<const GateId> fanin(std::span<const GateId> roots);

 private:
  std::span<const GateId> collect(std::span<const GateId> roots,
                                  Direction dir);

  const NetlistGraph* graph_;
  std::vector<std::uint32_t> seen_;  ///< epoch stamps, by node
  std::vector<GateId> stack_;
  std::vector<GateId> cone_;
  std::uint32_t epoch_ = 0;
};

/// Allocating convenience over ConeQuery (one-shot callers).
std::vector<GateId> fanout_cone(const NetlistGraph& graph, GateId root);

/// Precomputed fanout cones of EVERY gate in CSR form: one offsets array
/// plus one flattened gate array, and the same for the primary outputs
/// inside each cone.  This is the structure the batch fault simulator
/// starts every fault from (two array lookups instead of a DFS).
class ConeIndex {
 public:
  explicit ConeIndex(const NetlistGraph& graph);

  /// `root` plus its transitive fanout, ascending (= topological) order.
  std::span<const GateId> cone_gates(GateId root) const;
  /// The primary outputs among cone_gates(root), ascending.
  std::span<const GateId> cone_outputs(GateId root) const;

 private:
  std::size_t node_count_ = 0;
  std::vector<std::uint32_t> cone_offsets_;    ///< node_count + 1 entries
  std::vector<GateId> cone_storage_;
  std::vector<std::uint32_t> output_offsets_;  ///< node_count + 1 entries
  std::vector<GateId> output_storage_;
};

/// DOT export options.
struct DotOptions {
  /// Graph name; empty picks the circuit name.
  std::string name;
  /// When non-empty, only these gates (and edges between them) are
  /// rendered -- the per-cone subgraph mode of partition_analysis.
  std::vector<GateId> subset;
};

/// Renders the graph as a DOT digraph: a header comment carrying the node
/// and edge counts (machine-checkable by CI), exactly one node line per
/// rendered gate (label = name plus gate type, inputs as boxes, primary
/// outputs double-circled) and one line per edge.
std::string to_dot(const NetlistGraph& graph, const DotOptions& options = {});

/// Writes to_dot(...) to `path`; throws contract_error on I/O failure.
void write_dot_file(const std::string& path, const NetlistGraph& graph,
                    const DotOptions& options = {});

}  // namespace ndet
