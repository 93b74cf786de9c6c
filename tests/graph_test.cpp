// graph_test.cpp -- the netlist graph core against independent references.
//
// NetlistGraph is the one structural layer every consumer (cones,
// partitioning, the simulators, bridging enumeration, DOT export) sits on,
// so this suite pins its contracts directly: CSR adjacency mirrors the
// circuit, gate ids are a topological order, cone queries agree with an
// independent traversal, structure-mode partitioning is bit-identical to
// budget mode when the groupings coincide, and the DOT export is
// structurally valid.  The non-feedback test built on these cones is
// checked against an independent closure in faults_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/circuit.hpp"
#include "netlist/generator.hpp"
#include "netlist/graph.hpp"
#include "netlist/library.hpp"
#include "test_util.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ndet {
namespace {

/// Circuits the exhaustive cross-checks run over: the full FSM benchmark
/// suite plus seeded random netlists from the generator family.
std::vector<Circuit> structural_corpus() {
  std::vector<Circuit> circuits;
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite())
    circuits.push_back(fsm_benchmark_circuit(info.name));
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    GeneratorConfig config;
    config.num_inputs = 8;
    config.num_gates = 60;
    circuits.push_back(generate_random_circuit(config, seed));
  }
  return circuits;
}

/// Independent fanout-cone reference: the pre-graph-core BFS (the old
/// sim/cone algorithm), deliberately not sharing any code with ConeQuery.
std::vector<GateId> reference_transitive_fanout(const Circuit& circuit,
                                                GateId root) {
  std::vector<bool> seen(circuit.gate_count(), false);
  std::vector<GateId> queue = {root};
  seen[root] = true;
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (const GateId next : circuit.gate(queue[head]).fanouts)
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
  std::sort(queue.begin(), queue.end());
  return queue;
}

std::vector<GateId> reference_transitive_fanin(const Circuit& circuit,
                                               std::vector<GateId> roots) {
  std::vector<bool> seen(circuit.gate_count(), false);
  std::vector<GateId> queue;
  for (const GateId root : roots)
    if (!seen[root]) {
      seen[root] = true;
      queue.push_back(root);
    }
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (const GateId prev : circuit.gate(queue[head]).fanins)
      if (!seen[prev]) {
        seen[prev] = true;
        queue.push_back(prev);
      }
  std::sort(queue.begin(), queue.end());
  return queue;
}

TEST(Graph, CsrMirrorsCircuitAdjacency) {
  for (const Circuit& circuit : structural_corpus()) {
    const NetlistGraph graph(circuit);
    ASSERT_EQ(graph.node_count(), circuit.gate_count()) << circuit.name();
    ASSERT_EQ(&graph.circuit(), &circuit) << circuit.name();
    std::size_t edges = 0;
    for (GateId g = 0; g < circuit.gate_count(); ++g) {
      const Gate& gate = circuit.gate(g);
      const auto succ = graph.successors(g);
      ASSERT_EQ(std::vector<GateId>(succ.begin(), succ.end()), gate.fanouts)
          << circuit.name() << " gate " << g;
      const auto pred = graph.predecessors(g);
      ASSERT_EQ(std::vector<GateId>(pred.begin(), pred.end()), gate.fanins)
          << circuit.name() << " gate " << g;
      edges += gate.fanouts.size();
    }
    EXPECT_EQ(graph.edge_count(), edges) << circuit.name();
  }
}

TEST(Graph, TopologicalOrderIsTheIdentityOnCircuitGraphs) {
  // CircuitBuilder numbers gates so every fanin has a smaller id, so the
  // identity 0..n-1 is a topological order: every edge leads to a larger
  // id.  Resimulation sweeps rely on it, and so does the one-direction
  // non-feedback test of bridging enumeration.
  for (const Circuit& circuit : structural_corpus()) {
    const NetlistGraph graph(circuit);
    for (GateId g = 0; g < circuit.gate_count(); ++g) {
      for (const GateId next : graph.successors(g))
        ASSERT_LT(g, next) << circuit.name();
      for (const GateId prev : graph.predecessors(g))
        ASSERT_LT(prev, g) << circuit.name();
    }
  }
}

TEST(Graph, ConeQueriesMatchAnIndependentTraversal) {
  for (const Circuit& circuit : structural_corpus()) {
    const NetlistGraph graph(circuit);
    ConeQuery query(graph);
    for (GateId g = 0; g < circuit.gate_count(); ++g) {
      const auto fanout = query.fanout(g);
      ASSERT_EQ(std::vector<GateId>(fanout.begin(), fanout.end()),
                reference_transitive_fanout(circuit, g))
          << circuit.name() << " gate " << g;
      ASSERT_TRUE(std::is_sorted(fanout.begin(), fanout.end()));
      const auto fanin = query.fanin(g);
      ASSERT_EQ(std::vector<GateId>(fanin.begin(), fanin.end()),
                reference_transitive_fanin(circuit, {g}))
          << circuit.name() << " gate " << g;
    }
    // Multi-root fanin with duplicate roots, as partitioning issues them.
    if (circuit.outputs().size() >= 2) {
      std::vector<GateId> roots(circuit.outputs().begin(),
                                circuit.outputs().end());
      roots.push_back(roots.front());
      const auto fanin = query.fanin(roots);
      ASSERT_EQ(std::vector<GateId>(fanin.begin(), fanin.end()),
                reference_transitive_fanin(circuit, roots))
          << circuit.name();
    }
  }
}

TEST(Graph, ConeIndexMatchesConeQuery) {
  GeneratorConfig config;
  config.num_inputs = 7;
  config.num_gates = 50;
  const Circuit circuit = generate_random_circuit(config, 3);
  const NetlistGraph graph(circuit);
  const ConeIndex index(graph);
  for (GateId g = 0; g < circuit.gate_count(); ++g) {
    const std::vector<GateId> expected = fanout_cone(graph, g);
    const auto gates = index.cone_gates(g);
    ASSERT_EQ(std::vector<GateId>(gates.begin(), gates.end()), expected)
        << "gate " << g;
    std::vector<GateId> expected_outputs;
    for (const GateId c : expected)
      if (circuit.is_output(c)) expected_outputs.push_back(c);
    const auto outputs = index.cone_outputs(g);
    ASSERT_EQ(std::vector<GateId>(outputs.begin(), outputs.end()),
              expected_outputs)
        << "gate " << g;
  }
}

TEST(GraphPartition, StructureModeMatchesBudgetModeOnDisjointCones) {
  // tri-majority: three disjoint 3-input cones.  With budget 3 both modes
  // must produce the same three singleton groups (structure mode finds no
  // overlap to merge), and the per-cone worst-case reports must be
  // bit-identical.
  const Circuit circuit = testing::tri_majority();

  PartitionOptions budget;
  budget.max_inputs = 3;
  PartitionOptions structure;
  structure.max_inputs = 3;
  structure.by_structure = true;
  const ThreadPool pool(1);
  const auto budget_reports = partitioned_worst_case(circuit, budget, pool);
  const auto structure_reports =
      partitioned_worst_case(circuit, structure, pool);
  ASSERT_EQ(budget_reports.size(), 3u);
  ASSERT_EQ(structure_reports.size(), budget_reports.size());
  for (std::size_t i = 0; i < budget_reports.size(); ++i) {
    const ConeReport& a = budget_reports[i];
    const ConeReport& s = structure_reports[i];
    EXPECT_EQ(a.cone_name, s.cone_name);
    EXPECT_EQ(a.inputs, s.inputs);
    EXPECT_EQ(a.outputs, s.outputs);
    EXPECT_EQ(a.gates, s.gates);
    EXPECT_EQ(a.untargeted_faults, s.untargeted_faults);
    EXPECT_EQ(a.fraction_nmin_at_most_10, s.fraction_nmin_at_most_10);
    EXPECT_EQ(a.max_finite_nmin, s.max_finite_nmin);
    EXPECT_EQ(a.never_guaranteed, s.never_guaranteed);
  }
}

TEST(GraphPartition, StructureModeMergesSharedLogicAcrossDeclarationGaps) {
  // Outputs a and c share a subcircuit; b is independent and declared
  // between them.  Budget mode can only merge neighbors in declaration
  // order, so {a, c} never group; structure mode pairs them by measured
  // cone overlap regardless of declaration position.  The second case
  // declares the outputs against gate-id order (c, b, a): merged outputs
  // follow declaration order, not gate ids.
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "declared c, b, a" : "declared a, b, c");
    CircuitBuilder b("shared_pair");
    const GateId x0 = b.add_input("x0");
    const GateId x1 = b.add_input("x1");
    const GateId x2 = b.add_input("x2");
    const GateId y0 = b.add_input("y0");
    const GateId y1 = b.add_input("y1");
    const GateId shared = b.add_gate(GateType::kAnd, "shared", {x0, x1});
    const GateId a = b.add_gate(GateType::kOr, "a", {shared, x2});
    const GateId mid = b.add_gate(GateType::kAnd, "b", {y0, y1});
    const GateId c = b.add_gate(GateType::kXor, "c", {shared, x2});
    b.mark_output(reversed ? c : a);
    b.mark_output(mid);
    b.mark_output(reversed ? a : c);
    const Circuit circuit = b.build();

    PartitionOptions structure;
    structure.max_inputs = 3;
    structure.by_structure = true;
    structure.min_overlap = 0.25;
    const std::vector<Circuit> cones =
        partition_by_outputs(circuit, structure);
    ASSERT_EQ(cones.size(), 2u);
    // The merged cone keeps its outputs in declaration order.
    EXPECT_EQ(cones[0].output_count(), 2u);
    EXPECT_EQ(cones[0].name(),
              reversed ? "shared_pair_cone_c_a" : "shared_pair_cone_a_c");
    EXPECT_EQ(cones[1].output_count(), 1u);
    EXPECT_EQ(cones[1].name(), "shared_pair_cone_b");

    // Budget mode with the same budget cannot bridge the declaration gap.
    const std::vector<Circuit> greedy = partition_by_outputs(circuit, 3);
    EXPECT_EQ(greedy.size(), 3u);
  }
}

TEST(GraphPartition, StructureModeFoldsConstantOutputsIntoANeighbor) {
  // Synthesized FSMs can have always-off outputs (GateType::kConst0) whose
  // fanin cone contains no primary input.  Such a cone shares no gate with
  // anything, so overlap merging alone would leave it as an inputless
  // singleton that cannot be extracted as a circuit; it must ride along
  // with a declaration-order neighbor, as in budget mode.
  CircuitBuilder b("const_out");
  const GateId x0 = b.add_input("x0");
  const GateId x1 = b.add_input("x1");
  b.mark_output(b.add_gate(GateType::kConst0, "k", {}));
  b.mark_output(b.add_gate(GateType::kAnd, "a", {x0, x1}));
  const Circuit circuit = b.build();
  PartitionOptions structure;
  structure.max_inputs = 2;
  structure.by_structure = true;
  const std::vector<Circuit> cones = partition_by_outputs(circuit, structure);
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_EQ(cones[0].output_count(), 2u);
  EXPECT_EQ(cones[0].name(), "const_out_cone_k_a");
}

TEST(GraphDot, ExportIsStructurallyValid) {
  const Circuit circuit = resolve_circuit("c17");
  const NetlistGraph graph(circuit);
  const std::string dot = to_dot(graph);
  EXPECT_EQ(dot.rfind("digraph \"c17\" {", 0), 0u);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
  // The inventory comment must match the rendered lines.
  const std::string header = "  // nodes=" +
                             std::to_string(circuit.gate_count()) +
                             " edges=" + std::to_string(graph.edge_count());
  EXPECT_NE(dot.find(header), std::string::npos) << dot;
  std::size_t node_lines = 0;
  std::size_t edge_lines = 0;
  for (std::size_t pos = 0; (pos = dot.find("[shape=", pos)) !=
                            std::string::npos;
       ++pos)
    ++node_lines;
  for (std::size_t pos = 0; (pos = dot.find(" -> ", pos)) != std::string::npos;
       ++pos)
    ++edge_lines;
  EXPECT_EQ(node_lines, circuit.gate_count());
  EXPECT_EQ(edge_lines, graph.edge_count());
  // Inputs are boxes; primary outputs are double circles.
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=doublecircle"), std::string::npos);
}

TEST(GraphDot, SubsetRestrictsNodesAndEdges) {
  const Circuit circuit = resolve_circuit("c17");
  const NetlistGraph graph(circuit);
  ConeQuery query(graph);
  const auto cone = query.fanout(0);
  DotOptions options;
  options.subset.assign(cone.begin(), cone.end());
  const std::string dot = to_dot(graph, options);
  std::size_t node_lines = 0;
  for (std::size_t pos = 0; (pos = dot.find("[shape=", pos)) !=
                            std::string::npos;
       ++pos)
    ++node_lines;
  EXPECT_EQ(node_lines, cone.size());
  // Every rendered edge stays inside the subset.
  const std::set<GateId> members(cone.begin(), cone.end());
  std::size_t pos = 0;
  while ((pos = dot.find(" -> n", pos)) != std::string::npos) {
    const std::size_t from_start = dot.rfind('n', pos);
    const GateId from = static_cast<GateId>(
        std::stoul(dot.substr(from_start + 1, pos - from_start - 1)));
    const std::size_t to_start = pos + 5;
    const std::size_t to_end = dot.find(';', to_start);
    const GateId to = static_cast<GateId>(
        std::stoul(dot.substr(to_start, to_end - to_start)));
    EXPECT_TRUE(members.contains(from)) << dot;
    EXPECT_TRUE(members.contains(to)) << dot;
    ++pos;
  }
  DotOptions bad;
  bad.subset = {GateId{999}};
  EXPECT_THROW((void)to_dot(graph, bad), contract_error);
}

}  // namespace
}  // namespace ndet
