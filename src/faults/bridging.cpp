#include "faults/bridging.hpp"

#include <cstdint>

#include "netlist/graph.hpp"

namespace ndet {

std::string to_string(const BridgingFault& fault, const Circuit& circuit) {
  return "(" + circuit.gate(fault.victim).name + "," +
         (fault.victim_value ? "1" : "0") + "," +
         circuit.gate(fault.aggressor).name + "," +
         (fault.aggressor_value ? "1" : "0") + ")";
}

std::vector<BridgingFault> enumerate_four_way_bridging(const Circuit& circuit) {
  std::vector<GateId> sites;
  for (GateId g = 0; g < circuit.gate_count(); ++g)
    if (is_multi_input(circuit.gate(g).type)) sites.push_back(g);

  // CircuitBuilder gives every fanin a smaller id than its sink, so a path
  // only ever leads to a larger id.  For sites x < y, y cannot reach x, and
  // the pair is non-feedback exactly when y lies outside x's fanout cone.
  // cone_stamp[g] == i + 1 marks g as inside the cone of sites[i].
  const NetlistGraph graph(circuit);
  ConeQuery query(graph);
  std::vector<std::uint32_t> cone_stamp(circuit.gate_count(), 0);
  std::vector<BridgingFault> faults;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const GateId x = sites[i];
    const auto stamp = static_cast<std::uint32_t>(i + 1);
    for (const GateId g : query.fanout(x)) cone_stamp[g] = stamp;
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      const GateId y = sites[j];
      if (cone_stamp[y] == stamp) continue;
      faults.push_back({x, false, y, true});
      faults.push_back({x, true, y, false});
      faults.push_back({y, false, x, true});
      faults.push_back({y, true, x, false});
    }
  }
  return faults;
}

}  // namespace ndet
