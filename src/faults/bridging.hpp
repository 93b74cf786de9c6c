// bridging.hpp -- the four-way bridging fault model (the paper's untargeted
// fault set G).
//
// A four-way bridging fault (l1,a1,l2,a2) is activated when the fault-free
// circuit drives l1 = a1 and l2 = a2 (= !a1); its effect forces the victim
// l1 to the aggressor's value a2.  For an unordered pair of lines {x,y} the
// four ways are (x,0,y,1), (x,1,y,0), (y,0,x,1), (y,1,x,0).
//
// Following the paper's experiments, bridging sites are the *outputs of
// multi-input gates*, and only *non-feedback* pairs (no structural path
// between the two gates in either direction) are enumerated, which keeps the
// faulty circuit combinational.  The enumeration decides that itself: gate
// ids are a topological order, so for sites x < y only a path from x to y
// is possible, and one fanout-cone walk per site answers every later pair.
// Detectability filtering (keeping faults with T(g) != {}) is performed
// downstream once detection sets are computed.

#pragma once

#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace ndet {

/// One four-way bridging fault; lines are identified by their driving gate
/// (bridging sites are always stems).
struct BridgingFault {
  GateId victim = kInvalidGate;     ///< l1: the line forced by the bridge
  bool victim_value = false;        ///< a1: fault-free victim value at activation
  GateId aggressor = kInvalidGate;  ///< l2: the dominating line
  bool aggressor_value = false;     ///< a2 = !a1: value forced onto the victim

  friend bool operator==(const BridgingFault&, const BridgingFault&) = default;
};

/// Paper-style name "(9,0,10,1)" using gate names.
std::string to_string(const BridgingFault& fault, const Circuit& circuit);

/// Enumerates all four-way bridging faults between outputs of multi-input
/// gates over non-feedback pairs.  Pairs are ordered by (first gate id,
/// second gate id); within a pair the order is (x,0,y,1), (x,1,y,0),
/// (y,0,x,1), (y,1,x,0) -- the ordering that reproduces the paper's g0 and
/// g6 on the Figure-1 example.
std::vector<BridgingFault> enumerate_four_way_bridging(const Circuit& circuit);

}  // namespace ndet
