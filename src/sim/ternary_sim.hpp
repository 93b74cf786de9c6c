// ternary_sim.hpp -- three-valued simulation for Definition 2.
//
// Definition 2 (Pomeranz & Reddy, DATE 2001; Section 4 of the reproduced
// paper): two tests ti, tj count as different detections of a fault f only
// if the partially-specified test tij -- specified in the bits where ti and
// tj agree, unspecified elsewhere -- does NOT detect f.  "Detects" is decided
// by pessimistic three-valued simulation: f is detected when some primary
// output has definite, differing binary values in the fault-free and faulty
// circuits.
//
// Two simulators live here:
//   * TernarySimulator -- the plain scalar simulator over Ternary values.
//     PODEM evaluates with it, and it is the reference the word-parallel
//     oracle is tested against.
//   * Def2Oracle -- the word-parallel query engine behind Procedure 1.  One
//     kernel call, detect_lanes(), decides up to 64 (t, s) pairs at once in
//     dual-rail words: bit l of the (can-be-0, can-be-1) word pair of a gate
//     is the ternary value of that gate under lane l's common vector t_ls
//     (0 = (1,0), 1 = (0,1), X = (1,1)).  Fault-free values run over a flat
//     gate-type + fanin-CSR program in topological order, restricted to the
//     gates that feed the fault's observing outputs; faulty values are then
//     computed in place over the fault's precomputed fanout cone only, and
//     detection is read off that cone's primary outputs.  There is no memo:
//     every query is simulated, 64 at a time.
//
// Concurrency discipline: the compiled program (Def2Program) is immutable
// and shared read-only by every worker; a Def2Oracle is one worker's view
// of it -- four scratch word arrays plus counters -- and is single-threaded.
// Verdicts are pure functions of (fault, t, s), so how queries are packed
// into lanes or spread over workers never changes a result.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "faults/stuck_at.hpp"
#include "logic/ternary.hpp"
#include "netlist/graph.hpp"
#include "netlist/lines.hpp"

namespace ndet {

/// Plain three-valued circuit simulator.
class TernarySimulator {
 public:
  explicit TernarySimulator(const LineModel& lines);

  const Circuit& circuit() const;

  /// Fault-free ternary values of all gates for a partial input assignment
  /// (`inputs[i]` is the value of the i-th declared input).
  std::vector<Ternary> good_values(std::span<const Ternary> inputs) const;

  /// True when `fault` is definitely detected by the partial vector
  /// (some primary output is binary in both circuits and differs).
  bool detects(const StuckAtFault& fault, std::span<const Ternary> inputs) const;

  /// Values of all gates in the faulty circuit, given the fault-free values
  /// (gates outside the fault's fanout cone keep their fault-free value).
  /// This is the evaluation primitive of the PODEM engine.
  std::vector<Ternary> faulty_values(const StuckAtFault& fault,
                                     std::span<const Ternary> inputs,
                                     std::span<const Ternary> good) const;

  /// The paper's tij: specified where the two (fully specified) vectors
  /// agree.  Vectors are decimal ids, first input = most significant bit.
  std::vector<Ternary> common_vector(std::uint64_t t1, std::uint64_t t2) const;

 private:
  bool detects_with_good(const StuckAtFault& fault,
                         std::span<const Ternary> inputs,
                         std::span<const Ternary> good) const;

  const LineModel* lines_;
  NetlistGraph graph_;  ///< shared structural layer behind the cone walks
};

/// Work counters of one Def2Oracle (summed across workers by the parallel
/// Procedure-1 engine).  Every kernel call is made on behalf of one set's
/// trajectory, so the sums do not depend on the thread count.
struct Def2OracleStats {
  std::uint64_t word_passes = 0;     ///< detect_lanes() calls (<= 64 lanes each)
  std::uint64_t verdict_hits = 0;    ///< always 0: there is no verdict memo
  std::uint64_t verdict_misses = 0;  ///< (t, s) lanes simulated

  Def2OracleStats& operator+=(const Def2OracleStats& other) {
    word_passes += other.word_passes;
    verdict_hits += other.verdict_hits;
    verdict_misses += other.verdict_misses;
    return *this;
  }
};

/// The compiled form of a circuit and a fixed fault list: gate types and a
/// fanin CSR in topological order, every gate's fanout cone and observing
/// primary outputs, the gates feeding each fault site's observing outputs,
/// and each fault's injection site.  Immutable once built.
class Def2Program {
 public:
  Def2Program(const LineModel& lines, std::span<const StuckAtFault> faults);

  std::size_t fault_count() const { return targets_.size(); }

 private:
  friend class Def2Oracle;

  Def2Program(const LineModel& lines, std::span<const StuckAtFault> faults,
              const NetlistGraph& graph);

  /// A fault lowered to simulation terms.
  struct Target {
    GateId root = kInvalidGate;  ///< stem: the driver; branch: the sink
    int slot = -1;               ///< branch: the overridden fanin slot
    bool stuck = false;
  };

  std::vector<GateType> types_;              ///< by gate id
  std::vector<std::uint32_t> fanin_offsets_; ///< gate_count + 1 entries
  std::vector<GateId> fanin_storage_;
  std::vector<GateId> input_gates_;          ///< by declared input index
  std::vector<GateId> const_gates_;          ///< kConst0 / kConst1 gates
  ConeIndex cones_;
  /// Per target root: the fanin gates feeding the root's cone outputs,
  /// ascending -- the only gates whose fault-free values can matter.
  std::vector<std::uint32_t> support_offsets_;  ///< gate_count + 1 entries
  std::vector<GateId> support_storage_;
  std::vector<Target> targets_;              ///< by fault index
  std::size_t max_cone_outputs_ = 0;
};

/// One worker's Definition-2 query engine over a Def2Program.
class Def2Oracle {
 public:
  static constexpr std::size_t kLanes = 64;

  /// Runs `program`, which must outlive the oracle.
  explicit Def2Oracle(const Def2Program& program);

  /// The kernel: bit l of the result is set when the common vector of
  /// ts[l] and ss[l] detects fault `fault_index` (index into the list the
  /// program was built from), for 1 <= lanes <= 64.  Bits at and above
  /// `lanes` are zero.  A lane with ts[l] == ss[l] simulates the fully
  /// specified vector itself.
  std::uint64_t detect_lanes(std::size_t fault_index, const std::uint64_t* ts,
                             const std::uint64_t* ss, std::size_t lanes);

  /// detect_lanes() over any number of pairs, in 64-lane chunks: bit p of
  /// `detected` (ceil(|ts| / 64) words) is pair p's verdict.
  void detect_pairs(std::size_t fault_index, std::span<const std::uint64_t> ts,
                    std::span<const std::uint64_t> ss,
                    std::span<std::uint64_t> detected);

  /// True when tests t1 and t2 count as *different* detections of fault
  /// `fault_index`, i.e. the common vector t12 does not detect the fault.
  /// A test is never a new detection of itself.  A one-lane kernel call.
  bool distinct(std::size_t fault_index, std::uint64_t t1, std::uint64_t t2);

  /// This oracle's work counters.
  Def2OracleStats stats() const { return stats_; }

 private:
  const Def2Program* program_;
  // The four scratch word arrays: the dual-rail gate values (fault-free,
  // then overwritten in place by the faulty cone), and the fault-free
  // values of the cone's primary outputs saved before the overwrite.
  std::vector<std::uint64_t> zero_, one_;
  std::vector<std::uint64_t> po_zero_, po_one_;
  Def2OracleStats stats_;
};

}  // namespace ndet
