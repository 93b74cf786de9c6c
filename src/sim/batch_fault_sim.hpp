// batch_fault_sim.hpp -- batched, multi-threaded detection-set computation,
// factored through per-site observability.
//
// Every fault model of the paper changes the circuit at exactly one SITE --
// a line of the LineModel -- and replaces the site's value, vector by
// vector, with a bit computed from fault-free values only:
//
//   * stuck-at c on a line driven by d: the line carries c, which differs
//     from the fault-free value exactly where good(d) != c;
//   * bridge (v, a1, a, a2): the aggressor is kept fault-free (non-feedback
//     pairs), so the victim stem v carries a2 exactly where
//     good(a) == a2, which differs from the fault-free value exactly where
//     additionally good(v) == a1.
//
// On any single vector the faulty circuit is therefore either the good
// circuit (site value unchanged) or the good circuit with the site's value
// FLIPPED.  With Obs(site) = { vectors on which flipping the site changes
// some primary output }, every detection set is a word-wise AND:
//
//   T(stuck-at c @ d)      = Obs(line) & [good(d) != c]
//   T(v, a1, a, a2)        = Obs(v)    & [good(v) == a1] & [good(a) == a2]
//
// This is exact, not an approximation, so the sets are bit-identical to
// per-fault injection.  The engine runs ONE flip simulation per distinct
// site in a batch and derives every fault on that site from it.  Stuck-at
// batches come back as finished sets; for the bridging set G, whose size
// grows with the square of the circuit while the number of victim sites
// grows linearly, the engine hands out the Obs rows themselves
// (observability()) and DetectionDb keeps G in that factored form
// (DESIGN.md "Factored detection database").
//
//   * all fanout cones and their affected-output lists come from the shared
//     netlist graph core (netlist/graph.hpp): a ConeIndex freezes every
//     root's cone and output list in CSR form, so a site simulation starts
//     with two array lookups instead of a DFS;
//   * the flip simulation is event-driven: inside each 64-vector word a
//     cone gate is re-evaluated only when one of its fanins actually
//     changed (a branch site whose sink absorbs the flip ends the word at
//     the sink);
//   * every worker thread owns a scratch arena (faulty-value column, fanin
//     word buffer, changed flags, one Obs row) reused across all sites it
//     processes, so Obs costs one row per worker, not one per site;
//   * batch calls group the faults by site and fan the sites out across the
//     shared ThreadPool (util/thread_pool.hpp) with dynamic scheduling.
//     Each fault's set is written into its index-aligned slot, so the
//     output is deterministic and independent of the thread count and of
//     scheduling order.
//
// sim/fault_sim.hpp and sim/reference.hpp keep per-fault injection and are
// the independent oracles tests/batch_sim_test.cpp holds this engine to.
// See DESIGN.md "Observability-factored fault simulation".

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "faults/stuck_at.hpp"
#include "netlist/graph.hpp"
#include "netlist/lines.hpp"
#include "sim/exhaustive.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace ndet {

class ThreadPool;

/// Options controlling the batched engine.
struct BatchFaultSimOptions {
  /// Worker threads for batch calls; 0 picks std::thread::hardware_concurrency.
  unsigned num_threads = 0;
};

/// Batched detection-set engine over a prebuilt fault-free simulation.
class BatchFaultSimulator {
 public:
  BatchFaultSimulator(const ExhaustiveSimulator& good, const LineModel& lines,
                      BatchFaultSimOptions options = {});

  /// Runs batch calls on a caller-owned pool instead of a private one (the
  /// session facade shares one pool across every stage).  The pool must
  /// outlive the simulator.
  BatchFaultSimulator(const ExhaustiveSimulator& good, const LineModel& lines,
                      const ThreadPool& pool);

  /// T(f) for every fault, index-aligned with the input span.  Fans the
  /// distinct fault sites out across the worker pool.  A non-null `cancel`
  /// is polled before the call and between site claims; a fired token
  /// surfaces as Error{kCancelled|kDeadlineExceeded} with stage "fault_sim".
  std::vector<Bitset> detection_sets(std::span<const StuckAtFault> faults,
                                     const CancelToken* cancel = nullptr) const;

  /// Single-fault convenience (runs on the calling thread).
  Bitset detection_set(const StuckAtFault& fault) const;

  /// Obs(site) for every site, site-major in one flat array: row i is
  /// words [i * word_count, (i + 1) * word_count) of the good simulator's
  /// layout, bits past the last vector zero.  Sites fan out across the
  /// worker pool and each row is written in place, so the result is
  /// independent of the thread count.  Cancellation as for detection_sets.
  std::vector<Bitset::word_type> observability(
      std::span<const LineId> sites, const CancelToken* cancel = nullptr) const;

  /// Precomputed structural views: `root` plus its transitive fanout in
  /// topological order, and the primary outputs among those gates.
  std::span<const GateId> cone_gates(GateId root) const;
  std::span<const GateId> cone_outputs(GateId root) const;

  /// Resolved worker-pool width.
  unsigned thread_count() const { return num_threads_; }

 private:
  /// A stuck-at fault's activation term: T = Obs(line) & [good(gate) == value].
  struct Activation {
    GateId gate = kInvalidGate;
    bool value = false;
  };

  /// Per-thread reusable buffers.  `changed` is all-zero outside the cone
  /// being simulated, so fanins outside the cone read fault-free values
  /// without a membership test.
  struct Scratch {
    std::vector<std::uint64_t> faulty;   ///< per-gate faulty word column
    std::vector<std::uint64_t> fanins;   ///< packed fanin words of one gate
    std::vector<std::uint8_t> changed;   ///< faulty != good, by gate id
    std::vector<std::uint64_t> obs;      ///< Obs(site), one word per 64 vectors
  };

  Scratch make_scratch() const;
  Activation activation(const StuckAtFault& fault) const;

  /// The flip kernel: writes Obs(site) into `obs` (word_count words).
  void observe(LineId site, Scratch& scratch, std::uint64_t* obs) const;

  /// Writes Obs & the activation term into `set`.
  void mask_into(const Activation& act, std::span<const std::uint64_t> obs,
                 Bitset& set) const;

  /// Fans `sites` out across the pool, one scratch arena per worker:
  /// body(k, arena) runs once per site index k.
  void for_each_site(std::size_t sites,
                     const std::function<void(std::size_t, Scratch&)>& body,
                     const CancelToken* cancel) const;

  const ExhaustiveSimulator* good_;
  const LineModel* lines_;
  const ThreadPool* shared_pool_ = nullptr;  ///< non-owning; may be null
  unsigned num_threads_ = 1;

  // Shared structural layer: the graph built once, all cones frozen in CSR.
  NetlistGraph graph_;
  ConeIndex cones_;
  std::size_t max_fanin_ = 0;
};

}  // namespace ndet
