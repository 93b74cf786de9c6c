// detection_db.hpp -- the exhaustive detection-set database.
//
// The paper's entire analysis is a function of two families of sets:
//   T(f) for every target fault f in F (collapsed single stuck-at), and
//   T(g) for every untargeted fault g in G (detectable non-feedback four-way
//   bridging faults between outputs of multi-input gates),
// all subsets of U, the set of every input vector.  DetectionDb computes and
// owns those sets for one circuit.  Everything downstream -- worst-case
// analysis, Procedure 1, both report generators -- reads from here, so the
// expensive exhaustive simulation runs exactly once per circuit.
//
// The database stores the two families in different forms (DESIGN.md
// "Factored detection database"):
//
//   * T(f) is frozen into the adaptive DetectionSet representation
//     (DetectionDbOptions::representation): dense or sorted-sparse by
//     whichever payload is smaller.  F is linear in the circuit size, so
//     these sets are small.
//   * T(g) is kept FACTORED.  Every four-way bridge (v, a1, a, a2) is
//     detected exactly on Obs(v) & [good(v) = a1] & [good(a) = a2], so the
//     database stores one Obs row per victim site, one good-value row per
//     bridging site gate, and a 32-bit |T(g)| per detectable bridge --
//     G grows with the square of the circuit, the rows only linearly.
//     untargeted_sets() is a view that materializes T(g) on demand:
//     as a word row (two word-ANDs) for the kernels, or as a DetectionSet
//     frozen under the same representation policy for everything else.
//
// All downstream kernels are exact across representations, so analysis
// results are bit-identical to an all-dense database.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "faults/bridging.hpp"
#include "faults/stuck_at.hpp"
#include "netlist/circuit.hpp"
#include "netlist/lines.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"
#include "util/detection_set.hpp"

namespace ndet {

class ThreadPool;

/// Options controlling database construction.
struct DetectionDbOptions {
  int max_inputs = 20;       ///< exhaustive-simulation input limit
  unsigned num_threads = 0;  ///< fault-simulation workers; 0 = all hardware threads
  /// Storage policy for the frozen T(f) sets and the DetectionSets the
  /// untargeted view hands out.
  SetRepresentation representation = SetRepresentation::kAdaptive;
};

/// Exhaustive detection sets of one circuit.
class DetectionDb {
 public:
  /// Builds the database: simulates the circuit exhaustively, enumerates and
  /// collapses stuck-at faults, enumerates four-way bridging faults, and
  /// computes all detection sets.  The circuit is copied in, so the database
  /// is self-contained.
  static DetectionDb build(const Circuit& circuit,
                           const DetectionDbOptions& options = {});

  /// Same, on a caller-owned worker pool (AnalysisSession shares one pool
  /// across every stage); options.num_threads is ignored.  A non-null
  /// `cancel` is polled between fault simulations and between the build
  /// phases; a fired token raises Error with stage "detection_db" (or
  /// "fault_sim" when it fired mid-batch).
  static DetectionDb build(const Circuit& circuit,
                           const DetectionDbOptions& options,
                           const ThreadPool& pool,
                           const CancelToken* cancel = nullptr);

  const Circuit& circuit() const { return *circuit_; }
  const LineModel& lines() const { return *lines_; }

  /// |U| = 2^PI.
  std::uint64_t vector_count() const { return vector_count_; }

  /// F: the collapsed stuck-at fault list (undetectable faults included;
  /// they are inert in every analysis since their T(f) is empty).
  const std::vector<StuckAtFault>& targets() const { return targets_; }
  /// T(f), index-aligned with targets().
  const std::vector<DetectionSet>& target_sets() const { return target_sets_; }

  /// G: detectable four-way bridging faults, in enumeration order.
  const std::vector<BridgingFault>& untargeted() const { return untargeted_; }

  /// T(g), index-aligned with untargeted(): a read-only view over the
  /// factored store.  Nothing is materialized until asked for, and the
  /// view stays valid as long as the database.
  class UntargetedSets {
   public:
    /// Input iterator whose dereference materializes a DetectionSet.
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = DetectionSet;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = DetectionSet;

      iterator() = default;
      DetectionSet operator*() const { return UntargetedSets(*db_)[j_]; }
      iterator& operator++() {
        ++j_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++j_;
        return old;
      }
      friend bool operator==(const iterator&, const iterator&) = default;

     private:
      friend class UntargetedSets;
      iterator(const DetectionDb* db, std::size_t j) : db_(db), j_(j) {}
      const DetectionDb* db_ = nullptr;
      std::size_t j_ = 0;
    };

    std::size_t size() const { return db_->untargeted_.size(); }
    bool empty() const { return size() == 0; }

    /// |T(g_j)|, stored at build time (no materialization).
    std::uint32_t count(std::size_t j) const {
      return db_->untargeted_counts_[j];
    }

    /// Writes T(g_j) as a dense word row over U into `row`, which must hold
    /// exactly ceil(|U| / 64) words: two word-ANDs over stored rows.  Bits
    /// past |U| come out zero.
    void materialize(std::size_t j, std::span<Bitset::word_type> row) const;

    /// T(g_j) as a Bitset over U.
    Bitset bitset(std::size_t j) const;

    /// T(g_j) frozen under the database's representation policy.
    DetectionSet operator[](std::size_t j) const;

    iterator begin() const { return {db_, 0}; }
    iterator end() const { return {db_, size()}; }

   private:
    friend class DetectionDb;
    explicit UntargetedSets(const DetectionDb& db) : db_(&db) {}
    const DetectionDb* db_;
  };
  UntargetedSets untargeted_sets() const { return UntargetedSets(*this); }

  /// Bridging faults enumerated before the detectability filter.
  std::size_t enumerated_untargeted() const { return enumerated_untargeted_; }

  /// Number of detectable target faults.
  std::size_t detectable_target_count() const;

  /// The storage policy the sets were frozen under.
  SetRepresentation representation() const { return representation_; }

  /// Payload bytes of the stored form, part by part.
  struct SetStorage {
    std::size_t target_set_bytes = 0;  ///< frozen T(f) payloads
    std::size_t site_rows = 0;         ///< bridging site gates with rows
    std::size_t row_bytes = 0;         ///< Obs + good-value rows, slot map
    std::size_t count_bytes = 0;       ///< one 32-bit |T(g)| per g in G
    std::size_t total() const {
      return target_set_bytes + row_bytes + count_bytes;
    }
  };
  SetStorage set_storage() const;

  /// Payload bytes of everything the database stores for T(f) and T(g):
  /// set_storage().total().  The session cache charges this figure.
  std::size_t set_memory_bytes() const { return set_storage().total(); }

  /// Payload bytes every T(f) and T(g) would occupy frozen all-dense.
  std::size_t dense_memory_bytes() const;

 private:
  DetectionDb() = default;

  std::shared_ptr<const Circuit> circuit_;
  std::shared_ptr<const LineModel> lines_;
  std::uint64_t vector_count_ = 0;
  std::vector<StuckAtFault> targets_;
  std::vector<DetectionSet> target_sets_;
  std::vector<BridgingFault> untargeted_;
  // G factored: T(v, a1, a, a2) = Obs(v) & [good(v) = a1] & [good(a) = a2],
  // each row row_words_ long and addressed through its gate's slot.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::size_t row_words_ = 0;
  std::vector<std::uint32_t> slot_of_;        ///< gate -> row slot or kNoSlot
  std::vector<Bitset::word_type> obs_rows_;   ///< Obs(stem of gate), by slot
  std::vector<Bitset::word_type> good_rows_;  ///< good(gate), by slot
  std::vector<std::uint32_t> untargeted_counts_;  ///< |T(g)|, by g
  std::size_t enumerated_untargeted_ = 0;
  SetRepresentation representation_ = SetRepresentation::kAdaptive;
};

/// Transposes detection sets: given sets[i] over U, returns per-vector sets
/// over the fault indices (rows[v].test(i) == sets[i].test(v)).  Used by
/// Procedure 1 to update detection counts incrementally as tests are added.
std::vector<Bitset> transpose_detection_sets(std::span<const DetectionSet> sets,
                                             std::uint64_t vector_count);

}  // namespace ndet
