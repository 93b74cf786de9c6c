// detection_db_test.cpp -- the factored detection database against
// independent oracles.
//
// DetectionDb keeps G factored: Obs rows per victim site, good-value rows
// per bridging site gate and one stored |T(g)| per detectable bridge, and
// untargeted_sets() materializes T(g) on demand.  The suite holds that
// store to three contracts:
//   1. every materialized T(g) equals sim/reference's naive per-fault,
//      per-vector injection, and G is exactly the enumerated bridges whose
//      injected set is non-empty, in enumeration order (on bbara a sample
//      of the bridges, see oracle_circuits);
//   2. every stored |T(g)| is the popcount of the materialized set, and the
//      view hands out the same set through operator[], its iterators,
//      bitset() and materialize() under every representation policy; and
//   3. analyze_worst_case over the factored store equals the scalar nmin_of
//      over the materialized sets, under dense, sparse and adaptive
//      policies, at 1 and 4 threads; and the identical-set classes it
//      sweeps group exactly the equal sets, whatever the hashes and the
//      thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/detection_db.hpp"
#include "core/worst_case.hpp"
#include "faults/bridging.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/generator.hpp"
#include "netlist/library.hpp"
#include "sim/reference.hpp"
#include "util/bitset.hpp"
#include "util/check.hpp"
#include "util/detection_set.hpp"
#include "util/thread_pool.hpp"

namespace ndet {
namespace {

constexpr SetRepresentation kPolicies[] = {SetRepresentation::kDense,
                                           SetRepresentation::kSparse,
                                           SetRepresentation::kAdaptive};

/// One circuit every contract is checked on, with the stride at which its
/// enumerated bridges are injected by the naive reference (1 = all).
struct OracleCircuit {
  std::string name;
  Circuit circuit;
  std::size_t stride = 1;
};

/// The paper's Figure-1 example, c17, four small FSM benchmarks and three
/// random netlists.  bbara's 22 k bridges over 256 vectors cost the naive
/// reference over a minute, so it injects every 53rd (53 is coprime to the
/// four ways of a pair, so every way is sampled); tests/batch_sim_test.cpp
/// checks all of them against the per-fault FaultSimulator.
std::vector<OracleCircuit> oracle_circuits() {
  std::vector<OracleCircuit> circuits;
  circuits.push_back({"paper_example", paper_example()});
  circuits.push_back({"c17", c17()});
  for (const char* name : {"lion", "dk27", "tav"})
    circuits.push_back({name, fsm_benchmark_circuit(name)});
  circuits.push_back({"bbara", fsm_benchmark_circuit("bbara"), 53});
  for (const std::uint64_t seed : {1u, 7u, 42u})
    circuits.push_back({"generator seed " + std::to_string(seed),
                        generate_random_circuit(GeneratorConfig{}, seed)});
  return circuits;
}

/// T(g) by naive injection, one input vector at a time.
Bitset injected_set(const Circuit& circuit, const BridgingFault& fault) {
  Bitset set(circuit.vector_space_size());
  for (std::uint64_t v = 0; v < circuit.vector_space_size(); ++v)
    if (reference_detects(circuit, fault, v)) set.set(v);
  return set;
}

TEST(DetectionDb, UntargetedViewMatchesPerFaultInjection) {
  for (const auto& [name, circuit, stride] : oracle_circuits()) {
    SCOPED_TRACE(name);
    const DetectionDb db = DetectionDb::build(circuit);
    const std::vector<BridgingFault> enumerated =
        enumerate_four_way_bridging(circuit);
    ASSERT_EQ(db.enumerated_untargeted(), enumerated.size());
    const DetectionDb::UntargetedSets sets = db.untargeted_sets();
    ASSERT_EQ(sets.size(), db.untargeted().size());

    // G must be "enumerated minus undetectable", in order: walk both lists
    // together; a bridge the database kept must have the injected set, one
    // it dropped must have an empty injected set.
    std::size_t j = 0;
    for (std::size_t i = 0; i < enumerated.size(); ++i) {
      const BridgingFault& fault = enumerated[i];
      const bool kept = j < sets.size() && db.untargeted()[j] == fault;
      if (i % stride == 0) {
        const Bitset expected = injected_set(circuit, fault);
        if (kept) {
          ASSERT_EQ(sets[j].to_bitset(), expected) << to_string(fault, circuit);
        } else {
          ASSERT_TRUE(expected.none()) << to_string(fault, circuit);
        }
      }
      if (kept) ++j;
    }
    EXPECT_EQ(j, sets.size());
  }
}

TEST(DetectionDb, StoredCountsMatchMaterializedSetsUnderEveryPolicy) {
  for (const auto& [name, circuit, stride] : oracle_circuits()) {
    SCOPED_TRACE(name);
    const DetectionDb reference = DetectionDb::build(circuit);
    for (const SetRepresentation policy : kPolicies) {
      SCOPED_TRACE(static_cast<int>(policy));
      const DetectionDb db = DetectionDb::build(
          circuit, DetectionDbOptions{.representation = policy});
      ASSERT_EQ(db.untargeted(), reference.untargeted());
      const DetectionDb::UntargetedSets sets = db.untargeted_sets();

      std::size_t j = 0;
      Bitset row(static_cast<std::size_t>(db.vector_count()));
      for (const DetectionSet set : sets) {
        ASSERT_LT(j, sets.size());
        const Bitset bits = sets.bitset(j);
        EXPECT_GT(sets.count(j), 0u) << j;
        EXPECT_EQ(sets.count(j), bits.count()) << j;
        EXPECT_EQ(set.count(), bits.count()) << j;
        EXPECT_EQ(set.to_bitset(), bits) << j;
        EXPECT_TRUE(set == sets[j]) << j;
        EXPECT_EQ(bits, reference.untargeted_sets().bitset(j)) << j;
        // Stale row contents are overwritten, tail bits included.
        std::fill(row.words(), row.words() + row.word_count(),
                  ~Bitset::word_type{0});
        sets.materialize(j, {row.words(), row.word_count()});
        EXPECT_EQ(row, bits) << j;
        if (policy == SetRepresentation::kDense) {
          EXPECT_EQ(set.representation(), DetectionSet::Rep::kDense);
        }
        if (policy == SetRepresentation::kSparse) {
          EXPECT_EQ(set.representation(), DetectionSet::Rep::kSparse);
        }
        ++j;
      }
      EXPECT_EQ(j, sets.size());

      // The accounting covers target payloads, rows and one count per g.
      const DetectionDb::SetStorage storage = db.set_storage();
      std::size_t target_bytes = 0;
      for (const DetectionSet& set : db.target_sets())
        target_bytes += set.memory_bytes();
      EXPECT_EQ(storage.target_set_bytes, target_bytes);
      EXPECT_EQ(storage.count_bytes, sets.size() * sizeof(std::uint32_t));
      EXPECT_GT(storage.row_bytes, 0u);
      EXPECT_EQ(db.set_memory_bytes(), storage.total());
      EXPECT_EQ(db.dense_memory_bytes(),
                (db.targets().size() + sets.size()) *
                    DetectionSet::dense_memory_bytes(
                        static_cast<std::size_t>(db.vector_count())));
    }
  }
}

TEST(DetectionDb, BuildIsIdenticalAcrossThreadCounts) {
  // keyb is large enough for the build to fan its phases out across the
  // pool; dk16 falls under the parallel-work threshold and builds on the
  // calling thread at every width.
  for (const char* name : {"keyb", "dk16"}) {
    SCOPED_TRACE(name);
    const Circuit circuit = fsm_benchmark_circuit(name);
    const DetectionDb serial =
        DetectionDb::build(circuit, DetectionDbOptions{.num_threads = 1});
    const DetectionDb::UntargetedSets expected = serial.untargeted_sets();
    for (const unsigned threads : {2u, 4u}) {
      const DetectionDb db = DetectionDb::build(
          circuit, DetectionDbOptions{.num_threads = threads});
      ASSERT_EQ(db.untargeted(), serial.untargeted()) << threads;
      EXPECT_EQ(db.set_memory_bytes(), serial.set_memory_bytes()) << threads;
      const DetectionDb::UntargetedSets sets = db.untargeted_sets();
      for (std::size_t j = 0; j < sets.size(); ++j) {
        ASSERT_EQ(sets.count(j), expected.count(j)) << threads << " " << j;
        ASSERT_EQ(sets.bitset(j), expected.bitset(j)) << threads << " " << j;
      }
      for (std::size_t i = 0; i < db.target_sets().size(); ++i)
        ASSERT_TRUE(db.target_sets()[i] == serial.target_sets()[i]) << i;
    }
  }
}

TEST(DetectionDb, UntargetedViewRejectsBadIndexAndRowSize) {
  const DetectionDb db = DetectionDb::build(paper_example());
  const DetectionDb::UntargetedSets sets = db.untargeted_sets();
  ASSERT_FALSE(sets.empty());
  Bitset row(static_cast<std::size_t>(db.vector_count()));
  EXPECT_THROW(sets.materialize(sets.size(), {row.words(), row.word_count()}),
               contract_error);
  std::vector<Bitset::word_type> too_long(row.word_count() + 1);
  EXPECT_THROW(sets.materialize(0, too_long), contract_error);
}

/// rep_of by brute force: the first index of every distinct materialized
/// row, found through an ordered map of whole rows.
std::vector<std::uint32_t> classes_by_row_comparison(const DetectionDb& db) {
  const DetectionDb::UntargetedSets sets = db.untargeted_sets();
  std::map<std::vector<Bitset::word_type>, std::uint32_t> first;
  std::vector<std::uint32_t> rep_of;
  std::vector<Bitset::word_type> row(
      Bitset(static_cast<std::size_t>(db.vector_count())).word_count());
  for (std::size_t j = 0; j < sets.size(); ++j) {
    sets.materialize(j, row);
    rep_of.push_back(
        first.try_emplace(row, static_cast<std::uint32_t>(j)).first->second);
  }
  return rep_of;
}

TEST(DetectionDb, SetClassesAreExactWhenEveryHashCollides) {
  // With one hash for every fault, every probe meets every representative
  // of its shard: only the count and row comparisons can keep different
  // sets apart.  On one worker keyb's 2.6 k representatives of 64 words
  // outgrow the rows a grouping worker keeps, so the comparisons that
  // materialize the representative again run too.
  const ThreadPool pool(1);
  for (const char* name : {"dk27", "bbara", "keyb"}) {
    SCOPED_TRACE(name);
    const DetectionDb db = DetectionDb::build(fsm_benchmark_circuit(name));
    const std::vector<std::uint64_t> colliding(db.untargeted().size(),
                                               0x5eedULL);
    EXPECT_EQ(identical_set_classes(db, colliding, pool),
              classes_by_row_comparison(db));
  }
}

TEST(DetectionDb, SetClassesGroupExactlyTheEqualSets) {
  std::vector<std::pair<std::string, Circuit>> circuits;
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite())
    circuits.emplace_back(info.name, fsm_benchmark_circuit(info.name));
  for (const std::uint64_t seed : {1u, 7u, 42u})
    circuits.emplace_back("generator seed " + std::to_string(seed),
                          generate_random_circuit(GeneratorConfig{}, seed));
  const ThreadPool pool(4);
  for (const auto& [name, circuit] : circuits) {
    SCOPED_TRACE(name);
    const DetectionDb db = DetectionDb::build(circuit);
    const DetectionDb::UntargetedSets sets = db.untargeted_sets();
    const std::vector<std::uint32_t> rep_of = identical_set_classes(
        db, untargeted_set_hashes(db, pool), pool);
    ASSERT_EQ(rep_of.size(), sets.size());
    // Every fault has its representative's set, the representative comes
    // first and represents itself, and no two representatives are equal --
    // together: rep_of[j] is the smallest index with T(g_j)'s set.
    std::set<std::vector<Bitset::word_type>> representatives;
    for (std::size_t j = 0; j < sets.size(); ++j) {
      ASSERT_LE(rep_of[j], j);
      ASSERT_EQ(rep_of[rep_of[j]], rep_of[j]) << j;
      ASSERT_EQ(sets.bitset(j), sets.bitset(rep_of[j])) << j;
      if (rep_of[j] != j) continue;
      const Bitset row = sets.bitset(j);
      ASSERT_TRUE(representatives
                      .emplace(row.words(), row.words() + row.word_count())
                      .second)
          << j;
    }
    EXPECT_EQ(analyze_worst_case(db, pool).distinct_sets,
              representatives.size());
  }
}

TEST(DetectionDb, SetClassesAreIdenticalAcrossThreadCounts) {
  // keyb's hashing and grouping fan out across the pool; dk16 falls under
  // the small-work bound and runs them on the calling thread.
  for (const char* name : {"keyb", "dk16"}) {
    SCOPED_TRACE(name);
    const DetectionDb db = DetectionDb::build(fsm_benchmark_circuit(name));
    const ThreadPool serial(1);
    const std::vector<std::uint64_t> hashes =
        untargeted_set_hashes(db, serial);
    const std::vector<std::uint32_t> expected =
        identical_set_classes(db, hashes, serial);
    for (const unsigned threads : {2u, 4u}) {
      const ThreadPool pool(threads);
      ASSERT_EQ(untargeted_set_hashes(db, pool), hashes) << threads;
      EXPECT_EQ(identical_set_classes(db, hashes, pool), expected) << threads;
    }
  }
}

TEST(DetectionDb, SetClassesRejectMisalignedHashes) {
  const DetectionDb db = DetectionDb::build(paper_example());
  const std::vector<std::uint64_t> short_by_one(db.untargeted().size() - 1);
  EXPECT_THROW(identical_set_classes(db, short_by_one, ThreadPool(1)),
               contract_error);
}

TEST(DetectionDb, WorstCaseMatchesScalarNminOverMaterializedSets) {
  // The oracle circuits plus dk16 and keyb, where most bridges share their
  // set with another and the sweep serves only one per class.
  std::vector<std::pair<std::string, Circuit>> circuits;
  for (auto& [name, circuit, stride] : oracle_circuits())
    circuits.emplace_back(name, std::move(circuit));
  for (const char* name : {"dk16", "keyb"})
    circuits.emplace_back(name, fsm_benchmark_circuit(name));
  for (const auto& [name, circuit] : circuits) {
    SCOPED_TRACE(name);
    // The materialized sets are the same under every policy (see
    // StoredCountsMatchMaterializedSetsUnderEveryPolicy), so the scalar
    // oracle runs once, over the dense freeze.
    const DetectionDb dense = DetectionDb::build(
        circuit, DetectionDbOptions{.representation = SetRepresentation::kDense});
    std::vector<std::uint64_t> expected;
    for (const DetectionSet tg : dense.untargeted_sets())
      expected.push_back(nmin_of(tg, dense.target_sets()));
    for (const SetRepresentation policy : kPolicies) {
      const DetectionDb db = DetectionDb::build(
          circuit, DetectionDbOptions{.representation = policy});
      for (const unsigned threads : {1u, 4u}) {
        const ThreadPool pool(threads);
        EXPECT_EQ(analyze_worst_case(db, pool).nmin, expected)
            << "policy=" << static_cast<int>(policy)
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace ndet
