#include "core/detection_db.hpp"

#include <algorithm>
#include <utility>

#include "sim/batch_fault_sim.hpp"
#include "sim/exhaustive.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

DetectionDb DetectionDb::build(const Circuit& circuit,
                               const DetectionDbOptions& options) {
  const ThreadPool pool(options.num_threads);
  return build(circuit, options, pool);
}

DetectionDb DetectionDb::build(const Circuit& circuit,
                               const DetectionDbOptions& options,
                               const ThreadPool& pool,
                               const CancelToken* cancel) {
  check_cancel(cancel, "detection_db");
  NDET_INJECT("detection_db.alloc",
              throw Error(ErrorKind::kResourceExhausted,
                          "injected allocation failure (site "
                          "detection_db.alloc)", "detection_db"));
  DetectionDb db;
  db.circuit_ = std::make_shared<const Circuit>(circuit);
  db.lines_ = std::make_shared<const LineModel>(*db.circuit_);
  db.representation_ = options.representation;

  const ExhaustiveSimulator good(*db.circuit_, options.max_inputs);
  db.vector_count_ = good.vector_count();
  check_cancel(cancel, "detection_db");
  const std::vector<BridgingFault> enumerated =
      enumerate_four_way_bridging(*db.circuit_);
  db.enumerated_untargeted_ = enumerated.size();

  // Flip simulation and popcount work is about one word pass per line and
  // per enumerated bridge; small circuits build on the calling thread.
  const std::size_t words = good.word_count();
  const ThreadPool& workers =
      pool.for_work(words * (enumerated.size() + db.lines_->line_count()));
  const BatchFaultSimulator simulator(good, *db.lines_, workers);

  // F: collapsed single stuck-at faults, with their detection sets.
  db.targets_ = collapse_stuck_at_faults(*db.lines_);
  std::vector<Bitset> target_sets =
      simulator.detection_sets(db.targets_, cancel);
  db.target_sets_.reserve(target_sets.size());
  for (Bitset& set : target_sets)
    db.target_sets_.push_back(
        DetectionSet::freeze(std::move(set), options.representation));

  // G: four-way bridging faults in factored form.  Every site gate of an
  // enumerated bridge gets a slot holding Obs(its stem) and good(gate);
  // |T(g)| is then one AND-popcount per bridge, which also decides
  // detectability, so no per-bridge set is ever built.
  check_cancel(cancel, "detection_db");
  db.row_words_ = words;
  db.slot_of_.assign(db.circuit_->gate_count(), kNoSlot);
  for (const BridgingFault& fault : enumerated) {
    db.slot_of_[fault.victim] = 0;
    db.slot_of_[fault.aggressor] = 0;
  }
  std::vector<LineId> sites;
  for (GateId g = 0; g < db.slot_of_.size(); ++g) {
    if (db.slot_of_[g] == kNoSlot) continue;
    db.slot_of_[g] = static_cast<std::uint32_t>(sites.size());
    sites.push_back(db.lines_->stem_of(g));
    const std::span<const Bitset::word_type> good_row = good.good_words(g);
    db.good_rows_.insert(db.good_rows_.end(), good_row.begin(),
                         good_row.end());
  }
  db.obs_rows_ = simulator.observability(sites, cancel);

  // X(s, a1) = Obs(s) & [good(s) = a1] once per slot and value; a bridge's
  // count is then popcount(X & good(a)) when a2 = 1, popcount(X & ~good(a))
  // when a2 = 0 (X is zero past |U|, so the complement needs no mask).
  std::vector<Bitset::word_type> activated(2 * db.obs_rows_.size());
  for (std::size_t slot = 0; slot < sites.size(); ++slot) {
    const Bitset::word_type* obs = db.obs_rows_.data() + slot * words;
    const Bitset::word_type* value = db.good_rows_.data() + slot * words;
    Bitset::word_type* x0 = activated.data() + (2 * slot) * words;
    Bitset::word_type* x1 = x0 + words;
    for (std::size_t w = 0; w < words; ++w) {
      x0[w] = obs[w] & ~value[w];
      x1[w] = obs[w] & value[w];
    }
  }
  std::vector<std::uint32_t> counts(enumerated.size());
  constexpr std::size_t kChunk = 4096;
  const simd::Kernels& kern = simd::active_kernels();
  workers.for_each_index(
      (enumerated.size() + kChunk - 1) / kChunk,
      [&](std::size_t chunk, unsigned) {
        const std::size_t end =
            std::min(enumerated.size(), (chunk + 1) * kChunk);
        for (std::size_t i = chunk * kChunk; i < end; ++i) {
          const BridgingFault& fault = enumerated[i];
          const Bitset::word_type* x =
              activated.data() +
              (2 * db.slot_of_[fault.victim] + (fault.victim_value ? 1 : 0)) *
                  words;
          const Bitset::word_type* a =
              db.good_rows_.data() + db.slot_of_[fault.aggressor] * words;
          counts[i] = static_cast<std::uint32_t>(
              fault.aggressor_value ? kern.and_popcount(x, a, words)
                                    : kern.andnot_popcount(x, a, words));
        }
      },
      cancel);
  check_cancel(cancel, "detection_db");
  const auto detectable = static_cast<std::size_t>(
      std::count_if(counts.begin(), counts.end(),
                    [](std::uint32_t c) { return c != 0; }));
  db.untargeted_.reserve(detectable);
  db.untargeted_counts_.reserve(detectable);
  for (std::size_t i = 0; i < enumerated.size(); ++i) {
    if (counts[i] == 0) continue;
    db.untargeted_.push_back(enumerated[i]);
    db.untargeted_counts_.push_back(counts[i]);
  }
  return db;
}

std::size_t DetectionDb::detectable_target_count() const {
  std::size_t count = 0;
  for (const DetectionSet& set : target_sets_)
    if (set.any()) ++count;
  return count;
}

DetectionDb::SetStorage DetectionDb::set_storage() const {
  SetStorage storage;
  for (const DetectionSet& set : target_sets_)
    storage.target_set_bytes += set.memory_bytes();
  storage.site_rows = good_rows_.size() / std::max<std::size_t>(row_words_, 1);
  storage.row_bytes =
      (obs_rows_.size() + good_rows_.size()) * sizeof(Bitset::word_type) +
      slot_of_.size() * sizeof(std::uint32_t);
  storage.count_bytes = untargeted_counts_.size() * sizeof(std::uint32_t);
  return storage;
}

std::size_t DetectionDb::dense_memory_bytes() const {
  return (target_sets_.size() + untargeted_.size()) *
         DetectionSet::dense_memory_bytes(
             static_cast<std::size_t>(vector_count_));
}

void DetectionDb::UntargetedSets::materialize(
    std::size_t j, std::span<Bitset::word_type> row) const {
  const DetectionDb& db = *db_;
  require(j < db.untargeted_.size(),
          "DetectionDb::untargeted_sets: index out of range");
  require(row.size() == db.row_words_,
          "DetectionDb::untargeted_sets: row size mismatch");
  const BridgingFault& fault = db.untargeted_[j];
  const std::size_t words = db.row_words_;
  const std::size_t victim = db.slot_of_[fault.victim] * words;
  const Bitset::word_type* obs = db.obs_rows_.data() + victim;
  const Bitset::word_type* v = db.good_rows_.data() + victim;
  const Bitset::word_type* a =
      db.good_rows_.data() + db.slot_of_[fault.aggressor] * words;
  // [good(g) == value] is good(g) when value = 1 and ~good(g) when 0.
  const Bitset::word_type v_flip = fault.victim_value ? 0 : ~Bitset::word_type{0};
  const Bitset::word_type a_flip =
      fault.aggressor_value ? 0 : ~Bitset::word_type{0};
  for (std::size_t w = 0; w < words; ++w)
    row[w] = obs[w] & (v[w] ^ v_flip) & (a[w] ^ a_flip);
}

Bitset DetectionDb::UntargetedSets::bitset(std::size_t j) const {
  Bitset set(static_cast<std::size_t>(db_->vector_count_));
  materialize(j, {set.words(), set.word_count()});
  return set;
}

DetectionSet DetectionDb::UntargetedSets::operator[](std::size_t j) const {
  return DetectionSet::freeze(bitset(j), db_->representation_);
}

std::vector<Bitset> transpose_detection_sets(std::span<const DetectionSet> sets,
                                             std::uint64_t vector_count) {
  std::vector<Bitset> rows(vector_count, Bitset(sets.size()));
  for (std::size_t i = 0; i < sets.size(); ++i)
    sets[i].for_each_set([&](std::size_t v) { rows[v].set(i); });
  return rows;
}

}  // namespace ndet
