#include "core/worst_case.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/pair_kernels.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

namespace {

/// Untargeted faults hashed per claimed chunk.
constexpr std::size_t kHashChunk = 4096;
constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};
/// Initial slots of a grouping table (a power of two).
constexpr std::size_t kFirstTableSlots = 256;
/// Words of representative rows a grouping worker keeps (1 MiB); past it,
/// a representative's row is materialized again for each comparison.
constexpr std::size_t kCachedRowWords = std::size_t{1} << 17;
constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

std::size_t row_words(const DetectionDb& db) {
  return (static_cast<std::size_t>(db.vector_count()) + Bitset::kWordBits -
          1) /
         Bitset::kWordBits;
}

/// Hashing and grouping each make about one word pass per fault in G.
const ThreadPool& class_workers(const DetectionDb& db, const ThreadPool& pool) {
  return pool.for_work(db.untargeted().size() * row_words(db));
}

/// 64 x 64 -> 128-bit multiply, high and low halves folded (wyhash's mum).
std::uint64_t fold_multiply(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

/// Two words per folded multiply on two independent lanes (one chain
/// would be latency-bound), seeded with |T(g)|.
std::uint64_t hash_row(std::uint32_t count,
                       std::span<const Bitset::word_type> row) {
  constexpr std::uint64_t kSeed[4] = {
      0xa0761d6478bd642fULL, 0xe7037ed1a0b428dbULL, 0x8ebc6af09c88c6e3ULL,
      0x589965cc75374cc3ULL};
  std::uint64_t lane[2] = {count, ~std::uint64_t{count}};
  std::size_t w = 0;
  for (; w + 4 <= row.size(); w += 4) {
    lane[0] = std::rotl(
        lane[0] + fold_multiply(row[w] ^ kSeed[0], row[w + 1] ^ kSeed[1]), 23);
    lane[1] = std::rotl(
        lane[1] + fold_multiply(row[w + 2] ^ kSeed[2], row[w + 3] ^ kSeed[3]),
        41);
  }
  for (; w < row.size(); ++w)
    lane[0] = std::rotl(
        lane[0] + fold_multiply(row[w] ^ kSeed[0], kSeed[w & 3]), 23);
  return fold_multiply(lane[0] ^ kSeed[1], lane[1] ^ kSeed[2]);
}

}  // namespace

double WorstCaseResult::fraction_at_most(std::uint64_t n) const {
  if (nmin.empty()) return 0.0;
  std::size_t count = 0;
  for (const std::uint64_t v : nmin)
    if (v != kNeverGuaranteed && v <= n) ++count;
  return static_cast<double>(count) / static_cast<double>(nmin.size());
}

std::size_t WorstCaseResult::count_at_least(std::uint64_t n) const {
  std::size_t count = 0;
  for (const std::uint64_t v : nmin)
    if (v >= n) ++count;
  return count;
}

std::vector<std::size_t> WorstCaseResult::indices_at_least(
    std::uint64_t n) const {
  std::vector<std::size_t> indices;
  for (std::size_t j = 0; j < nmin.size(); ++j)
    if (nmin[j] >= n) indices.push_back(j);
  return indices;
}

std::map<std::uint64_t, std::size_t> WorstCaseResult::histogram() const {
  std::map<std::uint64_t, std::size_t> h;
  for (const std::uint64_t v : nmin) ++h[v];
  return h;
}

std::uint64_t WorstCaseResult::max_finite_nmin() const {
  std::uint64_t best = 0;
  for (const std::uint64_t v : nmin)
    if (v != kNeverGuaranteed) best = std::max(best, v);
  return best;
}

std::string to_json(const WorstCaseResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("fault_count").value(static_cast<std::uint64_t>(result.nmin.size()));
  w.key("never_guaranteed")
      .value(static_cast<std::uint64_t>(result.count_at_least(kNeverGuaranteed)));
  w.key("max_finite_nmin").value(result.max_finite_nmin());
  w.key("nmin").begin_array();
  for (const std::uint64_t v : result.nmin) {
    if (v == kNeverGuaranteed)
      w.null();
    else
      w.value(v);
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::uint64_t nmin_of(const DetectionSet& untargeted_set,
                      std::span<const DetectionSet> target_sets) {
  std::uint64_t best = kNeverGuaranteed;
  for (const DetectionSet& tf : target_sets) {
    const std::size_t m = tf.intersect_count(untargeted_set);
    if (m == 0) continue;
    const std::uint64_t candidate = tf.count() - m + 1;
    best = std::min(best, candidate);
    if (best == 1) break;  // cannot get smaller
  }
  return best;
}

WorstCaseResult analyze_worst_case(const DetectionDb& db,
                                   const AnalysisOptions& options) {
  const ThreadPool pool(options.num_threads);
  return analyze_worst_case(db, pool);
}

std::vector<std::uint64_t> untargeted_set_hashes(const DetectionDb& db,
                                                 const ThreadPool& pool,
                                                 const CancelToken* cancel) {
  check_cancel(cancel, "worst_case");
  const DetectionDb::UntargetedSets sets = db.untargeted_sets();
  std::vector<std::uint64_t> hashes(sets.size());
  const ThreadPool& workers = class_workers(db, pool);
  const std::size_t chunks = (sets.size() + kHashChunk - 1) / kHashChunk;
  std::vector<std::vector<Bitset::word_type>> rows(
      workers.workers_for(chunks),
      std::vector<Bitset::word_type>(row_words(db)));
  workers.for_each_index(chunks, [&](std::size_t chunk, unsigned worker) {
    std::vector<Bitset::word_type>& row = rows[worker];
    const std::size_t end = std::min(sets.size(), (chunk + 1) * kHashChunk);
    for (std::size_t j = chunk * kHashChunk; j < end; ++j) {
      sets.materialize(j, row);
      hashes[j] = hash_row(sets.count(j), row);
    }
  }, cancel);
  check_cancel(cancel, "worst_case");
  return hashes;
}

std::vector<std::uint32_t> identical_set_classes(
    const DetectionDb& db, std::span<const std::uint64_t> hashes,
    const ThreadPool& pool, const CancelToken* cancel) {
  const DetectionDb::UntargetedSets sets = db.untargeted_sets();
  require(hashes.size() == sets.size(),
          "identical_set_classes: one hash per untargeted fault");
  check_cancel(cancel, "worst_case");
  std::vector<std::uint32_t> rep_of(sets.size());
  if (sets.empty()) return rep_of;

  // Shard by the top hash bits (equal sets hash equally, so a class never
  // spans two shards), keeping each shard's faults in ascending order.
  // Two shards per worker balance the pool; one serial shard walks G in
  // order, where more would stride through every per-fault array.
  const ThreadPool& workers = class_workers(db, pool);
  const std::size_t shards =
      workers.thread_count() == 1 ? 1 : std::bit_ceil(2 * workers.thread_count());
  const int shard_bits = std::countr_zero(shards);
  const auto shard_of = [&](std::uint64_t h) {
    return shard_bits == 0 ? std::size_t{0}
                           : static_cast<std::size_t>(h >> (64 - shard_bits));
  };
  std::vector<std::size_t> first(shards + 1, 0);
  for (const std::uint64_t h : hashes) ++first[shard_of(h) + 1];
  for (std::size_t s = 0; s < shards; ++s) first[s + 1] += first[s];
  std::vector<std::uint32_t> order(sets.size());
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t j = 0; j < sets.size(); ++j)
      order[next[shard_of(hashes[j])]++] = static_cast<std::uint32_t>(j);
  }

  // Each shard inserts its faults in ascending index order into an
  // open-addressing table of representatives.  A fault joins the entry
  // whose hash, count and materialized row all equal its own, else it
  // becomes a representative: the first fault of each class inserted is
  // its smallest index, whatever the shard or worker count.
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t count = 0;
    std::uint32_t index = kEmptySlot;
    std::uint32_t row = kNoRow;  ///< the representative's row in `cached`
  };
  // Doubles the table (kept at most half full) and reinserts its entries.
  const auto grow = [](std::vector<Slot>& table) {
    const std::vector<Slot> old =
        std::exchange(table, std::vector<Slot>(2 * table.size()));
    const std::size_t mask = table.size() - 1;
    for (const Slot& slot : old) {
      if (slot.index == kEmptySlot) continue;
      std::size_t i = slot.hash & mask;
      while (table[i].index != kEmptySlot) i = (i + 1) & mask;
      table[i] = slot;
    }
    return mask;
  };
  struct Scratch {
    std::vector<Slot> table;
    std::vector<Bitset::word_type> row, other, cached;
  };
  std::vector<Scratch> scratch(workers.workers_for(shards));
  const std::size_t words = row_words(db);
  workers.for_each_index(shards, [&](std::size_t shard, unsigned worker) {
    Scratch& s = scratch[worker];
    const std::span<const std::uint32_t> members(
        order.data() + first[shard], first[shard + 1] - first[shard]);
    s.table.assign(kFirstTableSlots, Slot{});
    std::size_t mask = kFirstTableSlots - 1;
    std::size_t reps = 0;
    s.row.resize(words);
    s.other.resize(words);
    s.cached.clear();
    for (const std::uint32_t j : members) {
      const std::uint64_t h = hashes[j];
      const std::uint32_t count = sets.count(j);
      sets.materialize(j, s.row);
      for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        Slot& slot = s.table[i];
        if (slot.index == kEmptySlot) {
          slot = {h, count, j, kNoRow};
          if (s.cached.size() + words <= kCachedRowWords) {
            slot.row = static_cast<std::uint32_t>(s.cached.size() / words);
            s.cached.insert(s.cached.end(), s.row.begin(), s.row.end());
          }
          rep_of[j] = j;
          if (2 * ++reps > s.table.size()) mask = grow(s.table);
          break;
        }
        if (slot.hash != h || slot.count != count) continue;
        if (slot.row == kNoRow) sets.materialize(slot.index, s.other);
        const Bitset::word_type* rep_row =
            slot.row == kNoRow ? s.other.data()
                               : s.cached.data() + slot.row * words;
        if (std::equal(s.row.begin(), s.row.end(), rep_row)) {
          rep_of[j] = slot.index;
          break;
        }
      }
    }
  }, cancel);
  check_cancel(cancel, "worst_case");
  return rep_of;
}

WorstCaseResult analyze_worst_case(const DetectionDb& db,
                                   const ThreadPool& pool,
                                   const CancelToken* cancel) {
  check_cancel(cancel, "worst_case");
  WorstCaseResult result;
  const DetectionDb::UntargetedSets untargeted = db.untargeted_sets();
  result.nmin.assign(untargeted.size(), kNeverGuaranteed);
  if (untargeted.empty()) return result;

  // nmin(g) is a function of the set T(g), so only one representative per
  // identical-set class is swept.
  const std::vector<std::uint32_t> rep_of = identical_set_classes(
      db, untargeted_set_hashes(db, pool, cancel), pool, cancel);
  std::vector<std::uint32_t> reps;
  for (std::size_t j = 0; j < rep_of.size(); ++j)
    if (rep_of[j] == j) reps.push_back(static_cast<std::uint32_t>(j));
  result.distinct_sets = reps.size();

  // Pack the targets once (N(f)-ascending tiles), then serve the
  // representatives in engine-width batches: each member is materialized
  // from the factored store straight into the worker's staging row, each
  // batch streams every needed tile once for all its members, and writes
  // only its own members' nmin slots, so the shard is deterministic at
  // every thread count.  The sweep makes at most one word pass per
  // representative and target, which the small-work rule weighs.
  const PairKernelEngine engine(db.target_sets(),
                                static_cast<std::size_t>(db.vector_count()));
  const ThreadPool& workers = pool.for_work(
      reps.size() * engine.detectable_targets() * row_words(db));
  constexpr std::size_t kWidth = PairKernelEngine::kBatchWidth;
  const std::size_t batches = (reps.size() + kWidth - 1) / kWidth;
  std::vector<PairKernelEngine::Scratch> scratch(workers.workers_for(batches));
  workers.for_each_index(batches, [&](std::size_t batch, unsigned worker) {
    PairKernelEngine::Scratch& s = scratch[worker];
    const std::size_t begin = batch * kWidth;
    const std::size_t size = std::min(kWidth, reps.size() - begin);
    std::uint32_t sizes[kWidth];
    std::uint64_t nmin[kWidth];
    for (std::size_t b = 0; b < size; ++b) {
      untargeted.materialize(reps[begin + b], engine.member_row(s, b));
      sizes[b] = untargeted.count(reps[begin + b]);
    }
    engine.nmin_batch({sizes, size}, {nmin, size}, s);
    for (std::size_t b = 0; b < size; ++b)
      result.nmin[reps[begin + b]] = nmin[b];
  }, cancel);
  check_cancel(cancel, "worst_case");

  // rep_of[j] <= j, and every representative already holds its value.
  for (std::size_t j = 0; j < rep_of.size(); ++j)
    result.nmin[j] = result.nmin[rep_of[j]];
  return result;
}

std::vector<OverlapEntry> overlap_entries(const DetectionDb& db,
                                          std::size_t untargeted_index,
                                          const AnalysisOptions& options) {
  const ThreadPool pool(options.num_threads);
  return overlap_entries(db, untargeted_index, pool);
}

std::vector<OverlapEntry> overlap_entries(const DetectionDb& db,
                                          std::size_t untargeted_index,
                                          const ThreadPool& pool) {
  require(untargeted_index < db.untargeted().size(),
          "overlap_entries: untargeted fault index out of range");
  const Bitset tg = db.untargeted_sets().bitset(untargeted_index);
  const std::span<const DetectionSet> target_sets = db.target_sets();
  const PairKernelEngine engine(target_sets,
                                static_cast<std::size_t>(db.vector_count()));
  std::vector<std::uint32_t> m(target_sets.size());
  engine.intersect_counts(tg, m, pool);
  std::vector<OverlapEntry> entries;
  for (std::size_t i = 0; i < target_sets.size(); ++i) {
    if (m[i] == 0) continue;
    const std::size_t n_f = target_sets[i].count();
    entries.push_back({i, n_f, m[i], n_f - m[i] + 1});
  }
  return entries;
}

}  // namespace ndet
