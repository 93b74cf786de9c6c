#include "core/procedure1.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/pair_kernels.hpp"
#include "sim/ternary_sim.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

double AverageCaseResult::probability(int n, std::size_t j) const {
  require(n >= 1 && n <= config.nmax, "AverageCaseResult: n out of range");
  require(j < monitored.size(), "AverageCaseResult: fault index out of range");
  return static_cast<double>(detect_count[static_cast<std::size_t>(n - 1)][j]) /
         static_cast<double>(config.num_sets);
}

std::size_t AverageCaseResult::count_probability_at_least(
    int n, double threshold) const {
  std::size_t count = 0;
  for (std::size_t j = 0; j < monitored.size(); ++j)
    if (probability(n, j) >= threshold - 1e-12) ++count;
  return count;
}

std::string to_json(const AverageCaseResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("nmax").value(result.config.nmax);
  w.key("num_sets").value(static_cast<std::uint64_t>(result.config.num_sets));
  w.key("seed").value(result.config.seed);
  w.key("definition")
      .value(result.config.definition == DetectionDefinition::kStandard ? 1 : 2);
  w.key("def2_probe_limit")
      .value(static_cast<std::uint64_t>(result.config.def2_probe_limit));
  w.key("monitored").begin_array();
  for (const std::size_t j : result.monitored)
    w.value(static_cast<std::uint64_t>(j));
  w.end_array();
  // Exact d(n,g) counts rather than the derived p(n,g): consumers divide by
  // num_sets themselves and lose nothing to double formatting.
  w.key("detect_count").begin_array();
  for (const auto& row : result.detect_count) {
    w.begin_array();
    for (const std::uint32_t d : row) w.value(static_cast<std::uint64_t>(d));
    w.end_array();
  }
  w.end_array();
  w.key("set_sizes").begin_array();
  for (const auto& row : result.set_sizes) {
    w.begin_array();
    for (const std::uint32_t s : row) w.value(static_cast<std::uint64_t>(s));
    w.end_array();
  }
  w.end_array();
  w.key("stats")
      .begin_object()
      .key("tests_added")
      .value(result.stats.tests_added)
      .key("def1_fallbacks")
      .value(result.stats.def1_fallbacks)
      .key("distinct_queries")
      .value(result.stats.distinct_queries)
      .end_object();
  w.end_object();
  return w.str();
}

namespace {

/// Definition-2 incremental counting state for one (set, fault) pair: the
/// greedily counted tests and a cursor into the set's insertion order.
struct Def2State {
  std::vector<std::uint32_t> counted;
  std::uint32_t cursor = 0;
};

/// Draw-site coordinates (the c1 counter word).  Each decision a trajectory
/// can make draws at its own site, so no two decisions ever share a
/// CounterRng coordinate:
///   * kSiteMain        -- the one uniform pick from T(f) - T_k (the Def-1
///                         draw and the Def-2 fallback draw; at most one of
///                         the two happens per (n, fault) visit),
///   * kSiteCandidates  -- the Def-2 pick from the enumerated candidate
///                         list,
///   * kSiteProbeBase+p -- the p-th Def-2 bounded random probe.
constexpr std::uint64_t kSiteMain = 0;
constexpr std::uint64_t kSiteCandidates = 1;
constexpr std::uint64_t kSiteProbeBase = 2;

/// The c0 counter word of every draw in iteration n for target fault i
/// (original family index): a draw's identity is (set, n, i, site,
/// rejection attempt), so its value is independent of visit order, batch
/// width and scheduling.
inline std::uint64_t draw_c0(int n, std::uint32_t original_i) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(n)) << 32) |
         original_i;
}

/// Read-only inputs shared by every batch group (and every worker).
struct GroupInputs {
  const PairKernelEngine* engine = nullptr;
  std::span<const DetectionSet> target_sets;
  std::span<const Bitset> monitored_rows;  ///< per-vector detected monitored
  std::uint64_t vectors = 0;
  std::size_t monitored_count = 0;
  int nmax = 1;
  std::uint64_t seed = 0;
  bool def2 = false;
  std::size_t def2_probe_limit = 32;
};

/// Everything one set's end-to-end trajectory produces.  Slots are
/// index-aligned with k, so the merge is deterministic at any thread count.
struct SetResult {
  std::vector<Bitset> detected;      ///< [n-1]: monitored faults detected
  std::vector<std::uint32_t> sizes;  ///< [n-1]: |T_k| after iteration n
  std::vector<std::uint32_t> order;  ///< final insertion order
  Procedure1Stats stats;
};

/// A (set, target) pair that can never need work again: T(f) became a
/// subset of T_k, or the detection count reached nmax.
constexpr std::uint32_t kRetired = ~std::uint32_t{0};


/// Mutable trajectory state of one set T_k inside a batch group.  Target
/// bookkeeping is indexed by the engine's SORTED target order.
///
/// `known[k]` is the visit-skipping cache: a LOWER BOUND on the pair's
/// detection count (plain |T(f) n T_k| under Definition 1, the greedy
/// counted-set size under Definition 2 -- both monotone, since T_k only
/// grows and the counted set only appends).  A visit in iteration n is a
/// guaranteed no-op whenever the count is already >= n, so `known[k] >= n`
/// skips the visit -- no kernel pass, no draws, no state change -- and the
/// bound is refreshed to the exact count whenever a visit does measure it.
/// Retired pairs store kRetired, which no iteration index reaches.
/// `tile_min_known[t]` caches the min of `known` over a tile, so whole
/// tiles (and eventually whole members) drop out of the sweep in O(1):
/// entries only grow between sweeps, so a recorded min stays a valid lower
/// bound until the next sweep rewrites it.
struct MemberState {
  /// Builds the trajectory state, consuming `frontier`: a fresh frontier
  /// (completed_n == 0) starts the set from scratch, a resumed one restores
  /// exactly the state the checkpoint captured.  tile_min_known is always
  /// recomputed from `known` because the engine's tile geometry can differ
  /// between the checkpointing and the resuming build (SIMD level), while
  /// the N(f)-sorted target order cannot.
  MemberState(const GroupInputs& in, std::uint64_t set_index,
              Procedure1SetFrontier&& frontier)
      : rng(in.seed, set_index),
        members(in.vectors),
        detected(in.monitored_count),
        start_n(frontier.completed_n) {
    const std::size_t targets = in.engine->detectable_targets();
    known.assign(targets, 0);
    if (in.def2) def2.resize(targets);
    const auto nmax = static_cast<std::size_t>(in.nmax);
    out.detected.reserve(nmax);
    out.sizes.reserve(nmax);
    if (start_n > 0) {
      members = std::move(frontier.members);
      detected = std::move(frontier.detected);
      known = std::move(frontier.known);
      out.detected = std::move(frontier.detected_snapshots);
      out.sizes = std::move(frontier.sizes);
      out.order = std::move(frontier.order);
      out.stats = frontier.stats;
      if (in.def2) {
        for (std::size_t k = 0; k < targets; ++k) {
          def2[k].counted = std::move(frontier.def2_counted[k]);
          def2[k].cursor = frontier.def2_cursor[k];
        }
      }
    }
    tile_min_known.resize(in.engine->tile_count());
    for (std::size_t t = 0; t < in.engine->tile_count(); ++t) {
      const auto [tile_begin, tile_end] = in.engine->tile_range(t);
      std::uint32_t tile_min = kRetired;
      for (std::uint32_t k = tile_begin; k < tile_end; ++k)
        tile_min = std::min(tile_min, known[k]);
      tile_min_known[t] = tile_min;
    }
  }

  CounterRng rng;
  Bitset members;   ///< tests currently in T_k
  Bitset detected;  ///< over the monitored list
  int start_n = 0;  ///< iterations already covered by the resume frontier
  std::vector<std::uint32_t> known;           ///< per sorted target
  std::vector<std::uint32_t> tile_min_known;  ///< min of known per tile
  std::vector<Def2State> def2;  ///< per sorted target (Def-2 runs only)
  SetResult out;
};

void add_test(const GroupInputs& in, MemberState& ms, std::uint32_t test) {
  ms.members.set(test);
  ms.out.order.push_back(test);
  ms.detected |= in.monitored_rows[test];
  ++ms.out.stats.tests_added;
}

/// One worker's Definition-2 query machinery: a lane oracle over the
/// run's shared program plus reusable pair and verdict buffers.
struct Def2Worker {
  explicit Def2Worker(const Def2Program& program) : oracle(program) {}

  Def2Oracle oracle;
  std::vector<std::uint64_t> ts, ss;        ///< packed (t, s) pairs
  std::vector<std::uint64_t> detected;      ///< one verdict bit per pair
  std::vector<std::uint32_t> block;         ///< refresh_def2's new tests
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint32_t> first_similar; ///< per screened candidate

  void add_pair(std::uint32_t t, std::uint32_t s) {
    ts.push_back(t);
    ss.push_back(s);
  }

  /// Decides every packed pair for target i in 64-lane kernel passes.
  void decide(std::uint32_t i) {
    detected.resize((ts.size() + Def2Oracle::kLanes - 1) / Def2Oracle::kLanes);
    if (!ts.empty()) oracle.detect_pairs(i, ts, ss, detected);
  }

  /// True when pair p's common vector detects the target (p is similar).
  bool similar(std::size_t p) const {
    return ((detected[p / Def2Oracle::kLanes] >> (p % Def2Oracle::kLanes)) &
            1u) != 0;
  }
};

/// Screens every candidate against the counted set of target i, all
/// |candidates| x |counted| pairs in one decide().  Leaves in
/// w.first_similar[c] the position of the first counted test similar to
/// candidate c, or |counted| when c is dissimilar from every counted test,
/// i.e. adds a Definition-2 detection.
void screen(Def2Worker& w, std::uint32_t i,
            std::span<const std::uint32_t> counted,
            std::span<const std::uint32_t> candidates) {
  const std::size_t m = counted.size();
  w.ts.clear();
  w.ss.clear();
  for (const std::uint32_t t : candidates)
    for (const std::uint32_t s : counted) w.add_pair(t, s);
  w.decide(i);
  w.first_similar.assign(candidates.size(), static_cast<std::uint32_t>(m));
  for (std::size_t c = 0; c < candidates.size(); ++c)
    for (std::size_t j = 0; j < m; ++j)
      if (w.similar(c * m + j)) {
        w.first_similar[c] = static_cast<std::uint32_t>(j);
        break;
      }
}

/// The oracle calls the sequential early-exit scan of one candidate makes:
/// up to and including the first similar counted test, or all of them.
/// distinct_queries is charged by this rule, so it does not depend on how
/// pairs are packed into lanes.
inline std::uint64_t query_charge(std::uint32_t first_similar,
                                  std::size_t counted) {
  return first_similar < counted ? first_similar + 1u : counted;
}

/// Brings the greedy Definition-2 counted set of sorted target k (original
/// index i) up to date with the tests added to T_k since the last visit.
/// The counted set is a pure function of the insertion-order prefix, so
/// deferred refreshes (retirement skips) cannot change it.
///
/// The greedy scan compares each new test of T(f_i) with the counted set
/// as it stands -- including the new tests it accepted a moment earlier --
/// so new tests are decided in blocks: block test q is paired with the m
/// counted tests and then with the block's q earlier tests (m + q lanes),
/// and a block grows while its pairs fit one kernel pass.  The scan is then
/// replayed over the verdicts, charging exactly the comparisons it makes.
Def2State& refresh_def2(const GroupInputs& in, MemberState& ms, std::size_t k,
                        std::uint32_t i, Def2Worker& w) {
  Def2State& st = ms.def2[k];
  const DetectionSet& tf = in.target_sets[i];
  const std::vector<std::uint32_t>& order = ms.out.order;
  std::vector<std::uint32_t>& block = w.block;
  for (;;) {
    const std::size_t m = st.counted.size();
    block.clear();
    w.ts.clear();
    w.ss.clear();
    for (; st.cursor < order.size(); ++st.cursor) {
      const std::uint32_t t = order[st.cursor];
      if (!tf.test(t)) continue;
      if (!block.empty() &&
          w.ts.size() + m + block.size() > Def2Oracle::kLanes)
        break;
      for (const std::uint32_t s : st.counted) w.add_pair(t, s);
      for (const std::uint32_t s : block) w.add_pair(t, s);
      block.push_back(t);
    }
    if (block.empty()) return st;
    w.decide(i);
    std::uint64_t accepted = 0;  // bit q: block test q joined the set
    std::size_t row = 0;
    for (std::size_t q = 0; q < block.size(); ++q) {
      bool similar = false;
      for (std::size_t j = 0; j < m + q && !similar; ++j) {
        if (j >= m && ((accepted >> (j - m)) & 1u) == 0) continue;
        ++ms.out.stats.distinct_queries;
        similar = w.similar(row + j);
      }
      if (!similar) {
        st.counted.push_back(block[q]);
        accepted |= std::uint64_t{1} << q;
      }
      row += m + q;
    }
  }
}

/// One Definition-1 visit of (T_k, sorted target k) in iteration n.
/// `count` = |T(f) n T_k| from the batched kernel -- which IS the plain
/// detection count, so no per-added-test scatter is needed to maintain it,
/// and |T(f) - T_k| follows as N(f) - count without a second kernel pass.
/// Publishes the resulting exact count (or kRetired) into ms.known[k].
void visit_def1(const GroupInputs& in, MemberState& ms, int n, std::size_t k,
                std::uint32_t count) {
  const std::uint32_t n_f = in.engine->n_f(k);
  const auto need = static_cast<std::uint32_t>(n);
  const auto nmax = static_cast<std::uint32_t>(in.nmax);
  std::uint32_t have = count;
  bool keep = true;
  if (count < need) {
    const std::uint64_t available = n_f - count;
    if (available == 0) {
      keep = false;  // T(f) is contained in T_k: inert forever
    } else {
      const std::uint32_t i = in.engine->original_index(k);
      const DetectionSet& tf = in.target_sets[i];
      const std::uint64_t r = ms.rng.below(available, draw_c0(n, i), kSiteMain);
      add_test(in, ms,
               static_cast<std::uint32_t>(tf.nth_in_difference(ms.members, r)));
      ++have;
      if (available == 1) keep = false;  // that was the last test
    }
  }
  if (keep && have >= nmax) keep = false;  // saturated
  ms.known[k] = keep ? have : kRetired;
}

/// One Definition-2 visit: count via the greedy dissimilarity clique, with
/// the Definition-1 fallback of Section 4.  `count` = |T(f) n T_k| as
/// above (the plain detection count the fallback condition needs).
/// Publishes the post-visit counted-set size (or kRetired) into
/// ms.known[k]; skipped visits also defer the refresh, which is sound
/// because the counted set depends only on the insertion-order prefix.
void visit_def2(const GroupInputs& in, MemberState& ms, int n, std::size_t k,
                std::uint32_t count, Def2Worker& w) {
  const std::uint32_t n_f = in.engine->n_f(k);
  const std::uint32_t i = in.engine->original_index(k);
  const DetectionSet& tf = in.target_sets[i];
  const auto need = static_cast<std::size_t>(n);
  const auto nmax = static_cast<std::size_t>(in.nmax);
  const std::uint64_t c0 = draw_c0(n, i);
  bool keep = true;

  Def2State& st = refresh_def2(in, ms, k, i, w);
  if (st.counted.size() < need) {
    const std::uint64_t available = n_f - count;
    if (available == 0) {
      // The refresh above is current and every test of f is already in T_k,
      // so no future order entry can be in T(f): inert forever.
      keep = false;
    } else {
      // Look for a candidate that adds a Definition-2 detection.
      const std::size_t counted = st.counted.size();
      std::vector<std::uint32_t>& candidates = w.candidates;
      std::uint32_t chosen = 0;
      bool found = false;
      if (available <= 64) {
        // Small difference: enumerate T(f_i) - T_k in ascending order,
        // screen every candidate at once, and pick uniformly among the
        // qualifying ones.
        candidates.clear();
        tf.for_each_set([&](std::size_t v) {
          if (!ms.members.test(v))
            candidates.push_back(static_cast<std::uint32_t>(v));
        });
        screen(w, i, st.counted, candidates);
        std::size_t qualifying = 0;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
          ms.out.stats.distinct_queries +=
              query_charge(w.first_similar[c], counted);
          if (w.first_similar[c] == counted)
            candidates[qualifying++] = candidates[c];
        }
        if (qualifying > 0) {
          chosen = candidates[ms.rng.below(qualifying, c0, kSiteCandidates)];
          found = true;
        }
      } else {
        // Large difference: bounded random probing, one site per probe, the
        // first qualifying probe taken.  Probe draws are pure coordinates
        // and T_k does not change while probing, so probes are drawn and
        // screened as many per kernel pass as the lanes hold; probes after
        // the chosen one are neither charged nor looked at.
        const std::size_t per_pass = std::max<std::size_t>(
            1, Def2Oracle::kLanes / std::max<std::size_t>(counted, 1));
        for (std::size_t first = 0; !found && first < in.def2_probe_limit;
             first += per_pass) {
          const std::size_t probes =
              std::min(per_pass, in.def2_probe_limit - first);
          candidates.clear();
          for (std::size_t p = 0; p < probes; ++p) {
            const std::uint64_t r =
                ms.rng.below(available, c0, kSiteProbeBase + first + p);
            candidates.push_back(static_cast<std::uint32_t>(
                tf.nth_in_difference(ms.members, r)));
          }
          screen(w, i, st.counted, candidates);
          for (std::size_t p = 0; p < probes; ++p) {
            ms.out.stats.distinct_queries +=
                query_charge(w.first_similar[p], counted);
            if (w.first_similar[p] == counted) {
              chosen = candidates[p];
              found = true;
              break;
            }
          }
        }
      }

      if (found) {
        add_test(in, ms, chosen);
        // The new test is in T(f_i) and distinct: count it immediately.
        refresh_def2(in, ms, k, i, w);
        if (available == 1) keep = false;
      } else if (count < need) {
        // Definition-1 fallback: no test can increase the Definition-2
        // count, but the fault is still short of n plain detections.
        const std::uint64_t r = ms.rng.below(available, c0, kSiteMain);
        add_test(in, ms,
                 static_cast<std::uint32_t>(tf.nth_in_difference(ms.members, r)));
        ++ms.out.stats.def1_fallbacks;
        if (available == 1) {
          refresh_def2(in, ms, k, i, w);  // settle before retiring
          keep = false;
        }
      }
    }
  }
  if (keep && st.counted.size() >= nmax) keep = false;  // saturated
  ms.known[k] = keep ? static_cast<std::uint32_t>(st.counted.size()) : kRetired;
}

/// Runs one batch group of `width` consecutive sets (first_set..+width)
/// through all nmax iterations in lockstep.  Per iteration the group walks
/// the engine's tiles in N(f)-ascending order; a member enters a tile's
/// sweep only if its cached tile_min_known bound admits work somewhere in
/// the tile (tiles saturate together because detection counts track N(f),
/// so whole tiles drop to an O(1) check within a couple of iterations).
/// Inside a tile the sweep stays DENSE: every entered member's row rides
/// every saturation_counts batch at constant width, and each member's
/// visit logic runs on its own exact count.  (Measured repeatedly, and
/// against intuition: per-pair `known >= n` skips and per-pair inline
/// counts are SLOWER here -- the constant-width register-blocked batch
/// plus a branch-light visit loop beats every sparse variant, because a
/// handful of redundant popcounts costs less than the data-dependent
/// branches and list rebuilding sparseness needs.)  Members mutate only
/// their own state, every draw is coordinate-addressed, and the skip rule
/// reads only the member's own monotone bounds, so a member's trajectory
/// is the same at every width, thread count and SIMD level; the batch only
/// changes how many sets share one pass over the target payloads.
/// Members enter and leave through their frontiers: each starts at its own
/// completed_n (frontiers can be heterogeneous after a resume regrouped the
/// sets under a different batch width) and joins iteration n only once n
/// exceeds it.  A fired CancelToken is observed at ITERATION BOUNDARIES
/// only -- inside an iteration a member's per-target visit order and draws
/// are already fixed, so stopping between iterations is what keeps the
/// frontier a clean prefix of the uninterrupted trajectory and makes resume
/// bit-identical.
void run_group(const GroupInputs& in, std::size_t first_set, std::size_t width,
               std::span<Procedure1SetFrontier> frontiers, Def2Worker* def2,
               const CancelToken* cancel) {
  const PairKernelEngine& engine = *in.engine;
  std::vector<MemberState> group;
  group.reserve(width);
  for (std::size_t b = 0; b < width; ++b)
    group.emplace_back(in, static_cast<std::uint64_t>(first_set + b),
                       std::move(frontiers[b]));

  std::uint32_t active[PairKernelEngine::kBatchWidth];
  std::uint32_t new_min[PairKernelEngine::kBatchWidth];
  const Bitset::word_type* rows[PairKernelEngine::kBatchWidth];
  std::uint32_t counts[PairKernelEngine::kBatchWidth];

  int reached = in.nmax;  ///< last iteration the loop below finished
  for (int n = 1; n <= in.nmax; ++n) {
    const auto need = static_cast<std::uint32_t>(n);
    for (std::size_t t = 0; t < engine.tile_count(); ++t) {
      std::size_t num_active = 0;
      for (std::size_t b = 0; b < width; ++b)
        if (group[b].start_n < n && group[b].tile_min_known[t] < need) {
          active[num_active] = static_cast<std::uint32_t>(b);
          rows[num_active] = group[b].members.words();
          new_min[num_active] = kRetired;
          ++num_active;
        }
      if (num_active == 0) continue;
      const auto [tile_begin, tile_end] = engine.tile_range(t);
      for (std::uint32_t k = tile_begin; k < tile_end; ++k) {
        engine.saturation_counts(k, rows, num_active, counts);
        for (std::size_t a = 0; a < num_active; ++a) {
          MemberState& ms = group[active[a]];
          if (ms.known[k] != kRetired) {
            if (def2 != nullptr)
              visit_def2(in, ms, n, k, counts[a], *def2);
            else
              visit_def1(in, ms, n, k, counts[a]);
          }
          new_min[a] = std::min(new_min[a], ms.known[k]);
        }
      }
      for (std::size_t a = 0; a < num_active; ++a)
        group[active[a]].tile_min_known[t] = new_min[a];
    }
    // Snapshot every participating member's state at the end of iteration n
    // (saturated members keep snapshotting their frozen state; resumed
    // members already carry their snapshots up to start_n).
    for (MemberState& ms : group) {
      if (ms.start_n >= n) continue;
      ms.out.detected.push_back(ms.detected);
      ms.out.sizes.push_back(static_cast<std::uint32_t>(ms.out.order.size()));
    }
    if (n < in.nmax && is_cancelled(cancel)) {
      reached = n;
      break;
    }
  }

  for (std::size_t b = 0; b < width; ++b) {
    MemberState& ms = group[b];
    Procedure1SetFrontier& out = frontiers[b];
    out.completed_n = std::max(reached, ms.start_n);
    out.members = std::move(ms.members);
    out.detected = std::move(ms.detected);
    out.detected_snapshots = std::move(ms.out.detected);
    out.sizes = std::move(ms.out.sizes);
    out.order = std::move(ms.out.order);
    out.known = std::move(ms.known);
    out.stats = ms.out.stats;
    if (in.def2) {
      out.def2_counted.resize(ms.def2.size());
      out.def2_cursor.resize(ms.def2.size());
      for (std::size_t k = 0; k < ms.def2.size(); ++k) {
        out.def2_counted[k] = std::move(ms.def2[k].counted);
        out.def2_cursor[k] = ms.def2[k].cursor;
      }
    }
  }
}

}  // namespace

AverageCaseResult run_procedure1(const DetectionDb& db,
                                 std::span<const std::size_t> monitored,
                                 const Procedure1Config& config) {
  const ThreadPool pool(config.num_threads);
  return run_procedure1(db, monitored, config, pool);
}

AverageCaseResult run_procedure1(const DetectionDb& db,
                                 std::span<const std::size_t> monitored,
                                 const Procedure1Config& config,
                                 const ThreadPool& pool,
                                 const CancelToken* cancel) {
  Procedure1Partial partial =
      run_procedure1_resumable(db, monitored, config, pool, cancel);
  if (!partial.complete) {
    check_cancel(cancel, "average_case");
    // Unreachable unless the resumable engine stopped without a fired
    // token, which would be a bug.
    throw Error(ErrorKind::kInternal,
                "run_procedure1: incomplete without cancellation",
                "average_case");
  }
  return std::move(partial.result);
}

Procedure1Partial run_procedure1_resumable(
    const DetectionDb& db, std::span<const std::size_t> monitored,
    const Procedure1Config& config, const ThreadPool& pool,
    const CancelToken* cancel, const Procedure1Checkpoint* resume) {
  require(config.nmax >= 1, "run_procedure1: nmax must be >= 1");
  require(config.num_sets >= 1, "run_procedure1: need at least one test set");

  const auto& targets = db.targets();
  const auto& target_sets = db.target_sets();
  const std::uint64_t vectors = db.vector_count();
  const std::size_t k_sets = config.num_sets;
  const bool def2 = config.definition == DetectionDefinition::kDissimilar;

  // Per-vector transpose of the MONITORED sets only: which monitored faults
  // does vector v detect?  It makes every test addition O(monitored words).
  // (The target side needs no transpose: the batched kernels read the
  // engine's packed rows directly.)
  std::vector<DetectionSet> monitored_sets;
  monitored_sets.reserve(monitored.size());
  for (const std::size_t j : monitored) {
    require(j < db.untargeted().size(),
            "run_procedure1: monitored index out of range");
    monitored_sets.push_back(db.untargeted_sets()[j]);
  }
  const std::vector<Bitset> monitored_rows =
      transpose_detection_sets(std::span<const DetectionSet>(monitored_sets),
                               vectors);

  // The sweep's target-side geometry: detectable targets N(f)-sorted and
  // packed into cache-resident tiles (undetectable targets are inert in
  // every analysis and are dropped by the engine).
  const PairKernelEngine engine(std::span<const DetectionSet>(target_sets),
                                vectors);

  // Start every set at a fresh frontier, or at the checkpointed one.  Only
  // the result-affecting config fields must match the checkpoint;
  // num_threads and batch_width are performance knobs and may differ.
  std::vector<Procedure1SetFrontier> frontiers(k_sets);
  if (resume != nullptr) {
    const Procedure1Config& prior = resume->config;
    require(prior.nmax == config.nmax && prior.num_sets == config.num_sets &&
                prior.seed == config.seed &&
                prior.definition == config.definition &&
                prior.def2_probe_limit == config.def2_probe_limit,
            "run_procedure1: checkpoint was taken under a different "
            "result-affecting configuration");
    require(resume->monitored.size() == monitored.size() &&
                std::equal(resume->monitored.begin(), resume->monitored.end(),
                           monitored.begin()),
            "run_procedure1: checkpoint monitored a different fault list");
    require(resume->sets.size() == k_sets,
            "run_procedure1: checkpoint frontier count mismatch");
    const std::size_t detectable = engine.detectable_targets();
    for (const Procedure1SetFrontier& f : resume->sets) {
      require(f.completed_n >= 0 && f.completed_n <= config.nmax,
              "run_procedure1: checkpoint frontier iteration out of range");
      if (f.completed_n == 0) continue;
      require(f.members.size() == vectors &&
                  f.detected.size() == monitored.size() &&
                  f.known.size() == detectable &&
                  f.detected_snapshots.size() ==
                      static_cast<std::size_t>(f.completed_n) &&
                  f.sizes.size() == static_cast<std::size_t>(f.completed_n) &&
                  (!def2 || (f.def2_counted.size() == detectable &&
                             f.def2_cursor.size() == detectable)),
              "run_procedure1: checkpoint frontier shape does not match the "
              "detection database");
    }
    frontiers = resume->sets;
  }

  GroupInputs inputs;
  inputs.engine = &engine;
  inputs.target_sets = target_sets;
  inputs.monitored_rows = monitored_rows;
  inputs.vectors = vectors;
  inputs.monitored_count = monitored.size();
  inputs.nmax = config.nmax;
  inputs.seed = config.seed;
  inputs.def2 = def2;
  inputs.def2_probe_limit = config.def2_probe_limit;

  // Batch width: 0 = the kernel width, larger values clamp to it.  Pure
  // perf knob -- see run_group for why results cannot depend on it.
  const std::size_t width =
      std::min<std::size_t>(config.batch_width == 0
                                ? PairKernelEngine::kBatchWidth
                                : config.batch_width,
                            PairKernelEngine::kBatchWidth);

  // Shard whole batch groups across the pool: a worker owns each of its
  // groups' sets end to end and writes only their slots.  Definition-2
  // runs compile one immutable oracle program up front; every worker reads
  // it and owns only its scratch words, so the query path takes no locks.
  // A one-worker pool degenerates to serial on the calling thread.
  // Cancellation is polled between group claims (pool level) and between
  // iterations (run_group), so each set's frontier advances in clean
  // iteration steps.
  const std::size_t groups = (k_sets + width - 1) / width;
  const unsigned workers = pool.workers_for(groups);
  std::optional<Def2Program> program;
  if (def2) program.emplace(db.lines(), targets);
  std::vector<std::unique_ptr<Def2Worker>> def2_workers(workers);
  pool.for_each_index(groups, [&](std::size_t g, unsigned worker) {
    Def2Worker* def2_worker = nullptr;
    if (def2) {
      if (!def2_workers[worker])
        def2_workers[worker] = std::make_unique<Def2Worker>(*program);
      def2_worker = def2_workers[worker].get();
    }
    const std::size_t first = g * width;
    const std::size_t group_width = std::min(width, k_sets - first);
    run_group(inputs, first, group_width,
              std::span<Procedure1SetFrontier>(frontiers)
                  .subspan(first, group_width),
              def2_worker, cancel);
  }, cancel);

  Procedure1Partial partial;
  partial.complete = std::all_of(
      frontiers.begin(), frontiers.end(),
      [&](const Procedure1SetFrontier& f) { return f.completed_n == config.nmax; });
  if (!partial.complete) {
    partial.checkpoint.config = config;
    partial.checkpoint.monitored.assign(monitored.begin(), monitored.end());
    partial.checkpoint.sets = std::move(frontiers);
    return partial;
  }

  // Deterministic merge in k order.
  AverageCaseResult result;
  result.config = config;
  result.monitored.assign(monitored.begin(), monitored.end());
  const auto iterations = static_cast<std::size_t>(config.nmax);
  result.detect_count.resize(iterations);
  result.set_sizes.resize(iterations);
  if (config.keep_test_sets) result.test_sets.resize(iterations);
  for (std::size_t n = 0; n < iterations; ++n) {
    result.detect_count[n].assign(monitored.size(), 0);
    result.set_sizes[n].resize(k_sets);
    if (config.keep_test_sets) result.test_sets[n].resize(k_sets);
  }
  for (std::size_t k = 0; k < k_sets; ++k) {
    const Procedure1SetFrontier& set = frontiers[k];
    for (std::size_t n = 0; n < iterations; ++n) {
      auto& dn = result.detect_count[n];
      set.detected_snapshots[n].for_each_set([&](std::size_t j) { ++dn[j]; });
      result.set_sizes[n][k] = set.sizes[n];
      if (config.keep_test_sets)
        result.test_sets[n][k].assign(set.order.begin(),
                                      set.order.begin() + set.sizes[n]);
    }
    result.stats.tests_added += set.stats.tests_added;
    result.stats.def1_fallbacks += set.stats.def1_fallbacks;
    result.stats.distinct_queries += set.stats.distinct_queries;
  }
  for (const auto& worker : def2_workers)
    if (worker) result.def2_cache += worker->oracle.stats();
  partial.result = std::move(result);
  return partial;
}

}  // namespace ndet
