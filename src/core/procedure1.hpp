// procedure1.hpp -- Section 3 of the paper: randomized construction of
// n-detection test sets (Procedure 1) and the average-case analysis.
//
// Procedure 1 builds K test sets T_0..T_{K-1} simultaneously.  In iteration
// n it visits every target fault f_i and, for every set T_k in which f_i is
// detected fewer than n times and tests remain in T(f_i) - T_k, adds one
// uniformly random such test.  After iteration n every T_k is an
// n-detection test set, and the probability that an arbitrary n-detection
// test set detects an untargeted fault g is estimated as
//     p(n,g) = d(n,g) / K,
// where d counts the sets whose tests intersect T(g).
//
// Detection counting follows one of the paper's two definitions:
//   * Definition 1 (standard): any n distinct tests of f count.
//   * Definition 2 (DATE'01): a test joins the counted set only if, for
//     every already-counted test, the common vector t_ij does not detect f
//     under three-valued simulation.  When no remaining test of f_i can add
//     a Definition-2 detection, the procedure falls back to Definition 1 so
//     faults are not left far short of n detections (Section 4).
//
// Engine: every random draw is computed from a counter-based RNG coordinate
// (CounterRng; stream = the set index k, counter = iteration, target fault
// and draw site), so a draw's value depends only on WHICH decision it feeds,
// never on how many draws ran before it.  That frees the evaluation order,
// and the engine uses the freedom to batch the per-set saturation sweep
// across sets: groups of up to `batch_width` sets walk the target faults in
// the PairKernelEngine's N(f)-ascending tile order, and each visit's exact
// detection count |T(f) n T_k| comes from the register-blocked x4 kernels
// (packed dense rows) or element probes (tiny CSR targets) instead of a
// per-fault and_not_count plus a per-added-test scatter.  A (set, target)
// pair retires permanently once it can never need work again (count reached
// nmax, or T(f) is contained in T_k), and whole tiles are skipped once no
// group member has a live target in them.
//
// Sets evolve independently and draws are coordinate-addressed, so results
// are bit-identical at every batch width, every thread count (num_threads =
// 1 is serial on the calling thread, 0 uses every hardware thread -- the
// repository-wide convention) and every SIMD dispatch level.  Definition-2
// candidate search scans all of T(f_i) - T_k when small, and otherwise
// takes `def2_probe_limit` random probes (documented deviation; DESIGN.md
// "Definition 2").  See DESIGN.md "Counter-based RNG and batched
// Procedure 1" for the coordinate scheme, the batched sweep and the
// retirement discipline.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/detection_db.hpp"
#include "sim/ternary_sim.hpp"

namespace ndet {

class ThreadPool;

/// Which of the paper's detection-counting definitions to use.
enum class DetectionDefinition { kStandard = 1, kDissimilar = 2 };

/// Parameters of Procedure 1.
struct Procedure1Config {
  int nmax = 10;                ///< build 1..nmax detection test sets
  std::size_t num_sets = 1000;  ///< K
  std::uint64_t seed = 1;       ///< master seed
  DetectionDefinition definition = DetectionDefinition::kStandard;
  bool keep_test_sets = false;  ///< record every test set (Table 4)
  std::size_t def2_probe_limit = 32;  ///< bounded candidate probing (Def. 2)
  /// Worker threads sharding the K sets; each worker owns whole batch
  /// groups of set trajectories.  0 (the default) uses every hardware
  /// thread, matching DetectionDbOptions/AnalysisOptions; 1 runs serially
  /// on the calling thread.  The value never changes any result.
  unsigned num_threads = 0;
  /// Sets per batch group in the saturation sweep.  0 (the default) uses
  /// the kernel batch width (PairKernelEngine::kBatchWidth); 1 runs each
  /// set's sweep serially; values above the kernel width are clamped to
  /// it.  Like num_threads, a pure performance knob: the value never
  /// changes any result.
  std::size_t batch_width = 0;
};

/// Procedure-1 bookkeeping counters (reported by the perf bench).  All three
/// are sums of per-set counts, so they are deterministic at every thread
/// count.
struct Procedure1Stats {
  std::uint64_t tests_added = 0;
  std::uint64_t def1_fallbacks = 0;   ///< Def-2 runs only
  std::uint64_t distinct_queries = 0; ///< Def-2 oracle calls
};

/// Result of the average-case analysis.
struct AverageCaseResult {
  Procedure1Config config;

  /// The untargeted faults monitored (indices into DetectionDb::untargeted()).
  std::vector<std::size_t> monitored;

  /// detect_count[n-1][j] = d(n, monitored[j]).
  std::vector<std::vector<std::uint32_t>> detect_count;

  /// Sizes of the K test sets after each iteration: set_sizes[n-1][k].
  std::vector<std::vector<std::uint32_t>> set_sizes;

  /// The test sets themselves (insertion order), only when
  /// config.keep_test_sets was set: test_sets[n-1][k].
  std::vector<std::vector<std::vector<std::uint32_t>>> test_sets;

  Procedure1Stats stats;

  /// Definition-2 kernel work summed across the engine's workers (Def-2
  /// runs only; zero otherwise): word passes and (t, s) lanes simulated.
  /// Each pass serves one set's trajectory, so the sums do not vary with
  /// the thread count, but a resumed run counts only the work done after
  /// the resume.  They report kernel work, not results.
  Def2OracleStats def2_cache;

  /// p(n, monitored[j]) = d / K.
  double probability(int n, std::size_t j) const;

  /// Number of monitored faults with p(n,g) >= threshold.
  std::size_t count_probability_at_least(int n, double threshold) const;
};

/// Serializes the result as a JSON object: the request parameters, the
/// monitored indices, the exact d(n,g) counts and set sizes, and the stats.
std::string to_json(const AverageCaseResult& result);

/// One set's resume frontier, captured at an iteration boundary.  The
/// counter-based RNG makes this small state sufficient: every draw is a
/// pure function of (seed, set index, iteration, fault, site), so replaying
/// nothing and resuming from the frontier reproduces the uninterrupted
/// trajectory bit for bit.  Target bookkeeping (`known`, the Definition-2
/// counted sets) is indexed by the engine's N(f)-sorted order, which is a
/// pure function of the detection database -- stable across thread counts,
/// batch widths and SIMD levels.  Tile geometry is NOT captured; it is
/// recomputed on resume from `known`, so a checkpoint taken under one
/// kernel tier resumes correctly under another.
struct Procedure1SetFrontier {
  int completed_n = 0;  ///< iterations fully finished for this set
  Bitset members;       ///< T_k
  Bitset detected;      ///< monitored faults detected by T_k
  std::vector<Bitset> detected_snapshots;  ///< [n-1], n <= completed_n
  std::vector<std::uint32_t> sizes;        ///< [n-1]: |T_k| after iteration n
  std::vector<std::uint32_t> order;        ///< insertion order of T_k
  std::vector<std::uint32_t> known;        ///< per sorted target (see .cpp)
  std::vector<std::vector<std::uint32_t>> def2_counted;  ///< Def-2 runs only
  std::vector<std::uint32_t> def2_cursor;                ///< Def-2 runs only
  Procedure1Stats stats;
};

/// A cancelled Procedure-1 run, ready to resume.  Sets may sit at different
/// frontiers (workers observe cancellation independently); resume regroups
/// them under the new run's batch width and each set continues from its own
/// completed_n.
struct Procedure1Checkpoint {
  Procedure1Config config;             ///< the interrupted run's parameters
  std::vector<std::size_t> monitored;  ///< the interrupted run's monitored
  std::vector<Procedure1SetFrontier> sets;  ///< k-indexed, size num_sets
};

/// Outcome of a resumable run: either the finished result or a checkpoint.
struct Procedure1Partial {
  bool complete = false;
  AverageCaseResult result;         ///< valid when complete
  Procedure1Checkpoint checkpoint;  ///< valid when !complete
};

/// Runs Procedure 1 and the average-case analysis over the monitored
/// untargeted faults (typically those with nmin(g) > nmax, per Table 5).
AverageCaseResult run_procedure1(const DetectionDb& db,
                                 std::span<const std::size_t> monitored,
                                 const Procedure1Config& config);

/// Same, on a caller-owned worker pool (AnalysisSession shares one pool
/// across every stage); config.num_threads is ignored.  A fired `cancel`
/// raises Error with stage "average_case"; use the resumable variant below
/// to keep the partial work instead.
AverageCaseResult run_procedure1(const DetectionDb& db,
                                 std::span<const std::size_t> monitored,
                                 const Procedure1Config& config,
                                 const ThreadPool& pool,
                                 const CancelToken* cancel = nullptr);

/// Cancellation-aware Procedure 1: on a fired token it returns (not throws)
/// a checkpoint holding every set's iteration frontier; pass that checkpoint
/// back as `resume` to continue.  A resumed run is bit-identical to an
/// uninterrupted one -- across any number of interruptions, at any thread
/// count or batch width on either side (both are performance knobs and may
/// legitimately differ between the runs; the checkpoint validates the
/// result-affecting config fields and the monitored list, and rejects
/// mismatches with Error{kInvalidInput}).
Procedure1Partial run_procedure1_resumable(
    const DetectionDb& db, std::span<const std::size_t> monitored,
    const Procedure1Config& config, const ThreadPool& pool,
    const CancelToken* cancel = nullptr,
    const Procedure1Checkpoint* resume = nullptr);

}  // namespace ndet
