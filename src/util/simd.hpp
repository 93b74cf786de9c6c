// simd.hpp -- runtime-dispatched word-level popcount kernels.
//
// Every pairwise set kernel in the repository bottoms out in the same three
// word loops: popcount(a), popcount(a & b) and popcount(a & ~b) over 64-bit
// word arrays.  This header centralizes them behind one dispatch table so
// the whole analysis stack (Bitset, DetectionSet, the tiled pair-kernel
// engine, Procedure 1's batched saturation sweep) shares a single
// implementation choice:
//
//   * kPortable -- plain std::popcount loops, the baseline on every
//     architecture,
//   * kAvx2     -- 256-bit AND + nibble-LUT popcount (Mula's vpshufb
//     algorithm), selected when the CPU supports AVX2,
//   * kAvx512   -- 512-bit AND + the VPOPCNTDQ per-lane popcount
//     instruction, selected when the CPU supports AVX-512F/BW/VPOPCNTDQ,
//   * kNeon     -- 128-bit AND + vcnt/vpaddl popcount, the baseline vector
//     path on AArch64 (NEON is architecturally guaranteed there).
//
// The level is resolved exactly once from the environment and the CPU:
//
//   * NDET_SIMD_LEVEL=portable|avx2|avx512|neon requests a level by name.
//     Requests degrade gracefully to the best available lower tier (avx512
//     -> avx2 -> portable; neon -> portable); an empty or unrecognized
//     value is ignored.
//   * NDET_FORCE_PORTABLE (any non-empty value other than "0") is the
//     legacy alias for NDET_SIMD_LEVEL=portable, consulted only when
//     NDET_SIMD_LEVEL does not decide.
//
// Building with -DNDET_DISABLE_AVX2=ON / -DNDET_DISABLE_AVX512=ON compiles
// the respective vector paths out entirely (the AVX-512 path also requires
// the AVX2 path to be compiled in).  All kernels compute exact population
// counts, so results are bit-identical across levels by construction; the
// randomized suite in tests/pair_kernels_test.cpp pins that.
//
// Callers with tiny operands (a handful of words, e.g. small-universe
// circuits) should use the inline wrappers below: under kInlineWordLimit
// words on the portable and NEON levels the loop is inlined at the call
// site, because the indirect call costs more than vectorization can
// recover.  On the x86 vector levels the wrappers always call through the
// table, whose kernels popcount with the POPCNT instruction that the
// baseline build cannot assume.  The batched engines in
// core/pair_kernels.hpp instead grab active_kernels() once per sweep and
// call through the table, amortizing the dispatch over whole tiles.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ndet::simd {

using word = std::uint64_t;

/// Dispatch level of the word kernels.
enum class Level : std::uint8_t {
  kPortable = 0,  ///< std::popcount loops; always available
  kAvx2 = 1,      ///< 256-bit AND + vpshufb nibble-LUT popcount
  kAvx512 = 2,    ///< 512-bit AND + VPOPCNTDQ per-lane popcount
  kNeon = 3,      ///< 128-bit AND + vcnt/vpaddl popcount (AArch64)
};

/// Human-readable level name ("portable" / "avx2" / "avx512" / "neon") for
/// logs, telemetry and benchmarks.
const char* level_name(Level level);

/// True when the AVX2 path was compiled in (x86, not NDET_DISABLE_AVX2).
bool compiled_with_avx2();

/// True when the AVX-512 path was compiled in (x86, not NDET_DISABLE_AVX512).
bool compiled_with_avx512();

/// True when the NEON path was compiled in (AArch64 targets).
bool compiled_with_neon();

/// True when `level` can actually run here: compiled in, supported by this
/// CPU, and not overridden away by the environment selectors.
bool level_available(Level level);

/// The level all dispatched kernels currently use.  Resolved once on first
/// use from the CPU and the NDET_SIMD_LEVEL / NDET_FORCE_PORTABLE
/// environment variables.
Level active_level();

/// Test hook: pins the dispatch level for the rest of the process.  Throws
/// contract_error when `level` is not available (see level_available), so a
/// test can never silently "exercise" a path that is not really running.
void set_level_for_testing(Level level);

/// The pure resolution rule behind active_level(), exposed for unit tests.
/// `simd_level_env` is the raw NDET_SIMD_LEVEL value (nullptr when unset;
/// empty or unrecognized values are ignored), `force_portable_env` the raw
/// NDET_FORCE_PORTABLE value (legacy alias for "portable"; any non-empty
/// value other than "0" forces portable, consulted only when
/// NDET_SIMD_LEVEL does not decide).  `cpu_has_avx2` / `cpu_has_avx512`
/// are the runtime CPU feature bits (only honoured when the corresponding
/// path was compiled in).  Explicit requests degrade to the best available
/// lower tier; with no request the best available tier wins.
Level resolve_level(const char* simd_level_env, const char* force_portable_env,
                    bool cpu_has_avx2, bool cpu_has_avx512);

/// One dispatch table entry per kernel.  All counts are exact.
struct Kernels {
  /// sum of popcount(a[i]).
  std::size_t (*popcount)(const word* a, std::size_t n);
  /// sum of popcount(a[i] & b[i]).
  std::size_t (*and_popcount)(const word* a, const word* b, std::size_t n);
  /// sum of popcount(a[i] & ~b[i]).
  std::size_t (*andnot_popcount)(const word* a, const word* b, std::size_t n);
  /// Register-blocked batch kernel: out[j] = sum of popcount(t[i] & g[j][i])
  /// for j in [0, 4) -- one pass over t serves four partners.
  void (*and_popcount_x4)(const word* t, const word* const* g, std::size_t n,
                          std::uint32_t* out);
  /// Whether the inline wrappers below run their own loop under
  /// kInlineWordLimit words: true where that loop popcounts a word as fast
  /// as the kernels do (portable, NEON); false on the x86 vector levels,
  /// whose kernels are built with POPCNT while the inline loop, compiled
  /// for the baseline ISA, makes a libgcc call per word.
  bool inline_small_words;
};

/// The table for active_level().
const Kernels& active_kernels();

/// Below this word count the inline loop beats the indirect call on the
/// levels whose table sets inline_small_words.
inline constexpr std::size_t kInlineWordLimit = 8;

inline std::size_t popcount_words(const word* a, std::size_t n) {
  const Kernels& k = active_kernels();
  if (n < kInlineWordLimit && k.inline_small_words) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
      total += static_cast<std::size_t>(std::popcount(a[i]));
    return total;
  }
  return k.popcount(a, n);
}

inline std::size_t and_popcount(const word* a, const word* b, std::size_t n) {
  const Kernels& k = active_kernels();
  if (n < kInlineWordLimit && k.inline_small_words) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
      total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
    return total;
  }
  return k.and_popcount(a, b, n);
}

inline std::size_t andnot_popcount(const word* a, const word* b,
                                   std::size_t n) {
  const Kernels& k = active_kernels();
  if (n < kInlineWordLimit && k.inline_small_words) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
      total += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
    return total;
  }
  return k.andnot_popcount(a, b, n);
}

}  // namespace ndet::simd
