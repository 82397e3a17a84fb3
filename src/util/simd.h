// Portable fixed-width SIMD wrapper for the decode kernels (DESIGN.md §15).
//
// wb::simd::pack<T, N> is a value type holding N lanes of T with
// elementwise arithmetic written as fixed-trip-count loops the compiler
// vectorises (no platform intrinsics anywhere — the `simd-isolation`
// analyzer rule bans those outside this header, and this header does not
// need them).
//
// Determinism contract — what makes a pack kernel bit-identical to the
// scalar loop it replaces:
//   * Lane order is index order and is part of the API: lane i of
//     load(p) is p[i], lane i of store writes p[i], and every
//     elementwise op computes lane i from lane i of its operands only.
//   * Every lane op is one IEEE-754 double operation, identical to the
//     scalar expression it names. mul_add(a, b, c) is a*b + c with the
//     product *rounded* (never fused): a hardware FMA keeps the infinite-
//     precision product and would change results, so kernels that must
//     stay bit-identical to scalar `x*y + z` code can rely on mul_add.
//   * hsum() reduces in ascending lane order: ((l0 + l1) + l2) + l3 for
//     N = 4. No pairwise/tree reduction — reassociation changes rounding.
//   * min/max/clamp match std::min/std::max/std::clamp argument-for-
//     argument (comparisons only, no arithmetic), so NaN/signed-zero
//     behaviour is exactly the scalar library's.
//
// Consequently a kernel is bit-identical to its scalar reference exactly
// when each lane replays one scalar chain in the scalar order — vectorise
// across independent series (stream lanes) or elementwise across time,
// never by reassociating a reduction over time or slots.
#pragma once

#include <cstddef>
#include <cstdint>

// Function multiversioning hook (GCC/Clang on x86-64). Annotating a hot
// kernel with WB_SIMD_MULTIVERSION makes the compiler emit an extra clone
// compiled for wider vector registers (AVX2) next to the baseline build,
// and pick one once at load time via ifunc. This does not loosen the
// determinism contract above: every clone runs the same IEEE-754 lane
// operations in the same order — wider registers change throughput, never
// results. The one ISA that *could* change results is hardware FMA
// (contracting a*b + c skips the product rounding), which is why the
// clone list is plain "avx2" — the avx2 target does not enable FMA, so
// the compiler cannot contract even if a mul_add sneaks into an annotated
// kernel. Keep it that way; never add "fma" or an arch= level that
// implies it.
//
// ThreadSanitizer builds take the `default` build alone. TSan instruments
// the ifunc resolvers target_clones emits, and the loader runs those
// resolvers while it applies IRELATIVE relocations, before libtsan has
// initialised, so a TSan binary linking any annotated kernel crashes at
// startup. The default clone compiles the same source, so TSan still
// checks every line.
//
// GCC treats a call to an annotated kernel as nothrow, so a contract check
// inside one that throws under ContractPolicy::kThrow can terminate
// instead of unwinding: check contracts before the call.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WB_SIMD_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__) && !defined(WB_SIMD_TSAN)
#define WB_SIMD_MULTIVERSION __attribute__((target_clones("avx2", "default")))
#else
#define WB_SIMD_MULTIVERSION
#endif

// Every pack method is force-inlined. This is not an optimisation knob —
// it is required for correctness with WB_SIMD_MULTIVERSION: packs are
// passed and returned by value, and the calling convention of a by-value
// vector argument depends on the ISA the *callee* was compiled for. An
// out-of-line pack helper built for the baseline ISA called from an avx2
// clone would disagree with it about where the lanes live (ymm registers
// vs memory) and corrupt them; inlining makes every pack op inherit the
// kernel's ISA, in unoptimised builds too.
#if defined(__GNUC__)
#define WB_SIMD_INLINE inline __attribute__((always_inline))
#else
#define WB_SIMD_INLINE inline
#endif

namespace wb::simd {

/// Default pack width for the decode kernels. Four doubles map onto one
/// AVX register or two SSE2 registers; the row stride of the batched
/// conditioning kernels is padded to a multiple of this.
inline constexpr std::size_t kLanes = 4;

namespace detail {

// Pack storage. On GCC/Clang a power-of-two pack is backed by a native
// vector-extension type: elementwise +,-,*,/ compile to vector
// instructions *directly*, with no reliance on the auto-vectoriser (whose
// SLP pass gives up on shuffle-heavy kernels like the conditioning
// transpose and silently scalarises them). Vector-extension arithmetic is
// still one IEEE-754 operation per lane — the determinism contract above
// is unchanged — and lane subscripting works like the array fallback.
template <typename T, std::size_t N, bool = ((N & (N - 1)) == 0)>
struct storage {
  using type = T[N];
  static constexpr bool kNative = false;
};

#if defined(__GNUC__)
template <typename T, std::size_t N>
struct storage<T, N, true> {
  typedef T type __attribute__((vector_size(sizeof(T) * N)));
  static constexpr bool kNative = true;
};
#endif

}  // namespace detail

template <typename T, std::size_t N>
struct pack {
  static_assert(N > 0, "a pack has at least one lane");

  /// Native vector when the compiler has one, else a plain array; lane i
  /// is `lane[i]` either way.
  typename detail::storage<T, N>::type lane;

  static constexpr bool kNative = detail::storage<T, N>::kNative;

  /// Number of lanes, as a constant expression.
  static constexpr std::size_t size() { return N; }

  /// Unaligned load: lane i = p[i].
  WB_SIMD_INLINE static pack load(const T* p) {
    pack r;
    if constexpr (kNative) {
      __builtin_memcpy(&r.lane, p, sizeof(r.lane));
    } else {
      for (std::size_t i = 0; i < N; ++i) r.lane[i] = p[i];
    }
    return r;
  }

  /// Unaligned store: p[i] = lane i.
  WB_SIMD_INLINE void store(T* p) const {
    if constexpr (kNative) {
      __builtin_memcpy(p, &lane, sizeof(lane));
    } else {
      for (std::size_t i = 0; i < N; ++i) p[i] = lane[i];
    }
  }

  /// All lanes = v.
  WB_SIMD_INLINE static pack broadcast(T v) {
    pack r;
    for (std::size_t i = 0; i < N; ++i) r.lane[i] = v;
    return r;
  }

  /// All lanes = T{} (positive zero for floating-point T).
  WB_SIMD_INLINE static pack zero() { return broadcast(T{}); }

  WB_SIMD_INLINE friend pack operator+(pack a, pack b) {
    pack r;
    if constexpr (kNative) {
      r.lane = a.lane + b.lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    }
    return r;
  }
  WB_SIMD_INLINE friend pack operator-(pack a, pack b) {
    pack r;
    if constexpr (kNative) {
      r.lane = a.lane - b.lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    }
    return r;
  }
  WB_SIMD_INLINE friend pack operator*(pack a, pack b) {
    pack r;
    if constexpr (kNative) {
      r.lane = a.lane * b.lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    }
    return r;
  }
  WB_SIMD_INLINE friend pack operator/(pack a, pack b) {
    pack r;
    if constexpr (kNative) {
      r.lane = a.lane / b.lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    }
    return r;
  }
  WB_SIMD_INLINE pack& operator+=(pack b) { return *this = *this + b; }
  WB_SIMD_INLINE pack& operator-=(pack b) { return *this = *this - b; }
  WB_SIMD_INLINE pack& operator*=(pack b) { return *this = *this * b; }
  WB_SIMD_INLINE pack& operator/=(pack b) { return *this = *this / b; }

  /// a*b + c per lane with the product rounded to T before the add —
  /// deliberately *not* a fused multiply-add (see header comment).
  WB_SIMD_INLINE static pack mul_add(pack a, pack b, pack c) {
    pack r;
    if constexpr (kNative) {
      const auto p = a.lane * b.lane;  // named temp: product rounds to T
      r.lane = p + c.lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) {
        const T p = a.lane[i] * b.lane[i];
        r.lane[i] = p + c.lane[i];
      }
    }
    return r;
  }

  /// Per-lane std::min semantics: b < a ? b : a.
  WB_SIMD_INLINE static pack min(pack a, pack b) {
    pack r;
    if constexpr (kNative) {
      r.lane = b.lane < a.lane ? b.lane : a.lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) {
        r.lane[i] = b.lane[i] < a.lane[i] ? b.lane[i] : a.lane[i];
      }
    }
    return r;
  }

  /// Per-lane std::max semantics: a < b ? b : a.
  WB_SIMD_INLINE static pack max(pack a, pack b) {
    pack r;
    if constexpr (kNative) {
      r.lane = a.lane < b.lane ? b.lane : a.lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) {
        r.lane[i] = a.lane[i] < b.lane[i] ? b.lane[i] : a.lane[i];
      }
    }
    return r;
  }

  /// Per-lane std::clamp semantics: v < lo ? lo : (hi < v ? hi : v).
  WB_SIMD_INLINE static pack clamp(pack v, pack lo, pack hi) {
    return min(max(v, lo), hi);
  }

  /// Per-lane comparison as a number: a < b ? T{1} : T{0}. Summing these
  /// counts lanes exactly (for doubles, up to 2^53 per lane).
  WB_SIMD_INLINE static pack less(pack a, pack b) {
    pack r;
    if constexpr (kNative) {
      r.lane = a.lane < b.lane ? broadcast(T{1}).lane : zero().lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) {
        r.lane[i] = a.lane[i] < b.lane[i] ? T{1} : T{0};
      }
    }
    return r;
  }

  /// Per-lane absolute value: exactly the scalar chain `v < 0 ? -v : v`
  /// (comparison + negation). Note -0.0 compares equal to 0.0, so it is
  /// returned unchanged — unlike std::abs. The decode kernels only ever
  /// *sum* these values, and x + -0.0 == x + 0.0 for every non-negative
  /// x the accumulators hold, so MAD divisors are unaffected.
  WB_SIMD_INLINE static pack abs(pack v) {
    pack r;
    if constexpr (kNative) {
      r.lane = v.lane < decltype(v.lane){} ? -v.lane : v.lane;
    } else {
      for (std::size_t i = 0; i < N; ++i) {
        r.lane[i] = v.lane[i] < T{} ? -v.lane[i] : v.lane[i];
      }
    }
    return r;
  }

  /// Horizontal sum in ascending lane order: ((l0 + l1) + l2) + l3 ...
  /// Fixed order is the contract — callers may rely on the exact
  /// left-to-right rounding sequence.
  WB_SIMD_INLINE T hsum() const {
    T s = lane[0];
    for (std::size_t i = 1; i < N; ++i) s = s + lane[i];
    return s;
  }
};

/// The pack type the decode kernels use.
using dpack = pack<double, kLanes>;

/// Per-lane IEEE-754 bit pattern: lane i holds the 64 bits of v's lane i
/// as a signed integer (std::bit_cast per lane; no arithmetic). Integer
/// packs add and subtract in two's-complement lanes.
template <std::size_t N>
WB_SIMD_INLINE pack<std::int64_t, N> bits(pack<double, N> v) {
  static_assert(sizeof(std::int64_t) == sizeof(double),
                "a double's bit pattern fills one 64-bit lane");
  pack<std::int64_t, N> r;
  __builtin_memcpy(&r.lane, &v.lane, sizeof(r.lane));
  return r;
}

}  // namespace wb::simd
