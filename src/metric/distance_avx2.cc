// AVX2 twins of the fixed-order distance sums (the floating-point policy
// in metric/distance.h). This file is the only one in src/metric/ built
// with -mavx2 (and -ffp-contract=off, see CMakeLists.txt); callers reach
// it only through internal::ActiveSumKernels(), which checks for AVX2
// first.
//
// It includes no library header on purpose: an inline function from a
// header (an STL helper, say) compiled here with -mavx2 may be the copy
// the linker keeps for every caller, which would then fault on a CPU
// without AVX2. The declarations live in distance.h; the signatures below
// must match them. ci.sh fails on any other #include here.
//
// Correctness contract: bit-identical to internal::ReferenceSumAbsDiff /
// ReferenceSumSquaredDiff (distance.cc) on every input; metric_test
// cross-checks both on random inputs of every length 0-300.

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace simcloud {
namespace metric {
namespace internal {

#if defined(__x86_64__) || defined(__i386__)

namespace {

// Adds the four terms of x[0..4) vs y[0..4) to the four lanes of `acc`:
// |x_i - y_i| or (x_i - y_i)^2, in double.
template <bool kSquare>
inline __m256d AddTerms(__m256d acc, __m128 x, __m128 y) {
  __m256d d = _mm256_sub_pd(_mm256_cvtps_pd(x), _mm256_cvtps_pd(y));
  if (kSquare) {
    d = _mm256_mul_pd(d, d);
  } else {
    d = _mm256_andnot_pd(_mm256_set1_pd(-0.0), d);
  }
  return _mm256_add_pd(acc, d);
}

template <bool kSquare>
double LaneSum(const float* x, const float* y, size_t n) {
  __m256d lo = _mm256_setzero_pd();  // lanes 0..3
  __m256d hi = _mm256_setzero_pd();  // lanes 4..7
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    lo = AddTerms<kSquare>(lo, _mm_loadu_ps(x + i), _mm_loadu_ps(y + i));
    hi = AddTerms<kSquare>(hi, _mm_loadu_ps(x + i + 4),
                           _mm_loadu_ps(y + i + 4));
  }
  if (i < n) {
    // The r = n - i tail terms go into lanes 0..r-1. The masked loads
    // read nothing past the end and give 0 in lanes r..7, whose term is
    // +0.0; a lane is never -0.0 (it starts at +0.0 and only gains
    // non-negative terms), so adding +0.0 leaves it bit-identical.
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int32_t>(n - i)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256 xt = _mm256_maskload_ps(x + i, mask);
    const __m256 yt = _mm256_maskload_ps(y + i, mask);
    lo = AddTerms<kSquare>(lo, _mm256_castps256_ps128(xt),
                           _mm256_castps256_ps128(yt));
    hi = AddTerms<kSquare>(hi, _mm256_extractf128_ps(xt, 1),
                           _mm256_extractf128_ps(yt, 1));
  }
  // ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
  const __m256d pairs = _mm256_add_pd(lo, hi);
  const __m128d halves = _mm_add_pd(_mm256_castpd256_pd128(pairs),
                                    _mm256_extractf128_pd(pairs, 1));
  return _mm_cvtsd_f64(_mm_add_sd(halves, _mm_unpackhi_pd(halves, halves)));
}

}  // namespace

double Avx2SumAbsDiff(const float* x, const float* y, size_t n) {
  return LaneSum<false>(x, y, n);
}

double Avx2SumSquaredDiff(const float* x, const float* y, size_t n) {
  return LaneSum<true>(x, y, n);
}

#else  // no AVX2 on this architecture: Avx2KernelAvailable() is false.

double Avx2SumAbsDiff(const float*, const float*, size_t) {
  __builtin_trap();
}

double Avx2SumSquaredDiff(const float*, const float*, size_t) {
  __builtin_trap();
}

#endif

}  // namespace internal
}  // namespace metric
}  // namespace simcloud
