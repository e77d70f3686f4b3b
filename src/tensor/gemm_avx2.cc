/**
 * @file
 * AVX2 backend of the lane-based kernel contract.
 *
 * Compiled with -mavx2 (per-TU flag, see src/tensor/CMakeLists.txt);
 * only executed after isa::supported(Avx2) confirmed the host has it.
 *
 * dot_lanes maps the contract directly onto the registers: one 8-wide
 * float multiply per block (VMULPS rounds each product to float,
 * exactly like the scalar backend — FMA is deliberately not used),
 * the low/high product halves widened to two 4-wide double
 * accumulators holding lanes 0..3 and 4..7.  Per lane the adds happen
 * in ascending t, so the bits match the scalar chains.
 *
 * dot_lanes_cols blocks 4 outputs: one 4-wide float multiply per
 * reduction element, widened into the 4-wide double accumulator of
 * that element's lane — 8 accumulators in registers.
 */

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemmk {

namespace {

float
dotLanesAvx2(const float *a, const float *b, int64_t k, double bias)
{
    __m256d acc03 = _mm256_setzero_pd(); // lanes 0..3
    __m256d acc47 = _mm256_setzero_pd(); // lanes 4..7
    int64_t t = 0;
    for (; t + 8 <= k; t += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + t),
                                          _mm256_loadu_ps(b + t));
        acc03 = _mm256_add_pd(
            acc03, _mm256_cvtps_pd(_mm256_castps256_ps128(prod)));
        acc47 = _mm256_add_pd(
            acc47, _mm256_cvtps_pd(_mm256_extractf128_ps(prod, 1)));
    }
    alignas(32) double lanes[kLanes];
    _mm256_store_pd(lanes + 0, acc03);
    _mm256_store_pd(lanes + 4, acc47);
    dotLanesTail(lanes, a, b, t, k);
    return reduceLanes(lanes, bias);
}

/** Reduction element t into contract lane @p acc of 4 outputs. */
inline __attribute__((always_inline)) void
colStep(__m256d &acc, float at, const float *bt)
{
    acc = _mm256_add_pd(
        acc, _mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(at), _mm_loadu_ps(bt))));
}

void
dotLanesColsAvx2(float *c, const float *a, const float *b,
                 const int64_t *brow, int64_t k, int64_t n, double bias)
{
    const __m256d bv = _mm256_set1_pd(bias);
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const float *bj = b + j;
        __m256d acc[kLanes];
        for (int l = 0; l < kLanes; ++l)
            acc[l] = _mm256_setzero_pd();
        int64_t t = 0;
        for (; t + kLanes <= k; t += kLanes) {
            const int64_t *rt = brow + t;
            colStep(acc[0], a[t + 0], bj + rt[0]);
            colStep(acc[1], a[t + 1], bj + rt[1]);
            colStep(acc[2], a[t + 2], bj + rt[2]);
            colStep(acc[3], a[t + 3], bj + rt[3]);
            colStep(acc[4], a[t + 4], bj + rt[4]);
            colStep(acc[5], a[t + 5], bj + rt[5]);
            colStep(acc[6], a[t + 6], bj + rt[6]);
            colStep(acc[7], a[t + 7], bj + rt[7]);
        }
        // k mod 8 leftover elements go to lanes 0.. in order; constant
        // lane indices keep the accumulators in registers.
        const int64_t rest = k - t;
        const int64_t *rt = brow + t;
        if (rest > 0)
            colStep(acc[0], a[t + 0], bj + rt[0]);
        if (rest > 1)
            colStep(acc[1], a[t + 1], bj + rt[1]);
        if (rest > 2)
            colStep(acc[2], a[t + 2], bj + rt[2]);
        if (rest > 3)
            colStep(acc[3], a[t + 3], bj + rt[3]);
        if (rest > 4)
            colStep(acc[4], a[t + 4], bj + rt[4]);
        if (rest > 5)
            colStep(acc[5], a[t + 5], bj + rt[5]);
        if (rest > 6)
            colStep(acc[6], a[t + 6], bj + rt[6]);
        // The pinned lane tree, element-wise over the 4 outputs.
        const __m256d l01 = _mm256_add_pd(acc[0], acc[1]);
        const __m256d l23 = _mm256_add_pd(acc[2], acc[3]);
        const __m256d l45 = _mm256_add_pd(acc[4], acc[5]);
        const __m256d l67 = _mm256_add_pd(acc[6], acc[7]);
        const __m256d sum = _mm256_add_pd(_mm256_add_pd(l01, l23),
                                          _mm256_add_pd(l45, l67));
        _mm_storeu_ps(c + j, _mm256_cvtpd_ps(_mm256_add_pd(bv, sum)));
    }
    dotLanesColsTail(c, a, b, brow, k, j, n, bias);
}

void
axpyF32Avx2(float *y, const float *row, float xi, int64_t n)
{
    const __m256 x = _mm256_set1_ps(xi);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(row + j), x);
        _mm256_storeu_ps(y + j,
                         _mm256_add_ps(_mm256_loadu_ps(y + j), prod));
    }
    for (; j < n; ++j)
        y[j] += row[j] * xi;
}

void
scaleF32Avx2(float *row, const float *y, float xi, int64_t n)
{
    const __m256 x = _mm256_set1_ps(xi);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(row + j,
                         _mm256_mul_ps(x, _mm256_loadu_ps(y + j)));
    for (; j < n; ++j)
        row[j] = xi * y[j];
}

void
axpyI64Avx2(int64_t *out, const int64_t *cells, int64_t w, int64_t n)
{
    // AVX2 has no 64x64 multiply; VPMULUDQ multiplies the low 32 bits
    // of each 64-bit lane into a full 64-bit product, which is exact
    // under the kernel contract (operands in [0, 2^32)).
    const __m256i wv = _mm256_set1_epi64x(w);
    int64_t c = 0;
    for (; c + 4 <= n; c += 4) {
        const __m256i cv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(cells + c));
        const __m256i prod = _mm256_mul_epu32(cv, wv);
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<__m256i *>(out + c));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + c),
                            _mm256_add_epi64(cur, prod));
    }
    for (; c < n; ++c)
        out[c] += w * cells[c];
}

void
reluF32Avx2(float *out, const float *in, int64_t n)
{
    // Select, not max: AND with the x > 0 mask keeps the exact input
    // bits and sends -0.0f / NaN to +0.0f like the scalar ternary
    // (VMAXPS would pass NaN through).
    const __m256 zero = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 x = _mm256_loadu_ps(in + j);
        const __m256 keep = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(out + j, _mm256_and_ps(x, keep));
    }
    for (; j < n; ++j)
        out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void
reluMaskF32Avx2(float *grad, const float *ref, int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 keep =
            _mm256_cmp_ps(_mm256_loadu_ps(ref + j), zero, _CMP_GT_OQ);
        _mm256_storeu_ps(
            grad + j, _mm256_and_ps(_mm256_loadu_ps(grad + j), keep));
    }
    for (; j < n; ++j)
        grad[j] = ref[j] > 0.0f ? grad[j] : 0.0f;
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels table = {
        dotLanesAvx2, dotLanesColsAvx2, axpyF32Avx2, scaleF32Avx2,
        axpyI64Avx2,  reluF32Avx2,      reluMaskF32Avx2,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer

#endif // x86-64
