/**
 * @file
 * AVX-512 (F + DQ) backend of the lane-based kernel contract.
 *
 * Compiled with -mavx512f -mavx512dq (per-TU flags); only executed
 * after isa::supported(Avx512) confirmed both features.
 *
 * One 512-bit double vector holds all eight contract lanes, so a
 * block of 8 floats is exactly one VMULPS (256-bit) + VCVTPS2PD +
 * VADDPD; two blocks per iteration keep lane order (t, then t+8)
 * ascending.  No FMA anywhere — products must round to float first.
 *
 * dot_lanes_cols blocks 16 outputs: one 512-bit float multiply per
 * reduction element covers all 16 columns, and its halves widen into
 * two double vectors per contract lane — 16 accumulators in registers.
 *
 * Every intrinsic here takes its pass-through operand from
 * _mm512_setzero_* (the maskz forms with an all-ones mask where the
 * plain form would use _mm512_undefined_*): GCC 12 reports the
 * self-initialised _mm512_undefined_* helpers as -Wmaybe-uninitialized
 * once inlined, which breaks -Werror builds.  The instructions are the
 * same; only the (never used) pass-through value differs.
 */

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemmk {

namespace {

constexpr __mmask8 kAll8 = 0xFF;

/** Exact float→double widening of 8 floats. */
inline __m512d
widen(__m256 x)
{
    return _mm512_maskz_cvtps_pd(kAll8, x);
}

float
dotLanesAvx512(const float *a, const float *b, int64_t k, double bias)
{
    __m512d acc = _mm512_setzero_pd(); // lanes 0..7
    int64_t t = 0;
    for (; t + 16 <= k; t += 16) {
        const __m256 p0 = _mm256_mul_ps(_mm256_loadu_ps(a + t),
                                        _mm256_loadu_ps(b + t));
        const __m256 p1 = _mm256_mul_ps(_mm256_loadu_ps(a + t + 8),
                                        _mm256_loadu_ps(b + t + 8));
        acc = _mm512_add_pd(acc, widen(p0));
        acc = _mm512_add_pd(acc, widen(p1));
    }
    for (; t + 8 <= k; t += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + t),
                                          _mm256_loadu_ps(b + t));
        acc = _mm512_add_pd(acc, widen(prod));
    }
    alignas(64) double lanes[kLanes];
    _mm512_store_pd(lanes, acc);
    dotLanesTail(lanes, a, b, t, k);
    return reduceLanes(lanes, bias);
}

/**
 * Reduction element t into contract lane l of 16 outputs: lo holds
 * lane l of outputs 0..7, hi of outputs 8..15.  Masked-off columns
 * load +0.0f; their sums are never stored.
 */
inline __attribute__((always_inline)) void
colStep(__m512d &lo, __m512d &hi, float at, const float *bt,
        __mmask16 mask)
{
    const __m512 prod =
        _mm512_mul_ps(_mm512_set1_ps(at), _mm512_maskz_loadu_ps(mask, bt));
    lo = _mm512_add_pd(lo, widen(_mm512_extractf32x8_ps(prod, 0)));
    hi = _mm512_add_pd(hi, widen(_mm512_extractf32x8_ps(prod, 1)));
}

/** The pinned lane tree, element-wise over 8 outputs, bias last. */
inline __m256
colTree(const __m512d acc[kLanes], __m512d bias)
{
    const __m512d l01 = _mm512_add_pd(acc[0], acc[1]);
    const __m512d l23 = _mm512_add_pd(acc[2], acc[3]);
    const __m512d l45 = _mm512_add_pd(acc[4], acc[5]);
    const __m512d l67 = _mm512_add_pd(acc[6], acc[7]);
    const __m512d sum = _mm512_add_pd(_mm512_add_pd(l01, l23),
                                      _mm512_add_pd(l45, l67));
    return _mm512_maskz_cvtpd_ps(kAll8, _mm512_add_pd(bias, sum));
}

void
dotLanesColsAvx512(float *c, const float *a, const float *b,
                   const int64_t *brow, int64_t k, int64_t n, double bias)
{
    const __m512d bv = _mm512_set1_pd(bias);
    for (int64_t j = 0; j < n; j += 16) {
        const int64_t cols = n - j < 16 ? n - j : 16;
        const __mmask16 mask =
            static_cast<__mmask16>((1u << cols) - 1u);
        const float *bj = b + j;
        __m512d lo[kLanes], hi[kLanes];
        for (int l = 0; l < kLanes; ++l)
            lo[l] = hi[l] = _mm512_setzero_pd();
        int64_t t = 0;
        for (; t + kLanes <= k; t += kLanes) {
            const int64_t *rt = brow + t;
            colStep(lo[0], hi[0], a[t + 0], bj + rt[0], mask);
            colStep(lo[1], hi[1], a[t + 1], bj + rt[1], mask);
            colStep(lo[2], hi[2], a[t + 2], bj + rt[2], mask);
            colStep(lo[3], hi[3], a[t + 3], bj + rt[3], mask);
            colStep(lo[4], hi[4], a[t + 4], bj + rt[4], mask);
            colStep(lo[5], hi[5], a[t + 5], bj + rt[5], mask);
            colStep(lo[6], hi[6], a[t + 6], bj + rt[6], mask);
            colStep(lo[7], hi[7], a[t + 7], bj + rt[7], mask);
        }
        // k mod 8 leftover elements go to lanes 0.. in order; constant
        // lane indices keep the accumulators in registers.
        const int64_t rest = k - t;
        const int64_t *rt = brow + t;
        if (rest > 0)
            colStep(lo[0], hi[0], a[t + 0], bj + rt[0], mask);
        if (rest > 1)
            colStep(lo[1], hi[1], a[t + 1], bj + rt[1], mask);
        if (rest > 2)
            colStep(lo[2], hi[2], a[t + 2], bj + rt[2], mask);
        if (rest > 3)
            colStep(lo[3], hi[3], a[t + 3], bj + rt[3], mask);
        if (rest > 4)
            colStep(lo[4], hi[4], a[t + 4], bj + rt[4], mask);
        if (rest > 5)
            colStep(lo[5], hi[5], a[t + 5], bj + rt[5], mask);
        if (rest > 6)
            colStep(lo[6], hi[6], a[t + 6], bj + rt[6], mask);
        const __m512 out = _mm512_insertf32x8(
            _mm512_insertf32x8(_mm512_setzero_ps(), colTree(lo, bv), 0),
            colTree(hi, bv), 1);
        _mm512_mask_storeu_ps(c + j, mask, out);
    }
}

void
axpyF32Avx512(float *y, const float *row, float xi, int64_t n)
{
    const __m512 x = _mm512_set1_ps(xi);
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 prod = _mm512_mul_ps(_mm512_loadu_ps(row + j), x);
        _mm512_storeu_ps(y + j,
                         _mm512_add_ps(_mm512_loadu_ps(y + j), prod));
    }
    for (; j < n; ++j)
        y[j] += row[j] * xi;
}

void
scaleF32Avx512(float *row, const float *y, float xi, int64_t n)
{
    const __m512 x = _mm512_set1_ps(xi);
    int64_t j = 0;
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(row + j,
                         _mm512_mul_ps(x, _mm512_loadu_ps(y + j)));
    for (; j < n; ++j)
        row[j] = xi * y[j];
}

void
axpyI64Avx512(int64_t *out, const int64_t *cells, int64_t w, int64_t n)
{
    // Both operands live in [0, 2^32) by the kernel contract, so the
    // low dword of every qword holds the full value and VPMULUDQ (one
    // fast uop, vs three for the full VPMULLQ) produces the exact
    // 64-bit product.
    const __m512i wv = _mm512_set1_epi64(w);
    int64_t c = 0;
    for (; c + 8 <= n; c += 8) {
        const __m512i cv = _mm512_loadu_si512(cells + c);
        const __m512i prod = _mm512_maskz_mul_epu32(kAll8, cv, wv);
        _mm512_storeu_si512(
            out + c,
            _mm512_add_epi64(_mm512_loadu_si512(out + c), prod));
    }
    for (; c < n; ++c)
        out[c] += w * cells[c];
}

void
reluF32Avx512(float *out, const float *in, int64_t n)
{
    // Masked move, not VMAXPS: zeroing where x > 0 fails keeps the
    // exact input bits elsewhere and sends -0.0f / NaN to +0.0f like
    // the scalar ternary.
    const __m512 zero = _mm512_setzero_ps();
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 x = _mm512_loadu_ps(in + j);
        const __mmask16 keep =
            _mm512_cmp_ps_mask(x, zero, _CMP_GT_OQ);
        _mm512_storeu_ps(out + j, _mm512_maskz_mov_ps(keep, x));
    }
    for (; j < n; ++j)
        out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void
reluMaskF32Avx512(float *grad, const float *ref, int64_t n)
{
    const __m512 zero = _mm512_setzero_ps();
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __mmask16 keep = _mm512_cmp_ps_mask(
            _mm512_loadu_ps(ref + j), zero, _CMP_GT_OQ);
        _mm512_storeu_ps(
            grad + j,
            _mm512_maskz_mov_ps(keep, _mm512_loadu_ps(grad + j)));
    }
    for (; j < n; ++j)
        grad[j] = ref[j] > 0.0f ? grad[j] : 0.0f;
}

} // namespace

const Kernels &
avx512Kernels()
{
    static const Kernels table = {
        dotLanesAvx512, dotLanesColsAvx512, axpyF32Avx512,
        scaleF32Avx512, axpyI64Avx512,      reluF32Avx512,
        reluMaskF32Avx512,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer

#endif // x86-64
