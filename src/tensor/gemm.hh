/**
 * @file
 * Shared GEMM/GEMV kernel core behind every tensor hot path.
 *
 * The functional substrate's compute cost concentrates in four loop
 * nests — convolution forward and backward-input (over a tap-major
 * panel), the convolution kernel gradient, and the matrix-vector
 * products of inner-product layers.
 * This layer gives them one cache-blocked, SIMD-friendly inner loop
 * each, instead of four hand-rolled nests, while preserving the exact
 * floating-point results of the original naive loops.
 *
 * ## Lane-based accumulation-order contract (DESIGN.md §7)
 *
 * Every kernel documents — and tests/test_gemm.cc enforces — a fixed
 * accumulation recipe, chosen to be *bit-identical* to the naive
 * reference loops in ops::reference at every thread count AND every
 * SIMD dispatch target (scalar/AVX2/AVX-512/NEON, see common/isa.hh):
 *
 *  - Reducing kernels (gemmNT, gemmNN, gemv) use 8 fixed double-
 *    accumulator lanes per output: reduction element t is multiplied
 *    in float (the product rounds to float), widened to double, and
 *    added to lane t mod 8; each lane sees its elements in ascending
 *    t.  The lanes are then reduced in the pinned tree order
 *    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), the bias is added last,
 *    and the total rounds to float once on store.  The lane width 8
 *    is part of the contract — narrower targets (scalar, NEON) use
 *    more registers, wider ones (AVX-512) fewer, but the arithmetic
 *    never changes.  gemmNT reduces along two contiguous rows
 *    (dot_lanes); gemmNN reduces down B's columns in place with the
 *    column form of the same kernel (dot_lanes_cols), which keeps the
 *    lanes of 16 (AVX-512) or 4 (AVX2, NEON, scalar) independent
 *    outputs in registers and reduces them element-wise — each
 *    output's recipe is unchanged, and no Bᵀ copy is made.
 *  - gevm accumulates in float with rows ascending (the historical
 *    matVecT loop): it vectorises across *independent outputs*, so
 *    SIMD never reorders a reduction.  ger has no reduction.
 *  - No FMA anywhere: -ffp-contract=off is pinned globally and the
 *    SIMD backends use separate multiply/add intrinsics, so products
 *    round to float identically on every target.
 *
 * parallel_for chunking only distributes *independent outputs*; the
 * per-output reduction order never changes, so results are
 * bit-identical at any PL_THREADS, any PL_ISA, and to the serial
 * reference.
 *
 * Signed zero: a kernel that multiplies explicit zero padding (e.g.
 * conv2d over its tap panel) adds `w * 0.0f = ±0.0f` terms a branch-skipping
 * reference never evaluates.  Lanes start at +0.0 and, under IEEE-754
 * round-to-nearest, x + (±0.0) == x for every x except x == -0.0 —
 * which a lane can never hold (a sum of two nonzero addends is never
 * -0.0, and +0.0 + (-0.0) == +0.0).  The reference loops may
 * therefore skip padding taps as long as they still *count* them
 * when assigning lanes (lane index = tap position mod 8, padding
 * included).
 *
 * Callers provide outputs and operands; gemmNN's row-offset table
 * comes from the calling thread's workspace arena and is rewound on
 * return, so steady state allocates nothing.
 */

#ifndef PIPELAYER_TENSOR_GEMM_HH_
#define PIPELAYER_TENSOR_GEMM_HH_

#include <cstdint>

namespace pipelayer {
namespace gemm {

/**
 * C = A · Bᵀ + bias:
 *   C[i*ldc + j] = bias[i] + Σ_k A[i*lda + k] * B[j*ldb + k]
 * with k distributed over the 8 contract lanes (element k into lane
 * k mod 8, ascending per lane, pinned tree reduction, bias last).
 * Both operands stream contiguously: the convolution kernel
 * gradient, δ against the tap-major panel, reduces over output
 * pixels this way.
 *
 * @param bias per-row-i addend, or nullptr for none.  Parallel over
 *        columns j; outputs are disjoint per chunk.
 */
void gemmNT(int64_t m, int64_t n, int64_t k, const float *a,
            int64_t lda, const float *b, int64_t ldb, const float *bias,
            float *c, int64_t ldc);

/**
 * C = A · B + bias:
 *   C[i*ldc + j] = bias[i] + Σ_p A[i*lda + p] * B[p*ldb + j]
 * with p distributed over the 8 contract lanes (element p into lane
 * p mod 8, ascending per lane, pinned tree reduction, bias last) —
 * bit-identical to gemmNT against Bᵀ.  B is read in place by the
 * column lane kernel (the convolution forward and backward-input:
 * kernel rows against the tap-major panel).
 *
 * @param bias per-row-i addend, or nullptr for none.  Parallel over
 *        (row i, 16-column tile) pairs; outputs are disjoint per
 *        chunk.
 */
void gemmNN(int64_t m, int64_t n, int64_t k, const float *a,
            int64_t lda, const float *b, int64_t ldb, const float *bias,
            float *c, int64_t ldc);

/**
 * gemmNN with B given by row starts: row p of B is the n contiguous
 * floats at b + brow[p] (gemmNN is brow[p] = p * ldb).  A stride-1
 * convolution passes each tap's offset into a zero-padded input, so
 * its panel is never materialised.  Same recipe, chunking and
 * bit-identity as gemmNN.
 */
void gemmNNRows(int64_t m, int64_t n, int64_t k, const float *a,
                int64_t lda, const float *b, const int64_t *brow,
                const float *bias, float *c, int64_t ldc);

/**
 * y = W x:  y[i] = Σ_j W[i*ldw + j] * x[j], j distributed over the 8
 * contract lanes (j mod 8, ascending per lane, pinned tree
 * reduction).  Parallel over rows.
 */
void gemv(int64_t m, int64_t n, const float *w, int64_t ldw,
          const float *x, float *y);

/**
 * y += Wᵀ x:  y[j] += W[i*ldw + j] * x[i] for i ascending, float
 * accumulation directly in y (y must be initialised by the caller).
 * Parallel over columns; every y[j] sees rows in ascending order.
 */
void gevm(int64_t m, int64_t n, const float *w, int64_t ldw,
          const float *x, float *y);

/** Rank-1 outer product: C[i*ldc + j] = x[i] * y[j].  No reduction. */
void ger(int64_t m, int64_t n, const float *x, const float *y, float *c,
         int64_t ldc);

} // namespace gemm
} // namespace pipelayer

#endif // PIPELAYER_TENSOR_GEMM_HH_
