/**
 * @file
 * Per-ISA inner kernels behind the gemm:: entry points.
 *
 * Each instruction-set backend (one translation unit per target,
 * compiled with that target's flags) fills a Kernels table with the
 * same primitives; gemm.cc and reram::CrossbarArray pick a table
 * at runtime via isa::active().  Every backend implements the *same*
 * lane-based reduction contract (DESIGN.md §7), so switching targets
 * changes wall clock only, never a single output bit:
 *
 *  - dot_lanes: kLanes (8) double accumulator lanes; element t of the
 *    reduction goes to lane t mod 8 (products rounded to float first,
 *    then widened), each lane sees its elements in ascending t, and
 *    the lanes are reduced in the pinned tree order
 *    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), bias added last.
 *  - dot_lanes_cols: the column form of dot_lanes over a block of n
 *    *independent outputs* j whose operands are the columns of B,
 *    each row t of B a contiguous run starting at b + brow[t]:
 *    output j reduces a[t] * b[brow[t] + j] with exactly dot_lanes's
 *    recipe (lane t mod 8, ascending, pinned tree, bias last, one
 *    rounding to float).  SIMD backends keep the eight lanes of a
 *    whole block of outputs in registers — output j in vector
 *    element j — and run the tree element-wise, so a vector only
 *    ever combines values of one output with values of the same
 *    output.
 *  - axpy_f32 / scale_f32: element-wise maps over *independent*
 *    outputs — a float multiply then a float add per element, which
 *    vectorises without reordering any per-output reduction.
 *  - relu_f32 / relu_mask_f32: branchless rectification primitives
 *    behind nn::ReluLayer.  Pure selects (x > 0 keeps the exact input
 *    bits, else +0.0f) with no arithmetic at all, so every backend is
 *    trivially bit-identical; -0.0f and NaN inputs both rectify to
 *    +0.0f, exactly like the scalar ternary.
 *  - axpy_i64: exact integer multiply-accumulate for the collapsed
 *    crossbar MVM; order-independent by construction.  Operand
 *    contract: 0 <= w < 2^32 and 0 <= cells[c] < 2^32 (the crossbar's
 *    data_bits/cell_bits <= 32 guarantee both), products < 2^63.
 *
 * The scalar tails (dotLanesTail, dotLanesColsTail) and the tree
 * reduction are shared inline helpers so no backend can drift from
 * the contract by re-implementing them.
 */

#ifndef PIPELAYER_TENSOR_GEMM_KERNELS_HH_
#define PIPELAYER_TENSOR_GEMM_KERNELS_HH_

#include <cstdint>

#include "common/isa.hh"

namespace pipelayer {
namespace gemmk {

/** Accumulator lanes in the reduction contract (DESIGN.md §7). */
constexpr int kLanes = 8;

/** The per-ISA primitive table; see the file comment for contracts. */
struct Kernels
{
    /** Lane-based dot product: float(bias + tree(lanes)). */
    float (*dot_lanes)(const float *a, const float *b, int64_t k,
                       double bias);
    /**
     * Column lane kernel: c[j] = float(bias + tree(lanes_j)) with
     * lanes_j[t mod 8] += double(a[t] * b[brow[t] + j]), t in [0,k)
     * ascending, for j in [0,n).  Reads only b[brow[t] + j], j < n.
     */
    void (*dot_lanes_cols)(float *c, const float *a, const float *b,
                           const int64_t *brow, int64_t k, int64_t n,
                           double bias);
    /** y[j] += row[j] * xi (float multiply, float add), j in [0,n). */
    void (*axpy_f32)(float *y, const float *row, float xi, int64_t n);
    /** row[j] = xi * y[j], j in [0,n). */
    void (*scale_f32)(float *row, const float *y, float xi, int64_t n);
    /** out[c] += w * cells[c] (exact int64), c in [0,n). */
    void (*axpy_i64)(int64_t *out, const int64_t *cells, int64_t w,
                     int64_t n);
    /** out[j] = in[j] > 0 ? in[j] : +0.0f; in == out allowed. */
    void (*relu_f32)(float *out, const float *in, int64_t n);
    /** grad[j] = ref[j] > 0 ? grad[j] : +0.0f (in-place mask). */
    void (*relu_mask_f32)(float *grad, const float *ref, int64_t n);
};

const Kernels &scalarKernels();
#if defined(__x86_64__) || defined(_M_X64)
const Kernels &avx2Kernels();
const Kernels &avx512Kernels();
#endif
#if defined(__aarch64__)
const Kernels &neonKernels();
#endif

/**
 * The table for @p t.  Asserts the target is compiled into this
 * binary (isa::supported() implies it is).
 */
const Kernels &kernelsFor(isa::Target t);

/** The table for the runtime-dispatched target. */
inline const Kernels &
activeKernels()
{
    return kernelsFor(isa::active());
}

/**
 * Scalar tail of the lane contract: elements [t0, k) into
 * lanes[t mod 8], ascending.  Every backend uses this for k % 8.
 */
inline void
dotLanesTail(double lanes[kLanes], const float *a, const float *b,
             int64_t t0, int64_t k)
{
    for (int64_t t = t0; t < k; ++t)
        lanes[t & (kLanes - 1)] += static_cast<double>(a[t] * b[t]);
}

/** The pinned tree reduction of the lane contract, bias added last. */
inline float
reduceLanes(const double lanes[kLanes], double bias)
{
    const double l01 = lanes[0] + lanes[1];
    const double l23 = lanes[2] + lanes[3];
    const double l45 = lanes[4] + lanes[5];
    const double l67 = lanes[6] + lanes[7];
    return static_cast<float>(bias + ((l01 + l23) + (l45 + l67)));
}

/**
 * Scalar column form of the lane contract for @p kCols outputs
 * starting at column 0 of @p b: the executable definition of
 * dot_lanes_cols, and every backend's tail for the columns left over
 * after its vector blocks.
 */
template <int kCols>
inline void
dotLanesColsBlock(float *c, const float *a, const float *b,
                  const int64_t *brow, int64_t k, double bias)
{
    double lanes[kCols][kLanes] = {};
    for (int64_t t = 0; t < k; ++t) {
        const float at = a[t];
        const float *bt = b + brow[t];
        for (int q = 0; q < kCols; ++q)
            lanes[q][t & (kLanes - 1)] += static_cast<double>(at * bt[q]);
    }
    for (int q = 0; q < kCols; ++q)
        c[q] = reduceLanes(lanes[q], bias);
}

/** Columns [j0, n) of dot_lanes_cols, one at a time. */
inline void
dotLanesColsTail(float *c, const float *a, const float *b,
                 const int64_t *brow, int64_t k, int64_t j0, int64_t n,
                 double bias)
{
    for (int64_t j = j0; j < n; ++j)
        dotLanesColsBlock<1>(c + j, a, b + j, brow, k, bias);
}

} // namespace gemmk
} // namespace pipelayer

#endif // PIPELAYER_TENSOR_GEMM_KERNELS_HH_
