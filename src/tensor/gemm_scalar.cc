/**
 * @file
 * Portable scalar backend of the lane-based kernel contract.
 *
 * Compiled with the project's default flags on every architecture;
 * this is both the fallback target and the executable definition of
 * the contract the SIMD backends must match bit-for-bit.  The eight
 * explicit accumulator chains in dot_lanes recover the instruction-
 * level parallelism the SIMD backends get from vector registers;
 * dot_lanes_cols runs four outputs' lanes side by side.
 */

#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemmk {

namespace {

float
dotLanesScalar(const float *a, const float *b, int64_t k, double bias)
{
    double lanes[kLanes] = {};
    int64_t t = 0;
    for (; t + kLanes <= k; t += kLanes) {
        lanes[0] += static_cast<double>(a[t + 0] * b[t + 0]);
        lanes[1] += static_cast<double>(a[t + 1] * b[t + 1]);
        lanes[2] += static_cast<double>(a[t + 2] * b[t + 2]);
        lanes[3] += static_cast<double>(a[t + 3] * b[t + 3]);
        lanes[4] += static_cast<double>(a[t + 4] * b[t + 4]);
        lanes[5] += static_cast<double>(a[t + 5] * b[t + 5]);
        lanes[6] += static_cast<double>(a[t + 6] * b[t + 6]);
        lanes[7] += static_cast<double>(a[t + 7] * b[t + 7]);
    }
    dotLanesTail(lanes, a, b, t, k);
    return reduceLanes(lanes, bias);
}

void
dotLanesColsScalar(float *c, const float *a, const float *b,
                   const int64_t *brow, int64_t k, int64_t n, double bias)
{
    constexpr int kCols = 4;
    int64_t j = 0;
    for (; j + kCols <= n; j += kCols)
        dotLanesColsBlock<kCols>(c + j, a, b + j, brow, k, bias);
    dotLanesColsTail(c, a, b, brow, k, j, n, bias);
}

void
axpyF32Scalar(float *y, const float *row, float xi, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        y[j] += row[j] * xi;
}

void
scaleF32Scalar(float *row, const float *y, float xi, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        row[j] = xi * y[j];
}

void
axpyI64Scalar(int64_t *out, const int64_t *cells, int64_t w, int64_t n)
{
    for (int64_t c = 0; c < n; ++c)
        out[c] += w * cells[c];
}

void
reluF32Scalar(float *out, const float *in, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void
reluMaskF32Scalar(float *grad, const float *ref, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        grad[j] = ref[j] > 0.0f ? grad[j] : 0.0f;
}

} // namespace

const Kernels &
scalarKernels()
{
    static const Kernels table = {
        dotLanesScalar, dotLanesColsScalar, axpyF32Scalar,
        scaleF32Scalar, axpyI64Scalar,      reluF32Scalar,
        reluMaskF32Scalar,
    };
    return table;
}

} // namespace gemmk
} // namespace pipelayer
