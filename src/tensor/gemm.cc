#include "tensor/gemm.hh"

#include <algorithm>

#include "common/arena.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace gemm {

namespace {

/** Columns per gemmNN work item: one AVX-512 block of the kernel. */
constexpr int64_t kColTile = 16;

/**
 * Multiply-adds a parallel_for chunk should carry at least, so small
 * products run inline instead of paying a pool dispatch per chunk.
 */
constexpr int64_t kMinChunkMacs = 8192;

} // namespace

void
gemmNT(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
       const float *b, int64_t ldb, const float *bias, float *c,
       int64_t ldc)
{
    // Parallel over columns of C: a chunk owns rows j0..j1 of B and
    // therefore a disjoint column stripe of every output row.  Each
    // output is one lane-based dot product; its eight accumulator
    // lanes (vector registers on the SIMD targets, eight independent
    // add chains on scalar) hide FP-add latency.
    const gemmk::Kernels &kern = gemmk::activeKernels();
    parallel_for(0, n, /*grain=*/16, [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * lda;
            const double bi = bias ? static_cast<double>(bias[i]) : 0.0;
            float *ci = c + i * ldc;
            for (int64_t j = j0; j < j1; ++j)
                ci[j] = kern.dot_lanes(ai, b + j * ldb, k, bi);
        }
    });
}

void
gemmNN(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
       const float *b, int64_t ldb, const float *bias, float *c,
       int64_t ldc)
{
    arena::ScopedBuf<int64_t> brow(static_cast<size_t>(k));
    for (int64_t p = 0; p < k; ++p)
        brow[static_cast<size_t>(p)] = p * ldb;
    gemmNNRows(m, n, k, a, lda, b, brow.data(), bias, c, ldc);
}

void
gemmNNRows(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
           const float *b, const int64_t *brow, const float *bias,
           float *c, int64_t ldc)
{
    // B's columns are contiguous across j, so the column lane kernel
    // reads them in place: one work item is (row i, a tile of 16
    // columns), whose outputs share every B load.  Items are
    // numbered tile-major, so a chunk's consecutive items reuse one
    // tile of B across rows of A while it is in cache.  Items own
    // disjoint outputs; each output's reduction is the kernel's
    // alone, so chunking never changes a bit.
    const gemmk::Kernels &kern = gemmk::activeKernels();
    const int64_t tiles = (n + kColTile - 1) / kColTile;
    const int64_t item_macs = kColTile * std::max<int64_t>(1, k);
    const int64_t grain = std::max<int64_t>(1, kMinChunkMacs / item_macs);
    parallel_for(0, m * tiles, grain, [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            const int64_t i = p % m;
            const int64_t j0 = (p / m) * kColTile;
            const double bi = bias ? static_cast<double>(bias[i]) : 0.0;
            kern.dot_lanes_cols(c + i * ldc + j0, a + i * lda, b + j0, brow,
                                k, std::min(kColTile, n - j0), bi);
        }
    });
}

void
gemv(int64_t m, int64_t n, const float *w, int64_t ldw, const float *x,
     float *y)
{
    // One lane-based dot product per row; rows are independent.
    const gemmk::Kernels &kern = gemmk::activeKernels();
    parallel_for(0, m, /*grain=*/16, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            y[i] = kern.dot_lanes(w + i * ldw, x, n, 0.0);
    });
}

void
gevm(int64_t m, int64_t n, const float *w, int64_t ldw, const float *x,
     float *y)
{
    // Float accumulation directly into y, rows in ascending order —
    // the historical matVecT recipe.  Chunks own disjoint column
    // ranges, so no accumulator is shared; the axpy vectorises across
    // independent columns without reordering any column's row walk.
    const gemmk::Kernels &kern = gemmk::activeKernels();
    parallel_for(0, n, /*grain=*/64, [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < m; ++i)
            kern.axpy_f32(y + j0, w + i * ldw + j0, x[i], j1 - j0);
    });
}

void
ger(int64_t m, int64_t n, const float *x, const float *y, float *c,
    int64_t ldc)
{
    const gemmk::Kernels &kern = gemmk::activeKernels();
    parallel_for(0, m, /*grain=*/16, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            kern.scale_f32(c + i * ldc, y, x[i], n);
    });
}

} // namespace gemm
} // namespace pipelayer

namespace pipelayer {
namespace gemmk {

const Kernels &
kernelsFor(isa::Target t)
{
    switch (t) {
    case isa::Target::Scalar:
        return scalarKernels();
#if defined(__x86_64__) || defined(_M_X64)
    case isa::Target::Avx2:
        return avx2Kernels();
    case isa::Target::Avx512:
        return avx512Kernels();
#endif
#if defined(__aarch64__)
    case isa::Target::Neon:
        return neonKernels();
#endif
    default:
        break;
    }
    PL_ASSERT(false, "ISA target '%s' is not compiled into this binary",
              isa::name(t));
    return scalarKernels();
}

} // namespace gemmk
} // namespace pipelayer
