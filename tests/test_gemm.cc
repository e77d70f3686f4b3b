/**
 * @file
 * Property/fuzz tests for the GEMM-backed fast kernels (PR: GEMM-ified
 * compute kernels + bit-plane-collapsed crossbar MVM).
 *
 * The fast paths in ops.cc / CrossbarArray promise *bit-identical*
 * results to the naive loops they replaced — not merely close ones —
 * so every comparison here is exact (float bit patterns, integer
 * equality), over randomized shapes, strides and pads, at 1 and 4
 * worker threads and under every SIMD dispatch target the host
 * supports (forced the way a user would: PL_ISA + re-resolve).  The
 * naive loops survive as ops::reference and as a local pulse-walk
 * crossbar model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <vector>

#include "common/arena.hh"
#include "common/isa.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "reram/crossbar.hh"
#include "reram/spike.hh"
#include "tensor/gemm.hh"
#include "tensor/gemm_kernels.hh"
#include "tensor/ops.hh"
#include "tensor/ops_reference.hh"

namespace pipelayer {
namespace {

Tensor
randomTensor(const Shape &shape, Rng &rng)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

/**
 * Signed powers of two 2^0, 2^28 or 2^56: products take five
 * magnitudes 2^28 apart, so a double sum keeps a term one level below
 * its running total but drops one two levels below, and top-level
 * terms of opposite sign cancel exactly.  Which small terms survive
 * then depends on the association, so a lane or tree order slip
 * changes output bits instead of vanishing in an exact sum.
 */
Tensor
cancellingTensor(const Shape &shape, Rng &rng)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i) {
        const int exp = 28 * static_cast<int>(rng.uniformInt(3));
        t.at(i) = std::ldexp(rng.uniform() < 0.5 ? -1.0f : 1.0f, exp);
    }
    return t;
}

/**
 * Fuzz operands: odd iterations draw cancellingTensor, so a reduction
 * order slip shows, even ones uniform values.
 */
Tensor
fuzzTensor(const Shape &shape, Rng &rng, int iter)
{
    return iter % 2 ? cancellingTensor(shape, rng) : randomTensor(shape, rng);
}

/** Exact equality: same shape and the same float bit patterns. */
void
expectBitIdentical(const Tensor &fast, const Tensor &ref,
                   const char *what)
{
    ASSERT_EQ(fast.shape(), ref.shape()) << what;
    ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(),
                             static_cast<size_t>(fast.numel()) *
                                 sizeof(float)))
        << what << ": fast path diverged from the naive reference";
}

/**
 * Run @p body at 1 and 4 worker threads under every dispatch target
 * this host supports, forcing each target through the user-facing
 * mechanism (PL_ISA + isa::reresolveFromEnv) rather than setActive so
 * the fatal-on-unsupported env path is exercised too.  Targets the
 * host lacks are noted and skipped — the contract they would have to
 * satisfy is the same lane-based reduction every present target is
 * held to here.
 */
template <typename Fn>
void
atThreadCounts(Fn &&body)
{
    const int64_t saved = threadCount();
    for (int i = 0; i < isa::kTargetCount; ++i) {
        const isa::Target target = static_cast<isa::Target>(i);
        if (!isa::supported(target)) {
            std::cout << "[   NOTE   ] dispatch target '"
                      << isa::name(target)
                      << "' is not supported on this host; skipped\n";
            continue;
        }
        ::setenv("PL_ISA", isa::name(target), /*overwrite=*/1);
        isa::reresolveFromEnv();
        SCOPED_TRACE(std::string("isa=") + isa::name(target));
        for (int64_t threads : {int64_t{1}, int64_t{4}}) {
            setThreadCount(threads);
            body(threads);
        }
    }
    ::unsetenv("PL_ISA");
    isa::reresolveFromEnv();
    setThreadCount(saved);
}

TEST(GemmFuzz, Conv2dForwardMatchesReferenceBitExact)
{
    Rng rng(0xC04Fu);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 24; ++iter) {
            const int64_t ci = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t co = 1 + static_cast<int64_t>(rng.uniformInt(5));
            const int64_t kh = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t kw = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t pad = static_cast<int64_t>(rng.uniformInt(3));
            const int64_t stride =
                1 + static_cast<int64_t>(rng.uniformInt(3));
            // Input large enough for the padded kernel.
            const int64_t h =
                kh + static_cast<int64_t>(rng.uniformInt(9));
            const int64_t w =
                kw + static_cast<int64_t>(rng.uniformInt(9));
            const Tensor input = fuzzTensor({ci, h, w}, rng, iter);
            const Tensor kernel = fuzzTensor({co, ci, kh, kw}, rng, iter);
            const bool has_bias = rng.uniform() < 0.5;
            const Tensor bias =
                has_bias ? randomTensor({co}, rng) : Tensor();

            const Tensor fast =
                ops::conv2d(input, kernel, bias, stride, pad);
            const Tensor ref =
                ops::reference::conv2d(input, kernel, bias, stride, pad);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(fast, ref, "conv2d");
        }
        // The strided branch of the tap-panel pack with padding on
        // both sides, every stride 2/3 x pad 1/2 pairing, on data whose
        // sums depend on association (see cancellingTensor).
        for (int iter = 0; iter < 16; ++iter) {
            const int64_t stride = 2 + iter % 2;
            const int64_t pad = 1 + (iter / 2) % 2;
            const int64_t ci = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t co = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t kh = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t kw = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t h = kh + static_cast<int64_t>(rng.uniformInt(12));
            const int64_t w = kw + static_cast<int64_t>(rng.uniformInt(12));
            const Tensor input = cancellingTensor({ci, h, w}, rng);
            const Tensor kernel = cancellingTensor({co, ci, kh, kw}, rng);
            const Tensor bias = randomTensor({co}, rng);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " strided iter=" + std::to_string(iter));
            expectBitIdentical(
                ops::conv2d(input, kernel, bias, stride, pad),
                ops::reference::conv2d(input, kernel, bias, stride, pad),
                "strided padded conv2d");
            expectBitIdentical(
                ops::im2col(input, kh, kw, stride, pad),
                ops::reference::im2col(input, kh, kw, stride, pad),
                "strided padded im2col");
        }
    });
}

TEST(GemmFuzz, Conv2dBackwardKernelMatchesReferenceBitExact)
{
    Rng rng(0xBDADu);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 20; ++iter) {
            const int64_t ci = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t co = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t kh = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t kw = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t pad = static_cast<int64_t>(rng.uniformInt(3));
            const int64_t h =
                kh + static_cast<int64_t>(rng.uniformInt(8));
            const int64_t w =
                kw + static_cast<int64_t>(rng.uniformInt(8));
            const int64_t ho = h + 2 * pad - kh + 1;
            const int64_t wo = w + 2 * pad - kw + 1;
            const Tensor input = fuzzTensor({ci, h, w}, rng, iter);
            const Tensor delta = fuzzTensor({co, ho, wo}, rng, iter);

            const Tensor fast =
                ops::conv2dBackwardKernel(input, delta, kh, kw, pad);
            const Tensor ref = ops::reference::conv2dBackwardKernel(
                input, delta, kh, kw, pad);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(fast, ref, "conv2dBackwardKernel");
        }
    });
}

TEST(GemmFuzz, Conv2dBackwardInputMatchesReferenceBitExact)
{
    Rng rng(0xB1Du);
    int64_t negative_pad_cases = 0;
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 16; ++iter) {
            const int64_t ci = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t co = 1 + static_cast<int64_t>(rng.uniformInt(4));
            // Square kernels: padding requires kh == kw.  pad runs up
            // to K, so the direct convolution's pad K - 1 - pad is
            // negative (crops the error's border) in some cases.
            const int64_t k = 1 + static_cast<int64_t>(rng.uniformInt(5));
            const int64_t pad = static_cast<int64_t>(
                rng.uniformInt(static_cast<uint64_t>(k + 1)));
            if (pad > k - 1)
                ++negative_pad_cases;
            const int64_t h = k + static_cast<int64_t>(rng.uniformInt(8));
            const int64_t w = k + static_cast<int64_t>(rng.uniformInt(8));
            const int64_t ho = h + 2 * pad - k + 1;
            const int64_t wo = w + 2 * pad - k + 1;
            const Tensor kernel = fuzzTensor({co, ci, k, k}, rng, iter);
            const Tensor delta = fuzzTensor({co, ho, wo}, rng, iter);

            const Tensor fast =
                ops::conv2dBackwardInput(delta, kernel, pad);
            const Tensor ref =
                ops::reference::conv2dBackwardInput(delta, kernel, pad);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(fast, ref, "conv2dBackwardInput");
        }
    });
    EXPECT_GT(negative_pad_cases, 0);
}

TEST(GemmFuzz, MatVecFamilyMatchesReferenceBitExact)
{
    Rng rng(0x3A7u);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 24; ++iter) {
            // Sizes straddling every unroll/grain boundary (1, the
            // 4-row unroll, the 16/64 parallel grains).
            const int64_t n =
                1 + static_cast<int64_t>(rng.uniformInt(130));
            const int64_t m =
                1 + static_cast<int64_t>(rng.uniformInt(130));
            const Tensor weight = fuzzTensor({n, m}, rng, iter);
            const Tensor x = fuzzTensor({m}, rng, iter);
            const Tensor y = fuzzTensor({n}, rng, iter);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(ops::matVec(weight, x),
                               ops::reference::matVec(weight, x),
                               "matVec");
            expectBitIdentical(ops::matVecT(weight, y),
                               ops::reference::matVecT(weight, y),
                               "matVecT");
            expectBitIdentical(ops::outer(x, y),
                               ops::reference::outer(x, y), "outer");
        }
    });
}

TEST(GemmFuzz, DotLanesColsMatchesDotLanesBitExact)
{
    // The column lane kernel (each output reduces one column of B)
    // against dot_lanes on the transposed operand, the naive
    // reference, and gemmNN / gemmNNRows against gemmNT on Bᵀ.  n
    // straddles every column block (4, 16); k covers every lane tail
    // and long reductions.  B's rows sit in a shuffled order in
    // storage (the kernel reads them through row offsets, as a
    // convolution's taps are read), its columns past n hold ±inf /
    // NaN, and C's slots past n hold a sentinel: neither may reach a
    // stored output.
    Rng rng(0xC0175u);
    const float kNonFinite[] = {std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                std::numeric_limits<float>::quiet_NaN()};
    const float kSentinel = 12345.0f;
    const std::vector<int64_t> ks = {1, 2, 3, 4, 5, 6, 7, 8, 9, 72, 144, 257};
    atThreadCounts([&](int64_t threads) {
        const gemmk::Kernels &kern = gemmk::activeKernels();
        for (const int64_t k : ks) {
            for (int64_t n = 1; n <= 40; ++n) {
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " k=" + std::to_string(k) +
                             " n=" + std::to_string(n));
                const int64_t ldb =
                    n + 1 + static_cast<int64_t>(rng.uniformInt(7));
                const int64_t m = 1 + n % 3;
                const Tensor a = cancellingTensor({m, k}, rng);
                Tensor b = cancellingTensor({k, ldb}, rng);
                for (int64_t t = 0; t < k; ++t)
                    for (int64_t j = n; j < ldb; ++j)
                        b(t, j) = kNonFinite[(t + j) % 3];
                // Logical row t of B is stored at row slot[t].
                std::vector<int64_t> slot(static_cast<size_t>(k));
                for (int64_t t = 0; t < k; ++t)
                    slot[t] = t;
                for (int64_t t = k - 1; t > 0; --t) {
                    std::swap(slot[t], slot[rng.uniformInt(
                                           static_cast<uint64_t>(t + 1))]);
                }
                std::vector<int64_t> brow(static_cast<size_t>(k));
                Tensor bt({n, k}), bdense({k, n});
                for (int64_t t = 0; t < k; ++t) {
                    brow[t] = slot[t] * ldb;
                    for (int64_t j = 0; j < n; ++j) {
                        bt(j, t) = b(slot[t], j);
                        bdense(t, j) = b(slot[t], j);
                    }
                }
                const Tensor bias = randomTensor({m}, rng);

                std::vector<float> c(static_cast<size_t>(n + 16),
                                     kSentinel);
                const double b0 = static_cast<double>(bias.at(0));
                kern.dot_lanes_cols(c.data(), a.data(), b.data(),
                                    brow.data(), k, n, b0);
                for (int64_t j = 0; j < n; ++j) {
                    const float want =
                        kern.dot_lanes(a.data(), bt.data() + j * k, k, b0);
                    ASSERT_EQ(0, std::memcmp(&c[j], &want, sizeof(float)))
                        << "column " << j << ": " << c[j] << " vs " << want;
                }
                for (int64_t j = n; j < n + 16; ++j)
                    ASSERT_EQ(c[j], kSentinel) << "stored past n at " << j;

                // Without bias: the naive reference (matVec is the
                // lane recipe written out) over Bᵀ.
                kern.dot_lanes_cols(c.data(), a.data(), b.data(),
                                    brow.data(), k, n, 0.0);
                Tensor a0({k});
                std::memcpy(a0.data(), a.data(),
                            static_cast<size_t>(k) * sizeof(float));
                const Tensor ref = ops::reference::matVec(bt, a0);
                ASSERT_EQ(0, std::memcmp(c.data(), ref.data(),
                                         static_cast<size_t>(n) *
                                             sizeof(float)));

                // gemmNNRows and gemmNN (chunked over row x
                // column-tile pairs) are gemmNT on Bᵀ, bias included.
                Tensor rows({m, n}), nn({m, n}), nt({m, n});
                gemm::gemmNNRows(m, n, k, a.data(), k, b.data(),
                                 brow.data(), bias.data(), rows.data(), n);
                gemm::gemmNN(m, n, k, a.data(), k, bdense.data(), n,
                             bias.data(), nn.data(), n);
                gemm::gemmNT(m, n, k, a.data(), k, bt.data(), k,
                             bias.data(), nt.data(), n);
                expectBitIdentical(rows, nt, "gemmNNRows vs gemmNT");
                expectBitIdentical(nn, nt, "gemmNN vs gemmNT");
            }
        }
    });
}

TEST(GemmFuzz, Im2colMatchesReferenceBitExact)
{
    Rng rng(0x12C07u);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 16; ++iter) {
            const int64_t c = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t kh = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t kw = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t pad = static_cast<int64_t>(rng.uniformInt(3));
            const int64_t stride =
                1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t h = kh + static_cast<int64_t>(rng.uniformInt(9));
            const int64_t w = kw + static_cast<int64_t>(rng.uniformInt(9));
            const Tensor input = randomTensor({c, h, w}, rng);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(
                ops::im2col(input, kh, kw, stride, pad),
                ops::reference::im2col(input, kh, kw, stride, pad),
                "im2col");
        }
    });
}

// ---------------------------------------------------------------------
// Crossbar: collapsed bit-plane pass vs the per-pulse emulation
// ---------------------------------------------------------------------

/**
 * The original pulse-by-pulse LSBF walk, preserved as the semantic
 * reference: slot t of train r injects charge 2^t * g[r][c] into each
 * bit line's saturating integrate-and-fire counter.
 */
struct PulseWalkResult
{
    std::vector<int64_t> counts;
    bool saturated = false;
    int64_t input_spikes = 0;
};

PulseWalkResult
pulseWalk(const reram::CrossbarArray &array,
          const std::vector<reram::SpikeTrain> &inputs, int counter_bits)
{
    PulseWalkResult res;
    int max_bits = 0;
    for (const auto &train : inputs)
        max_bits = std::max(max_bits, train.bits());
    std::vector<reram::IntegrateFire> ifs(
        static_cast<size_t>(array.cols()),
        reram::IntegrateFire(counter_bits));
    for (int t = 0; t < max_bits; ++t) {
        const int64_t weight = int64_t{1} << t;
        for (size_t r = 0; r < inputs.size(); ++r) {
            if (t >= inputs[r].bits() ||
                !inputs[r].slots[static_cast<size_t>(t)])
                continue;
            ++res.input_spikes;
            for (int64_t c = 0; c < array.cols(); ++c) {
                const int64_t g =
                    array.cell(static_cast<int64_t>(r), c);
                if (g != 0)
                    ifs[static_cast<size_t>(c)].integrate(weight * g);
            }
        }
    }
    for (const auto &fire : ifs) {
        res.counts.push_back(fire.count());
        res.saturated = res.saturated || fire.saturated();
    }
    return res;
}

TEST(CrossbarCollapse, MatchesPulseWalkIncludingSaturation)
{
    Rng rng(0xC0BAu);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 12; ++iter) {
            reram::DeviceParams params;
            params.array_rows =
                4 + static_cast<int64_t>(rng.uniformInt(29));
            params.array_cols =
                4 + static_cast<int64_t>(rng.uniformInt(29));
            params.data_bits =
                1 + static_cast<int>(rng.uniformInt(12));
            // Narrow counters on odd iterations force saturation.
            params.counter_bits =
                (iter % 2 == 0)
                    ? 48
                    : 4 + static_cast<int>(rng.uniformInt(8));
            reram::CrossbarArray array(params);
            for (int64_t r = 0; r < array.rows(); ++r)
                for (int64_t c = 0; c < array.cols(); ++c)
                    array.programCell(
                        r, c,
                        static_cast<int64_t>(rng.uniformInt(
                            static_cast<uint64_t>(params.maxCellCode()) +
                            1)));

            const reram::SpikeDriver driver(params.data_bits);
            std::vector<reram::SpikeTrain> trains;
            std::vector<int64_t> codes;
            for (int64_t r = 0; r < array.rows(); ++r) {
                codes.push_back(static_cast<int64_t>(rng.uniformInt(
                    uint64_t{1} << params.data_bits)));
                trains.push_back(driver.encode(codes.back()));
            }

            const PulseWalkResult ref =
                pulseWalk(array, trains, params.counter_bits);
            const auto before = array.activity();
            const std::vector<int64_t> fast = array.matVec(trains);
            const auto after = array.activity();

            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            EXPECT_EQ(fast, ref.counts);
            EXPECT_EQ(array.lastSaturated(), ref.saturated);
            EXPECT_EQ(after.input_spikes - before.input_spikes,
                      ref.input_spikes);
            EXPECT_EQ(after.mvm_ops - before.mvm_ops, 1);
            int64_t fires = 0;
            for (int64_t count : ref.counts)
                fires += count;
            EXPECT_EQ(after.if_fires - before.if_fires, fires);

            // matVecCodes must be indistinguishable from encoding the
            // codes and driving matVec (counts and activity).
            const std::vector<int64_t> via_codes =
                array.matVecCodes(codes);
            const auto after_codes = array.activity();
            EXPECT_EQ(via_codes, ref.counts);
            EXPECT_EQ(after_codes.input_spikes - after.input_spikes,
                      ref.input_spikes);
        }
    });
}

TEST(SpikeDriverMemo, MemoizedTablesMatchOnTheFlyEncoding)
{
    for (int bits : {1, 4, reram::SpikeDriver::kMemoBits}) {
        const reram::SpikeDriver driver(bits);
        for (int64_t code = 0; code < (int64_t{1} << bits); ++code) {
            const reram::SpikeTrain train = driver.encode(code);
            EXPECT_EQ(train.value(), code);
            EXPECT_EQ(train.bits(), bits);
            const reram::SpikeTrain *memo = driver.memoized(code);
            ASSERT_NE(memo, nullptr);
            EXPECT_EQ(memo->slots, train.slots);
        }
    }
    // Above the memo limit: no table, encode still exact.
    const reram::SpikeDriver wide(16);
    EXPECT_EQ(wide.memoized(12345), nullptr);
    EXPECT_EQ(wide.encode(12345).value(), 12345);
}

// ---------------------------------------------------------------------
// Workspace arena
// ---------------------------------------------------------------------

TEST(Arena, AlignmentLifoRewindAndPeak)
{
    arena::Arena &a = arena::local();
    const size_t used0 = a.used();
    {
        arena::ScopedBuf<float> buf(100);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) %
                      arena::kAlign,
                  0u);
        EXPECT_GE(a.used(), used0 + 100 * sizeof(float));
        {
            arena::ScopedBuf<int64_t> nested(7, /*zeroed=*/true);
            for (size_t i = 0; i < nested.size(); ++i)
                EXPECT_EQ(nested[i], 0);
            EXPECT_EQ(reinterpret_cast<uintptr_t>(nested.data()) %
                          arena::kAlign,
                      0u);
        }
        EXPECT_GE(a.peak(), a.used());
    }
    // Fully rewound: the scratch is reusable, not leaked.
    EXPECT_EQ(a.used(), used0);
}

TEST(Arena, SteadyStatePeakStabilises)
{
    // The first pass through a working set grows the arena; repeating
    // the identical workload must not move the high-water mark — the
    // "zero steady-state allocation" property the trainer stat
    // (arena.bytes_peak) makes observable.
    Rng rng(0x5EEDu);
    const Tensor input = randomTensor({4, 16, 16}, rng);
    const Tensor kernel = randomTensor({6, 4, 3, 3}, rng);
    const Tensor bias = randomTensor({6}, rng);
    const Tensor delta = randomTensor({6, 16, 16}, rng);

    auto workload = [&] {
        (void)ops::conv2d(input, kernel, bias, 1, 1);
        (void)ops::conv2dBackwardKernel(input, delta, 3, 3, 1);
    };
    workload();
    const size_t peak_after_first = arena::peakBytes();
    for (int i = 0; i < 3; ++i)
        workload();
    EXPECT_EQ(arena::peakBytes(), peak_after_first);
    EXPECT_GT(peak_after_first, 0u);
}

} // namespace
} // namespace pipelayer
