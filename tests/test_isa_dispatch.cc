/**
 * @file
 * Tests of the runtime SIMD dispatch layer (common/isa.hh): detection
 * sanity, name parsing, programmatic and PL_ISA forcing, the
 * byte-identity guarantee across targets *and* thread counts the
 * lane-based kernel contract (DESIGN.md §7) promises, and the
 * batched crossbar-window path's bit-exact equivalence (outputs and
 * activity counters) to the per-window loop it replaced.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/isa.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "nn/layers.hh"
#include "reram/array_group.hh"
#include "reram/params.hh"
#include "tensor/gemm_kernels.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace {

/** Restores the entry dispatch target and PL_ISA on scope exit. */
class ScopedIsa
{
  public:
    ScopedIsa() : entry_(isa::active())
    {
        const char *env = std::getenv("PL_ISA");
        if (env != nullptr)
            saved_env_ = env;
    }
    ~ScopedIsa()
    {
        if (saved_env_.empty())
            ::unsetenv("PL_ISA");
        else
            ::setenv("PL_ISA", saved_env_.c_str(), 1);
        isa::setActive(entry_);
    }

  private:
    isa::Target entry_;
    std::string saved_env_;
};

TEST(IsaDispatch, DetectionSanity)
{
    // Scalar is compiled everywhere: it can never be unsupported.
    EXPECT_TRUE(isa::supported(isa::Target::Scalar));

    const std::vector<isa::Target> avail = isa::availableTargets();
    ASSERT_FALSE(avail.empty());
    EXPECT_EQ(avail.front(), isa::Target::Scalar);
    for (size_t i = 0; i < avail.size(); ++i) {
        EXPECT_TRUE(isa::supported(avail[i]));
        if (i > 0) { // narrowest first
            EXPECT_LT(static_cast<int>(avail[i - 1]),
                      static_cast<int>(avail[i]));
        }
    }
    // best() is the widest available target, and whatever is active
    // must be something the host can actually run.
    EXPECT_EQ(isa::best(), avail.back());
    EXPECT_TRUE(isa::supported(isa::active()));
}

TEST(IsaDispatch, NamesParseRoundTrip)
{
    for (int i = 0; i < isa::kTargetCount; ++i) {
        const isa::Target t = static_cast<isa::Target>(i);
        isa::Target parsed;
        ASSERT_TRUE(isa::parse(isa::name(t), &parsed)) << isa::name(t);
        EXPECT_EQ(parsed, t);
    }
    isa::Target out;
    EXPECT_FALSE(isa::parse("sse42", &out));
    EXPECT_FALSE(isa::parse("AVX2", &out)); // names are lower-case
    EXPECT_FALSE(isa::parse("", &out));
}

TEST(IsaDispatch, SetActiveForcesSupportedRejectsUnsupported)
{
    ScopedIsa restore;
    for (int i = 0; i < isa::kTargetCount; ++i) {
        const isa::Target t = static_cast<isa::Target>(i);
        if (isa::supported(t)) {
            EXPECT_TRUE(isa::setActive(t));
            EXPECT_EQ(isa::active(), t);
        } else {
            const isa::Target before = isa::active();
            EXPECT_FALSE(isa::setActive(t));
            EXPECT_EQ(isa::active(), before)
                << "a failed setActive must not change the target";
        }
    }
}

TEST(IsaDispatch, EnvForcingWinsAndAutoPicksWidest)
{
    ScopedIsa restore;
    ::setenv("PL_ISA", "scalar", 1);
    isa::reresolveFromEnv();
    EXPECT_EQ(isa::active(), isa::Target::Scalar);
    ::unsetenv("PL_ISA");
    isa::reresolveFromEnv();
    EXPECT_EQ(isa::active(), isa::best());
}

TEST(IsaDispatch, StatsReportTheActiveTargetOrdinal)
{
    ScopedIsa restore;
    ASSERT_TRUE(isa::setActive(isa::Target::Scalar));
    stats::StatGroup group("test");
    isa::addStats(group, "host");
    EXPECT_DOUBLE_EQ(group.lookup("host.isa_level"), 0.0);
}

TEST(IsaDispatch, ResultsByteIdenticalAcrossTargetsAndThreads)
{
    ScopedIsa restore;
    Rng rng(0x15Au);
    const Tensor in = Tensor::randn({5, 13, 13}, rng);
    const Tensor kernel = Tensor::randn({7, 5, 3, 3}, rng);
    const Tensor bias = Tensor::randn({7}, rng);
    const Tensor w = Tensor::randn({131, 129}, rng);
    const Tensor x = Tensor::randn({129}, rng);

    // Reference point: scalar kernels, single thread.
    ASSERT_TRUE(isa::setActive(isa::Target::Scalar));
    const int64_t saved = threadCount();
    setThreadCount(1);
    const Tensor conv0 = ops::conv2d(in, kernel, bias, 1, 1);
    const Tensor mv0 = ops::matVec(w, x);

    for (isa::Target t : isa::availableTargets()) {
        ASSERT_TRUE(isa::setActive(t));
        for (int64_t threads : {int64_t{1}, int64_t{4}}) {
            setThreadCount(threads);
            SCOPED_TRACE(std::string("isa=") + isa::name(t) +
                         " threads=" + std::to_string(threads));
            const Tensor conv = ops::conv2d(in, kernel, bias, 1, 1);
            const Tensor mv = ops::matVec(w, x);
            ASSERT_EQ(conv.shape(), conv0.shape());
            EXPECT_EQ(0, std::memcmp(conv.data(), conv0.data(),
                                     static_cast<size_t>(conv.numel()) *
                                         sizeof(float)));
            ASSERT_EQ(mv.shape(), mv0.shape());
            EXPECT_EQ(0, std::memcmp(mv.data(), mv0.data(),
                                     static_cast<size_t>(mv.numel()) *
                                         sizeof(float)));
        }
    }
    setThreadCount(saved);
}

TEST(IsaDispatch, ColumnLaneKernelByteIdenticalAcrossTargets)
{
    // dot_lanes_cols straight from each target's table against the
    // scalar table (the executable contract), over every lane tail
    // and ragged column counts.  Signed powers of two 2^0, 2^28, 2^56
    // (see test_gemm.cc's cancellingTensor): which terms survive the
    // double sums depends on association, so a lane or tree order
    // slip changes bits.
    Rng rng(0xC01Du);
    constexpr int64_t kMaxK = 40, kN = 37, kLdb = 41;
    Tensor a({kMaxK}), b({kMaxK, kLdb});
    for (Tensor *x : {&a, &b}) {
        for (int64_t i = 0; i < x->numel(); ++i) {
            x->at(i) = std::ldexp(rng.uniform() < 0.5 ? -1.0f : 1.0f,
                                  28 * static_cast<int>(rng.uniformInt(3)));
        }
    }
    std::vector<int64_t> brow(kMaxK);
    for (int64_t t = 0; t < kMaxK; ++t)
        brow[t] = t * kLdb;
    for (int64_t k = 1; k <= kMaxK; ++k) {
        std::vector<float> want(kN);
        gemmk::scalarKernels().dot_lanes_cols(want.data(), a.data(),
                                              b.data(), brow.data(), k, kN,
                                              0.25);
        for (isa::Target t : isa::availableTargets()) {
            for (int64_t n : {int64_t{1}, int64_t{5}, int64_t{16},
                              int64_t{17}, kN}) {
                std::vector<float> got(static_cast<size_t>(n));
                gemmk::kernelsFor(t).dot_lanes_cols(got.data(), a.data(),
                                                    b.data(), brow.data(), k,
                                                    n, 0.25);
                EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                         static_cast<size_t>(n) *
                                             sizeof(float)))
                    << "isa=" << isa::name(t) << " k=" << k << " n=" << n;
            }
        }
    }
}

TEST(IsaDispatch, ReluLayerByteIdenticalAcrossTargets)
{
    // The elementwise layers dispatch too (relu_f32/relu_mask_f32):
    // forward, infer and the backward mask must be bit-identical on
    // every target, including the -0.0f / NaN edge cases the select
    // contract pins down (both rectify to +0.0f).
    ScopedIsa restore;
    Rng rng(0x2E1Fu);
    Tensor in = Tensor::randn({3, 17, 17}, rng);
    in.at(0) = -0.0f;
    in.at(1) = 0.0f;
    in.at(2) = std::numeric_limits<float>::quiet_NaN();
    const Tensor delta = Tensor::randn({3, 17, 17}, rng);

    ASSERT_TRUE(isa::setActive(isa::Target::Scalar));
    nn::ReluLayer ref_layer;
    const Tensor fwd0 = ref_layer.forward(in);
    const Tensor inf0 = ref_layer.infer(in);
    const Tensor bwd0 = ref_layer.backward(delta);
    // The scalar ternary semantics, independently restated.
    for (int64_t i = 0; i < in.numel(); ++i) {
        const float x = in.at(i);
        const float want = x > 0.0f ? x : 0.0f;
        const float got = fwd0.at(i);
        EXPECT_EQ(0, std::memcmp(&want, &got, sizeof(float)))
            << "element " << i;
    }

    for (isa::Target t : isa::availableTargets()) {
        ASSERT_TRUE(isa::setActive(t));
        SCOPED_TRACE(std::string("isa=") + isa::name(t));
        nn::ReluLayer layer;
        const Tensor fwd = layer.forward(in);
        const Tensor inf = layer.infer(in);
        const Tensor bwd = layer.backward(delta);
        const size_t bytes =
            static_cast<size_t>(in.numel()) * sizeof(float);
        EXPECT_EQ(0, std::memcmp(fwd.data(), fwd0.data(), bytes));
        EXPECT_EQ(0, std::memcmp(inf.data(), inf0.data(), bytes));
        EXPECT_EQ(0, std::memcmp(bwd.data(), bwd0.data(), bytes));
    }
}

// ---------------------------------------------------------------------
// Batched crossbar windows vs the per-window loop
// ---------------------------------------------------------------------

void
expectSameActivity(const reram::ArrayActivity &a,
                   const reram::ArrayActivity &b)
{
    EXPECT_EQ(a.input_spikes, b.input_spikes);
    EXPECT_EQ(a.write_pulses, b.write_pulses);
    EXPECT_EQ(a.mvm_ops, b.mvm_ops);
    EXPECT_EQ(a.if_fires, b.if_fires);
}

TEST(IsaDispatch, BatchedCrossbarWindowsMatchLoopedBitExact)
{
    ScopedIsa restore;
    const int64_t saved = threadCount();
    // Partial tiles in both directions (m_in > array_rows) and signed
    // inputs, so the batch path's tiling, sign-split passes and
    // all-zero-chunk filtering all run.
    Rng rng(0xBA7Cu);
    const reram::DeviceParams params;
    const Tensor weight = Tensor::randn({96, 200}, rng);

    for (isa::Target t : isa::availableTargets()) {
        for (int64_t threads : {int64_t{1}, int64_t{4}}) {
            ASSERT_TRUE(isa::setActive(t));
            setThreadCount(threads);
            SCOPED_TRACE(std::string("isa=") + isa::name(t) +
                         " threads=" + std::to_string(threads));

            // Two groups programmed from the same weights: one takes
            // the batch in one call, the other window by window, so
            // their activity counters are directly comparable.
            reram::ArrayGroup batched(params, weight);
            reram::ArrayGroup looped(params, weight);

            constexpr int64_t kWindows = 5;
            Tensor xb({kWindows, 200});
            for (int64_t i = 0; i < xb.numel(); ++i)
                xb.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
            // One all-non-negative window: its negative pass must be
            // skipped by both paths.
            for (int64_t j = 0; j < 200; ++j)
                xb(2, j) = static_cast<float>(rng.uniform());

            const Tensor got = batched.matVecBatch(xb);
            ASSERT_EQ(got.shape(), Shape({kWindows, 96}));

            Tensor one({200});
            for (int64_t b = 0; b < kWindows; ++b) {
                for (int64_t j = 0; j < 200; ++j)
                    one(j) = xb(b, j);
                const Tensor want = looped.matVec(one);
                ASSERT_EQ(0,
                          std::memcmp(got.data() + b * 96, want.data(),
                                      96 * sizeof(float)))
                    << "window " << b;
            }
            expectSameActivity(batched.totalActivity(),
                               looped.totalActivity());

            // batch == 1 degenerates to matVec exactly.
            Tensor x1({1, 200});
            for (int64_t j = 0; j < 200; ++j)
                x1(0, j) = xb(0, j);
            const Tensor via_batch = batched.matVecBatch(x1);
            for (int64_t j = 0; j < 200; ++j)
                one(j) = xb(0, j);
            const Tensor via_single = looped.matVec(one);
            EXPECT_EQ(0, std::memcmp(via_batch.data(),
                                     via_single.data(),
                                     96 * sizeof(float)));
        }
    }
    setThreadCount(saved);
}

} // namespace
} // namespace pipelayer
