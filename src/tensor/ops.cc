#include "tensor/ops.hh"

#include <algorithm>
#include <cstring>

#include "common/arena.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "tensor/gemm.hh"

namespace pipelayer {
namespace ops {

namespace {

/** Output extent of a strided, padded convolution along one axis. */
int64_t
convExtent(int64_t in, int64_t k, int64_t stride, int64_t pad)
{
    const int64_t padded = in + 2 * pad;
    PL_ASSERT(padded >= k, "kernel %lld larger than padded input %lld",
              (long long)k, (long long)padded);
    return (padded - k) / stride + 1;
}

/**
 * Pack convolution windows of a (c, h, w) cube into @p col, one
 * window per row, columns in (ci, ky, kx) order — the add order of
 * the naive convolution loop, so a GEMM over these rows reduces in
 * exactly the naive sequence.  Padding positions are materialised as
 * 0.0f (adding w * ±0.0f to an accumulator is exact; see gemm.hh).
 * Pads are signed per axis: a negative pad crops that many rows or
 * columns off each edge, which the bounds checks below handle.
 *
 * @p col must hold ho*wo*c*kh*kw floats, allocated by the caller
 * (arena scratch on the calling thread — chunk bodies only write).
 */
void
im2colPack(const float *in_p, int64_t c, int64_t h, int64_t w,
           int64_t kh, int64_t kw, int64_t stride, int64_t pad_y,
           int64_t pad_x, int64_t ho, int64_t wo, float *col)
{
    PL_PROF_SCOPE("tensor.im2col");
    const int64_t patch = c * kh * kw;
    parallel_for(0, ho * wo, /*grain=*/8, [&](int64_t r0, int64_t r1) {
        for (int64_t row = r0; row < r1; ++row) {
            const int64_t oy = row / wo;
            const int64_t ox = row % wo;
            float *dst = col + row * patch;
            for (int64_t cc = 0; cc < c; ++cc) {
                const float *in_c = in_p + cc * h * w;
                for (int64_t ky = 0; ky < kh; ++ky) {
                    const int64_t iy = oy * stride + ky - pad_y;
                    if (iy < 0 || iy >= h) {
                        std::fill(dst, dst + kw, 0.0f);
                        dst += kw;
                        continue;
                    }
                    const float *in_row = in_c + iy * w;
                    const int64_t x0 = ox * stride - pad_x;
                    if (x0 >= 0 && x0 + kw <= w) {
                        std::memcpy(dst, in_row + x0,
                                    static_cast<size_t>(kw) *
                                        sizeof(float));
                        dst += kw;
                    } else {
                        for (int64_t kx = 0; kx < kw; ++kx) {
                            const int64_t ix = x0 + kx;
                            *dst++ = (ix >= 0 && ix < w) ? in_row[ix]
                                                         : 0.0f;
                        }
                    }
                }
            }
        }
    });
}

/**
 * im2col + GEMM convolution of a (c, h, w) cube with a (co, c, kh, kw)
 * kernel at signed per-axis pads, writing (co, ho, wo) to @p out.
 * Each output pixel is a dot product of one kernel row against one
 * packed window row, reduced in the same (ci, ky, kx) order as the
 * direct loops — bit-identical, but with branch-free contiguous inner
 * loops (the arena panel is reused scratch, so steady state
 * allocates nothing).
 */
void
convPacked(const float *in_p, int64_t c, int64_t h, int64_t w,
           const float *kernel, int64_t co, int64_t kh, int64_t kw,
           const float *bias, int64_t stride, int64_t pad_y,
           int64_t pad_x, int64_t ho, int64_t wo, float *out)
{
    const int64_t patch = c * kh * kw;
    const int64_t rows = ho * wo;
    arena::ScopedBuf<float> col(static_cast<size_t>(rows * patch));
    im2colPack(in_p, c, h, w, kh, kw, stride, pad_y, pad_x, ho, wo,
               col.data());
    gemm::gemmNT(co, rows, patch, kernel, patch, col.data(), patch, bias,
                 out, rows);
}

} // namespace

Tensor
conv2d(const Tensor &input, const Tensor &kernel, const Tensor &bias,
       int64_t stride, int64_t pad)
{
    PL_PROF_SCOPE("tensor.conv2d_fwd");
    PL_ASSERT(input.rank() == 3, "conv2d input must be (C, H, W)");
    PL_ASSERT(kernel.rank() == 4, "conv2d kernel must be (Co, Ci, Kh, Kw)");
    PL_ASSERT(stride >= 1 && pad >= 0, "bad stride/pad");
    const int64_t ci = input.dim(0), h = input.dim(1), w = input.dim(2);
    const int64_t co = kernel.dim(0), kci = kernel.dim(1);
    const int64_t kh = kernel.dim(2), kw = kernel.dim(3);
    PL_ASSERT(ci == kci, "channel mismatch: input %lld vs kernel %lld",
              (long long)ci, (long long)kci);
    const bool has_bias = bias.numel() > 0;
    if (has_bias) {
        PL_ASSERT(bias.rank() == 1 && bias.dim(0) == co,
                  "bias must be (Cout)");
    }

    const int64_t ho = convExtent(h, kh, stride, pad);
    const int64_t wo = convExtent(w, kw, stride, pad);
    Tensor out({co, ho, wo});
    convPacked(input.data(), ci, h, w, kernel.data(), co, kh, kw,
               has_bias ? bias.data() : nullptr, stride, pad, pad, ho, wo,
               out.data());
    return out;
}

Tensor
rot180(const Tensor &kernel)
{
    PL_ASSERT(kernel.rank() == 4, "rot180 expects (Co, Ci, Kh, Kw)");
    const int64_t co = kernel.dim(0), ci = kernel.dim(1);
    const int64_t kh = kernel.dim(2), kw = kernel.dim(3);
    // Output is indexed (Ci, Co, Kh, Kw): channel roles swap in the
    // backward pass, and the spatial taps are reversed.
    Tensor out({ci, co, kh, kw});
    for (int64_t oc = 0; oc < co; ++oc)
        for (int64_t icn = 0; icn < ci; ++icn)
            for (int64_t ky = 0; ky < kh; ++ky)
                for (int64_t kx = 0; kx < kw; ++kx)
                    out(icn, oc, kh - 1 - ky, kw - 1 - kx) =
                        kernel(oc, icn, ky, kx);
    return out;
}

Tensor
zeroPad(const Tensor &input, int64_t pad)
{
    PL_ASSERT(input.rank() == 3, "zeroPad expects (C, H, W)");
    PL_ASSERT(pad >= 0, "negative pad");
    if (pad == 0)
        return input;
    const int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
    Tensor out({c, h + 2 * pad, w + 2 * pad});
    for (int64_t cc = 0; cc < c; ++cc)
        for (int64_t y = 0; y < h; ++y)
            for (int64_t x = 0; x < w; ++x)
                out(cc, y + pad, x + pad) = input(cc, y, x);
    return out;
}

Tensor
conv2dBackwardInput(const Tensor &delta_out, const Tensor &kernel,
                    int64_t pad)
{
    // conv2(δ, rot180(K), 'full') cropped by the forward pad is one
    // convolution of δ with rot180(K) at pad K - 1 - pad per axis:
    // the same windows and taps, so the same sums bit for bit as the
    // full form (ops::reference), computing only the kept outputs.
    // When pad > K - 1 the pad is negative and crops δ's border.
    PL_PROF_SCOPE("tensor.conv2d_bwd_input");
    PL_ASSERT(delta_out.rank() == 3 && kernel.rank() == 4,
              "bad ranks in conv2dBackwardInput");
    const int64_t co = kernel.dim(0), ci = kernel.dim(1);
    const int64_t kh = kernel.dim(2), kw = kernel.dim(3);
    PL_ASSERT(delta_out.dim(0) == co,
              "channel mismatch: delta %lld vs kernel %lld",
              (long long)delta_out.dim(0), (long long)co);
    PL_ASSERT(kh == kw || pad == 0,
              "asymmetric kernels with padding unsupported");

    // rot180(K) as (Ci, Co, Kh, Kw): channel roles swap, taps reverse.
    const float *k = kernel.data();
    arena::ScopedBuf<float> rot(static_cast<size_t>(kernel.numel()));
    for (int64_t oc = 0; oc < co; ++oc)
        for (int64_t icn = 0; icn < ci; ++icn)
            for (int64_t ky = 0; ky < kh; ++ky)
                for (int64_t kx = 0; kx < kw; ++kx)
                    rot[static_cast<size_t>(
                        ((icn * co + oc) * kh + (kh - 1 - ky)) * kw +
                        (kw - 1 - kx))] =
                        k[((oc * ci + icn) * kh + ky) * kw + kx];

    const int64_t pad_y = kh - 1 - pad, pad_x = kw - 1 - pad;
    const int64_t ho = delta_out.dim(1), wo = delta_out.dim(2);
    const int64_t h = convExtent(ho, kh, 1, pad_y);
    const int64_t w = convExtent(wo, kw, 1, pad_x);
    Tensor out({ci, h, w});
    convPacked(delta_out.data(), co, ho, wo, rot.data(), ci, kh, kw,
               /*bias=*/nullptr, /*stride=*/1, pad_y, pad_x, h, w,
               out.data());
    return out;
}

Tensor
conv2dBackwardKernel(const Tensor &input, const Tensor &delta_out,
                     int64_t kh, int64_t kw, int64_t pad)
{
    PL_PROF_SCOPE("tensor.conv2d_bwd_kernel");
    PL_ASSERT(input.rank() == 3 && delta_out.rank() == 3,
              "bad ranks in conv2dBackwardKernel");
    const int64_t ci = input.dim(0);
    const int64_t h = input.dim(1) + 2 * pad;
    const int64_t w = input.dim(2) + 2 * pad;
    const int64_t co = delta_out.dim(0);
    const int64_t ho = delta_out.dim(1), wo = delta_out.dim(2);
    PL_ASSERT(ho == h - kh + 1 && wo == w - kw + 1,
              "delta shape inconsistent with stride-1 convolution");

    // grad[oc, (ci,ky,kx)] = Σ_(oy,ox) delta[oc, (oy,ox)] * window
    // matrix — a plain GEMM against the same im2col panel as forward
    // (stride 1), reducing over output pixels (oy, ox) through the
    // 8-lane contract exactly like the reference tap loops.
    Tensor grad({co, ci, kh, kw});
    const int64_t patch = ci * kh * kw;
    const int64_t rows = ho * wo;
    arena::ScopedBuf<float> col(static_cast<size_t>(rows * patch));
    im2colPack(input.data(), ci, input.dim(1), input.dim(2), kh, kw,
               /*stride=*/1, pad, pad, ho, wo, col.data());
    gemm::gemmNN(co, patch, rows, delta_out.data(), rows, col.data(),
                 patch, grad.data(), patch);
    return grad;
}

void
accumulateChannelSums(const float *x, int64_t channels, int64_t plane,
                      float *acc)
{
    for (int64_t c = 0; c < channels; ++c) {
        const float *xc = x + c * plane;
        double sum = 0.0;
        for (int64_t i = 0; i < plane; ++i)
            sum += xc[i];
        acc[c] += static_cast<float>(sum);
    }
}

Tensor
maxPool(const Tensor &input, int64_t k, Tensor *indices)
{
    PL_ASSERT(input.rank() == 3, "maxPool expects (C, H, W)");
    const int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
    PL_ASSERT(h % k == 0 && w % k == 0,
              "pooling window %lld does not tile %lldx%lld", (long long)k,
              (long long)h, (long long)w);
    const int64_t ho = h / k, wo = w / k;
    Tensor out({c, ho, wo});
    if (indices)
        *indices = Tensor({c, ho, wo});
    for (int64_t cc = 0; cc < c; ++cc) {
        for (int64_t oy = 0; oy < ho; ++oy) {
            for (int64_t ox = 0; ox < wo; ++ox) {
                float best = input(cc, oy * k, ox * k);
                int64_t best_flat = ((cc * h) + oy * k) * w + ox * k;
                for (int64_t ky = 0; ky < k; ++ky) {
                    for (int64_t kx = 0; kx < k; ++kx) {
                        const int64_t iy = oy * k + ky;
                        const int64_t ix = ox * k + kx;
                        const float v = input(cc, iy, ix);
                        if (v > best) {
                            best = v;
                            best_flat = (cc * h + iy) * w + ix;
                        }
                    }
                }
                out(cc, oy, ox) = best;
                if (indices)
                    (*indices)(cc, oy, ox) =
                        static_cast<float>(best_flat);
            }
        }
    }
    return out;
}

Tensor
maxPoolBackward(const Tensor &delta_out, const Tensor &indices,
                const Shape &input_shape)
{
    PL_ASSERT(delta_out.numel() == indices.numel(),
              "indices/delta mismatch in maxPoolBackward");
    Tensor grad(input_shape);
    const int64_t limit = shapeNumel(input_shape);
    for (int64_t i = 0; i < delta_out.numel(); ++i) {
        const int64_t flat = static_cast<int64_t>(indices.at(i));
        // A stale or corrupted index tensor would otherwise scatter
        // into foreign gradient slots (or crash) with no diagnosis.
        PL_ASSERT(flat >= 0 && flat < limit,
                  "maxPoolBackward index %lld at position %lld outside "
                  "input of %lld elements — stale pooling indices?",
                  (long long)flat, (long long)i, (long long)limit);
        grad.at(flat) += delta_out.at(i);
    }
    return grad;
}

Tensor
avgPool(const Tensor &input, int64_t k)
{
    PL_ASSERT(input.rank() == 3, "avgPool expects (C, H, W)");
    const int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
    PL_ASSERT(h % k == 0 && w % k == 0, "pooling window does not tile");
    const int64_t ho = h / k, wo = w / k;
    const float inv = 1.0f / static_cast<float>(k * k);
    Tensor out({c, ho, wo});
    for (int64_t cc = 0; cc < c; ++cc)
        for (int64_t oy = 0; oy < ho; ++oy)
            for (int64_t ox = 0; ox < wo; ++ox) {
                double acc = 0.0;
                for (int64_t ky = 0; ky < k; ++ky)
                    for (int64_t kx = 0; kx < k; ++kx)
                        acc += input(cc, oy * k + ky, ox * k + kx);
                out(cc, oy, ox) = static_cast<float>(acc) * inv;
            }
    return out;
}

Tensor
avgPoolBackward(const Tensor &delta_out, int64_t k,
                const Shape &input_shape)
{
    Tensor grad(input_shape);
    const int64_t c = delta_out.dim(0);
    const int64_t ho = delta_out.dim(1), wo = delta_out.dim(2);
    const float inv = 1.0f / static_cast<float>(k * k);
    for (int64_t cc = 0; cc < c; ++cc)
        for (int64_t oy = 0; oy < ho; ++oy)
            for (int64_t ox = 0; ox < wo; ++ox) {
                const float v = delta_out(cc, oy, ox) * inv;
                for (int64_t ky = 0; ky < k; ++ky)
                    for (int64_t kx = 0; kx < k; ++kx)
                        grad(cc, oy * k + ky, ox * k + kx) += v;
            }
    return grad;
}

Tensor
matVec(const Tensor &weight, const Tensor &x)
{
    PL_PROF_SCOPE("tensor.matvec");
    PL_ASSERT(weight.rank() == 2 && x.rank() == 1, "matVec needs (n,m), (m)");
    const int64_t n = weight.dim(0), m = weight.dim(1);
    PL_ASSERT(x.dim(0) == m, "matVec inner-dim mismatch");
    Tensor out({n});
    gemm::gemv(n, m, weight.data(), m, x.data(), out.data());
    return out;
}

Tensor
matVecT(const Tensor &weight, const Tensor &y)
{
    PL_PROF_SCOPE("tensor.matvect");
    PL_ASSERT(weight.rank() == 2 && y.rank() == 1, "matVecT needs (n,m), (n)");
    const int64_t n = weight.dim(0), m = weight.dim(1);
    PL_ASSERT(y.dim(0) == n, "matVecT inner-dim mismatch");
    Tensor out({m}); // zero-initialised: gevm accumulates into it
    gemm::gevm(n, m, weight.data(), m, y.data(), out.data());
    return out;
}

Tensor
outer(const Tensor &d, const Tensor &delta)
{
    PL_PROF_SCOPE("tensor.outer");
    PL_ASSERT(d.rank() == 1 && delta.rank() == 1, "outer needs vectors");
    const int64_t m = d.dim(0), n = delta.dim(0);
    Tensor out({n, m});
    gemm::ger(n, m, delta.data(), d.data(), out.data(), m);
    return out;
}

Tensor
im2col(const Tensor &input, int64_t kh, int64_t kw, int64_t stride,
       int64_t pad)
{
    PL_ASSERT(input.rank() == 3, "im2col expects (C, H, W)");
    const int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
    const int64_t ho = convExtent(h, kh, stride, pad);
    const int64_t wo = convExtent(w, kw, stride, pad);
    Tensor out({ho * wo, c * kh * kw});
    im2colPack(input.data(), c, h, w, kh, kw, stride, pad, pad, ho, wo,
               out.data());
    return out;
}

} // namespace ops
} // namespace pipelayer
