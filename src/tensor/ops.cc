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
 * Zero-padded copy of a (c, h, w) cube as (c, hp, wp): element
 * (ci, y, x) is input (ci, y - pad_y, x - pad_x), or 0.0f outside it.
 * Pads are signed per axis; a negative pad crops.  This is the only
 * bounds logic of the convolution packs.
 */
void
padCopy(const float *in_p, int64_t c, int64_t h, int64_t w, int64_t pad_y,
        int64_t pad_x, int64_t hp, int64_t wp, float *out)
{
    // Columns [x_lo, x_hi) read input column x - pad_x inside [0, w).
    const int64_t x_lo = std::min(std::max<int64_t>(pad_x, 0), wp);
    const int64_t x_hi = std::max(x_lo, std::min(w + pad_x, wp));
    for (int64_t cc = 0; cc < c; ++cc) {
        for (int64_t y = 0; y < hp; ++y, out += wp) {
            const int64_t iy = y - pad_y;
            if (iy < 0 || iy >= h) {
                std::fill(out, out + wp, 0.0f);
                continue;
            }
            std::fill(out, out + x_lo, 0.0f);
            if (x_hi > x_lo) {
                std::memcpy(out + x_lo, in_p + (cc * h + iy) * w + x_lo - pad_x,
                            static_cast<size_t>(x_hi - x_lo) * sizeof(float));
            }
            std::fill(out + x_hi, out + wp, 0.0f);
        }
    }
}

/**
 * The tap-major view of a convolution's input: a zero-padded copy of
 * the (c, h, w) cube, (c, hp, wp) with hp = (ho - 1) * stride + kh and
 * wp = (wo - 1) * stride + kw, and one offset per tap.  Tap t =
 * (ci, ky, kx) — the reduction elements in the add order of the naive
 * loops — reads output pixel (oy, ox) at
 * padded[brow[t] + (oy * wp + ox) * stride].  Arena scratch: a view
 * is a LIFO scope like any ScopedBuf.  Callers time its construction
 * under tensor.im2col (the convolution input pack).
 */
struct TapView
{
    TapView(const float *in_p, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad_y,
            int64_t pad_x, int64_t ho, int64_t wo)
        : hp((ho - 1) * stride + kh), wp((wo - 1) * stride + kw),
          padded(static_cast<size_t>(c * hp * wp)),
          brow(static_cast<size_t>(c * kh * kw))
    {
        padCopy(in_p, c, h, w, pad_y, pad_x, hp, wp, padded.data());
        int64_t *r = brow.data();
        for (int64_t cc = 0; cc < c; ++cc)
            for (int64_t ky = 0; ky < kh; ++ky)
                for (int64_t kx = 0; kx < kw; ++kx)
                    *r++ = (cc * hp + ky) * wp + kx;
    }

    /** Start of tap @p t's run: element (oy * wp + ox) * stride. */
    const float *tap(int64_t t) const
    {
        return padded.data() + brow[static_cast<size_t>(t)];
    }

    const int64_t hp, wp;
    arena::ScopedBuf<float> padded;
    arena::ScopedBuf<int64_t> brow;
};

/**
 * Pack the tap-major panel of a convolution over a (c, h, w) cube at
 * signed per-axis pads: row t = (ci, ky, kx) of @p panel holds that
 * tap's input value at every output pixel (oy, ox), ho*wo floats.
 * Padding positions are materialised as 0.0f (adding w * ±0.0f to an
 * accumulator is exact; see gemm.hh).  At stride 1 each output row
 * of a tap is one memcpy out of the padded copy.
 *
 * @p panel must hold c*kh*kw*ho*wo floats, allocated by the caller
 * (arena scratch on the calling thread — chunk bodies only write).
 */
void
tapPanel(const float *in_p, int64_t c, int64_t h, int64_t w, int64_t kh,
         int64_t kw, int64_t stride, int64_t pad_y, int64_t pad_x,
         int64_t ho, int64_t wo, float *panel)
{
    PL_PROF_SCOPE("tensor.im2col");
    const TapView view(in_p, c, h, w, kh, kw, stride, pad_y, pad_x, ho, wo);
    const int64_t pixels = ho * wo;
    parallel_for(0, c * kh * kw,
                 /*grain=*/std::max<int64_t>(1, 4096 / pixels),
                 [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
            float *dst = panel + t * pixels;
            for (int64_t oy = 0; oy < ho; ++oy, dst += wo) {
                const float *row = view.tap(t) + oy * view.wp * stride;
                if (stride == 1) {
                    std::memcpy(dst, row,
                                static_cast<size_t>(wo) * sizeof(float));
                } else {
                    for (int64_t ox = 0; ox < wo; ++ox)
                        dst[ox] = row[ox * stride];
                }
            }
        }
    });
}

/**
 * Convolution of a (c, h, w) cube with a (co, c, kh, kw) kernel at
 * signed per-axis pads, writing (co, ho, wo) to @p out: one gemmNN of
 * the kernel rows against the tap-major panel, each output pixel
 * reducing its window in the (ci, ky, kx) order of the direct loops —
 * bit-identical, with branch-free contiguous inner loops.
 *
 * At stride 1 the panel is never built: its row t is, output row by
 * output row, the padded input read from brow[t] on, so gemmNNRows
 * reads it in place.  Output (oy, ox) is then column oy * wp + ox of
 * a "wide" grid whose rows are wp = wo + kw - 1 long; the kw - 1
 * columns past wo in each row combine neighbouring pixels and are
 * dropped.  Each kept output sees exactly the panel's operands, so
 * the bits match.  (Arena scratch throughout, so steady state
 * allocates nothing.)
 */
void
convPacked(const float *in_p, int64_t c, int64_t h, int64_t w,
           const float *kernel, int64_t co, int64_t kh, int64_t kw,
           const float *bias, int64_t stride, int64_t pad_y,
           int64_t pad_x, int64_t ho, int64_t wo, float *out)
{
    const int64_t patch = c * kh * kw;
    if (stride != 1) {
        const int64_t pixels = ho * wo;
        arena::ScopedBuf<float> panel(static_cast<size_t>(patch * pixels));
        tapPanel(in_p, c, h, w, kh, kw, stride, pad_y, pad_x, ho, wo,
                 panel.data());
        gemm::gemmNN(co, pixels, patch, kernel, patch, panel.data(),
                     pixels, bias, out, pixels);
        return;
    }
    const TapView view = [&] {
        PL_PROF_SCOPE("tensor.im2col");
        return TapView(in_p, c, h, w, kh, kw, 1, pad_y, pad_x, ho, wo);
    }();
    const int64_t wp = view.wp;
    const int64_t wide = (ho - 1) * wp + wo;
    arena::ScopedBuf<float> grid(static_cast<size_t>(co * wide));
    gemm::gemmNNRows(co, wide, patch, kernel, patch, view.padded.data(),
                     view.brow.data(), bias, grid.data(), wide);
    for (int64_t oc = 0; oc < co; ++oc)
        for (int64_t oy = 0; oy < ho; ++oy)
            std::memcpy(out + (oc * ho + oy) * wo,
                        grid.data() + oc * wide + oy * wp,
                        static_cast<size_t>(wo) * sizeof(float));
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

    // grad[oc, (ci,ky,kx)] = Σ_(oy,ox) delta[oc, (oy,ox)] * panel[(ci,
    // ky,kx), (oy,ox)] — the forward's tap-major panel (stride 1) is
    // already the transposed operand, so this is one gemmNT whose
    // reductions run along contiguous rows of δ and of the panel,
    // over output pixels through the 8-lane contract exactly like the
    // reference tap loops.
    Tensor grad({co, ci, kh, kw});
    const int64_t patch = ci * kh * kw;
    const int64_t pixels = ho * wo;
    arena::ScopedBuf<float> panel(static_cast<size_t>(patch * pixels));
    tapPanel(input.data(), ci, input.dim(1), input.dim(2), kh, kw,
             /*stride=*/1, pad, pad, ho, wo, panel.data());
    gemm::gemmNT(co, patch, pixels, delta_out.data(), pixels, panel.data(),
                 pixels, /*bias=*/nullptr, grad.data(), patch);
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
    const float *in = input.data();
    float *o = out.data();
    float *idx = indices ? indices->data() : nullptr;
    for (int64_t cc = 0; cc < c; ++cc) {
        for (int64_t oy = 0; oy < ho; ++oy) {
            for (int64_t ox = 0; ox < wo; ++ox, ++o) {
                // Window taps in row-major order; the first maximum wins.
                const int64_t first = (cc * h + oy * k) * w + ox * k;
                float best = in[first];
                int64_t best_flat = first;
                for (int64_t ky = 0; ky < k; ++ky) {
                    const int64_t row = first + ky * w;
                    for (int64_t kx = 0; kx < k; ++kx) {
                        if (in[row + kx] > best) {
                            best = in[row + kx];
                            best_flat = row + kx;
                        }
                    }
                }
                *o = best;
                if (idx)
                    *idx++ = static_cast<float>(best_flat);
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
    const float *idx = indices.data();
    const float *d = delta_out.data();
    float *g = grad.data();
    for (int64_t i = 0; i < delta_out.numel(); ++i) {
        const int64_t flat = static_cast<int64_t>(idx[i]);
        // A stale or corrupted index tensor would otherwise scatter
        // into foreign gradient slots (or crash) with no diagnosis.
        PL_ASSERT(flat >= 0 && flat < limit,
                  "maxPoolBackward index %lld at position %lld outside "
                  "input of %lld elements — stale pooling indices?",
                  (long long)flat, (long long)i, (long long)limit);
        g[flat] += d[i];
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
    const float *in = input.data();
    float *o = out.data();
    for (int64_t cc = 0; cc < c; ++cc)
        for (int64_t oy = 0; oy < ho; ++oy)
            for (int64_t ox = 0; ox < wo; ++ox) {
                const float *win = in + (cc * h + oy * k) * w + ox * k;
                double acc = 0.0;
                for (int64_t ky = 0; ky < k; ++ky)
                    for (int64_t kx = 0; kx < k; ++kx)
                        acc += win[ky * w + kx];
                *o++ = static_cast<float>(acc) * inv;
            }
    return out;
}

Tensor
avgPoolBackward(const Tensor &delta_out, int64_t k,
                const Shape &input_shape)
{
    Tensor grad(input_shape);
    PL_ASSERT(delta_out.rank() == 3 && grad.rank() == 3 &&
                  grad.dim(0) == delta_out.dim(0) &&
                  grad.dim(1) >= delta_out.dim(1) * k &&
                  grad.dim(2) >= delta_out.dim(2) * k,
              "avgPoolBackward: delta does not fit the input shape");
    const int64_t c = delta_out.dim(0);
    const int64_t ho = delta_out.dim(1), wo = delta_out.dim(2);
    const int64_t h = grad.dim(1), w = grad.dim(2);
    const float inv = 1.0f / static_cast<float>(k * k);
    const float *d = delta_out.data();
    float *g = grad.data();
    for (int64_t cc = 0; cc < c; ++cc)
        for (int64_t oy = 0; oy < ho; ++oy)
            for (int64_t ox = 0; ox < wo; ++ox) {
                const float v = *d++ * inv;
                float *win = g + (cc * h + oy * k) * w + ox * k;
                for (int64_t ky = 0; ky < k; ++ky)
                    for (int64_t kx = 0; kx < k; ++kx)
                        win[ky * w + kx] += v;
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
    const int64_t patch = c * kh * kw;
    const int64_t pixels = ho * wo;
    // The window-major matrix: the tap view read pixel by pixel.
    PL_PROF_SCOPE("tensor.im2col");
    const TapView view(input.data(), c, h, w, kh, kw, stride, pad, pad, ho,
                       wo);
    Tensor out({pixels, patch});
    parallel_for(0, pixels, /*grain=*/std::max<int64_t>(1, 4096 / patch),
                 [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            const int64_t at = (p / wo * view.wp + p % wo) * stride;
            float *dst = out.data() + p * patch;
            for (int64_t t = 0; t < patch; ++t)
                dst[t] = view.tap(t)[at];
        }
    });
    return out;
}

} // namespace ops
} // namespace pipelayer
