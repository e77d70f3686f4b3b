#include "nn/layers.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "tensor/gemm_kernels.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace nn {

namespace {

/** He-style initialisation scale for a fan-in of @p fan_in. */
float
initStddev(int64_t fan_in)
{
    return std::sqrt(2.0f / static_cast<float>(fan_in));
}

/**
 * Shared SGD-with-momentum step: v <- m v + g/B, p <- p - lr v.
 * With momentum 0 this reduces to the paper's plain update and the
 * velocity tensor stays untouched (empty).
 */
void
sgdStep(Tensor &param, const Tensor &grad, Tensor &velocity,
        float momentum, float lr, int64_t batch_size)
{
    const float inv_b = 1.0f / static_cast<float>(batch_size);
    if (momentum == 0.0f) {
        const float scale = lr * inv_b;
        float *p = param.data();
        const float *g = grad.data();
        for (int64_t i = 0; i < param.numel(); ++i)
            p[i] -= scale * g[i];
        return;
    }
    if (velocity.numel() != param.numel())
        velocity = Tensor(param.shape());
    float *p = param.data();
    float *v = velocity.data();
    const float *g = grad.data();
    for (int64_t i = 0; i < param.numel(); ++i) {
        v[i] = momentum * v[i] + g[i] * inv_b;
        p[i] -= lr * v[i];
    }
}

} // namespace

// ---------------------------------------------------------------------
// ConvLayer
// ---------------------------------------------------------------------

ConvLayer::ConvLayer(int64_t in_channels, int64_t out_channels,
                     int64_t kernel, int64_t stride, int64_t pad, Rng &rng)
    : in_channels_(in_channels), out_channels_(out_channels),
      kernel_(kernel), stride_(stride), pad_(pad),
      weight_(Tensor::randn({out_channels, in_channels, kernel, kernel},
                            rng, 0.0f,
                            initStddev(in_channels * kernel * kernel))),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels, kernel, kernel}),
      bias_grad_({out_channels})
{
    PL_ASSERT(in_channels > 0 && out_channels > 0 && kernel > 0 &&
              stride > 0 && pad >= 0, "bad ConvLayer geometry");
}

std::string
ConvLayer::describe() const
{
    std::ostringstream os;
    os << "conv" << kernel_ << "x" << out_channels_;
    if (stride_ != 1)
        os << "/s" << stride_;
    if (pad_ != 0)
        os << "/p" << pad_;
    return os.str();
}

Shape
ConvLayer::outputShape(const Shape &input_shape) const
{
    PL_ASSERT(input_shape.size() == 3, "conv input must be (C, H, W)");
    PL_ASSERT(input_shape[0] == in_channels_,
              "conv expects %lld channels, got %lld",
              (long long)in_channels_, (long long)input_shape[0]);
    const int64_t ho = (input_shape[1] + 2 * pad_ - kernel_) / stride_ + 1;
    const int64_t wo = (input_shape[2] + 2 * pad_ - kernel_) / stride_ + 1;
    return {out_channels_, ho, wo};
}

std::vector<Tensor>
ConvLayer::forwardSamples(std::vector<Tensor> inputs, bool train)
{
    const int64_t n = static_cast<int64_t>(inputs.size());
    std::vector<Tensor> out(inputs.size());
    forEachSample(n, [&](int64_t s) {
        out[s] = ops::conv2d(inputs[s], weight_, bias_, stride_, pad_);
    });
    if (train)
        cached_inputs_ = std::move(inputs);
    return out;
}

std::vector<Tensor>
ConvLayer::backwardSamples(std::vector<Tensor> deltas, bool input_grad)
{
    PL_ASSERT(stride_ == 1, "conv backward implemented for stride 1 only");
    checkBackwardGroup(deltas.size(), cached_inputs_.size());
    const int64_t n = static_cast<int64_t>(deltas.size());
    std::vector<Tensor> kernel_grads(deltas.size());
    std::vector<Tensor> delta_in(deltas.size());
    forEachSample(n, [&](int64_t s) {
        kernel_grads[s] = ops::conv2dBackwardKernel(
            cached_inputs_[s], deltas[s], kernel_, kernel_, pad_);
        if (input_grad)
            delta_in[s] = ops::conv2dBackwardInput(deltas[s], weight_, pad_);
    });
    // Commit in ascending sample order: the float-add sequence of one
    // backward() per sample.  ∂J/∂b_c = Σ_{u,v} δ[c, u, v] (§4.4.1).
    for (size_t s = 0; s < deltas.size(); ++s) {
        const Tensor &delta = deltas[s];
        PL_ASSERT(delta.rank() == 3 && delta.dim(0) == out_channels_,
                  "conv backward expects (%lld, H, W) errors",
                  (long long)out_channels_);
        ops::accumulateChannelSums(delta.data(), out_channels_,
                                   delta.dim(1) * delta.dim(2),
                                   bias_grad_.data());
        weight_grad_ += kernel_grads[s];
    }
    return delta_in;
}

void
ConvLayer::zeroGrads()
{
    weight_grad_.fill(0.0f);
    bias_grad_.fill(0.0f);
}

void
ConvLayer::applyUpdate(float lr, int64_t batch_size)
{
    sgdStep(weight_, weight_grad_, weight_vel_, momentum_, lr,
            batch_size);
    sgdStep(bias_, bias_grad_, bias_vel_, momentum_, lr, batch_size);
}

void
ConvLayer::setMomentum(float momentum)
{
    PL_ASSERT(momentum >= 0.0f && momentum < 1.0f,
              "momentum must be in [0, 1)");
    momentum_ = momentum;
}

std::vector<Tensor *>
ConvLayer::parameters()
{
    return {&weight_, &bias_};
}

// ---------------------------------------------------------------------
// MaxPoolLayer
// ---------------------------------------------------------------------

MaxPoolLayer::MaxPoolLayer(int64_t window) : window_(window)
{
    PL_ASSERT(window > 1, "pooling window must exceed 1");
}

std::string
MaxPoolLayer::describe() const
{
    std::ostringstream os;
    os << "maxpool" << window_;
    return os.str();
}

Shape
MaxPoolLayer::outputShape(const Shape &input_shape) const
{
    PL_ASSERT(input_shape.size() == 3, "pool input must be (C, H, W)");
    return {input_shape[0], input_shape[1] / window_,
            input_shape[2] / window_};
}

std::vector<Tensor>
MaxPoolLayer::forwardSamples(std::vector<Tensor> inputs, bool train)
{
    if (train) {
        cached_indices_.assign(inputs.size(), Tensor());
        cached_input_shapes_.clear();
    }
    for (size_t s = 0; s < inputs.size(); ++s) {
        Tensor out = ops::maxPool(inputs[s], window_,
                                  train ? &cached_indices_[s] : nullptr);
        if (train)
            cached_input_shapes_.push_back(inputs[s].shape());
        inputs[s] = std::move(out);
    }
    return inputs;
}

std::vector<Tensor>
MaxPoolLayer::backwardSamples(std::vector<Tensor> deltas, bool /*input_grad*/)
{
    checkBackwardGroup(deltas.size(), cached_indices_.size());
    for (size_t s = 0; s < deltas.size(); ++s) {
        deltas[s] = ops::maxPoolBackward(deltas[s], cached_indices_[s],
                                         cached_input_shapes_[s]);
    }
    return deltas;
}

// ---------------------------------------------------------------------
// AvgPoolLayer
// ---------------------------------------------------------------------

AvgPoolLayer::AvgPoolLayer(int64_t window) : window_(window)
{
    PL_ASSERT(window > 1, "pooling window must exceed 1");
}

std::string
AvgPoolLayer::describe() const
{
    std::ostringstream os;
    os << "avgpool" << window_;
    return os.str();
}

Shape
AvgPoolLayer::outputShape(const Shape &input_shape) const
{
    PL_ASSERT(input_shape.size() == 3, "pool input must be (C, H, W)");
    return {input_shape[0], input_shape[1] / window_,
            input_shape[2] / window_};
}

std::vector<Tensor>
AvgPoolLayer::forwardSamples(std::vector<Tensor> inputs, bool train)
{
    if (train)
        cached_input_shapes_.clear();
    for (Tensor &x : inputs) {
        if (train)
            cached_input_shapes_.push_back(x.shape());
        x = ops::avgPool(x, window_);
    }
    return inputs;
}

std::vector<Tensor>
AvgPoolLayer::backwardSamples(std::vector<Tensor> deltas, bool /*input_grad*/)
{
    checkBackwardGroup(deltas.size(), cached_input_shapes_.size());
    for (size_t s = 0; s < deltas.size(); ++s) {
        deltas[s] =
            ops::avgPoolBackward(deltas[s], window_, cached_input_shapes_[s]);
    }
    return deltas;
}

// ---------------------------------------------------------------------
// InnerProductLayer
// ---------------------------------------------------------------------

InnerProductLayer::InnerProductLayer(int64_t in_size, int64_t out_size,
                                     Rng &rng)
    : in_size_(in_size), out_size_(out_size),
      weight_(Tensor::randn({out_size, in_size}, rng, 0.0f,
                            initStddev(in_size))),
      bias_({out_size}),
      weight_grad_({out_size, in_size}),
      bias_grad_({out_size})
{
    PL_ASSERT(in_size > 0 && out_size > 0, "bad InnerProduct geometry");
}

std::string
InnerProductLayer::describe() const
{
    std::ostringstream os;
    os << in_size_ << "-" << out_size_;
    return os.str();
}

Shape
InnerProductLayer::outputShape(const Shape &input_shape) const
{
    PL_ASSERT(shapeNumel(input_shape) == in_size_,
              "inner product expects %lld inputs, got %s",
              (long long)in_size_, shapeToString(input_shape).c_str());
    return {out_size_};
}

std::vector<Tensor>
InnerProductLayer::forwardSamples(std::vector<Tensor> inputs, bool train)
{
    const int64_t n = static_cast<int64_t>(inputs.size());
    std::vector<Tensor> out(inputs.size());
    forEachSample(n, [&](int64_t s) {
        inputs[s] = std::move(inputs[s]).reshape({in_size_});
        out[s] = ops::matVec(weight_, inputs[s]);
        out[s] += bias_;
    });
    if (train)
        cached_inputs_ = std::move(inputs);
    return out;
}

std::vector<Tensor>
InnerProductLayer::backwardSamples(std::vector<Tensor> deltas, bool input_grad)
{
    checkBackwardGroup(deltas.size(), cached_inputs_.size());
    const int64_t n = static_cast<int64_t>(deltas.size());
    std::vector<Tensor> weight_grads(deltas.size());
    std::vector<Tensor> delta_in(deltas.size());
    forEachSample(n, [&](int64_t s) {
        weight_grads[s] = ops::outer(cached_inputs_[s], deltas[s]);
        if (input_grad)
            delta_in[s] = ops::matVecT(weight_, deltas[s]);
    });
    // Commit in ascending sample order (see ConvLayer::backwardSamples).
    for (size_t s = 0; s < deltas.size(); ++s) {
        weight_grad_ += weight_grads[s];
        bias_grad_ += deltas[s];
    }
    return delta_in;
}

void
InnerProductLayer::zeroGrads()
{
    weight_grad_.fill(0.0f);
    bias_grad_.fill(0.0f);
}

void
InnerProductLayer::applyUpdate(float lr, int64_t batch_size)
{
    sgdStep(weight_, weight_grad_, weight_vel_, momentum_, lr,
            batch_size);
    sgdStep(bias_, bias_grad_, bias_vel_, momentum_, lr, batch_size);
}

void
InnerProductLayer::setMomentum(float momentum)
{
    PL_ASSERT(momentum >= 0.0f && momentum < 1.0f,
              "momentum must be in [0, 1)");
    momentum_ = momentum;
}

std::vector<Tensor *>
InnerProductLayer::parameters()
{
    return {&weight_, &bias_};
}

// ---------------------------------------------------------------------
// ReluLayer
// ---------------------------------------------------------------------

Shape
ReluLayer::outputShape(const Shape &input_shape) const
{
    return input_shape;
}

std::vector<Tensor>
ReluLayer::forwardSamples(std::vector<Tensor> inputs, bool train)
{
    // Dispatched relu_f32 (pure select, bit-identical on every
    // target), so --isa covers the whole forward pass, not just the
    // GEMM-backed layers.
    for (Tensor &x : inputs)
        gemmk::activeKernels().relu_f32(x.data(), x.data(), x.numel());
    if (train)
        cached_outputs_ = inputs;
    return inputs;
}

std::vector<Tensor>
ReluLayer::backwardSamples(std::vector<Tensor> deltas, bool /*input_grad*/)
{
    checkBackwardGroup(deltas.size(), cached_outputs_.size());
    // δ_in = δ_out ⊙ [d > 0]: the AND-with-mask of paper Fig. 10(a).
    for (size_t s = 0; s < deltas.size(); ++s) {
        PL_ASSERT(deltas[s].numel() == cached_outputs_[s].numel(),
                  "relu backward size mismatch");
        gemmk::activeKernels().relu_mask_f32(
            deltas[s].data(), cached_outputs_[s].data(), deltas[s].numel());
    }
    return deltas;
}

// ---------------------------------------------------------------------
// SigmoidLayer
// ---------------------------------------------------------------------

Shape
SigmoidLayer::outputShape(const Shape &input_shape) const
{
    return input_shape;
}

std::vector<Tensor>
SigmoidLayer::forwardSamples(std::vector<Tensor> inputs, bool train)
{
    for (Tensor &x : inputs) {
        float *p = x.data();
        for (int64_t i = 0; i < x.numel(); ++i)
            p[i] = 1.0f / (1.0f + std::exp(-p[i]));
    }
    if (train)
        cached_outputs_ = inputs;
    return inputs;
}

std::vector<Tensor>
SigmoidLayer::backwardSamples(std::vector<Tensor> deltas, bool /*input_grad*/)
{
    checkBackwardGroup(deltas.size(), cached_outputs_.size());
    // f'(u) = f(u)(1 - f(u)), computable from the cached output.
    for (size_t s = 0; s < deltas.size(); ++s) {
        PL_ASSERT(deltas[s].numel() == cached_outputs_[s].numel(),
                  "sigmoid backward size mismatch");
        float *grad = deltas[s].data();
        const float *y = cached_outputs_[s].data();
        for (int64_t i = 0; i < deltas[s].numel(); ++i)
            grad[i] *= y[i] * (1.0f - y[i]);
    }
    return deltas;
}

// ---------------------------------------------------------------------
// FlattenLayer
// ---------------------------------------------------------------------

Shape
FlattenLayer::outputShape(const Shape &input_shape) const
{
    return {shapeNumel(input_shape)};
}

std::vector<Tensor>
FlattenLayer::forwardSamples(std::vector<Tensor> inputs, bool train)
{
    if (train)
        cached_input_shapes_.clear();
    for (Tensor &x : inputs) {
        if (train)
            cached_input_shapes_.push_back(x.shape());
        const int64_t numel = x.numel();
        x = std::move(x).reshape({numel});
    }
    return inputs;
}

std::vector<Tensor>
FlattenLayer::backwardSamples(std::vector<Tensor> deltas, bool /*input_grad*/)
{
    checkBackwardGroup(deltas.size(), cached_input_shapes_.size());
    for (size_t s = 0; s < deltas.size(); ++s)
        deltas[s] = std::move(deltas[s]).reshape(cached_input_shapes_[s]);
    return deltas;
}

} // namespace nn
} // namespace pipelayer
