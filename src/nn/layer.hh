/**
 * @file
 * Layer interface of the functional CNN substrate.
 *
 * The substrate implements exactly the forward/backward dataflow of
 * paper §2.1-§2.2: forward u_l = W_l d_{l-1} + b_l, d_l = f(u_l);
 * backward δ_l = (W_{l+1})^T δ_{l+1} ⊙ f'(u_l), ∂J/∂W_l = d_{l-1} δ_l^T.
 * PipeLayer's accelerator model maps these same computations onto
 * ReRAM subarrays; this module is the golden functional reference.
 */

#ifndef PIPELAYER_NN_LAYER_HH_
#define PIPELAYER_NN_LAYER_HH_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace pipelayer {
namespace nn {

/** Classification of layers, used by the architectural mapper. */
enum class LayerKind {
    Conv,
    MaxPool,
    AvgPool,
    InnerProduct,
    ReLU,
    Sigmoid,
    Flatten,
};

/** Human-readable layer-kind name. */
const char *layerKindName(LayerKind kind);

/**
 * Abstract neural-network layer.
 *
 * Layers are stateful across a forward/backward pair: forward caches
 * whatever backward needs, one slot per sample, and backward
 * accumulates parameter gradients (so a batch is a sequence of
 * forward/backward calls followed by one applyUpdate(), matching the
 * paper's batched weight update in §4.4).
 *
 * Each layer has one implementation, over a group of samples
 * (forwardSamples/backwardSamples).  The samples of a group are
 * independent, so the heavy layers run them in parallel — one pool
 * job per call, with the kernels inside running inline — and then
 * add the per-sample parameter gradients in ascending sample order:
 * the float-add sequence of one backward() per sample, so a group of
 * any size gives bit-identical gradients.  The per-sample calls are
 * groups of one, whose kernels keep their own internal parallelism.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** The layer kind (for mapping and reporting). */
    virtual LayerKind kind() const = 0;

    /** Short description like "conv5x20" or "500-10". */
    virtual std::string describe() const = 0;

    /** Compute the output shape for a given input shape. */
    virtual Shape outputShape(const Shape &input_shape) const = 0;

    /**
     * Forward a group of samples (training mode): one output per
     * input; caches each sample's state for backwardBatch().
     */
    std::vector<Tensor> forwardBatch(std::vector<Tensor> inputs)
    {
        return forwardSamples(std::move(inputs), /*train=*/true);
    }

    /** Inference over a group: forwardBatch()'s numerics, no cache. */
    std::vector<Tensor> inferBatch(std::vector<Tensor> inputs)
    {
        return forwardSamples(std::move(inputs), /*train=*/false);
    }

    /**
     * Backward a group: @p deltas[s] is the error at the output of
     * sample s of the last forwardBatch().  Returns the errors at the
     * inputs and accumulates parameter gradients.
     */
    std::vector<Tensor> backwardBatch(std::vector<Tensor> deltas)
    {
        return backwardSamples(std::move(deltas), /*input_grad=*/true);
    }

    /**
     * backwardBatch() for a network's first layer, whose input errors
     * nobody reads (Caffe's propagate_down = false): accumulates the
     * same parameter gradients, and the layers with weights skip
     * computing the input errors.
     */
    void backwardParams(std::vector<Tensor> deltas)
    {
        backwardSamples(std::move(deltas), /*input_grad=*/false);
    }

    /** Forward pass for one sample; caches state for backward(). */
    Tensor forward(const Tensor &input);

    /** Inference-only forward of one sample: caches nothing. */
    Tensor infer(const Tensor &input);

    /**
     * Backward pass of one sample: map the error at this layer's
     * output to the error at its input, accumulating parameter
     * gradients.
     */
    Tensor backward(const Tensor &delta_out);

    /** Clear accumulated gradients (start of a batch). */
    virtual void zeroGrads() {}

    /**
     * Apply the batch-averaged gradient update
     * W <- W - lr * (1/B) Σ ∂J/∂W  (paper §4.4.2), with optional
     * momentum (v <- m v + g; W <- W - lr v) when configured.
     */
    virtual void applyUpdate(float lr, int64_t batch_size);

    /**
     * Set the momentum coefficient used by applyUpdate (0 = plain
     * SGD, the paper's update rule).  No-op for parameter-free
     * layers.
     */
    virtual void setMomentum(float momentum) { (void)momentum; }

    /**
     * Mutable views of this layer's parameter tensors (weights then
     * bias), empty for parameter-free layers.  Used by the
     * quantisation study and by PipeLayerDevice::Weight_load.
     */
    virtual std::vector<Tensor *> parameters() { return {}; }

    /** Number of trainable parameters. */
    int64_t parameterCount();

  protected:
    /** The forward implementation; caches per-sample state iff train. */
    virtual std::vector<Tensor> forwardSamples(std::vector<Tensor> inputs,
                                               bool train) = 0;

    /**
     * The backward implementation.  With @p input_grad false the
     * caller discards the result, so a layer may return empty tensors
     * instead of computing the input errors.
     */
    virtual std::vector<Tensor> backwardSamples(std::vector<Tensor> deltas,
                                                bool input_grad) = 0;

    /** Assert a backward group matches the cached forward group. */
    static void checkBackwardGroup(size_t deltas, size_t cached);
};

/**
 * Run @p fn(s) for each sample s of a group of @p n, the samples in
 * parallel as one pool job (kernels inside run inline).  A group of
 * one runs on the caller outside any parallel region, so its kernels
 * parallelise internally instead.
 */
void forEachSample(int64_t n, const std::function<void(int64_t)> &fn);

using LayerPtr = std::unique_ptr<Layer>;

} // namespace nn
} // namespace pipelayer

#endif // PIPELAYER_NN_LAYER_HH_
