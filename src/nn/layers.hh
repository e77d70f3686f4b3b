/**
 * @file
 * Concrete layer implementations: convolution, pooling, inner product,
 * activations and flatten.  See layer.hh for the contract.
 */

#ifndef PIPELAYER_NN_LAYERS_HH_
#define PIPELAYER_NN_LAYERS_HH_

#include <string>
#include <vector>

#include "nn/layer.hh"
#include "tensor/tensor.hh"

namespace pipelayer {

class Rng;

namespace nn {

/**
 * Convolution layer, paper Eq. (1).
 *
 * Weight layout (Cout, Cin, Kh, Kw); forward accepts (Cin, H, W).
 * Backward (stride 1 only) implements the rotated-kernel full
 * convolution of paper Fig. 10(c)/Fig. 11 for the input error and the
 * data-as-kernel convolution of Fig. 12 for the weight gradient.
 */
class ConvLayer : public Layer
{
  public:
    /**
     * @param in_channels  channels of the input cube (C_l).
     * @param out_channels channels produced (C_{l+1}).
     * @param kernel       spatial kernel extent (K_x = K_y).
     * @param stride       spatial stride (backward requires 1).
     * @param pad          zero padding on each edge.
     */
    ConvLayer(int64_t in_channels, int64_t out_channels, int64_t kernel,
              int64_t stride, int64_t pad, Rng &rng);

    LayerKind kind() const override { return LayerKind::Conv; }
    std::string describe() const override;
    Shape outputShape(const Shape &input_shape) const override;
    void zeroGrads() override;
    void applyUpdate(float lr, int64_t batch_size) override;
    void setMomentum(float momentum) override;
    std::vector<Tensor *> parameters() override;

    int64_t inChannels() const { return in_channels_; }
    int64_t outChannels() const { return out_channels_; }
    int64_t kernel() const { return kernel_; }
    int64_t stride() const { return stride_; }
    int64_t pad() const { return pad_; }

  protected:
    std::vector<Tensor> forwardSamples(std::vector<Tensor> inputs,
                                       bool train) override;
    std::vector<Tensor> backwardSamples(std::vector<Tensor> deltas,
                                        bool input_grad) override;

  private:
    int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
    Tensor weight_; //!< (Cout, Cin, K, K)
    Tensor bias_;   //!< (Cout)
    Tensor weight_grad_;
    Tensor bias_grad_;
    Tensor weight_vel_; //!< momentum velocity (empty until enabled)
    Tensor bias_vel_;
    float momentum_ = 0.0f;
    std::vector<Tensor> cached_inputs_; //!< per sample
};

/** Max-pooling layer with window == stride (paper §2.1). */
class MaxPoolLayer : public Layer
{
  public:
    explicit MaxPoolLayer(int64_t window);

    LayerKind kind() const override { return LayerKind::MaxPool; }
    std::string describe() const override;
    Shape outputShape(const Shape &input_shape) const override;

    int64_t window() const { return window_; }

  protected:
    std::vector<Tensor> forwardSamples(std::vector<Tensor> inputs,
                                       bool train) override;
    std::vector<Tensor> backwardSamples(std::vector<Tensor> deltas,
                                        bool input_grad) override;

  private:
    int64_t window_;
    std::vector<Tensor> cached_indices_; //!< per sample
    std::vector<Shape> cached_input_shapes_;
};

/** Average-pooling layer, paper Eq. (2). */
class AvgPoolLayer : public Layer
{
  public:
    explicit AvgPoolLayer(int64_t window);

    LayerKind kind() const override { return LayerKind::AvgPool; }
    std::string describe() const override;
    Shape outputShape(const Shape &input_shape) const override;

    int64_t window() const { return window_; }

  protected:
    std::vector<Tensor> forwardSamples(std::vector<Tensor> inputs,
                                       bool train) override;
    std::vector<Tensor> backwardSamples(std::vector<Tensor> deltas,
                                        bool input_grad) override;

  private:
    int64_t window_;
    std::vector<Shape> cached_input_shapes_; //!< per sample
};

/**
 * Inner-product (fully-connected) layer, paper Eq. (3):
 * d_{l+1} = W d_l + b with W of shape (n, m).
 */
class InnerProductLayer : public Layer
{
  public:
    InnerProductLayer(int64_t in_size, int64_t out_size, Rng &rng);

    LayerKind kind() const override { return LayerKind::InnerProduct; }
    std::string describe() const override;
    Shape outputShape(const Shape &input_shape) const override;
    void zeroGrads() override;
    void applyUpdate(float lr, int64_t batch_size) override;
    void setMomentum(float momentum) override;
    std::vector<Tensor *> parameters() override;

    int64_t inSize() const { return in_size_; }
    int64_t outSize() const { return out_size_; }

  protected:
    std::vector<Tensor> forwardSamples(std::vector<Tensor> inputs,
                                       bool train) override;
    std::vector<Tensor> backwardSamples(std::vector<Tensor> deltas,
                                        bool input_grad) override;

  private:
    int64_t in_size_, out_size_;
    Tensor weight_; //!< (n, m)
    Tensor bias_;   //!< (n)
    Tensor weight_grad_;
    Tensor bias_grad_;
    Tensor weight_vel_; //!< momentum velocity (empty until enabled)
    Tensor bias_vel_;
    float momentum_ = 0.0f;
    std::vector<Tensor> cached_inputs_; //!< per sample, flattened
};

/**
 * ReLU activation.  Backward uses the paper's §4.3 observation that
 * with ReLU f'(u) = f'(d) = [d > 0], so only the forward *output*
 * needs to be cached.
 */
class ReluLayer : public Layer
{
  public:
    LayerKind kind() const override { return LayerKind::ReLU; }
    std::string describe() const override { return "relu"; }
    Shape outputShape(const Shape &input_shape) const override;

  protected:
    std::vector<Tensor> forwardSamples(std::vector<Tensor> inputs,
                                       bool train) override;
    std::vector<Tensor> backwardSamples(std::vector<Tensor> deltas,
                                        bool input_grad) override;

  private:
    std::vector<Tensor> cached_outputs_; //!< per sample
};

/** Sigmoid activation 1/(1+e^-x) (paper §2.1 lists it as an option). */
class SigmoidLayer : public Layer
{
  public:
    LayerKind kind() const override { return LayerKind::Sigmoid; }
    std::string describe() const override { return "sigmoid"; }
    Shape outputShape(const Shape &input_shape) const override;

  protected:
    std::vector<Tensor> forwardSamples(std::vector<Tensor> inputs,
                                       bool train) override;
    std::vector<Tensor> backwardSamples(std::vector<Tensor> deltas,
                                        bool input_grad) override;

  private:
    std::vector<Tensor> cached_outputs_; //!< per sample
};

/** Reshape a (C, H, W) cube into a vector for inner-product layers. */
class FlattenLayer : public Layer
{
  public:
    LayerKind kind() const override { return LayerKind::Flatten; }
    std::string describe() const override { return "flatten"; }
    Shape outputShape(const Shape &input_shape) const override;

  protected:
    std::vector<Tensor> forwardSamples(std::vector<Tensor> inputs,
                                       bool train) override;
    std::vector<Tensor> backwardSamples(std::vector<Tensor> deltas,
                                        bool input_grad) override;

  private:
    std::vector<Shape> cached_input_shapes_; //!< per sample
};

} // namespace nn
} // namespace pipelayer

#endif // PIPELAYER_NN_LAYERS_HH_
