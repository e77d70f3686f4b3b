#include "nn/network.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pipelayer {
namespace nn {

namespace {

/**
 * Call @p fn(first, group) for consecutive groups of threadCount()
 * samples of @p samples: each layer call runs a group in parallel,
 * while activations stay O(threads), not O(batch).
 */
template <typename Fn>
void
forEachGroup(const std::vector<Tensor> &samples, Fn fn)
{
    const size_t size = static_cast<size_t>(threadCount());
    for (size_t first = 0; first < samples.size(); first += size) {
        const auto begin = samples.begin() + static_cast<ptrdiff_t>(first);
        const auto end = samples.begin() + static_cast<ptrdiff_t>(
            std::min(samples.size(), first + size));
        fn(first, std::vector<Tensor>(begin, end));
    }
}

} // namespace

Network::Network(std::string name, Shape input_shape, LossKind loss)
    : name_(std::move(name)), input_shape_(std::move(input_shape)),
      loss_(loss)
{
    shapes_.push_back(input_shape_);
}

void
Network::add(LayerPtr layer)
{
    PL_ASSERT(layer != nullptr, "null layer added to network %s",
              name_.c_str());
    Shape out = layer->outputShape(shapes_.back());
    layers_.push_back(std::move(layer));
    shapes_.push_back(std::move(out));
}

std::vector<Tensor>
Network::forwardBatch(std::vector<Tensor> inputs)
{
    for (const Tensor &x : inputs) {
        PL_ASSERT(x.shape() == input_shape_,
                  "network %s expects input %s, got %s", name_.c_str(),
                  shapeToString(input_shape_).c_str(),
                  shapeToString(x.shape()).c_str());
    }
    for (auto &layer : layers_)
        inputs = layer->forwardBatch(std::move(inputs));
    return inputs;
}

void
Network::backwardBatch(std::vector<Tensor> deltas)
{
    if (layers_.empty())
        return;
    for (size_t l = layers_.size() - 1; l > 0; --l)
        deltas = layers_[l]->backwardBatch(std::move(deltas));
    // Nothing reads the error at the network input.
    layers_.front()->backwardParams(std::move(deltas));
}

Tensor
Network::forward(const Tensor &input)
{
    return std::move(forwardBatch(std::vector<Tensor>(1, input))[0]);
}

Tensor
Network::infer(const Tensor &input) const
{
    return std::move(inferBatch(std::vector<Tensor>(1, input))[0]);
}

std::vector<Tensor>
Network::inferBatch(std::vector<Tensor> inputs) const
{
    for (const auto &layer : layers_)
        inputs = const_cast<Layer &>(*layer).inferBatch(std::move(inputs));
    return inputs;
}

void
Network::backward(const Tensor &delta_out)
{
    backwardBatch(std::vector<Tensor>(1, delta_out));
}

void
Network::zeroGrads()
{
    for (auto &layer : layers_)
        layer->zeroGrads();
}

void
Network::applyUpdate(float lr, int64_t batch_size)
{
    for (auto &layer : layers_)
        layer->applyUpdate(lr, batch_size);
}

void
Network::setMomentum(float momentum)
{
    for (auto &layer : layers_)
        layer->setMomentum(momentum);
}

double
Network::trainBatch(const std::vector<Tensor> &inputs,
                    const std::vector<int64_t> &labels, float lr)
{
    PL_ASSERT(inputs.size() == labels.size() && !inputs.empty(),
              "bad batch in trainBatch");
    zeroGrads();
    double total_loss = 0.0;
    forEachGroup(inputs, [&](size_t first, std::vector<Tensor> group) {
        const std::vector<Tensor> outs = forwardBatch(std::move(group));
        std::vector<Tensor> deltas;
        deltas.reserve(outs.size());
        for (size_t s = 0; s < outs.size(); ++s) {
            LossResult result = sampleLoss(outs[s], labels[first + s]);
            total_loss += result.loss;
            deltas.push_back(std::move(result.delta));
        }
        backwardBatch(std::move(deltas));
    });
    applyUpdate(lr, static_cast<int64_t>(inputs.size()));
    return total_loss / static_cast<double>(inputs.size());
}

LossResult
Network::sampleLoss(const Tensor &out, int64_t label) const
{
    if (loss_ == LossKind::Softmax)
        return softmaxLoss(out, label);
    Tensor target(out.shape());
    target.at(label) = 1.0f;
    return l2Loss(out, target);
}

int64_t
Network::predict(const Tensor &input) const
{
    return infer(input).argmax();
}

double
Network::accuracy(const std::vector<Tensor> &inputs,
                  const std::vector<int64_t> &labels) const
{
    PL_ASSERT(inputs.size() == labels.size(), "bad eval set");
    if (inputs.empty())
        return 0.0;
    int64_t correct = 0;
    forEachGroup(inputs, [&](size_t first, std::vector<Tensor> group) {
        const std::vector<Tensor> outs = inferBatch(std::move(group));
        for (size_t s = 0; s < outs.size(); ++s) {
            if (outs[s].argmax() == labels[first + s])
                ++correct;
        }
    });
    return static_cast<double>(correct) /
           static_cast<double>(inputs.size());
}

Layer &
Network::layer(size_t i)
{
    PL_ASSERT(i < layers_.size(), "layer index %zu out of range", i);
    return *layers_[i];
}

const Layer &
Network::layer(size_t i) const
{
    PL_ASSERT(i < layers_.size(), "layer index %zu out of range", i);
    return *layers_[i];
}

const Shape &
Network::layerInputShape(size_t i) const
{
    PL_ASSERT(i < layers_.size(), "layer index %zu out of range", i);
    return shapes_[i];
}

const Shape &
Network::outputShape() const
{
    return shapes_.back();
}

int64_t
Network::parameterCount() const
{
    int64_t n = 0;
    for (const auto &layer : layers_)
        n += const_cast<Layer &>(*layer).parameterCount();
    return n;
}

std::string
Network::describe() const
{
    std::ostringstream os;
    os << name_ << ": " << shapeToString(input_shape_);
    for (const auto &layer : layers_)
        os << " -> " << layer->describe();
    return os.str();
}

} // namespace nn
} // namespace pipelayer
