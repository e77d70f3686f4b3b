#include "nn/layer.hh"

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pipelayer {
namespace nn {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv: return "conv";
      case LayerKind::MaxPool: return "maxpool";
      case LayerKind::AvgPool: return "avgpool";
      case LayerKind::InnerProduct: return "ip";
      case LayerKind::ReLU: return "relu";
      case LayerKind::Sigmoid: return "sigmoid";
      case LayerKind::Flatten: return "flatten";
    }
    panic("unknown LayerKind %d", static_cast<int>(kind));
}

Tensor
Layer::forward(const Tensor &input)
{
    return std::move(forwardBatch(std::vector<Tensor>(1, input))[0]);
}

Tensor
Layer::infer(const Tensor &input)
{
    return std::move(inferBatch(std::vector<Tensor>(1, input))[0]);
}

Tensor
Layer::backward(const Tensor &delta_out)
{
    return std::move(backwardBatch(std::vector<Tensor>(1, delta_out))[0]);
}

void
Layer::checkBackwardGroup(size_t deltas, size_t cached)
{
    PL_ASSERT(cached > 0, "backward before forward");
    PL_ASSERT(deltas == cached,
              "backward of %zu samples after a forward of %zu", deltas,
              cached);
}

void
forEachSample(int64_t n, const std::function<void(int64_t)> &fn)
{
    parallel_for(0, n, /*grain=*/1, [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s)
            fn(s);
    });
}

void
Layer::applyUpdate(float lr, int64_t batch_size)
{
    (void)lr;
    (void)batch_size;
}

int64_t
Layer::parameterCount()
{
    int64_t n = 0;
    for (const Tensor *p : parameters())
        n += p->numel();
    return n;
}

} // namespace nn
} // namespace pipelayer
