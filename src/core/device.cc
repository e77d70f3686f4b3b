#include "core/device.hh"

#include <utility>

#include "common/logging.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"
#include "reram/activation.hh"
#include "tensor/ops.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace core {

/** One pipeline stage of the device. */
struct PipeLayerDevice::Stage
{
    enum class Type { Conv, Ip, Host };

    Type type;
    nn::Layer *host_layer = nullptr; //!< borrowed from the topology net
    std::unique_ptr<MappedConvLayer> conv;
    std::unique_ptr<MappedIpLayer> ip;

    // Gradient accumulators for array stages.
    Tensor weight_grad;
    Tensor bias_grad;

    // Geometry for the conv gradient computation.
    int64_t conv_kernel = 0;
    int64_t conv_pad = 0;

    // Fig.-9c LUT activation replacing an exact sigmoid, when the
    // device is configured for it.
    std::unique_ptr<reram::ActivationUnit> lut;
    Tensor lut_output; //!< cached for the backward mask

    /** Apply the LUT elementwise (the activation component). */
    Tensor applyLut(const Tensor &input) const
    {
        Tensor out = input;
        lut->applyInPlace(out.data(), out.numel());
        return out;
    }
};

PipeLayerDevice::PipeLayerDevice(const PipeLayerConfig &config)
    : config_(config), staging_(config.device, config.staging_arrays)
{
    PL_ASSERT(config_.batch_size >= 1, "batch size must be positive");
}

PipeLayerDevice::~PipeLayerDevice() = default;

void
PipeLayerDevice::Copy_to_PL(const std::string &name, const Tensor &data)
{
    staging_.write(name, data);
}

Tensor
PipeLayerDevice::Copy_to_CPU(const std::string &name)
{
    if (!staging_.contains(name))
        fatal("Copy_to_CPU: no tensor named '%s' on the device",
              name.c_str());
    return staging_.read(name);
}

const reram::MemoryStats &
PipeLayerDevice::stagingStats() const
{
    return staging_.stats();
}

void
PipeLayerDevice::Topology_set(nn::Network &net)
{
    topology_ = &net;
    stages_.clear(); // weights are (re)programmed by Weight_load()
}

void
PipeLayerDevice::Weight_load()
{
    PL_ASSERT(topology_ != nullptr, "Weight_load before Topology_set");
    stages_.clear();
    for (size_t i = 0; i < topology_->numLayers(); ++i) {
        nn::Layer &layer = topology_->layer(i);
        auto stage = std::make_unique<Stage>();
        stage->host_layer = &layer;
        switch (layer.kind()) {
          case nn::LayerKind::Conv: {
            auto &conv = static_cast<nn::ConvLayer &>(layer);
            PL_ASSERT(conv.stride() == 1,
                      "PipeLayer maps stride-1 convolutions; got %lld",
                      (long long)conv.stride());
            const auto params = conv.parameters();
            stage->type = Stage::Type::Conv;
            stage->conv = std::make_unique<MappedConvLayer>(
                config_.device, *params[0], *params[1], conv.pad(),
                config_.training);
            stage->weight_grad = Tensor(params[0]->shape());
            stage->bias_grad = Tensor(params[1]->shape());
            stage->conv_kernel = conv.kernel();
            stage->conv_pad = conv.pad();
            break;
          }
          case nn::LayerKind::InnerProduct: {
            auto &ip = static_cast<nn::InnerProductLayer &>(layer);
            const auto params = ip.parameters();
            stage->type = Stage::Type::Ip;
            stage->ip = std::make_unique<MappedIpLayer>(
                config_.device, *params[0], *params[1],
                config_.training);
            stage->weight_grad = Tensor(params[0]->shape());
            stage->bias_grad = Tensor(params[1]->shape());
            break;
          }
          case nn::LayerKind::Sigmoid:
            stage->type = Stage::Type::Host;
            if (config_.lut_sigmoid) {
                stage->lut = std::make_unique<reram::ActivationUnit>(
                    reram::ActivationUnit::sigmoidLut(
                        config_.sigmoid_lut_bits));
            }
            break;
          default:
            stage->type = Stage::Type::Host;
            break;
        }
        stages_.push_back(std::move(stage));
    }
}

void
PipeLayerDevice::Pipeline_Set(bool enabled)
{
    pipeline_enabled_ = enabled;
}

Tensor
PipeLayerDevice::forward(const Tensor &input) const
{
    PL_ASSERT(!stages_.empty(), "forward before Weight_load");
    Tensor x = input;
    for (const auto &stage : stages_) {
        switch (stage->type) {
          case Stage::Type::Conv:
            x = stage->conv->forward(x);
            break;
          case Stage::Type::Ip:
            x = stage->ip->forward(x.reshape({x.numel()}));
            break;
          case Stage::Type::Host:
            x = stage->lut ? stage->applyLut(x)
                           : stage->host_layer->infer(x);
            break;
        }
    }
    return x;
}

int64_t
PipeLayerDevice::predict(const Tensor &input) const
{
    return forward(input).argmax();
}

Tensor
PipeLayerDevice::forwardTraining(const Tensor &input,
                                 std::vector<Tensor> &stage_inputs)
{
    stage_inputs.clear();
    Tensor x = input;
    for (const auto &stage : stages_) {
        stage_inputs.push_back(x);
        switch (stage->type) {
          case Stage::Type::Conv:
            x = stage->conv->forward(x);
            break;
          case Stage::Type::Ip:
            x = stage->ip->forward(x.reshape({x.numel()}));
            break;
          case Stage::Type::Host:
            if (stage->lut) {
                // LUT sigmoid: cache the output for the backward
                // mask s(1-s).
                x = stage->applyLut(x);
                stage->lut_output = x;
            } else {
                // forward() (not infer()) caches activation-unit
                // state for the backward routing (paper Fig. 10a/b).
                x = stage->host_layer->forward(x);
            }
            break;
        }
    }
    return x;
}

void
PipeLayerDevice::backward(const Tensor &delta,
                          const std::vector<Tensor> &stage_inputs)
{
    Tensor d = delta;
    for (size_t idx = stages_.size(); idx-- > 0;) {
        Stage &stage = *stages_[idx];
        const Tensor &input = stage_inputs[idx];
        switch (stage.type) {
          case Stage::Type::Conv: {
            // ∂W from the quantised stored signals (paper §4.4.1).
            stage.weight_grad += ops::conv2dBackwardKernel(
                input, d, stage.conv_kernel, stage.conv_kernel,
                stage.conv_pad);
            ops::accumulateChannelSums(d.data(), d.dim(0),
                                       d.dim(1) * d.dim(2),
                                       stage.bias_grad.data());
            if (idx > 0)
                d = stage.conv->backwardError(d);
            break;
          }
          case Stage::Type::Ip: {
            const Tensor flat_in = input.reshape({input.numel()});
            stage.weight_grad +=
                ops::outer(flat_in, d.reshape({d.numel()}));
            stage.bias_grad += d.reshape({d.numel()});
            if (idx > 0) {
                d = stage.ip->backwardError(d)
                        .reshape(input.shape());
            }
            break;
          }
          case Stage::Type::Host:
            if (idx > 0) {
                if (stage.lut) {
                    // δ ⊙ s(1-s) from the cached LUT output.
                    for (int64_t i = 0; i < d.numel(); ++i) {
                        const float s = stage.lut_output.at(i);
                        d.at(i) *= s * (1.0f - s);
                    }
                } else {
                    d = stage.host_layer->backward(d);
                }
            }
            break;
        }
    }
}

DeviceTrainStats
PipeLayerDevice::Train(nn::Dataset &train_set, int64_t epochs)
{
    PL_ASSERT(config_.training,
              "device was configured without training arrays");
    PL_ASSERT(!stages_.empty(), "Train before Weight_load");
    PL_ASSERT(!train_set.inputs.empty(), "empty training set");

    DeviceTrainStats stats;
    const size_t n = train_set.size();
    const size_t bsz = static_cast<size_t>(config_.batch_size);
    std::vector<Tensor> stage_inputs;

    for (int64_t epoch = 0; epoch < epochs; ++epoch) {
        double epoch_loss = 0.0;
        int64_t batches = 0;
        for (size_t start = 0; start < n; start += bsz) {
            const size_t end = std::min(start + bsz, n);

            for (auto &stage : stages_) {
                if (stage->type != Stage::Type::Host) {
                    stage->weight_grad.fill(0.0f);
                    stage->bias_grad.fill(0.0f);
                }
            }

            for (size_t i = start; i < end; ++i) {
                const Tensor out =
                    forwardTraining(train_set.inputs[i], stage_inputs);
                nn::LossResult loss;
                if (config_.loss == nn::LossKind::Softmax) {
                    loss = nn::softmaxLoss(out, train_set.labels[i]);
                } else {
                    Tensor target(out.shape());
                    target.at(train_set.labels[i]) = 1.0f;
                    loss = nn::l2Loss(out, target);
                }
                epoch_loss += loss.loss;
                backward(loss.delta, stage_inputs);
            }

            const auto batch = static_cast<int64_t>(end - start);
            for (auto &stage : stages_) {
                if (stage->type == Stage::Type::Conv) {
                    stage->conv->applyUpdate(stage->weight_grad,
                                             stage->bias_grad,
                                             config_.learning_rate,
                                             batch);
                } else if (stage->type == Stage::Type::Ip) {
                    stage->ip->applyUpdate(stage->weight_grad,
                                           stage->bias_grad,
                                           config_.learning_rate, batch);
                }
            }
            ++batches;
        }
        stats.epoch_loss.push_back(epoch_loss /
                                   static_cast<double>(n));
        stats.batches_run += batches;
    }

    int64_t correct = 0;
    for (size_t i = 0; i < n; ++i) {
        if (predict(train_set.inputs[i]) == train_set.labels[i])
            ++correct;
    }
    stats.final_accuracy =
        static_cast<double>(correct) / static_cast<double>(n);
    return stats;
}

DeviceTestStats
PipeLayerDevice::Test(const nn::Dataset &test_set) const
{
    PL_ASSERT(!stages_.empty(), "Test before Weight_load");
    DeviceTestStats stats;
    stats.images = static_cast<int64_t>(test_set.size());
    int64_t correct = 0;
    for (size_t i = 0; i < test_set.size(); ++i) {
        if (predict(test_set.inputs[i]) == test_set.labels[i])
            ++correct;
    }
    stats.accuracy = stats.images > 0
        ? static_cast<double>(correct) / static_cast<double>(stats.images)
        : 0.0;
    return stats;
}

sim::SimReport
PipeLayerDevice::timingReport(sim::Phase phase, int64_t num_images) const
{
    PL_ASSERT(topology_ != nullptr, "timingReport before Topology_set");
    const workloads::NetworkSpec spec =
        workloads::specFromNetwork(*topology_);
    sim::Simulator simulator(spec, config_.device);
    sim::SimConfig sim_config;
    sim_config.phase = phase;
    sim_config.pipelined = pipeline_enabled_;
    sim_config.batch_size = config_.batch_size;
    sim_config.num_images = num_images;
    return simulator.run(sim_config);
}

int64_t
PipeLayerDevice::arrayCount() const
{
    int64_t n = 0;
    for (const auto &stage : stages_) {
        if (stage->type == Stage::Type::Conv)
            n += stage->conv->arrayCount();
        else if (stage->type == Stage::Type::Ip)
            n += stage->ip->arrayCount();
    }
    return n;
}

reram::ArrayActivity
PipeLayerDevice::totalActivity() const
{
    reram::ArrayActivity total;
    for (const auto &stage : stages_) {
        if (stage->type == Stage::Type::Conv)
            total += stage->conv->activity();
        else if (stage->type == Stage::Type::Ip)
            total += stage->ip->activity();
    }
    return total;
}

double
PipeLayerDevice::measuredComputeEnergy() const
{
    const reram::ArrayActivity activity = totalActivity();
    const reram::DeviceParams &p = config_.device;
    return static_cast<double>(activity.input_spikes) *
               p.read_energy_per_spike *
               (1.0 + p.periph_energy_factor) +
           static_cast<double>(activity.write_pulses) *
               p.write_energy_per_spike;
}

} // namespace core
} // namespace pipelayer
