#include "crossbar_replay.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hh"
#include "reram/array_group.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

namespace perfbench {

namespace pl = pipelayer;

namespace {

constexpr int64_t kBatch = 4;

} // namespace

CrossbarReplay::CrossbarReplay(uint64_t seed) : seed_(seed)
{
    pl::workloads::SyntheticConfig data;
    data.image_size = 28;
    data.train_per_class = 1;
    data.test_per_class = 0;
    data.seed = seed;
    const pl::workloads::SyntheticTask task =
        pl::workloads::makeSyntheticTask(data);
    for (size_t b = 0; b + kBatch <= task.train.size(); b += kBatch) {
        pl::nn::Dataset batch;
        batch.inputs.assign(task.train.inputs.begin() + b,
                            task.train.inputs.begin() + b + kBatch);
        batch.labels.assign(task.train.labels.begin() + b,
                            task.train.labels.begin() + b + kBatch);
        batches_.push_back(std::move(batch));
    }
    config_.batch_size = kBatch;
}

void
CrossbarReplay::run(Tracer &tracer, double seconds, Checks &checks)
{
    // The 784x100 layer as one ArrayGroup, fed a batch of images.
    pl::Rng build_rng(seed_ ^ 0xA1);
    pl::nn::Network host = pl::workloads::buildMnistAFunctional(build_rng);
    const pl::Tensor weight = *host.layer(1).parameters()[0];
    pl::reram::ArrayGroup group(config_.device, weight);
    pl::Tensor images({kBatch, weight.dim(1)});
    for (int64_t i = 0; i < kBatch; ++i) {
        const pl::Tensor &img = batches_[0].inputs[static_cast<size_t>(i)];
        std::copy(img.data(), img.data() + img.numel(),
                  images.data() + i * weight.dim(1));
    }
    pl::Rng grad_rng(seed_ ^ 0x9a);
    const pl::Tensor grad =
        pl::Tensor::randn(weight.shape(), grad_rng, 0.0f, 0.01f);

    const double t0 = nowSec();
    for (int round = 0; round < 3 || nowSec() - t0 < seconds; ++round) {
        // A fresh bring-up every round, so the Train call's activity
        // counts repeat exactly.
        pl::Rng net_rng(seed_ ^ 0xA1);
        pl::nn::Network net = pl::workloads::buildMnistAFunctional(net_rng);
        pl::core::PipeLayerDevice device(config_);
        device.Topology_set(net);
        device.Pipeline_Set(true);
        {
            Tracer::Span span(&tracer, "core.weight_load");
            device.Weight_load();
        }
        pl::nn::Dataset &batch = batches_[static_cast<size_t>(round) %
                                          batches_.size()];
        const pl::reram::ArrayActivity before = device.totalActivity();
        pl::core::DeviceTrainStats stats;
        {
            Tracer::Span span(&tracer, "core.train");
            stats = device.Train(batch, 1);
        }
        const pl::reram::ArrayActivity after = device.totalActivity();
        checks.expect(stats.epoch_loss.size() == 1 &&
                          std::isfinite(stats.epoch_loss[0]),
                      "crossbar training loss is finite");
        if (round == 0) {
            counts_ = {after.input_spikes - before.input_spikes,
                       after.mvm_ops - before.mvm_ops,
                       after.write_pulses - before.write_pulses,
                       after.if_fires - before.if_fires};
        }
        for (const pl::Tensor &img : batch.inputs) {
            Tracer::Span span(&tracer, "core.forward");
            device.forward(img);
        }
        {
            Tracer::Span span(&tracer, "reram.matvec_batch");
            group.matVecBatch(images);
        }
        {
            Tracer::Span span(&tracer, "reram.update_weights");
            group.updateWeights(grad, config_.learning_rate, kBatch);
        }
    }
}

void
CrossbarReplay::metrics(const SpanTotals &spans,
                        std::vector<Metric> &out) const
{
    const auto mean = [&](const char *name) {
        const SpanTotal t = spanTotal(spans, name);
        return t.calls ? t.incl_ms / static_cast<double>(t.calls) : 0.0;
    };
    const double forward = mean("core.forward");
    out.push_back({"core.weight_load_ms", "ms", mean("core.weight_load")});
    out.push_back({"core.forward_ms_per_image", "ms", forward});
    out.push_back({"core.train_self_ms_per_image", "ms",
                   mean("core.train") / static_cast<double>(kBatch) -
                       forward});
    out.push_back({"reram.matvec_batch_ms", "ms", mean("reram.matvec_batch")});
    out.push_back({"reram.update_weights_ms", "ms",
                   mean("reram.update_weights")});
    const char *const names[4] = {"reram.input_spikes", "reram.mvm_ops",
                                  "reram.write_pulses", "reram.if_fires"};
    for (size_t i = 0; i < counts_.size(); ++i)
        out.push_back({names[i], "count", static_cast<double>(counts_[i])});
}

} // namespace perfbench
