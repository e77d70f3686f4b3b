/**
 * @file
 * train_cnn: the Fig. 13 functional training path (C-4 on the 16x16
 * synthetic task), one nn::Network::trainBatch call per step.
 *
 * Why: tensor and nn do almost all the work here; reram, arch and
 * sim do none.  This is what bench_fig13_resolution spends its time
 * on.  The traced run also replays training on the crossbar model
 * (crossbar_replay.hh), which is the same training mapped onto ReRAM.
 */

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "crossbar_replay.hh"
#include "harness.hh"
#include "nn/loss.hh"
#include "nn/network.hh"
#include "tensor/ops.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

namespace perfbench {

namespace pl = pipelayer;

namespace {

constexpr int64_t kBatch = 10;
constexpr float kLearningRate = 0.05f; // bench_fig13's rate for C-4
// Training accuracy the run must reach.  A floor, not an exact value:
// reordering float reductions legitimately moves the trajectory.
// About seven epochs reach 0.966 or more on every seed tried; a
// 10-second run trains over twenty.
constexpr double kAccuracyFloor = 0.9;

/** Span names of a C-4 layer's forward and backward call. */
struct LayerSpans
{
    const char *fwd;
    const char *bwd;
};

LayerSpans
spansFor(pl::nn::LayerKind kind)
{
    switch (kind) {
      case pl::nn::LayerKind::Conv:
        return {"nn.conv.fwd", "nn.conv.bwd"};
      case pl::nn::LayerKind::InnerProduct:
        return {"nn.fc.fwd", "nn.fc.bwd"};
      default:
        return {"nn.pool_relu.fwd", "nn.pool_relu.bwd"};
    }
}

/**
 * One training step driven layer by layer, so each call can carry a
 * span.  The calls and their order are exactly trainBatch's, so the
 * loss is bit-identical (checked in replay()).
 */
double
layerwiseStep(pl::nn::Network &net, const std::vector<pl::Tensor> &inputs,
              const std::vector<int64_t> &labels, Tracer *tracer)
{
    {
        Tracer::Span span(tracer, "nn.update");
        net.zeroGrads();
    }
    double total = 0.0;
    for (size_t i = 0; i < inputs.size(); ++i) {
        pl::Tensor x = inputs[i];
        for (size_t l = 0; l < net.numLayers(); ++l) {
            pl::nn::Layer &layer = net.layer(l);
            Tracer::Span span(tracer, spansFor(layer.kind()).fwd);
            x = layer.forward(x);
        }
        pl::nn::LossResult loss;
        {
            Tracer::Span span(tracer, "nn.loss");
            loss = pl::nn::softmaxLoss(x, labels[i]);
        }
        total += loss.loss;
        pl::Tensor delta = loss.delta;
        for (size_t l = net.numLayers(); l-- > 0;) {
            pl::nn::Layer &layer = net.layer(l);
            Tracer::Span span(tracer, spansFor(layer.kind()).bwd);
            delta = layer.backward(delta);
        }
    }
    {
        Tracer::Span span(tracer, "nn.update");
        net.applyUpdate(kLearningRate, static_cast<int64_t>(inputs.size()));
    }
    return total / static_cast<double>(inputs.size());
}

class TrainCnn : public Workload
{
  public:
    explicit TrainCnn(uint64_t seed) : seed_(seed), crossbar_(seed)
    {
        data_config_.noise = 0.5f;
        data_config_.train_per_class = 50;
        data_config_.seed = seed;
    }

    int setUpReps() const override { return 7; }

    void setUp() override
    {
        task_ = pl::workloads::makeSyntheticTask(data_config_);
        pl::Rng build_rng(seed_ ^ 0xC4);
        net_ = std::make_unique<pl::nn::Network>(
            pl::workloads::buildC4(build_rng));
        pl::Rng shuffle_rng(seed_ ^ 0x5u);
        task_.train.shuffle(shuffle_rng);
        batches_ = static_cast<int64_t>(task_.train.size()) / kBatch;
        next_ = 0;
        epoch_loss_ = 0.0;
        epoch_means_.clear();
    }

    void warmUp() override
    {
        for (int64_t b = 0; b < batches_; ++b)
            step(nullptr);
    }

    int64_t step(Tracer *tracer) override
    {
        const size_t begin = static_cast<size_t>(next_ * kBatch);
        const std::vector<pl::Tensor> inputs(
            task_.train.inputs.begin() + begin,
            task_.train.inputs.begin() + begin + kBatch);
        const std::vector<int64_t> labels(
            task_.train.labels.begin() + begin,
            task_.train.labels.begin() + begin + kBatch);
        double loss = 0.0;
        {
            Tracer::Span span(tracer, "step");
            loss = tracer ? layerwiseStep(*net_, inputs, labels, tracer)
                          : net_->trainBatch(inputs, labels, kLearningRate);
        }
        checks.expect(std::isfinite(loss), "train_cnn loss is finite");
        epoch_loss_ += loss;
        if (++next_ == batches_) {
            epoch_means_.push_back(epoch_loss_ /
                                   static_cast<double>(batches_));
            epoch_loss_ = 0.0;
            next_ = 0;
        }
        return kBatch;
    }

    void replay(Tracer &tracer, double seconds) override
    {
        checkLayerwiseMatches();
        // The public ops:: kernels on C-4's exact shapes, one step's
        // worth of calls per round (B images, every conv and the FC).
        pl::Rng rng(seed_ ^ 0x7e);
        std::vector<ConvShape> convs;
        pl::Tensor fc_w, fc_x, fc_d;
        for (size_t l = 0; l < net_->numLayers(); ++l) {
            pl::nn::Layer &layer = net_->layer(l);
            const pl::Shape in = net_->layerInputShape(l);
            const pl::Shape out = layer.outputShape(in);
            if (layer.kind() == pl::nn::LayerKind::Conv) {
                const auto params = layer.parameters();
                convs.push_back({*params[0], *params[1],
                                 pl::Tensor::randn(in, rng, 0.5f, 0.25f),
                                 pl::Tensor::randn(out, rng, 0.0f, 0.1f)});
            } else if (layer.kind() == pl::nn::LayerKind::InnerProduct) {
                fc_w = *layer.parameters()[0];
                fc_x = pl::Tensor::randn({pl::shapeNumel(in)}, rng,
                                         0.5f, 0.25f);
                fc_d = pl::Tensor::randn(out, rng, 0.0f, 0.1f);
            }
        }
        const double t0 = nowSec();
        int rounds = 0;
        while (rounds < 3 || nowSec() - t0 < seconds / 2) {
            Tracer::Span round(&tracer, "replay.round");
            for (int64_t b = 0; b < kBatch; ++b) {
                for (const ConvShape &c : convs) {
                    {
                        Tracer::Span s(&tracer, "tensor.conv2d_fwd");
                        pl::ops::conv2d(c.input, c.weight, c.bias, 1, 1);
                    }
                    {
                        Tracer::Span s(&tracer, "tensor.im2col");
                        pl::ops::im2col(c.input, 3, 3, 1, 1);
                    }
                    {
                        Tracer::Span s(&tracer, "tensor.conv2d_bwd_kernel");
                        pl::ops::conv2dBackwardKernel(c.input, c.delta, 3,
                                                      3, 1);
                    }
                    {
                        Tracer::Span s(&tracer, "tensor.conv2d_bwd_input");
                        pl::ops::conv2dBackwardInput(c.delta, c.weight, 1);
                    }
                }
                Tracer::Span s(&tracer, "tensor.fc");
                pl::ops::matVec(fc_w, fc_x);
                pl::ops::outer(fc_x, fc_d);
                pl::ops::matVecT(fc_w, fc_d);
            }
            ++rounds;
        }
        crossbar_.run(tracer, seconds / 2, checks);
    }

    void finish() override
    {
        checks.expect(epoch_means_.size() >= 2,
                      "train_cnn ran at least two epochs");
        if (epoch_means_.size() >= 2) {
            checks.expect(epoch_means_.back() < epoch_means_.front(),
                          "train_cnn last-epoch loss " +
                              std::to_string(epoch_means_.back()) +
                              " below first " +
                              std::to_string(epoch_means_.front()));
        }
        const double acc =
            net_->accuracy(task_.train.inputs, task_.train.labels);
        checks.expect(acc >= kAccuracyFloor,
                      "train_cnn accuracy " + std::to_string(acc) +
                          " reaches the floor");
    }

    void layerMetrics(const SpanTotals &step_spans, int64_t steps,
                      const SpanTotals &replay_spans,
                      std::vector<Metric> &out) const override
    {
        const double n = static_cast<double>(steps);
        for (const char *name :
             {"nn.conv.fwd", "nn.conv.bwd", "nn.pool_relu.fwd",
              "nn.pool_relu.bwd", "nn.fc.fwd", "nn.fc.bwd", "nn.loss",
              "nn.update"}) {
            out.push_back({std::string(name) + "_ms", "ms",
                           spanTotal(step_spans, name).incl_ms / n});
        }
        const double rounds = static_cast<double>(
            spanTotal(replay_spans, "replay.round").calls);
        for (const char *name :
             {"tensor.conv2d_fwd", "tensor.conv2d_bwd_input",
              "tensor.conv2d_bwd_kernel", "tensor.im2col", "tensor.fc"}) {
            out.push_back({std::string(name) + "_ms", "ms",
                           spanTotal(replay_spans, name).incl_ms / rounds});
        }
        crossbar_.metrics(replay_spans, out);
    }

  private:
    struct ConvShape
    {
        pl::Tensor weight, bias, input, delta;
    };

    /** The layer-driven step reproduces trainBatch's losses exactly. */
    void checkLayerwiseMatches()
    {
        pl::Rng rng_a(seed_ ^ 0xC4), rng_b(seed_ ^ 0xC4);
        pl::nn::Network a = pl::workloads::buildC4(rng_a);
        pl::nn::Network b = pl::workloads::buildC4(rng_b);
        for (int64_t k = 0; k < 3; ++k) {
            const auto first =
                task_.train.inputs.begin() + k * kBatch;
            const std::vector<pl::Tensor> inputs(first, first + kBatch);
            const auto lfirst = task_.train.labels.begin() + k * kBatch;
            const std::vector<int64_t> labels(lfirst, lfirst + kBatch);
            const double plain = a.trainBatch(inputs, labels, kLearningRate);
            const double layered = layerwiseStep(b, inputs, labels, nullptr);
            checks.expect(plain == layered,
                          "layer-driven step loss equals trainBatch's");
        }
    }

    uint64_t seed_;
    CrossbarReplay crossbar_;
    pl::workloads::SyntheticConfig data_config_;
    pl::workloads::SyntheticTask task_;
    std::unique_ptr<pl::nn::Network> net_;
    int64_t batches_ = 0;
    int64_t next_ = 0;
    double epoch_loss_ = 0.0;
    std::vector<double> epoch_means_; //!< [0] is the warm-up epoch
};

} // namespace

std::unique_ptr<Workload>
makeTrainCnn(uint64_t seed)
{
    return std::make_unique<TrainCnn>(seed);
}

} // namespace perfbench
