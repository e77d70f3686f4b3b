/**
 * @file
 * Integration tests of the functional training substrate: networks,
 * batched SGD, convergence on synthetic tasks.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/isa.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "common/rng.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "workloads/synthetic_data.hh"

namespace pipelayer {
namespace nn {
namespace {

/** A small MLP over 1x8x8 inputs. */
Network
smallMlp(Rng &rng)
{
    Network net("mlp", {1, 8, 8});
    net.add(std::make_unique<FlattenLayer>());
    net.add(std::make_unique<InnerProductLayer>(64, 32, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<InnerProductLayer>(32, 4, rng));
    return net;
}

/** A small CNN over 1x8x8 inputs. */
Network
smallCnn(Rng &rng)
{
    Network net("cnn", {1, 8, 8});
    net.add(std::make_unique<ConvLayer>(1, 4, 3, 1, 1, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<MaxPoolLayer>(2));
    net.add(std::make_unique<FlattenLayer>());
    net.add(std::make_unique<InnerProductLayer>(4 * 4 * 4, 4, rng));
    return net;
}

workloads::SyntheticTask
smallTask()
{
    workloads::SyntheticConfig config;
    config.classes = 4;
    config.image_size = 8;
    config.train_per_class = 30;
    config.test_per_class = 10;
    config.noise = 0.25f;
    config.seed = 77;
    return workloads::makeSyntheticTask(config);
}

TEST(Network, ShapePropagationAndDescribe)
{
    Rng rng(1);
    Network net = smallCnn(rng);
    EXPECT_EQ(net.outputShape(), (Shape{4}));
    EXPECT_EQ(net.numLayers(), 5u);
    EXPECT_NE(net.describe().find("conv3x4"), std::string::npos);
    EXPECT_EQ(net.layerInputShape(0), (Shape{1, 8, 8}));
    EXPECT_EQ(net.layerInputShape(3), (Shape{4, 4, 4}));
}

TEST(Network, ParameterCount)
{
    Rng rng(2);
    Network net = smallMlp(rng);
    EXPECT_EQ(net.parameterCount(), 64 * 32 + 32 + 32 * 4 + 4);
}

TEST(Network, ForwardInferAgree)
{
    Rng rng(3);
    Network net = smallCnn(rng);
    const Tensor x = Tensor::randn({1, 8, 8}, rng);
    const Tensor a = net.forward(x);
    const Tensor b = net.infer(x);
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_FLOAT_EQ(a.at(i), b.at(i));
}

TEST(Training, MlpLossDecreases)
{
    Rng rng(4);
    Network net = smallMlp(rng);
    auto task = smallTask();
    TrainConfig config;
    config.epochs = 8;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    Rng train_rng(5);
    const TrainResult result =
        train(net, task.train, task.test, config, train_rng);
    ASSERT_EQ(result.epoch_loss.size(), 8u);
    EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front() * 0.7);
}

TEST(Training, MlpLearnsTask)
{
    Rng rng(6);
    Network net = smallMlp(rng);
    auto task = smallTask();
    TrainConfig config;
    config.epochs = 12;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    Rng train_rng(7);
    const TrainResult result =
        train(net, task.train, task.test, config, train_rng);
    EXPECT_GT(result.final_test_accuracy, 0.8);
}

TEST(Training, CnnLearnsTask)
{
    Rng rng(8);
    Network net = smallCnn(rng);
    auto task = smallTask();
    TrainConfig config;
    config.epochs = 12;
    config.batch_size = 8;
    config.learning_rate = 0.1f;
    Rng train_rng(9);
    const TrainResult result =
        train(net, task.train, task.test, config, train_rng);
    EXPECT_GT(result.final_test_accuracy, 0.8);
}

TEST(Training, BatchAveragingMatchesManualUpdate)
{
    // trainBatch must apply W -= lr * (1/B) Σ grads: two identical
    // samples in a batch behave like one sample with batch 1.
    Rng rng_a(10), rng_b(10);
    Network net_a("a", {1, 8, 8});
    net_a.add(std::make_unique<FlattenLayer>());
    net_a.add(std::make_unique<InnerProductLayer>(64, 4, rng_a));
    Network net_b("b", {1, 8, 8});
    net_b.add(std::make_unique<FlattenLayer>());
    net_b.add(std::make_unique<InnerProductLayer>(64, 4, rng_b));

    Rng data_rng(11);
    const Tensor x = Tensor::randn({1, 8, 8}, data_rng);

    net_a.trainBatch({x, x}, {1, 1}, 0.1f);
    net_b.trainBatch({x}, {1}, 0.1f);

    auto params_a = net_a.layer(1).parameters();
    auto params_b = net_b.layer(1).parameters();
    for (int64_t i = 0; i < params_a[0]->numel(); ++i)
        EXPECT_NEAR(params_a[0]->at(i), params_b[0]->at(i), 1e-6);
}

/**
 * Every layer kind over 2x8x8 inputs.  The second convolution pads by
 * 2 > K - 1, so its backward-input convolution crops (negative pad).
 */
Network
everyKindNet(Rng &rng)
{
    Network net("every-kind", {2, 8, 8});
    net.add(std::make_unique<ConvLayer>(2, 4, 3, 1, 1, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<MaxPoolLayer>(2)); // 4x4x4
    net.add(std::make_unique<ConvLayer>(4, 6, 3, 1, 2, rng));
    net.add(std::make_unique<SigmoidLayer>()); // 6x6x6
    net.add(std::make_unique<AvgPoolLayer>(2));
    net.add(std::make_unique<FlattenLayer>());
    net.add(std::make_unique<InnerProductLayer>(6 * 3 * 3, 5, rng));
    return net;
}

/** The training protocol of network.hh, one sample at a time. */
double
perSampleStep(Network &net, const std::vector<Tensor> &inputs,
              const std::vector<int64_t> &labels, float lr)
{
    net.zeroGrads();
    double total = 0.0;
    for (size_t i = 0; i < inputs.size(); ++i) {
        const LossResult loss = softmaxLoss(net.forward(inputs[i]),
                                            labels[i]);
        total += loss.loss;
        net.backward(loss.delta);
    }
    net.applyUpdate(lr, static_cast<int64_t>(inputs.size()));
    return total / static_cast<double>(inputs.size());
}

TEST(Training, TrainBatchMatchesPerSampleProtocolBitExact)
{
    // trainBatch runs groups of threadCount() samples in parallel and
    // commits their gradients in ascending sample order; the result
    // must be the per-sample loop's bit for bit.  Batches of 5 and 10
    // leave a partial last group at 2 and 4 threads.
    const int64_t saved = threadCount();
    for (const isa::Target target : isa::availableTargets()) {
        ::setenv("PL_ISA", isa::name(target), /*overwrite=*/1);
        isa::reresolveFromEnv();
        for (const float momentum : {0.0f, 0.9f}) {
            for (const size_t batch : {1, 5, 10}) {
                for (const int64_t threads : {1, 2, 4}) {
                    SCOPED_TRACE(std::string("isa=") + isa::name(target) +
                                 " momentum=" + std::to_string(momentum) +
                                 " batch=" + std::to_string(batch) +
                                 " threads=" + std::to_string(threads));
                    setThreadCount(threads);
                    Rng rng_a(21), rng_b(21), data(22);
                    Network a = everyKindNet(rng_a);
                    Network b = everyKindNet(rng_b);
                    a.setMomentum(momentum);
                    b.setMomentum(momentum);
                    for (int step = 0; step < 3; ++step) {
                        std::vector<Tensor> inputs;
                        std::vector<int64_t> labels;
                        for (size_t i = 0; i < batch; ++i) {
                            inputs.push_back(
                                Tensor::randn({2, 8, 8}, data));
                            labels.push_back(static_cast<int64_t>(
                                data.uniformInt(5)));
                        }
                        const double batched =
                            a.trainBatch(inputs, labels, 0.1f);
                        const double serial =
                            perSampleStep(b, inputs, labels, 0.1f);
                        ASSERT_EQ(0, std::memcmp(&batched, &serial,
                                                 sizeof(double)))
                            << "step " << step << ": " << batched
                            << " vs " << serial;
                    }
                    for (size_t l = 0; l < a.numLayers(); ++l) {
                        const auto pa = a.layer(l).parameters();
                        const auto pb = b.layer(l).parameters();
                        ASSERT_EQ(pa.size(), pb.size());
                        for (size_t k = 0; k < pa.size(); ++k) {
                            ASSERT_EQ(0, std::memcmp(
                                             pa[k]->data(), pb[k]->data(),
                                             static_cast<size_t>(
                                                 pa[k]->numel()) *
                                                 sizeof(float)))
                                << "layer " << l << " parameter " << k;
                        }
                    }
                }
            }
        }
    }
    ::unsetenv("PL_ISA");
    isa::reresolveFromEnv();
    setThreadCount(saved);
}

/** Memcmp-equal parameters of two layers. */
void
expectSameParameters(Layer &a, Layer &b)
{
    const auto pa = a.parameters();
    const auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t k = 0; k < pa.size(); ++k) {
        ASSERT_EQ(pa[k]->shape(), pb[k]->shape());
        EXPECT_EQ(0, std::memcmp(pa[k]->data(), pb[k]->data(),
                                 static_cast<size_t>(pa[k]->numel()) *
                                     sizeof(float)))
            << "parameter " << k;
    }
}

TEST(Network, FirstLayerSkipsOnlyItsInputError)
{
    // backwardParams accumulates exactly backwardBatch's parameter
    // gradients, for both layer kinds that skip their input error.
    Rng data(41);
    {
        Rng ra(42), rb(42);
        ConvLayer a(2, 3, 3, 1, 1, ra), b(2, 3, 3, 1, 1, rb);
        const Tensor x = Tensor::randn({2, 6, 6}, data);
        const Tensor d = Tensor::randn({3, 6, 6}, data);
        a.forward(x);
        b.forward(x);
        a.backwardParams(std::vector<Tensor>(1, d));
        EXPECT_EQ(b.backward(d).shape(), x.shape());
        a.applyUpdate(0.1f, 1);
        b.applyUpdate(0.1f, 1);
        expectSameParameters(a, b);
    }
    {
        Rng ra(43), rb(43);
        InnerProductLayer a(7, 4, ra), b(7, 4, rb);
        const Tensor x = Tensor::randn({7}, data);
        const Tensor d = Tensor::randn({4}, data);
        a.forward(x);
        b.forward(x);
        a.backwardParams(std::vector<Tensor>(1, d));
        EXPECT_EQ(b.backward(d).shape(), x.shape());
        a.applyUpdate(0.1f, 1);
        b.applyUpdate(0.1f, 1);
        expectSameParameters(a, b);
    }

    // A training step runs the input-error convolution for every conv
    // layer but the first, and every kernel gradient.
    const bool was_enabled = prof::enabled();
    prof::setEnabled(true);
    prof::reset();
    Rng rng(44);
    Network net = everyKindNet(rng);
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int i = 0; i < 3; ++i) {
        inputs.push_back(Tensor::randn({2, 8, 8}, data));
        labels.push_back(i);
    }
    net.trainBatch(inputs, labels, 0.1f);
    const prof::Report report = prof::snapshot();
    prof::setEnabled(was_enabled);
    const prof::SiteReport *bwd_input =
        report.find("tensor.conv2d_bwd_input");
    const prof::SiteReport *bwd_kernel =
        report.find("tensor.conv2d_bwd_kernel");
    ASSERT_NE(bwd_input, nullptr);
    ASSERT_NE(bwd_kernel, nullptr);
    EXPECT_EQ(bwd_input->calls, 3u);  // second conv only
    EXPECT_EQ(bwd_kernel->calls, 6u); // both convs
}

TEST(Network, AccuracyMatchesPerSamplePredictions)
{
    // accuracy() infers in groups; predict() one sample at a time.
    Rng rng(31), data(32);
    Network net = everyKindNet(rng);
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int i = 0; i < 7; ++i) {
        inputs.push_back(Tensor::randn({2, 8, 8}, data));
        labels.push_back(net.predict(inputs.back()));
    }
    labels[3] = (labels[3] + 1) % 5;
    const int64_t saved = threadCount();
    for (const int64_t threads : {1, 2, 4}) {
        setThreadCount(threads);
        EXPECT_DOUBLE_EQ(net.accuracy(inputs, labels), 6.0 / 7.0);
    }
    setThreadCount(saved);
}

TEST(Training, DeterministicGivenSeeds)
{
    auto run = [] {
        Rng rng(12);
        Network net = smallMlp(rng);
        auto task = smallTask();
        TrainConfig config;
        config.epochs = 3;
        config.batch_size = 8;
        Rng train_rng(13);
        return train(net, task.train, task.test, config, train_rng)
            .epoch_loss;
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Dataset, ShuffleKeepsPairsAligned)
{
    auto task = smallTask();
    // Tag each input with its label in pixel 0 to detect misalignment.
    for (size_t i = 0; i < task.train.size(); ++i)
        task.train.inputs[i].at(0) =
            static_cast<float>(task.train.labels[i]);
    Rng rng(14);
    task.train.shuffle(rng);
    for (size_t i = 0; i < task.train.size(); ++i)
        EXPECT_EQ(static_cast<int64_t>(task.train.inputs[i].at(0)),
                  task.train.labels[i]);
}

TEST(Dataset, HeadTakesPrefix)
{
    auto task = smallTask();
    const Dataset head = task.train.head(5);
    EXPECT_EQ(head.size(), 5u);
    EXPECT_EQ(head.labels[0], task.train.labels[0]);
}

TEST(SyntheticData, DeterministicAndBounded)
{
    const auto a = workloads::makeStudyTask();
    const auto b = workloads::makeStudyTask();
    ASSERT_EQ(a.train.size(), b.train.size());
    for (int64_t i = 0; i < a.train.inputs[0].numel(); ++i) {
        EXPECT_FLOAT_EQ(a.train.inputs[0].at(i), b.train.inputs[0].at(i));
        EXPECT_GE(a.train.inputs[0].at(i), 0.0f);
        EXPECT_LE(a.train.inputs[0].at(i), 1.0f);
    }
}

TEST(SyntheticData, ClassesAreSeparable)
{
    // Nearest-prototype classification on the noiseless means should
    // be far above chance, otherwise the Fig. 13 study is meaningless.
    const auto task = workloads::makeStudyTask();
    // Compute class means from train, classify test by nearest mean.
    const int64_t classes = task.config.classes;
    const int64_t numel = task.train.inputs[0].numel();
    std::vector<std::vector<double>> means(
        static_cast<size_t>(classes),
        std::vector<double>(static_cast<size_t>(numel), 0.0));
    std::vector<int64_t> counts(static_cast<size_t>(classes), 0);
    for (size_t i = 0; i < task.train.size(); ++i) {
        const auto c = static_cast<size_t>(task.train.labels[i]);
        ++counts[c];
        for (int64_t j = 0; j < numel; ++j)
            means[c][static_cast<size_t>(j)] += task.train.inputs[i].at(j);
    }
    for (size_t c = 0; c < means.size(); ++c)
        for (auto &v : means[c])
            v /= static_cast<double>(counts[c]);

    int64_t correct = 0;
    for (size_t i = 0; i < task.test.size(); ++i) {
        double best = 1e30;
        int64_t best_c = -1;
        for (int64_t c = 0; c < classes; ++c) {
            double dist = 0.0;
            for (int64_t j = 0; j < numel; ++j) {
                const double d = task.test.inputs[i].at(j) -
                                 means[static_cast<size_t>(c)]
                                      [static_cast<size_t>(j)];
                dist += d * d;
            }
            if (dist < best) {
                best = dist;
                best_c = c;
            }
        }
        correct += best_c == task.test.labels[i] ? 1 : 0;
    }
    const double accuracy = static_cast<double>(correct) /
                            static_cast<double>(task.test.size());
    EXPECT_GT(accuracy, 0.9);
}

} // namespace
} // namespace nn
} // namespace pipelayer
