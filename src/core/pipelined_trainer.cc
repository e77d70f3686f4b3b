#include "core/pipelined_trainer.hh"

#include <algorithm>
#include <cmath>

#include "common/arena.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace core {

/** A non-array op riding in a stage's activation unit. */
struct TailOp
{
    nn::LayerKind kind;
    int64_t window = 0; //!< pooling window
};

/** One pipeline stage: an array layer plus its activation-unit tail. */
struct PipelinedTrainer::Stage
{
    nn::Layer *array_layer = nullptr;
    nn::LayerKind array_kind = nn::LayerKind::Conv;
    int64_t conv_pad = 0;
    int64_t conv_kernel = 0;
    std::vector<TailOp> tail;

    Tensor weight_grad;
    Tensor bias_grad;
};

/** What one image leaves in a stage's output buffer. */
struct PipelinedTrainer::Entry
{
    Tensor output;               //!< d_l: the stage output (post tail)
    std::vector<Tensor> aux;     //!< per tail op (masks/indices)
    std::vector<Shape> in_shape; //!< per tail op input shape
};

namespace {

/** Forward one tail op, recording what backward will need. */
Tensor
tailForward(const TailOp &op, const Tensor &x, Tensor *aux)
{
    switch (op.kind) {
      case nn::LayerKind::ReLU: {
        Tensor out = x;
        for (int64_t i = 0; i < out.numel(); ++i)
            out.at(i) = out.at(i) > 0.0f ? out.at(i) : 0.0f;
        *aux = out;
        return out;
      }
      case nn::LayerKind::Sigmoid: {
        Tensor out = x;
        for (int64_t i = 0; i < out.numel(); ++i)
            out.at(i) = 1.0f / (1.0f + std::exp(-out.at(i)));
        *aux = out;
        return out;
      }
      case nn::LayerKind::MaxPool:
        return ops::maxPool(x, op.window, aux);
      case nn::LayerKind::AvgPool:
        return ops::avgPool(x, op.window);
      case nn::LayerKind::Flatten:
        return x.reshape({x.numel()});
      default:
        panic("unsupported tail op");
    }
}

/** Backward one tail op from its recorded aux data. */
Tensor
tailBackwardOp(const TailOp &op, const Tensor &delta, const Tensor &aux,
               const Shape &in_shape)
{
    switch (op.kind) {
      case nn::LayerKind::ReLU: {
        Tensor out = delta;
        for (int64_t i = 0; i < out.numel(); ++i) {
            if (aux.at(i) <= 0.0f)
                out.at(i) = 0.0f;
        }
        return out;
      }
      case nn::LayerKind::Sigmoid: {
        Tensor out = delta;
        for (int64_t i = 0; i < out.numel(); ++i) {
            const float s = aux.at(i);
            out.at(i) *= s * (1.0f - s);
        }
        return out;
      }
      case nn::LayerKind::MaxPool:
        return ops::maxPoolBackward(delta, aux, in_shape);
      case nn::LayerKind::AvgPool:
        return ops::avgPoolBackward(delta, op.window, in_shape);
      case nn::LayerKind::Flatten:
        return delta.reshape(in_shape);
      default:
        panic("unsupported tail op");
    }
}

TailOp
makeTailOp(nn::Layer &layer)
{
    TailOp op;
    op.kind = layer.kind();
    if (op.kind == nn::LayerKind::MaxPool)
        op.window = static_cast<nn::MaxPoolLayer &>(layer).window();
    else if (op.kind == nn::LayerKind::AvgPool)
        op.window = static_cast<nn::AvgPoolLayer &>(layer).window();
    return op;
}

} // namespace

PipelinedTrainer::PipelinedTrainer(nn::Network &net) : net_(net)
{
    // Partition the layer list into array-layer stages; non-array
    // layers before the first array layer would need a prefix stage —
    // the supported networks start with an array layer or a flatten,
    // which we fold into a synthetic leading reshape below.
    Stage *current = nullptr;
    std::vector<TailOp> prefix;
    for (size_t i = 0; i < net_.numLayers(); ++i) {
        nn::Layer &layer = net_.layer(i);
        switch (layer.kind()) {
          case nn::LayerKind::Conv: {
            auto &conv = static_cast<nn::ConvLayer &>(layer);
            PL_ASSERT(conv.stride() == 1,
                      "pipelined training maps stride-1 convolutions");
            auto stage = std::make_unique<Stage>();
            stage->array_layer = &layer;
            stage->array_kind = nn::LayerKind::Conv;
            stage->conv_pad = conv.pad();
            stage->conv_kernel = conv.kernel();
            stage->weight_grad = Tensor(conv.parameters()[0]->shape());
            stage->bias_grad = Tensor(conv.parameters()[1]->shape());
            stages_.push_back(std::move(stage));
            current = stages_.back().get();
            break;
          }
          case nn::LayerKind::InnerProduct: {
            auto &ip = static_cast<nn::InnerProductLayer &>(layer);
            auto stage = std::make_unique<Stage>();
            stage->array_layer = &layer;
            stage->array_kind = nn::LayerKind::InnerProduct;
            stage->weight_grad = Tensor(ip.parameters()[0]->shape());
            stage->bias_grad = Tensor(ip.parameters()[1]->shape());
            stages_.push_back(std::move(stage));
            current = stages_.back().get();
            break;
          }
          default:
            if (current)
                current->tail.push_back(makeTailOp(layer));
            else
                prefix.push_back(makeTailOp(layer));
            break;
        }
    }
    PL_ASSERT(!stages_.empty(), "network has no array layers");
    // A leading flatten (MLPs) is harmless to drop: the inner-product
    // stage reshapes its input anyway.  Anything else up front is
    // unsupported.
    for (const TailOp &op : prefix) {
        PL_ASSERT(op.kind == nn::LayerKind::Flatten,
                  "unsupported pre-array layer in pipelined training");
    }
}

PipelinedTrainer::~PipelinedTrainer() = default;

int64_t
PipelinedTrainer::depth() const
{
    return static_cast<int64_t>(stages_.size());
}

json::Value
PipelinedBatchResult::toJson() const
{
    json::Value v = json::Value::object();
    v["mean_loss"] = json::Value(mean_loss);
    v["logical_cycles"] = json::Value(logical_cycles);
    v["peak_buffer_entries"] = json::Value(peak_buffer_entries);
    v["forward_ops"] = json::Value(forward_ops);
    v["error_seeds"] = json::Value(error_seeds);
    v["backward_ops"] = json::Value(backward_ops);
    v["commits"] = json::Value(commits);
    return v;
}

void
PipelinedTrainer::addStats(stats::StatGroup &group)
{
    group.registerScalar("cycles", &stat_cycles_,
                         "logical cycles executed (2L+B+1 per batch)");
    group.registerScalar("batches", &stat_batches_,
                         "pipelined batches trained");
    group.registerScalar("forward_ops", &stat_forward_ops_,
                         "per-cycle stage-forward evaluations");
    group.registerScalar("error_seeds", &stat_error_seeds_,
                         "output-error seedings (one per image)");
    group.registerScalar("backward_ops", &stat_backward_ops_,
                         "error-backward + derivative pairs");
    group.registerScalar("commits", &stat_commits_,
                         "serial phase-2 buffer commits");
    group.registerScalar("weight_updates", &stat_updates_,
                         "array stages updated at update cycles");
    // Scratch high-water mark: stabilises after the first batch when
    // the steady-state per-cycle loop is heap-allocation free.
    arena::addStats(group, "arena");
}

void
PipelinedTrainer::setTrace(trace::TraceRecorder *recorder)
{
    trace_ = recorder;
    trace_cycle_base_ = 0;
    if (!trace_)
        return;
    // Row layout mirrors the paper's Fig. 6: forward units top-down,
    // the error-seed unit, then backward units B_L..B_1 and the
    // weight-update row.
    const int64_t depth_l = depth();
    trace_base_ = trace_->trackCount();
    for (int64_t s = 0; s < depth_l; ++s)
        trace_->addTrack("A" + std::to_string(s + 1));
    trace_->addTrack("Err" + std::to_string(depth_l));
    for (int64_t l = depth_l; l >= 1; --l)
        trace_->addTrack("B" + std::to_string(l));
    trace_->addTrack("Upd");
}

PipelinedBatchResult
PipelinedTrainer::trainBatch(const std::vector<Tensor> &inputs,
                             const std::vector<int64_t> &labels,
                             float lr, nn::LossKind loss)
{
    PL_ASSERT(inputs.size() == labels.size() && !inputs.empty(),
              "bad pipelined batch");
    const int64_t depth_l = depth();
    const auto batch = static_cast<int64_t>(inputs.size());

    for (auto &stage : stages_) {
        stage->weight_grad.fill(0.0f);
        stage->bias_grad.fill(0.0f);
    }

    // d buffers: index j in [0, L], capacity 2(L-j)+1 (paper §3.3).
    std::vector<std::map<int64_t, Entry>> d_buf(
        static_cast<size_t>(depth_l + 1));
    // δ buffers: index l in [1, L] (stored at l-1), capacity 1.
    std::vector<std::map<int64_t, Tensor>> delta_buf(
        static_cast<size_t>(depth_l));

    PipelinedBatchResult result;
    const int64_t total_cycles = 2 * depth_l + batch + 1;
    result.logical_cycles = total_cycles;

    auto check_capacity = [&](int64_t j) {
        const auto cap = static_cast<size_t>(2 * (depth_l - j) + 1);
        PL_ASSERT(d_buf[static_cast<size_t>(j)].size() <= cap,
                  "buffer d%lld exceeded its 2(L-l)+1 capacity",
                  (long long)j);
        result.peak_buffer_entries = std::max(
            result.peak_buffer_entries,
            static_cast<int64_t>(d_buf[static_cast<size_t>(j)].size()));
    };

    auto stage_forward = [&](Stage &stage, const Tensor &input,
                             Entry *entry) {
        const auto params = stage.array_layer->parameters();
        Tensor x;
        if (stage.array_kind == nn::LayerKind::Conv) {
            x = ops::conv2d(input, *params[0], *params[1], 1,
                            stage.conv_pad);
        } else {
            x = ops::matVec(*params[0], input.reshape({input.numel()}));
            x += *params[1];
        }
        entry->aux.clear();
        entry->in_shape.clear();
        for (const TailOp &op : stage.tail) {
            entry->in_shape.push_back(x.shape());
            Tensor aux;
            x = tailForward(op, x, &aux);
            entry->aux.push_back(std::move(aux));
        }
        entry->output = x;
    };

    // Back a stage-output error through the stage tail only, to the
    // array-layer output.
    auto tail_backward = [&](const Stage &stage, Tensor delta,
                             const Entry &entry) {
        for (size_t k = stage.tail.size(); k-- > 0;) {
            delta = tailBackwardOp(stage.tail[k], delta, entry.aux[k],
                                   entry.in_shape[k]);
        }
        return delta;
    };

    // Each in-flight image performs exactly one action per cycle
    // (forward, error seed, or backward pair), and no two images
    // touch the same stage — the paper's inter-layer parallelism.
    // Phase 1 computes every action's tensors concurrently (the
    // buffers are only *read*); phase 2 commits buffer writes and
    // frees serially in ascending image order, which preserves
    // the read-before-write same-cycle semantics (§3.3) and keeps
    // results bit-identical to the serial schedule.
    enum class Action { Forward, Seed, Backward };
    struct CycleWork
    {
        int64_t image = 0;
        Action action = Action::Forward;
        int64_t stage = 0; //!< s for Forward, 1-based l for Backward
        Entry forward_out; //!< Forward result
        double loss = 0.0; //!< Seed loss
        Tensor delta;      //!< Seed / Backward error output
    };

    // Cycle work is dispatched from the event queue instead of a
    // per-cycle window scan: each image's entry is staged upfront at
    // its t0, and the serial commit of an action schedules the
    // image's next action one cycle later.  The commit runs in
    // ascending image order, so successor events enqueue in ascending
    // image order too and every cycle's FIFO span replays exactly the
    // window scan's work list (oldest image first, the newly-entered
    // image's first forward last — Entry processing schedules it into
    // the cycle currently draining).
    enum class EvKind { Entry, Forward, Seed, Backward };
    struct Ev
    {
        EvKind kind;
        int64_t image;
        int64_t stage; //!< s for Forward, 1-based l for Backward
    };
    events::EventQueue<Ev> queue;
    queue.reserve(static_cast<size_t>(batch * (2 * depth_l + 3)));
    for (int64_t i = 0; i < batch; ++i)
        queue.schedule(i + 1, {EvKind::Entry, i, 0});

    // Hoisted out of the cycle loop: clear() keeps the capacity, so
    // steady-state cycles reuse the same allocation.
    std::vector<CycleWork> work;
    std::vector<Ev> span;

    while (!queue.empty()) {
        const int64_t cycle = queue.nextCycle();
        span.clear();
        queue.popCycle(cycle, span);

        work.clear();
        auto collect = [&work](const Ev &ev) {
            switch (ev.kind) {
              case EvKind::Forward:
                work.push_back(
                    {ev.image, Action::Forward, ev.stage, {}, 0.0, {}});
                break;
              case EvKind::Seed:
                work.push_back(
                    {ev.image, Action::Seed, 0, {}, 0.0, {}});
                break;
              case EvKind::Backward:
                work.push_back(
                    {ev.image, Action::Backward, ev.stage, {}, 0.0, {}});
                break;
              case EvKind::Entry:
                panic("entry event left in the work span");
            }
        };
        for (const Ev &ev : span) {
            if (ev.kind != EvKind::Entry) {
                collect(ev);
                continue;
            }
            // Image entry: d_0 staged at t0 = i (the write lands in
            // cycle i + 1 alongside — but ordered before — the
            // image's first forward, which enters the same cycle).
            const int64_t i = ev.image;
            Entry e;
            e.output = inputs[static_cast<size_t>(i)];
            d_buf[0][i] = std::move(e);
            check_capacity(0);
            queue.schedule(cycle, {EvKind::Forward, i, 0});
        }
        if (!queue.empty() && queue.nextCycle() == cycle) {
            // Pick up the same-cycle forwards the entries scheduled.
            span.clear();
            queue.popCycle(cycle, span);
            for (const Ev &ev : span)
                collect(ev);
        }

        PL_PROF_SCOPE("trainer.cycle");
        {
        // Phase 1: the parallel per-image stage compute of this cycle.
        PL_PROF_SCOPE("trainer.cycle_compute");
        parallel_for(0, static_cast<int64_t>(work.size()), /*grain=*/1,
                     [&](int64_t w0, int64_t w1) {
        for (int64_t widx = w0; widx < w1; ++widx) {
            CycleWork &wk = work[static_cast<size_t>(widx)];
            const int64_t i = wk.image;
            switch (wk.action) {
              case Action::Forward: {
                Stage &stage = *stages_[static_cast<size_t>(wk.stage)];
                const Entry &in =
                    d_buf[static_cast<size_t>(wk.stage)].at(i);
                stage_forward(stage, in.output, &wk.forward_out);
                break;
              }
              case Action::Seed: {
                const Entry &top =
                    d_buf[static_cast<size_t>(depth_l)].at(i);
                nn::LossResult seed;
                if (loss == nn::LossKind::Softmax) {
                    seed = nn::softmaxLoss(
                        top.output, labels[static_cast<size_t>(i)]);
                } else {
                    Tensor target(top.output.shape());
                    target.at(labels[static_cast<size_t>(i)]) = 1.0f;
                    seed = nn::l2Loss(top.output, target);
                }
                wk.loss = seed.loss;
                // δ_L lands at the array output of the last stage.
                const Stage &last =
                    *stages_[static_cast<size_t>(depth_l - 1)];
                wk.delta = tail_backward(last, seed.delta, top);
                break;
              }
              case Action::Backward: {
                const int64_t l = wk.stage;
                Stage &stage = *stages_[static_cast<size_t>(l - 1)];
                const Tensor &delta_array =
                    delta_buf[static_cast<size_t>(l - 1)].at(i);
                const Entry &input_entry =
                    d_buf[static_cast<size_t>(l - 1)].at(i);
                const auto params = stage.array_layer->parameters();

                // Derivative unit: ∂W_l from d_{l-1} and δ_l.  This
                // stage is touched by no other image this cycle, so
                // accumulating here keeps the serial per-stage order
                // (one contribution per cycle, ascending images).
                if (stage.array_kind == nn::LayerKind::Conv) {
                    stage.weight_grad += ops::conv2dBackwardKernel(
                        input_entry.output, delta_array,
                        stage.conv_kernel, stage.conv_kernel,
                        stage.conv_pad);
                    ops::accumulateChannelSums(
                        delta_array.data(), delta_array.dim(0),
                        delta_array.dim(1) * delta_array.dim(2),
                        stage.bias_grad.data());
                } else {
                    const Tensor flat_in = input_entry.output.reshape(
                        {input_entry.output.numel()});
                    stage.weight_grad += ops::outer(
                        flat_in,
                        delta_array.reshape({delta_array.numel()}));
                    stage.bias_grad +=
                        delta_array.reshape({delta_array.numel()});
                }

                // Error-backward unit (skipped at the first stage).
                if (l >= 2) {
                    Tensor delta_in;
                    if (stage.array_kind == nn::LayerKind::Conv) {
                        delta_in = ops::conv2dBackwardInput(
                            delta_array, *params[0], stage.conv_pad);
                    } else {
                        delta_in =
                            ops::matVecT(*params[0],
                                         delta_array.reshape(
                                             {delta_array.numel()}));
                    }
                    delta_in =
                        delta_in.reshape(input_entry.output.shape());
                    const Stage &below =
                        *stages_[static_cast<size_t>(l - 2)];
                    wk.delta =
                        tail_backward(below, delta_in, input_entry);
                }
                break;
              }
            }
        }
        });
        }

        // Phase 2: commit in ascending image order — identical buffer
        // mutation order to the serial schedule.  Work counters and
        // trace events are emitted here, never from phase 1, so both
        // are byte-identical at any thread count.
        PL_PROF_SCOPE("trainer.cycle_commit");
        for (CycleWork &wk : work) {
            const int64_t i = wk.image;
            ++result.commits;
            if (trace_) {
                const int64_t depth_t = depth_l;
                int64_t track = trace_base_;
                const char *cat = "forward";
                switch (wk.action) {
                  case Action::Forward:
                    track += wk.stage;
                    break;
                  case Action::Seed:
                    track += depth_t;
                    cat = "error_seed";
                    break;
                  case Action::Backward:
                    track += depth_t + 1 + (depth_t - wk.stage);
                    cat = "backward";
                    break;
                }
                trace_->complete(track, "img" + std::to_string(i), cat,
                                 trace_cycle_base_ + cycle - 1,
                                 /*duration=*/1, i);
            }
            switch (wk.action) {
              case Action::Forward:
                ++result.forward_ops;
                d_buf[static_cast<size_t>(wk.stage + 1)][i] =
                    std::move(wk.forward_out);
                check_capacity(wk.stage + 1);
                // The image advances one stage per cycle: next
                // forward, or the error seed past the last stage.
                if (wk.stage + 1 < depth_l) {
                    queue.schedule(cycle + 1,
                                   {EvKind::Forward, i, wk.stage + 1});
                } else {
                    queue.schedule(cycle + 1, {EvKind::Seed, i, 0});
                }
                break;
              case Action::Seed:
                ++result.error_seeds;
                result.mean_loss += wk.loss;
                delta_buf[static_cast<size_t>(depth_l - 1)][i] =
                    std::move(wk.delta);
                // d_L's last use: free the slot now (read-before-
                // write within the cycle).
                d_buf[static_cast<size_t>(depth_l)].erase(i);
                queue.schedule(cycle + 1,
                               {EvKind::Backward, i, depth_l});
                break;
              case Action::Backward:
                ++result.backward_ops;
                if (wk.stage >= 2) {
                    delta_buf[static_cast<size_t>(wk.stage - 2)][i] =
                        std::move(wk.delta);
                }
                // Last uses of d_{l-1} and δ_l for this image: free
                // the slots before any younger image writes them.
                d_buf[static_cast<size_t>(wk.stage - 1)].erase(i);
                delta_buf[static_cast<size_t>(wk.stage - 1)].erase(i);
                if (wk.stage >= 2) {
                    queue.schedule(cycle + 1,
                                   {EvKind::Backward, i, wk.stage - 1});
                }
                break;
            }
        }

        for (const auto &buf : delta_buf) {
            PL_ASSERT(buf.size() <= 1,
                      "delta buffer exceeded its single entry");
        }
    }

    // Update cycle: apply the batch-averaged gradients.
    for (auto &stage : stages_) {
        const auto params = stage->array_layer->parameters();
        const float scale = lr / static_cast<float>(batch);
        for (int64_t i = 0; i < params[0]->numel(); ++i)
            params[0]->at(i) -= scale * stage->weight_grad.at(i);
        for (int64_t i = 0; i < params[1]->numel(); ++i)
            params[1]->at(i) -= scale * stage->bias_grad.at(i);
    }
    if (trace_) {
        // The update occupies the schedule's final logical cycle, so
        // the trace spans exactly logical_cycles per batch.
        trace_->complete(trace_base_ + 2 * depth_l + 1, "update",
                         "update",
                         trace_cycle_base_ + total_cycles - 1);
        trace_cycle_base_ += total_cycles;
    }

    stat_cycles_ += static_cast<double>(total_cycles);
    stat_batches_ += 1.0;
    stat_forward_ops_ += static_cast<double>(result.forward_ops);
    stat_error_seeds_ += static_cast<double>(result.error_seeds);
    stat_backward_ops_ += static_cast<double>(result.backward_ops);
    stat_commits_ += static_cast<double>(result.commits);
    stat_updates_ += static_cast<double>(depth_l);

    result.mean_loss /= static_cast<double>(batch);
    return result;
}

} // namespace core
} // namespace pipelayer
