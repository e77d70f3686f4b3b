/**
 * @file
 * PipeLayer training on the crossbar model (paper §4), replayed call
 * by call in train_cnn's traced run: Mnist-A (784-100-10) programmed
 * into a core::PipeLayerDevice, one Train call on a B=4 batch, forward
 * reads, and the 784x100 layer's reram::ArrayGroup kernels.
 *
 * Crossbar training is not a timed workload of its own: at 2 threads
 * on the shared host its median step time moved by 27-37% between
 * runs (see perfbench/README.md), so it is measured per layer only.
 */

#ifndef PERFBENCH_CROSSBAR_REPLAY_HH_
#define PERFBENCH_CROSSBAR_REPLAY_HH_

#include <array>
#include <cstdint>
#include <vector>

#include "core/device.hh"
#include "harness.hh"

namespace perfbench {

class CrossbarReplay
{
  public:
    explicit CrossbarReplay(uint64_t seed);

    /** Replay for about @p seconds, checking losses into @p checks. */
    void run(Tracer &tracer, double seconds, Checks &checks);

    /** The core and reram per-layer metrics from run()'s spans. */
    void metrics(const SpanTotals &spans, std::vector<Metric> &out) const;

  private:
    uint64_t seed_;
    pipelayer::core::PipeLayerConfig config_;
    std::vector<pipelayer::nn::Dataset> batches_;
    std::array<int64_t, 4> counts_{}; //!< activity of one Train call
};

} // namespace perfbench

#endif // PERFBENCH_CROSSBAR_REPLAY_HH_
