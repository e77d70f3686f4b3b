/**
 * @file
 * The pl_serve pipeline, replayed call by call in design_sweep's
 * traced run: json::parse of NDJSON request lines, ServingSim::run
 * (Mnist-A, queue 64, max wait 32), and the emission of every
 * completion record and the report into an in-memory sink.
 *
 * Serving is not a timed workload of its own: on the shared host its
 * sessions' median time moved by up to 30% between runs (see
 * perfbench/README.md), so it is measured per layer only, and its
 * canonical session's totals are checked in every design_sweep run.
 */

#ifndef PERFBENCH_SERVING_REPLAY_HH_
#define PERFBENCH_SERVING_REPLAY_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "reram/params.hh"
#include "sim/serving.hh"
#include "workloads/layer_spec.hh"

namespace perfbench {

/** Deterministic totals of one serving session. */
struct ServeTotals
{
    int64_t latency_cycles = 0; //!< summed over admitted requests
    int64_t batches = 0;
    int64_t shed = 0;

    bool operator==(const ServeTotals &) const = default;
};

/** Totals of the canonical session, pinned at the defining commit. */
ServeTotals pinnedServeTotals();

/** Sessions of Poisson arrivals at 0.5 requests per cycle. */
class ServingReplay
{
  public:
    explicit ServingReplay(uint64_t seed);

    /**
     * Serve the session pool for about @p seconds with spans around
     * each public call, checking every session into @p checks.  The
     * tracer should be the serving replay's own: its span names
     * ("arch.schedule") are not unique across replays.
     */
    void run(Tracer &tracer, double seconds, Checks &checks);

    /** Serve the canonical session and compare it with @p pinned. */
    void checkCanonical(const ServeTotals &pinned, Checks &checks) const;

    /** The serving per-layer metrics from run()'s spans. */
    void metrics(const SpanTotals &spans, std::vector<Metric> &out) const;

  private:
    ServeTotals serve(const std::vector<std::string> &lines, Tracer *tracer,
                      Checks &checks, pipelayer::sim::ServingReport &report)
        const;

    pipelayer::workloads::NetworkSpec spec_;
    pipelayer::reram::DeviceParams params_;
    pipelayer::sim::ServingSim sim_;
    std::vector<std::vector<std::string>> pool_;
    int64_t batches_ = 0;      //!< over the pool's first round
    int64_t ops_ = 0;          //!< over the pool's first round
    int64_t replayed_ops_ = 0; //!< over every round
};

} // namespace perfbench

#endif // PERFBENCH_SERVING_REPLAY_HH_
