/**
 * @file
 * design_sweep: the Fig. 15-17 design points.  One step is one point.
 * A round is the ten evaluation networks each run three ways, in a
 * fixed order: Simulator::run testing (N=1024), Simulator::run
 * training (B=64, N=1024) and runCluster training on 4 chips; plus
 * one Fig. 17 point, VGG-E testing with G=1 on every layer.
 *
 * Why: this is the workload of arch and sim: training-phase schedules
 * (update cycles and buffers), cluster aggregation and deep pipelines
 * (VGG-E has 19 array layers).  The points are fixed by the figures,
 * so the seed does not change them; it seeds the traced run's replay
 * of the pl_serve pipeline (serving_replay.hh), which schedules
 * forward passes of a 2-layer network.
 */

#include <string>
#include <vector>

#include "arch/granularity.hh"
#include "arch/pipeline.hh"
#include "baseline/gpu_model.hh"
#include "harness.hh"
#include "serving_replay.hh"
#include "reram/params.hh"
#include "sim/job.hh"
#include "sim/simulator.hh"
#include "workloads/model_zoo.hh"

namespace perfbench {

namespace pl = pipelayer;

namespace {

constexpr int64_t kImages = 1024;
constexpr int64_t kBatch = 64;
constexpr int64_t kChips = 4;

/** How a design point runs. */
enum class Way { Testing, Training, Cluster };

/**
 * Cycle counts at this benchmark's defining commit, per network in
 * evaluationNetworks() order: testing logical cycles, training
 * logical cycles, 4-chip cluster total cycles.
 */
constexpr int64_t kPinnedCycles[10][3] = {
    {1025, 1104, 354}, // Mnist-A
    {1026, 1136, 410}, // Mnist-B
    {1027, 1168, 483}, // Mnist-C
    {1027, 1168, 417}, // Mnist-0
    {1031, 1296, 575}, // AlexNet
    {1034, 1392, 644}, // VGG-A
    {1036, 1456, 693}, // VGG-B
    {1039, 1552, 789}, // VGG-C
    {1039, 1552, 790}, // VGG-D
    {1042, 1648, 886}, // VGG-E
};

/** VGG-E testing at G=1 everywhere: Fig. 17's lambda = 0 end. */
constexpr int64_t kPinnedG1Cycles = 1042;

pl::sim::Job
makeJob(const pl::workloads::NetworkSpec &spec, Way way)
{
    pl::sim::Job job;
    job.network = spec.name;
    job.phase = way == Way::Testing ? pl::sim::Phase::Testing
                                    : pl::sim::Phase::Training;
    job.batch_size = kBatch;
    job.num_images = kImages;
    job.num_chips = way == Way::Cluster ? kChips : 1;
    return job;
}

class DesignSweep : public Workload
{
  public:
    explicit DesignSweep(uint64_t seed) : serving_(seed) {}

    int setUpReps() const override { return 101; }

    void setUp() override
    {
        // A round is 31 points: an odd count puts p50 and p95 inside
        // one kind of point rather than on the boundary of two.
        specs_ = pl::workloads::evaluationNetworks();
        sims_.clear();
        points_.clear();
        for (size_t n = 0; n < specs_.size(); ++n) {
            sims_.emplace_back(specs_[n], params_);
            for (const Way way : {Way::Testing, Way::Training, Way::Cluster})
                points_.push_back({n, way,
                                   kPinnedCycles[n][static_cast<int>(way)]});
        }
        const pl::workloads::NetworkSpec vgg_e = specs_.back();
        specs_.push_back(vgg_e);
        sims_.emplace_back(
            vgg_e, params_,
            pl::arch::GranularityConfig::balanced(vgg_e).scaled(vgg_e, 0.0));
        points_.push_back({specs_.size() - 1, Way::Testing, kPinnedG1Cycles});
        next_ = 0;
    }

    void warmUp() override
    {
        for (size_t p = 0; p < points_.size(); ++p)
            step(nullptr);
    }

    int64_t step(Tracer *tracer) override
    {
        runPoint(points_[next_], tracer);
        next_ = (next_ + 1) % points_.size();
        return kImages;
    }

    bool mixComplete() const override { return next_ == 0; }

    void replay(Tracer &tracer, double seconds) override
    {
        // Single-chip points only: mapping, one schedule execution,
        // the GPU baseline and the report's JSON, call by call.
        const pl::baseline::GpuModel gpu;
        const double t0 = nowSec();
        for (int round = 0; round < 2 || nowSec() - t0 < seconds / 2;
             ++round) {
            for (const Point &p : points_) {
                if (p.way == Way::Cluster)
                    continue;
                const pl::sim::Simulator &sim = sims_[p.sim];
                const pl::sim::Job job = makeJob(specs_[p.sim], p.way);
                const pl::sim::SimReport report = sim.run(job);
                Tracer::Span span(&tracer, "replay.point");
                const pl::arch::NetworkMapping map = [&] {
                    Tracer::Span s(&tracer, "arch.mapping");
                    return sim.mapping(job.config());
                }();
                pl::arch::PipelineScheduler scheduler(map, job.schedule());
                pl::arch::ScheduleStats stats;
                {
                    Tracer::Span s(&tracer, "arch.schedule");
                    stats = scheduler.run();
                }
                checks.expect(stats.total_cycles == report.logical_cycles,
                              "design_sweep schedule replay cycles");
                const int64_t ops = stats.forward_ops + stats.error_ops +
                                    stats.derivative_ops;
                replayed_ops_ += ops;
                if (round == 0) {
                    ops_ += ops;
                    ++op_points_;
                }
                {
                    Tracer::Span s(&tracer, "baseline.gpu");
                    if (p.way == Way::Testing)
                        gpu.testing(specs_[p.sim]);
                    else
                        gpu.training(specs_[p.sim]);
                }
                Tracer::Span s(&tracer, "sim.report_json");
                report.toJson().dump();
            }
        }
        Tracer serving_tracer;
        serving_.run(serving_tracer, seconds / 2, checks);
        serving_spans_ = serving_tracer.summarize();
    }

    void finish() override
    {
        serving_.checkCanonical(pinnedServeTotals(), checks);
    }

    void layerMetrics(const SpanTotals &step_spans, int64_t,
                      const SpanTotals &replay_spans,
                      std::vector<Metric> &out) const override
    {
        const auto mean = [](const SpanTotal &t) {
            return t.calls ? t.incl_ms / static_cast<double>(t.calls) : 0.0;
        };
        out.push_back({"sim.run_test_ms", "ms",
                       mean(spanTotal(step_spans, "sim.run_test"))});
        out.push_back({"sim.run_train_ms", "ms",
                       mean(spanTotal(step_spans, "sim.run_train"))});
        out.push_back({"arch.cluster_ms", "ms",
                       mean(spanTotal(step_spans, "arch.cluster"))});
        out.push_back({"arch.mapping_us", "us",
                       mean(spanTotal(replay_spans, "arch.mapping")) * 1e3});
        out.push_back({"baseline.gpu_us", "us",
                       mean(spanTotal(replay_spans, "baseline.gpu")) * 1e3});
        out.push_back({"sim.report_json_us", "us",
                       mean(spanTotal(replay_spans, "sim.report_json")) *
                           1e3});
        out.push_back({"arch.ops", "count",
                       static_cast<double>(ops_) /
                           static_cast<double>(op_points_)});
        out.push_back({"arch.host_ns_per_op", "ns",
                       spanTotal(replay_spans, "arch.schedule").incl_ms *
                           1e6 / static_cast<double>(replayed_ops_)});
        serving_.metrics(serving_spans_, out);
    }

  private:
    struct Point
    {
        size_t sim; //!< index into specs_ and sims_
        Way way;
        int64_t pinned_cycles;
    };

    void runPoint(const Point &p, Tracer *tracer)
    {
        const pl::workloads::NetworkSpec &spec = specs_[p.sim];
        const pl::sim::Job job = makeJob(spec, p.way);
        const std::string at = " at " + spec.name + " way " +
                               std::to_string(static_cast<int>(p.way));
        int64_t cycles = 0;
        if (p.way == Way::Cluster) {
            pl::sim::ClusterReport report;
            {
                Tracer::Span span(tracer, "arch.cluster");
                report = sims_[p.sim].runCluster(job);
            }
            cycles = report.total_cycles;
            bool clean = report.chips.size() == kChips;
            for (const auto &chip : report.chips) {
                clean = clean && chip.structural_hazards == 0 &&
                        chip.buffer_violations == 0;
            }
            checks.expect(clean, "design_sweep cluster chips clean" + at);
        } else {
            pl::sim::SimReport report;
            {
                Tracer::Span span(tracer, p.way == Way::Testing
                                              ? "sim.run_test"
                                              : "sim.run_train");
                report = sims_[p.sim].run(job);
            }
            cycles = report.logical_cycles;
            checks.expect(report.structural_hazards == 0 &&
                              report.buffer_violations == 0,
                          "design_sweep hazard- and violation-free" + at);
            if (p.way == Way::Training) {
                // Table 2: (N/B)(2L+B+1) cycles for pipelined training.
                const int64_t depth = spec.pipelineDepth();
                checks.expect(cycles == kImages / kBatch *
                                            (2 * depth + kBatch + 1),
                              "design_sweep Table 2 training cycles" + at);
            }
        }
        checks.expect(cycles == p.pinned_cycles,
                      "design_sweep cycles " + std::to_string(cycles) +
                          " equal the pinned value" + at);
    }

    ServingReplay serving_;
    SpanTotals serving_spans_;
    pl::reram::DeviceParams params_;
    std::vector<pl::workloads::NetworkSpec> specs_;
    std::vector<pl::sim::Simulator> sims_;
    std::vector<Point> points_;
    size_t next_ = 0;
    int64_t ops_ = 0;           //!< over the replay's first round
    int64_t op_points_ = 0;
    int64_t replayed_ops_ = 0;  //!< over every replay round
};

} // namespace

std::unique_ptr<Workload>
makeDesignSweep(uint64_t seed)
{
    return std::make_unique<DesignSweep>(seed);
}

} // namespace perfbench
