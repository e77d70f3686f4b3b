#include "serving_replay.hh"

#include <cmath>

#include "arch/pipeline.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "sim/job.hh"
#include "workloads/model_zoo.hh"

namespace perfbench {

namespace pl = pipelayer;

namespace {

constexpr int64_t kRequests = 2000;
constexpr double kRate = 0.5; // requests per cycle
constexpr size_t kPoolSessions = 8;
constexpr uint64_t kPinnedSeed = 2017; // the canonical session's seed

/** NDJSON request lines of one session with Poisson arrivals. */
std::vector<std::string>
makeSession(uint64_t seed, int64_t first_id)
{
    pl::Rng rng(seed);
    std::vector<std::string> lines;
    lines.reserve(kRequests);
    double t = 0.0;
    for (int64_t i = 0; i < kRequests; ++i) {
        // 1 - uniform() lies in (0, 1], so the log is finite.
        t += -std::log(1.0 - rng.uniform()) / kRate;
        lines.push_back("{\"id\":" + std::to_string(first_id + i) +
                        ",\"arrival_cycle\":" +
                        std::to_string(static_cast<int64_t>(t)) + "}");
    }
    return lines;
}

pl::sim::ServingConfig
servingConfig()
{
    pl::sim::ServingConfig config;
    config.queue_capacity = 64;
    config.max_wait_cycles = 32;
    return config;
}

} // namespace

ServeTotals
pinnedServeTotals()
{
    return {16372, 400, 0};
}

ServingReplay::ServingReplay(uint64_t seed)
    : spec_(pl::workloads::mnistA()), sim_(spec_, params_)
{
    for (size_t s = 0; s < kPoolSessions; ++s) {
        pool_.push_back(makeSession(seed * kPoolSessions + s,
                                    static_cast<int64_t>(s) * kRequests));
    }
}

ServeTotals
ServingReplay::serve(const std::vector<std::string> &lines, Tracer *tracer,
                     Checks &checks, pl::sim::ServingReport &report) const
{
    pl::sim::ArrivalTrace trace;
    {
        Tracer::Span span(tracer, "common.json.parse");
        std::vector<int64_t> cycles;
        cycles.reserve(lines.size());
        for (const std::string &line : lines)
            cycles.push_back(pl::json::parse(line).at("arrival_cycle").asInt());
        trace = pl::sim::ArrivalTrace::replay(std::move(cycles));
    }
    {
        Tracer::Span span(tracer, "sim.serve_run");
        report = sim_.run(trace, servingConfig());
    }
    {
        Tracer::Span span(tracer, "sim.emit");
        std::string sink;
        for (const pl::sim::CompletionRecord &rec : report.completions) {
            sink += rec.toJson().dump();
            sink += '\n';
        }
        sink += report.toJson().dump();
        sink += '\n';
    }
    const auto n = static_cast<int64_t>(lines.size());
    checks.expect(report.arrival_count == n &&
                      report.admitted_count + report.shed_count == n &&
                      static_cast<int64_t>(report.completions.size()) == n,
                  "serving admitted + shed = completions = arrivals");
    checks.expect(report.p50_latency_cycles <= report.p95_latency_cycles &&
                      report.p95_latency_cycles <=
                          report.p99_latency_cycles &&
                      report.p99_latency_cycles <= report.max_latency_cycles,
                  "serving latency percentiles are ordered");
    ServeTotals totals;
    for (const pl::sim::CompletionRecord &rec : report.completions)
        totals.latency_cycles += rec.admitted ? rec.latency_cycles : 0;
    totals.batches = report.batch_count;
    totals.shed = report.shed_count;
    return totals;
}

void
ServingReplay::run(Tracer &tracer, double seconds, Checks &checks)
{
    // ServingSim::run executes the admitted schedule twice
    // (Simulator::run(Job) for the report, then PipelineScheduler for
    // the stats); arch.schedule replays both calls from the session's
    // entry cycles and checks them against the report.
    const pl::sim::Simulator simulator(spec_, params_);
    std::vector<ServeTotals> first(kPoolSessions);
    const double t0 = nowSec();
    for (int round = 0; round < 2 || nowSec() - t0 < seconds; ++round) {
        for (size_t s = 0; s < kPoolSessions; ++s) {
            pl::sim::ServingReport report;
            const ServeTotals totals =
                serve(pool_[s], &tracer, checks, report);
            if (round == 0)
                first[s] = totals;
            checks.expect(totals == first[s],
                          "serving session totals repeat");

            pl::sim::Job job;
            job.network = spec_.name;
            job.batch_size = report.config.max_batch;
            job.num_images = report.admitted_count;
            std::vector<int64_t> entries;
            for (const auto &rec : report.completions) {
                if (rec.admitted)
                    entries.push_back(rec.entry_cycle);
            }
            job.arrivals = pl::sim::ArrivalTrace::replay(std::move(entries));
            Tracer::Span span(&tracer, "arch.schedule");
            const pl::sim::SimReport execution = simulator.run(job);
            pl::arch::PipelineScheduler scheduler(
                simulator.mapping(job.config()), job.schedule());
            pl::arch::ScheduleStats stats;
            {
                Tracer::Span run_span(&tracer, "arch.scheduler_run");
                stats = scheduler.run();
            }
            const int64_t ops =
                stats.forward_ops + stats.error_ops + stats.derivative_ops;
            checks.expect(
                execution.logical_cycles ==
                        report.execution.logical_cycles &&
                    stats.total_cycles == report.sched.total_cycles &&
                    ops == report.sched.forward_ops +
                               report.sched.error_ops +
                               report.sched.derivative_ops &&
                    stats.structural_hazards == 0,
                "serving schedule replay matches the report");
            replayed_ops_ += ops;
            if (round == 0) {
                batches_ += report.batch_count;
                ops_ += ops;
            }
        }
    }
}

void
ServingReplay::checkCanonical(const ServeTotals &pinned, Checks &checks) const
{
    pl::sim::ServingReport report;
    const ServeTotals got =
        serve(makeSession(kPinnedSeed, 0), nullptr, checks, report);
    checks.expect(got == pinned,
                  "serving canonical session totals (latency " +
                      std::to_string(got.latency_cycles) + ", batches " +
                      std::to_string(got.batches) + ", shed " +
                      std::to_string(got.shed) +
                      ") equal the pinned values");
}

void
ServingReplay::metrics(const SpanTotals &spans, std::vector<Metric> &out) const
{
    const SpanTotal run = spanTotal(spans, "sim.serve_run");
    const SpanTotal sched = spanTotal(spans, "arch.schedule");
    const double sessions = static_cast<double>(run.calls);
    const double reqs = sessions * static_cast<double>(kRequests);
    out.push_back({"common.json.parse_us_per_req", "us",
                   spanTotal(spans, "common.json.parse").incl_ms * 1e3 /
                       reqs});
    out.push_back({"sim.emit_us_per_req", "us",
                   spanTotal(spans, "sim.emit").incl_ms * 1e3 / reqs});
    out.push_back({"sim.serve_run_ms", "ms", run.incl_ms / sessions});
    out.push_back({"arch.schedule_ms", "ms", sched.incl_ms / sessions});
    out.push_back({"sim.policy_self_ms", "ms",
                   (run.incl_ms - sched.incl_ms) / sessions});
    out.push_back({"sim.batches", "count",
                   static_cast<double>(batches_) / kPoolSessions});
    out.push_back({"arch.serve_ops", "count",
                   static_cast<double>(ops_) / kPoolSessions});
    out.push_back({"arch.serve_host_ns_per_op", "ns",
                   spanTotal(spans, "arch.scheduler_run").incl_ms * 1e6 /
                       static_cast<double>(replayed_ops_)});
}

} // namespace perfbench
