#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/parallel.hh"
#include "common/prof.hh"

namespace perfbench {

namespace pl = pipelayer;

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        // Cap the noise: the count carries the rest.
        if (failed_ <= 20)
            std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

const std::vector<MetricDecl> &
endToEndMetrics()
{
    static const std::vector<MetricDecl> decls = {
        {"setup_s", "s"},
        {"items_per_s", "1/s"},
        {"step_ms_p50", "ms"},
        {"step_ms_p95", "ms"},
        {"peak_rss_mb", "MB"},
        {"pass_rate", "fraction"},
    };
    return decls;
}

const std::vector<MetricDecl> &
perLayerMetrics()
{
    static const std::vector<MetricDecl> decls = {
        // train_cnn: public ops:: kernels on C-4's shapes, per step.
        {"tensor.conv2d_fwd_ms", "ms"},
        {"tensor.conv2d_bwd_input_ms", "ms"},
        {"tensor.conv2d_bwd_kernel_ms", "ms"},
        {"tensor.im2col_ms", "ms"},
        {"tensor.fc_ms", "ms"},
        // train_cnn: the step driven layer by layer, per step.
        {"nn.conv.fwd_ms", "ms"},
        {"nn.conv.bwd_ms", "ms"},
        {"nn.pool_relu.fwd_ms", "ms"},
        {"nn.pool_relu.bwd_ms", "ms"},
        {"nn.fc.fwd_ms", "ms"},
        {"nn.fc.bwd_ms", "ms"},
        {"nn.loss_ms", "ms"},
        {"nn.update_ms", "ms"},
        // train_cnn replay: crossbar training (core, reram).
        {"core.weight_load_ms", "ms"},
        {"core.forward_ms_per_image", "ms"},
        {"core.train_self_ms_per_image", "ms"},
        {"reram.matvec_batch_ms", "ms"},
        {"reram.update_weights_ms", "ms"},
        {"reram.input_spikes", "count"},
        {"reram.mvm_ops", "count"},
        {"reram.write_pulses", "count"},
        {"reram.if_fires", "count"},
        // design_sweep.
        {"sim.run_test_ms", "ms"},
        {"sim.run_train_ms", "ms"},
        {"arch.cluster_ms", "ms"},
        {"arch.mapping_us", "us"},
        {"baseline.gpu_us", "us"},
        {"sim.report_json_us", "us"},
        {"arch.ops", "count"},
        {"arch.host_ns_per_op", "ns"},
        // design_sweep replay: the pl_serve pipeline (common, sim, arch).
        {"common.json.parse_us_per_req", "us"},
        {"sim.emit_us_per_req", "us"},
        {"sim.serve_run_ms", "ms"},
        {"arch.schedule_ms", "ms"},
        {"sim.policy_self_ms", "ms"},
        {"sim.batches", "count"},
        {"arch.serve_ops", "count"},
        {"arch.serve_host_ns_per_op", "ns"},
        // Every workload.
        {"common.pool.speedup_vs_1t", "ratio"},
        {"common.pool.busy_frac", "fraction"},
        {"common.cpu_ms_per_item", "ms"},
        {"host.calib_ms", "ms"},
        {"trace.overhead_frac", "fraction"},
    };
    return decls;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"train_cnn",
                                                   "design_sweep"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "train_cnn")
        return makeTrainCnn(seed);
    if (name == "design_sweep")
        return makeDesignSweep(seed);
    return nullptr;
}

int64_t
samplesBeyond(size_t n, double p)
{
    const auto rank = static_cast<int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return static_cast<int64_t>(n) - std::max<int64_t>(rank, 1);
}

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    if (samples.empty() || samplesBeyond(samples.size(), p) < kMinBeyond)
        return std::nullopt;
    const auto rank = static_cast<int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    const auto k = static_cast<size_t>(std::max<int64_t>(rank, 1) - 1);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

std::string
resultLine(bool correct, int64_t attempted, int64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char number[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(number, sizeof(number), "%.17g", metrics[i].value);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << number << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

namespace {

/** Wall time of a fixed integer loop: a host-speed reading. */
double
calibrateMs()
{
    // A serial dependency chain the compiler cannot shorten: its time
    // tracks the host core's speed, not the simulator's code.
    const double start = nowSec();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 50'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double ms = (nowSec() - start) * 1e3;
    volatile uint64_t sink = x;
    (void)sink;
    return ms;
}

/** Peak resident set of this process so far. */
double
peakRssMb()
{
    // VmHWM is this process image's own peak.  ru_maxrss survives
    // execve, so it would report the launching process's peak
    // whenever that is larger; it is the fallback off Linux only.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** User plus system CPU seconds of this process so far. */
double
cpuSeconds()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/** What one timed loop measured. */
struct Loop
{
    std::vector<double> step_ms;
    int64_t items = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;

    double itemsPerSec() const
    {
        return wall_s > 0.0 ? static_cast<double>(items) / wall_s : 0.0;
    }
};

/** Set-up repetitions of a second workload instance, and their times. */
struct SetUpSamples
{
    Workload *instance = nullptr;
    size_t reps = 0;
    std::vector<double> seconds;

    /** Time one repetition. */
    double take()
    {
        const double t0 = nowSec();
        instance->setUp();
        seconds.push_back(nowSec() - t0);
        return seconds.back();
    }
};

/**
 * Step until @p seconds have passed, at least @p min_steps steps have
 * run and the step mix is whole.  With @p setup, its repetitions are
 * spread evenly over the loop, which pauses while they run.
 */
Loop
timedLoop(Workload &w, double seconds, Tracer *tracer, size_t min_steps = 0,
          SetUpSamples *setup = nullptr)
{
    Loop loop;
    const double cpu0 = cpuSeconds();
    const double t0 = nowSec();
    double now = t0;
    double paused = 0.0;
    do {
        if (setup && setup->seconds.size() < setup->reps &&
            now - t0 - paused >= seconds *
                                     static_cast<double>(
                                         setup->seconds.size()) /
                                     static_cast<double>(setup->reps)) {
            paused += setup->take();
        }
        const double s = nowSec();
        loop.items += w.step(tracer);
        now = nowSec();
        loop.step_ms.push_back((now - s) * 1e3);
    } while (now - t0 - paused < seconds ||
             loop.step_ms.size() < min_steps || !w.mixComplete());
    loop.wall_s = now - t0 - paused;
    loop.cpu_s = cpuSeconds() - cpu0;
    while (setup && setup->seconds.size() < setup->reps)
        setup->take();
    return loop;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Pool busy time over the traced loop, as a share of its threads. */
double
poolBusyFrac(const pl::prof::Report &report, double wall_s)
{
    uint64_t busy_ns = 0;
    for (const auto &worker : report.pool.workers)
        busy_ns += worker.busy_ns;
    const double capacity_ns =
        wall_s * 1e9 * static_cast<double>(kThreads);
    return capacity_ns > 0.0 ? static_cast<double>(busy_ns) / capacity_ns
                             : 0.0;
}

/**
 * @p produced in the order of @p decls.  A declared metric that was
 * not produced reads 0 (a layer the workload never calls); pass_rate
 * is left for the caller to fill.  Undeclared, repeated or
 * non-finite metrics fail a check.
 */
std::vector<Metric>
arrange(const std::vector<Metric> &produced,
        const std::vector<MetricDecl> &decls, Checks &checks)
{
    std::map<std::string, const Metric *> by_name;
    for (const Metric &m : produced) {
        const bool declared =
            std::any_of(decls.begin(), decls.end(), [&](const auto &d) {
                return m.name == d.name && m.unit == d.unit;
            });
        checks.expect(declared && !by_name.count(m.name),
                      "metric " + m.name + " is declared once");
        checks.expect(std::isfinite(m.value),
                      "metric " + m.name + " is finite");
        by_name[m.name] = &m;
    }
    std::vector<Metric> ordered;
    for (const MetricDecl &d : decls) {
        const auto it = by_name.find(d.name);
        ordered.push_back({d.name, d.unit,
                           it == by_name.end() ? 0.0 : it->second->value});
    }
    return ordered;
}

} // namespace

int
runBenchmark(const Options &options, std::ostream &out)
{
    std::unique_ptr<Workload> w =
        makeWorkload(options.workload, options.seed);
    if (!w) {
        std::cerr << "perfbench: unknown workload '" << options.workload
                  << "'\n";
        return 2;
    }
    pl::setThreadCount(kThreads);
    pl::prof::setEnabled(false);

    const double calib_ms = calibrateMs();

    w->setUp();
    w->warmUp();

    std::vector<Metric> produced;
    if (!options.trace) {
        // Set-up is timed on a second instance, spread over the loop:
        // timed back to back at process start it read either of two
        // values, depending on the moment (README.md, Noise).
        std::unique_ptr<Workload> second =
            makeWorkload(options.workload, options.seed);
        SetUpSamples setup{second.get(),
                           static_cast<size_t>(w->setUpReps()), {}};
        // Enough steps for kMinBeyond samples beyond p95 even on a
        // host too slow to reach them in the given time.
        const Loop loop = timedLoop(*w, options.seconds, nullptr,
                                    20 * kMinBeyond, &setup);
        w->finish();
        const size_t steps = loop.step_ms.size();
        const auto p50 = percentile(loop.step_ms, 50);
        const auto p95 = percentile(loop.step_ms, 95);
        w->checks.expect(p50 && p95,
                         "at least " + std::to_string(kMinBeyond) +
                             " samples beyond p95 (got " +
                             std::to_string(samplesBeyond(steps, 95)) +
                             " of " + std::to_string(steps) + " steps)");
        out << "# " << options.workload << " seed=" << options.seed
            << " threads=" << pl::threadCount() << " steps=" << steps
            << " items=" << loop.items << " wall_s=" << loop.wall_s
            << " samples_beyond_p95=" << samplesBeyond(steps, 95)
            << " setup_reps=" << setup.seconds.size()
            << " host.calib_ms=" << calib_ms << "\n";
        produced = {
            {"setup_s", "s", median(setup.seconds)},
            {"items_per_s", "1/s", loop.itemsPerSec()},
            {"step_ms_p50", "ms", p50.value_or(0.0)},
            {"step_ms_p95", "ms", p95.value_or(0.0)},
            {"peak_rss_mb", "MB", peakRssMb()},
        };
    } else {
        // Untraced reference, traced at kThreads, traced at 1 thread,
        // then the direct layer calls; prof runs only while traced.
        const Loop plain = timedLoop(*w, 0.3 * options.seconds, nullptr);

        Tracer tracer;
        pl::prof::reset();
        pl::prof::setEnabled(true);
        const Loop traced = timedLoop(*w, 0.3 * options.seconds, &tracer);
        const double busy =
            poolBusyFrac(pl::prof::snapshot(), traced.wall_s);
        const SpanTotals step_spans = tracer.summarize();

        tracer.clear();
        pl::setThreadCount(1);
        const Loop serial = timedLoop(*w, 0.2 * options.seconds, &tracer);
        pl::setThreadCount(kThreads);
        pl::prof::setEnabled(false);

        tracer.clear();
        w->replay(tracer, 0.2 * options.seconds);
        const SpanTotals replay_spans = tracer.summarize();
        w->finish();

        const auto steps = static_cast<int64_t>(traced.step_ms.size());
        w->layerMetrics(step_spans, steps, replay_spans, produced);
        produced.push_back({"common.pool.speedup_vs_1t", "ratio",
                            traced.itemsPerSec() / serial.itemsPerSec()});
        produced.push_back({"common.pool.busy_frac", "fraction", busy});
        produced.push_back({"common.cpu_ms_per_item", "ms",
                            plain.cpu_s * 1e3 /
                                static_cast<double>(plain.items)});
        produced.push_back({"host.calib_ms", "ms", calib_ms});
        produced.push_back(
            {"trace.overhead_frac", "fraction",
             1.0 - traced.itemsPerSec() / plain.itemsPerSec()});
        out << "# " << options.workload << " seed=" << options.seed
            << " threads=" << kThreads << " traced_steps=" << steps
            << " untraced_items_per_s=" << plain.itemsPerSec()
            << " traced_items_per_s=" << traced.itemsPerSec()
            << " traced_1t_items_per_s=" << serial.itemsPerSec()
            << " host.calib_ms=" << calib_ms << "\n";
    }

    Checks &c = w->checks;
    std::vector<Metric> metrics = arrange(
        produced, options.trace ? perLayerMetrics() : endToEndMetrics(), c);
    for (Metric &m : metrics) {
        // Filled last, so that it counts every check of the run.
        if (m.name == "pass_rate") {
            m.value = 1.0 - static_cast<double>(c.failed()) /
                                static_cast<double>(
                                    std::max<int64_t>(c.attempted(), 1));
        }
    }
    const bool correct = c.failed() == 0;
    out << resultLine(correct, c.attempted(), c.failed(), metrics)
        << std::endl;
    return correct ? 0 : 1;
}

} // namespace perfbench
