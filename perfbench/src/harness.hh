/**
 * @file
 * The benchmark harness: workload interface, timed loop, percentile
 * rule, correctness accounting and the result line.
 *
 * One run is one process: set up and warm up (untimed), then either
 * an untraced timed loop that yields the end-to-end metrics (set-up
 * is timed on a second instance between its steps), or the traced
 * sequence that yields the per-layer metrics.  See
 * perfbench/README.md.
 */

#ifndef PERFBENCH_HARNESS_HH_
#define PERFBENCH_HARNESS_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** Threads every run uses: half of the 4-core host it was tuned on. */
constexpr int64_t kThreads = 2;

/** Fewest samples that must rank beyond a printed percentile. */
constexpr int64_t kMinBeyond = 10;

/** Seconds on the steady clock. */
double nowSec();

/**
 * Correctness accounting.  Every check is one attempted operation;
 * the run's pass rate is 1 - failed/attempted and any failure makes
 * the command exit non-zero.
 */
class Checks
{
  public:
    /** Count one check; report it on stderr when it fails. */
    void expect(bool ok, const std::string &what);

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }

  private:
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** A metric's name and unit, as declared in BENCHMARK.json. */
struct MetricDecl
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, printed by every untraced run. */
const std::vector<MetricDecl> &endToEndMetrics();

/**
 * The per-layer metrics, printed by every traced run.  A layer that
 * the workload never calls reads 0.
 */
const std::vector<MetricDecl> &perLayerMetrics();

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Samples that rank beyond the nearest-rank @p p-th percentile. */
int64_t samplesBeyond(size_t n, double p);

/**
 * Nearest-rank @p p-th percentile of @p samples, or nullopt when
 * fewer than kMinBeyond samples rank beyond it (the percentile is
 * then too close to the maximum to be repeatable).
 */
std::optional<double> percentile(std::vector<double> samples, double p);

/** What one workload does; the harness owns timing and output. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Timed repetitions of setUp(); setup_s is their median. */
    virtual int setUpReps() const = 0;

    /** Build fresh state from the generated inputs. */
    virtual void setUp() = 0;

    /** Untimed work that lets caches and lazy set-up settle. */
    virtual void warmUp() = 0;

    /**
     * One step; returns the items it completed.  Spans around the
     * calls it makes are recorded into @p tracer when non-null.
     */
    virtual int64_t step(Tracer *tracer) = 0;

    /**
     * Whether a timed loop may stop after the last step: a workload
     * whose steps are of several kinds stops only on whole rounds so
     * that its step mix is fixed.
     */
    virtual bool mixComplete() const { return true; }

    /**
     * Traced runs only: call single layers' public functions directly
     * for about @p seconds, with the step's shapes, and run the
     * workload's replay paths (crossbar_replay.hh, serving_replay.hh).
     */
    virtual void replay(Tracer &tracer, double seconds) = 0;

    /** End-of-run checks: pinned values and accuracy floors. */
    virtual void finish() = 0;

    /**
     * Per-layer metrics of this workload from the spans of @p steps
     * traced steps and of the replay.
     */
    virtual void layerMetrics(const SpanTotals &step_spans,
                              int64_t steps,
                              const SpanTotals &replay_spans,
                              std::vector<Metric> &out) const = 0;

    Checks checks;
};

/** The workload called @p name with inputs generated from @p seed. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

std::unique_ptr<Workload> makeTrainCnn(uint64_t seed);
std::unique_ptr<Workload> makeDesignSweep(uint64_t seed);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

/**
 * Run one workload and print its report; the last line is the JSON
 * result.  Returns the process exit code (non-zero on any failed
 * check).
 */
int runBenchmark(const Options &options, std::ostream &out);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH_
