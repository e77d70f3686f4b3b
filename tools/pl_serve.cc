/**
 * @file
 * pl_serve: the inference-serving request daemon (docs/serving.md).
 *
 * Feeds a request stream through one persistently mapped network
 * (sim::ServingSim): admission with backpressure, batch coalescing
 * toward the (N/B)(2L+B+1) sweet spot, execution on the event-queue
 * scheduler.  Requests come from an ArrivalTrace JSON file
 * (--arrivals=FILE, the deterministic / replayable path CI uses) or
 * as newline-delimited JSON on stdin, one request per line:
 *
 *   {"id": 0, "arrival_cycle": 0}
 *   {"id": 1, "arrival_cycle": 7}
 *
 * Arrival cycles must be non-decreasing (ids are optional labels;
 * requests are indexed in arrival order).  Output is one completion
 * record per request as NDJSON (stdout, or --completions=FILE) and a
 * serving summary — queue depths, batch-size histogram, shed counts,
 * p50/p95/p99 latency in logical cycles, and the embedded execution
 * SimReport — as JSON (--json=FILE) plus a human-readable digest on
 * stderr.  Under PL_PROFILE=1 the summary also embeds the host
 * profile (prof::Report) as a "profile" member.
 *
 * Telemetry (docs/observability.md, "Serving telemetry"):
 * --trace=FILE writes the request-lifecycle Chrome trace (per-request
 * async spans, request->batch flow arrows, queue/in-flight/shed
 * counter tracks, plus the pipeline timeline) and --metrics=FILE the
 * windowed NDJSON time series sampled every --metrics-interval=N
 * logical cycles.  Every artifact is logical-cycle arithmetic, so two
 * runs of the same trace are byte-identical at any PL_THREADS — the
 * property the CI serving smoke gates.
 *
 * Exit status: 0 on success, 1 on bad usage or malformed input.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/prof.hh"
#include "common/trace.hh"
#include "reram/params.hh"
#include "sim/arrival.hh"
#include "sim/serving.hh"
#include "workloads/model_zoo.hh"

namespace {

using namespace pipelayer;

void
usage(std::ostream &os)
{
    os << "usage: pl_serve [--network=NAME] [--arrivals=FILE]\n"
          "                [--queue-capacity=N] [--max-batch=N]\n"
          "                [--max-wait=N] [--completions=FILE]\n"
          "                [--json=FILE] [--trace=FILE]\n"
          "                [--metrics=FILE] [--metrics-interval=N]\n"
          "                [--quiet]\n"
          "\n"
          "Serve a request stream through a mapped network.  Requests\n"
          "come from an ArrivalTrace JSON file (--arrivals) or from\n"
          "stdin as NDJSON lines {\"id\": N, \"arrival_cycle\": N}\n"
          "with non-decreasing arrival cycles.  Completion records\n"
          "stream as NDJSON to stdout (or --completions); the summary\n"
          "JSON goes to --json, and a human digest to stderr\n"
          "(suppressed by --quiet).\n"
          "\n"
          "Telemetry: --trace writes the request-lifecycle Chrome\n"
          "trace (open in Perfetto), --metrics the windowed NDJSON\n"
          "time series sampled every --metrics-interval logical\n"
          "cycles (default 64; see tools/pl_report).\n";
}

/** Parse stdin NDJSON requests into a replay trace. */
sim::ArrivalTrace
traceFromStdin(std::istream &in)
{
    std::vector<int64_t> cycles;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Skip blank lines so `echo >>` style feeds are forgiving.
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        json::Value v;
        try {
            v = json::parse(line);
        } catch (const json::ParseError &err) {
            throw ConfigError("stdin line " + std::to_string(lineno) +
                              ": " + err.what());
        }
        const json::Value *cycle =
            v.isObject() ? v.find("arrival_cycle") : nullptr;
        if (!cycle || !cycle->isNumber()) {
            throw ConfigError(
                "stdin line " + std::to_string(lineno) +
                ": expected {\"arrival_cycle\": <cycle>, ...}");
        }
        try {
            cycles.push_back(cycle->asInt());
        } catch (const ConfigError &err) {
            throw ConfigError("stdin line " + std::to_string(lineno) +
                              ": arrival_cycle: " + err.what());
        }
    }
    return sim::ArrivalTrace::replay(std::move(cycles));
}

/** Load an ArrivalTrace description from a JSON file. */
sim::ArrivalTrace
traceFromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot open trace file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return sim::ArrivalTrace::fromJson(json::parse(text.str()));
    } catch (const json::ParseError &err) {
        throw ConfigError("trace file '" + path + "': " + err.what());
    }
}

int
serveMain(int argc, char **argv)
{
    ArgParser args(argc, argv);
    if (args.flag("help")) {
        usage(std::cout);
        return 0;
    }
    args.rejectUnknown({"network", "arrivals", "queue-capacity",
                        "max-batch", "max-wait", "completions", "json",
                        "trace", "metrics", "metrics-interval", "quiet",
                        "help"});

    const std::string network = args.str("network", "Mnist-A");
    sim::ServingConfig config;
    config.queue_capacity =
        args.integer("queue-capacity", config.queue_capacity);
    config.max_batch = args.integer("max-batch", config.max_batch);
    config.max_wait_cycles =
        args.integer("max-wait", config.max_wait_cycles);

    const std::string arrivals_path = args.str("arrivals");
    const sim::ArrivalTrace trace = arrivals_path.empty()
                                        ? traceFromStdin(std::cin)
                                        : traceFromFile(arrivals_path);

    const std::string trace_path = args.str("trace");
    const std::string metrics_path = args.str("metrics");
    trace::TraceRecorder recorder("pl_serve " + network);
    metrics::Sampler sampler(args.integer("metrics-interval", 64));

    const workloads::NetworkSpec spec =
        workloads::networkByName(network);
    const reram::DeviceParams params;
    const sim::ServingSim serving(spec, params);
    const sim::ServingReport report = serving.run(
        trace, config, trace_path.empty() ? nullptr : &recorder,
        metrics_path.empty() ? nullptr : &sampler);

    if (!trace_path.empty())
        recorder.writeFile(trace_path);
    if (!metrics_path.empty())
        sampler.writeFile(metrics_path);

    // Completion records: NDJSON, one line per request in arrival
    // order, shed requests included (admitted: false).
    const std::string completions_path = args.str("completions");
    std::ofstream completions_file;
    if (!completions_path.empty()) {
        completions_file.open(completions_path);
        if (!completions_file) {
            throw ConfigError("cannot write completions file '" +
                              completions_path + "'");
        }
    }
    std::ostream &records =
        completions_path.empty() ? std::cout : completions_file;
    for (const sim::CompletionRecord &rec : report.completions)
        records << rec.toJson().dump() << "\n";

    const std::string json_path = args.str("json");
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            throw ConfigError("cannot write summary file '" +
                              json_path + "'");
        }
        json::Value summary = report.toJson();
        // Host-profile sidecar: wall-clock numbers, so only under
        // PL_PROFILE=1 and never in the gated logical-cycle fields.
        if (prof::enabled())
            summary["profile"] = prof::snapshot().toJson();
        summary.write(out, 2);
        out << "\n";
    }
    if (!args.flag("quiet"))
        report.print(std::cerr);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return serveMain(argc, argv);
    } catch (const pipelayer::ConfigError &err) {
        std::cerr << "pl_serve: " << err.what() << "\n";
        return 1;
    }
}
