/**
 * @file
 * Tests of the serving subsystem: arrival-trace generation and
 * replay, the Job description / execution split, and the
 * admission/coalescing/backpressure policy of sim::ServingSim —
 * including the determinism contract (byte-identical reports across
 * worker-thread counts) that lets CI gate serving latency metrics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/arrival.hh"
#include "sim/job.hh"
#include "sim/serving.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace sim {
namespace {

// ---------------------------------------------------------------------
// ArrivalTrace

TEST(ArrivalTrace, FixedReproducesBackToBackAndSpacedSchedules)
{
    const ArrivalTrace dense = ArrivalTrace::fixed(4, 1);
    EXPECT_EQ(dense.cycles(), (std::vector<int64_t>{0, 1, 2, 3}));
    const ArrivalTrace spaced = ArrivalTrace::fixed(4, 16);
    EXPECT_EQ(spaced.cycles(), (std::vector<int64_t>{0, 16, 32, 48}));
}

TEST(ArrivalTrace, GeneratorsAreSeedDeterministic)
{
    EXPECT_EQ(ArrivalTrace::poisson(256, 0.25, 7),
              ArrivalTrace::poisson(256, 0.25, 7));
    EXPECT_NE(ArrivalTrace::poisson(256, 0.25, 7),
              ArrivalTrace::poisson(256, 0.25, 8));
    EXPECT_EQ(ArrivalTrace::uniform(256, 1, 9, 7),
              ArrivalTrace::uniform(256, 1, 9, 7));
    EXPECT_EQ(ArrivalTrace::bursty(256, 8, 12, 7),
              ArrivalTrace::bursty(256, 8, 12, 7));
}

TEST(ArrivalTrace, TracesValidateAndBurstsShareCycles)
{
    for (const ArrivalTrace &t :
         {ArrivalTrace::poisson(512, 0.5, 1),
          ArrivalTrace::uniform(512, 0, 7, 1),
          ArrivalTrace::bursty(512, 16, 24, 1)}) {
        EXPECT_NO_THROW(t.validate());
        EXPECT_EQ(t.size(), 512);
        EXPECT_EQ(t.cycles().front(), 0);
    }
    // A burst is same-cycle arrivals by construction.
    const ArrivalTrace bursts = ArrivalTrace::bursty(32, 4, 10, 1);
    EXPECT_EQ(bursts.cycles()[0], bursts.cycles()[3]);
    EXPECT_LT(bursts.cycles()[3], bursts.cycles()[4]);
}

TEST(ArrivalTrace, JsonRoundTripsEveryKind)
{
    for (const ArrivalTrace &t :
         {ArrivalTrace::fixed(64, 3),
          ArrivalTrace::poisson(64, 0.125, 11),
          ArrivalTrace::uniform(64, 2, 5, 11),
          ArrivalTrace::bursty(64, 8, 6, 11),
          ArrivalTrace::replay({0, 0, 3, 9, 9, 40})}) {
        const ArrivalTrace back = ArrivalTrace::fromJson(t.toJson());
        EXPECT_EQ(back, t) << t.describe();
        EXPECT_EQ(back.toJson().dump(), t.toJson().dump())
            << t.describe();
    }
}

TEST(ArrivalTrace, RejectsBadDescriptions)
{
    EXPECT_THROW(ArrivalTrace::fixed(-1, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::fixed(4, 0), ConfigError);
    EXPECT_THROW(ArrivalTrace::poisson(4, 0.0, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::uniform(4, 5, 2, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::bursty(4, 0, 8, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::bursty(4, 2, 0, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::replay({3, 1}), ConfigError);
    EXPECT_THROW(ArrivalTrace::replay({-1, 2}), ConfigError);
    EXPECT_THROW(ArrivalTrace::fromJson(json::parse("{}")), ConfigError);
    EXPECT_THROW(
        ArrivalTrace::fromJson(json::parse("{\"kind\": \"laplace\"}")),
        ConfigError);
}

/** The ConfigError message fromJson raises for @p text. */
std::string
fromJsonError(const std::string &text)
{
    try {
        ArrivalTrace::fromJson(json::parse(text));
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "(no error)";
}

TEST(ArrivalTrace, FromJsonRejectsNonIntegerFieldsNamingTheValue)
{
    // Each integer field is checked, not truncated: 2.6 requests must
    // not silently run 2, and 1e30 or a negative seed must not reach
    // an undefined cast.
    const auto expectRejects = [](const std::string &text,
                                  const std::string &key,
                                  const std::string &value) {
        const std::string msg = fromJsonError(text);
        EXPECT_NE(msg.find(key), std::string::npos) << text << ": " << msg;
        EXPECT_NE(msg.find(value), std::string::npos)
            << text << ": " << msg;
    };
    expectRejects(R"({"kind":"fixed","num_requests":2.6,"interval":3})",
                  "num_requests", "2.6");
    expectRejects(R"({"kind":"fixed","num_requests":1e30,"interval":3})",
                  "num_requests", "1e+30");
    expectRejects(R"({"kind":"fixed","num_requests":4,"interval":1.5})",
                  "interval", "1.5");
    expectRejects(
        R"({"kind":"poisson","num_requests":4,"rate_per_cycle":0.5,)"
        R"("seed":-3})",
        "seed", "-3");
    expectRejects(
        R"({"kind":"poisson","num_requests":4,"rate_per_cycle":0.5,)"
        R"("seed":0.25})",
        "seed", "0.25");
    expectRejects(R"({"kind":"uniform","num_requests":4,"min_gap":1,)"
                  R"("max_gap":2.5,"seed":1})",
                  "max_gap", "2.5");
    expectRejects(R"({"kind":"bursty","num_requests":4,)"
                  R"("burst_size":-1e30,"mean_gap":2,"seed":1})",
                  "burst_size", "-1e+30");
    expectRejects(R"({"kind":"bursty","num_requests":4,"burst_size":2,)"
                  R"("mean_gap":2.75,"seed":1})",
                  "mean_gap", "2.75");

    // Exact integers written as doubles still parse.
    const ArrivalTrace t = ArrivalTrace::fromJson(json::parse(
        R"({"kind":"uniform","num_requests":4.0,"min_gap":1,)"
        R"("max_gap":3,"seed":7.0})"));
    EXPECT_EQ(t, ArrivalTrace::uniform(4, 1, 3, 7));
}

// ---------------------------------------------------------------------
// Job: the description / execution split

TEST(Job, JsonSchemaIsPinned)
{
    // The wire schema is a compatibility contract (docs/serving.md,
    // tools/json_lint): changing it is an API break and must be a
    // deliberate, versioned decision — hence a golden-string test.
    Job job;
    job.network = "Mnist-A";
    job.num_images = 256;
    EXPECT_EQ(job.toJson().dump(),
              "{\"job_version\":1,\"network\":\"Mnist-A\","
              "\"phase\":\"testing\",\"pipelined\":true,"
              "\"batch_size\":64,\"num_images\":256}");

    job.arrivals = ArrivalTrace::fixed(256, 4);
    EXPECT_EQ(job.toJson().dump(),
              "{\"job_version\":1,\"network\":\"Mnist-A\","
              "\"phase\":\"testing\",\"pipelined\":true,"
              "\"batch_size\":64,\"num_images\":256,"
              "\"arrivals\":{\"arrival_trace_version\":1,"
              "\"kind\":\"fixed\",\"num_requests\":256,"
              "\"interval\":4}}");
}

TEST(Job, JsonRoundTrips)
{
    Job job;
    job.network = "Mnist-B";
    job.phase = Phase::Training;
    job.batch_size = 32;
    job.num_images = 128;
    const Job back = Job::fromJson(job.toJson());
    EXPECT_EQ(back.toJson().dump(), job.toJson().dump());

    Job serving;
    serving.arrivals = ArrivalTrace::poisson(64, 0.5, 3);
    serving.num_images = 64;
    const Job sback = Job::fromJson(serving.toJson());
    EXPECT_EQ(sback.toJson().dump(), serving.toJson().dump());
}

TEST(Job, NumImagesImpliedByArrivals)
{
    const Job job = Job::fromJson(json::parse(
        "{\"phase\": \"testing\", \"arrivals\": {\"kind\": \"fixed\", "
        "\"num_requests\": 40, \"interval\": 2}}"));
    EXPECT_EQ(job.num_images, 40);
    EXPECT_EQ(job.arrivals.size(), 40);
}

TEST(Job, RejectsBadDescriptions)
{
    EXPECT_THROW(Job::fromJson(json::parse("{}")), ConfigError);
    EXPECT_THROW(
        Job::fromJson(json::parse("{\"phase\": \"predicting\", "
                                  "\"num_images\": 4}")),
        ConfigError);
    EXPECT_THROW(Job::fromJson(json::parse("{\"phase\": \"testing\"}")),
                 ConfigError);

    // Arrival traces are a serving (pipelined testing) description.
    Job job;
    job.num_images = 8;
    job.arrivals = ArrivalTrace::fixed(8, 2);
    EXPECT_NO_THROW(job.validate());
    job.phase = Phase::Training;
    job.batch_size = 8;
    EXPECT_THROW(job.validate(), ConfigError);
    job.phase = Phase::Testing;
    job.pipelined = false;
    EXPECT_THROW(job.validate(), ConfigError);
    job.pipelined = true;
    job.num_images = 9; // one arrival per image
    EXPECT_THROW(job.validate(), ConfigError);
}

TEST(Job, EquivalentToSimConfigOnEveryReportField)
{
    // The legacy SimConfig overload forwards through Job::fromConfig,
    // so the two entry points must be indistinguishable — compared on
    // the full serialised report, which covers every field.
    const Simulator simulator(workloads::mnistB(),
                              reram::DeviceParams());
    for (const bool training : {false, true}) {
        SimConfig config;
        config.phase = training ? Phase::Training : Phase::Testing;
        config.batch_size = 32;
        config.num_images = 64;
        const SimReport from_config = simulator.run(config);
        const SimReport from_job =
            simulator.run(Job::fromConfig(config));
        EXPECT_EQ(from_config.toJson().dump(),
                  from_job.toJson().dump())
            << (training ? "training" : "testing");
    }
}

TEST(Job, NetworkNameMustMatchSimulator)
{
    const Simulator simulator(workloads::mnistA(),
                              reram::DeviceParams());
    Job job;
    job.num_images = 4;
    job.network = "Mnist-A";
    EXPECT_NO_THROW(simulator.run(job));
    job.network = "VGG-A";
    EXPECT_THROW(simulator.run(job), ConfigError);
}

// ---------------------------------------------------------------------
// ServingSim: admission, coalescing, backpressure

ServingSim
mnistServing()
{
    return ServingSim(workloads::mnistA(), reram::DeviceParams());
}

TEST(ServingConfig, Validates)
{
    ServingConfig config;
    EXPECT_NO_THROW(config.validate());
    config.queue_capacity = 0;
    EXPECT_THROW(config.validate(), ConfigError);
    config.queue_capacity = 1;
    config.max_batch = -1;
    EXPECT_THROW(config.validate(), ConfigError);
    config.max_batch = 0;
    config.max_wait_cycles = -1;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(ServingSim, FullBatchLaunchesWithoutWaitingForDeadline)
{
    // max_batch same-cycle arrivals fill a batch instantly: entries
    // serialise from the arrival cycle, one per cycle, no deadline
    // wait paid.
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.max_batch = 4;
    config.max_wait_cycles = 100;
    const ServingReport rep =
        serving.run(ArrivalTrace::replay({5, 5, 5, 5}), config);
    EXPECT_EQ(rep.admitted_count, 4);
    EXPECT_EQ(rep.shed_count, 0);
    EXPECT_EQ(rep.batch_count, 1);
    EXPECT_EQ(rep.deadline_batches, 0);
    for (int64_t i = 0; i < 4; ++i) {
        const CompletionRecord &rec =
            rep.completions[static_cast<size_t>(i)];
        EXPECT_EQ(rec.entry_cycle, 5 + i);
        EXPECT_EQ(rec.completion_cycle, 5 + i + serving.depth());
        EXPECT_EQ(rec.batch_size, 4);
    }
}

TEST(ServingSim, DeadlineForcesPartialBatch)
{
    // A lone request cannot fill a batch; the max-wait deadline
    // bounds its latency at max_wait + depth instead of forever.
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.max_batch = 8;
    config.max_wait_cycles = 12;
    const ServingReport rep =
        serving.run(ArrivalTrace::replay({0}), config);
    EXPECT_EQ(rep.admitted_count, 1);
    EXPECT_EQ(rep.batch_count, 1);
    EXPECT_EQ(rep.deadline_batches, 1);
    EXPECT_EQ(rep.completions[0].entry_cycle, 12);
    EXPECT_EQ(rep.completions[0].latency_cycles,
              12 + serving.depth());
    EXPECT_EQ(rep.p50_latency_cycles, 12 + serving.depth());
    EXPECT_EQ(rep.p99_latency_cycles, 12 + serving.depth());
}

TEST(ServingSim, ShedsAtCapacityPreservingArrivalOrder)
{
    // Six same-cycle arrivals against a 3-deep queue: the first three
    // (in arrival order) are admitted, the rest shed and counted.
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.queue_capacity = 3;
    config.max_batch = 3;
    config.max_wait_cycles = 4;
    const ServingReport rep =
        serving.run(ArrivalTrace::replay({0, 0, 0, 0, 0, 0}), config);
    EXPECT_EQ(rep.arrival_count, 6);
    EXPECT_EQ(rep.admitted_count, 3);
    EXPECT_EQ(rep.shed_count, 3);
    EXPECT_EQ(rep.admitted_count + rep.shed_count, rep.arrival_count);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(rep.completions[i].admitted) << i;
    for (size_t i = 3; i < 6; ++i)
        EXPECT_FALSE(rep.completions[i].admitted) << i;
    // Admitted entries keep arrival order.
    EXPECT_LT(rep.completions[0].entry_cycle,
              rep.completions[1].entry_cycle);
    EXPECT_LT(rep.completions[1].entry_cycle,
              rep.completions[2].entry_cycle);
    EXPECT_EQ(rep.peak_queue_depth, 3);
}

TEST(ServingSim, BatchSizeNeverExceedsMax)
{
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.max_batch = 6;
    config.max_wait_cycles = 16;
    const ServingReport rep =
        serving.run(ArrivalTrace::bursty(512, 32, 8, 3), config);
    int64_t covered = 0;
    for (const auto &bucket : rep.batch_size_hist) {
        EXPECT_GE(bucket.first, 1);
        EXPECT_LE(bucket.first, 6);
        covered += bucket.first * bucket.second;
    }
    EXPECT_EQ(covered, rep.admitted_count);
    for (const CompletionRecord &rec : rep.completions) {
        if (rec.admitted) {
            EXPECT_LE(rec.batch_size, 6);
        }
    }
}

TEST(ServingSim, AdmittedEntriesProduceHazardFreeSchedule)
{
    // Entry cycles are strictly increasing by construction, so the
    // executed schedule sees no structural hazards: overload shows up
    // as shed requests instead.
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.queue_capacity = 16;
    const ServingReport rep =
        serving.run(ArrivalTrace::poisson(1024, 2.0, 9), config);
    EXPECT_GT(rep.shed_count, 0); // 2 req/cycle is overload
    EXPECT_EQ(rep.sched.structural_hazards, 0);
    EXPECT_EQ(rep.execution.structural_hazards, 0);
    EXPECT_EQ(rep.execution.logical_cycles, rep.sched.total_cycles);
}

TEST(ServingSim, ReportIsByteIdenticalAcrossThreadCounts)
{
    // The whole serving report — policy metrics and the embedded
    // execution report — is logical-cycle arithmetic; PL_THREADS must
    // not be observable in it (the property CI's serving smoke and
    // bench_compare gate rely on).
    const ServingSim serving = mnistServing();
    const ArrivalTrace trace = ArrivalTrace::poisson(2048, 0.4, 21);
    const ServingConfig config;
    const int64_t saved = threadCount();
    setThreadCount(1);
    const std::string t1 = serving.run(trace, config).toJson().dump();
    setThreadCount(4);
    const std::string t4 = serving.run(trace, config).toJson().dump();
    setThreadCount(saved);
    EXPECT_EQ(t1, t4);
}

TEST(ServingSim, EmptyTraceProducesEmptyReport)
{
    const ServingSim serving = mnistServing();
    const ServingReport rep =
        serving.run(ArrivalTrace::replay({}), ServingConfig());
    EXPECT_EQ(rep.arrival_count, 0);
    EXPECT_EQ(rep.admitted_count, 0);
    EXPECT_EQ(rep.shed_count, 0);
    EXPECT_EQ(rep.batch_count, 0);
    EXPECT_EQ(rep.p50_latency_cycles, 0);
}

} // namespace
} // namespace sim
} // namespace pipelayer
