/**
 * @file
 * Tests of the observability layer: the JSON writer/parser, the
 * Chrome-trace recorder, the stats registration contracts and the
 * validated reporting API (PR: end-to-end observability).
 *
 * The determinism tests assert the ISSUE's headline guarantee: a
 * stats dump and a trace are byte-identical at any worker thread
 * count, because every counter is committed from serial code or from
 * deterministic values.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/trace.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "sim/simulator.hh"
#include "workloads/layer_spec.hh"

namespace pipelayer {
namespace {

// ---------------------------------------------------------------------
// JSON value model + writer + parser
// ---------------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters)
{
    // escape() returns the quoted JSON string literal.
    EXPECT_EQ(json::Value::escape("plain"), "\"plain\"");
    EXPECT_EQ(json::Value::escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(json::Value::escape("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(json::Value::escape("a\nb\tc"), "\"a\\nb\\tc\"");
    EXPECT_EQ(json::Value::escape(std::string("a\x01z")),
              "\"a\\u0001z\"");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    json::Value v = json::Value::object();
    v["zeta"] = json::Value(1);
    v["alpha"] = json::Value(2);
    v["mid"] = json::Value(3);
    const auto &members = v.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "zeta");
    EXPECT_EQ(members[1].first, "alpha");
    EXPECT_EQ(members[2].first, "mid");
}

TEST(Json, RoundTripsThroughDumpAndParse)
{
    json::Value v = json::Value::object();
    v["name"] = json::Value("pipelayer \"quoted\"\n");
    v["count"] = json::Value(int64_t{1234567890123});
    v["ratio"] = json::Value(0.1);
    v["neg"] = json::Value(-2.5e-8);
    v["yes"] = json::Value(true);
    v["no"] = json::Value(false);
    v["nothing"] = json::Value();
    json::Value arr = json::Value::array();
    for (int i = 0; i < 4; ++i)
        arr.push(json::Value(i));
    v["seq"] = std::move(arr);

    for (int indent : {-1, 0, 1, 2}) {
        const json::Value back = json::parse(v.dump(indent));
        EXPECT_TRUE(back == v) << "indent " << indent;
    }
}

TEST(Json, NumbersSurviveRoundTripExactly)
{
    for (double x : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300, 1e300,
                     3.141592653589793, 42.45, 1485.0}) {
        const json::Value v(x);
        const json::Value back = json::parse(v.dump());
        EXPECT_EQ(back.asNumber(), x) << v.dump();
    }
}

TEST(Json, AsIntAcceptsExactIntegers)
{
    EXPECT_EQ(json::parse("0").asInt(), 0);
    EXPECT_EQ(json::parse("-0").asInt(), 0);
    EXPECT_EQ(json::parse("7").asInt(), 7);
    EXPECT_EQ(json::parse("-42").asInt(), -42);
    EXPECT_EQ(json::parse("3.0").asInt(), 3);
    EXPECT_EQ(json::parse("1e3").asInt(), 1000);
    EXPECT_EQ(json::parse("9007199254740993").asInt(),
              int64_t{9007199254740992}); // nearest double, exact
    EXPECT_EQ(json::parse("-9223372036854775808").asInt(), INT64_MIN);
}

TEST(Json, AsIntRejectsFractionsAndOutOfRangeNamingTheValue)
{
    const auto message = [](const char *text) -> std::string {
        try {
            (void)json::parse(text).asInt();
        } catch (const ConfigError &err) {
            return err.what();
        }
        return "no ConfigError";
    };
    // {"arrival_cycle": 2.6} used to be served at cycle 3.
    EXPECT_EQ(message("2.6"), "JSON number 2.6 is not an integer");
    EXPECT_EQ(message("-0.5"), "JSON number -0.5 is not an integer");
    // 1e30 used to reach callers as INT64_MIN.
    EXPECT_EQ(message("1e30"),
              "JSON number 1e+30 is outside the int64 range");
    EXPECT_EQ(message("-1e30"),
              "JSON number -1e+30 is outside the int64 range");
    // 2^63 is one past INT64_MAX.
    EXPECT_EQ(message("9223372036854775808"),
              "JSON number 9.223372036854776e+18 is outside the int64 "
              "range");
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(json::parse(""), json::ParseError);
    EXPECT_THROW(json::parse("{"), json::ParseError);
    EXPECT_THROW(json::parse("[1,]"), json::ParseError);
    EXPECT_THROW(json::parse("{\"a\":1,}"), json::ParseError);
    EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
    EXPECT_THROW(json::parse("tru"), json::ParseError);
    EXPECT_THROW(json::parse("1 2"), json::ParseError);
}

TEST(Json, ParsesUnicodeEscapes)
{
    const json::Value v = json::parse("\"a\\u00e9b\"");
    EXPECT_EQ(v.asString(), "a\xc3\xa9"
                            "b");
}

TEST(Json, TableRendersCsvAndJson)
{
    Table t({"name", "value"});
    t.addRow({"plain", "1"});
    t.addSeparator();
    t.addRow({"with,comma", "q\"uote"});
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(),
              "name,value\nplain,1\n\"with,comma\",\"q\"\"uote\"\n");

    const json::Value rows = t.toJson();
    ASSERT_EQ(rows.size(), 2u); // separator dropped
    EXPECT_EQ(rows.at(size_t{0}).at("name").asString(), "plain");
    EXPECT_EQ(rows.at(size_t{1}).at("value").asString(), "q\"uote");
}

// ---------------------------------------------------------------------
// SimReport toJson schema + SimConfig validation
// ---------------------------------------------------------------------

workloads::NetworkSpec
chainSpec(int64_t depth)
{
    workloads::NetworkSpec spec;
    spec.name = "obs-chain";
    for (int64_t i = 0; i < depth; ++i)
        spec.layers.push_back(workloads::LayerSpec::innerProduct(32, 32));
    return spec;
}

TEST(SimReportJson, MatchesDocumentedSchema)
{
    const sim::Simulator simulator(chainSpec(3), reram::DeviceParams());
    const sim::SimReport report =
        simulator.run(sim::SimConfig::training(8, 32));
    const json::Value v = report.toJson();

    // The top-level member list is the documented schema
    // (docs/observability.md); a change here is a breaking change for
    // BENCH_*.json consumers and must update the doc.
    std::vector<std::string> keys;
    for (const auto &kv : v.members())
        keys.push_back(kv.first);
    const std::vector<std::string> expected = {
        "network", "config", "logical_cycles", "cycle_time_s",
        "total_time_s", "time_per_image_s", "throughput_img_s",
        "energy", "energy_per_image_j", "area_mm2", "morphable_arrays",
        "memory_buffer_entries", "ops_per_image", "gops_per_s",
        "gops_per_s_per_mm2", "gops_per_w", "buffer_violations",
        "structural_hazards", "per_layer"};
    EXPECT_EQ(keys, expected);

    EXPECT_EQ(v.at("network").asString(), "obs-chain");
    EXPECT_EQ(v.at("config").at("phase").asString(), "training");
    EXPECT_EQ(v.at("config").at("batch_size").asInt(), 8);
    EXPECT_EQ(v.at("logical_cycles").asInt(), report.logical_cycles);
    EXPECT_DOUBLE_EQ(v.at("energy").at("total_j").asNumber(),
                     report.energy.total());
    ASSERT_EQ(v.at("per_layer").size(), 3u);
    const json::Value &layer0 = v.at("per_layer").at(size_t{0});
    EXPECT_DOUBLE_EQ(layer0.at("forward_energy_j").asNumber(),
                     report.per_layer[0].forward_energy);

    // And the whole report round-trips through the writer.
    EXPECT_TRUE(json::parse(v.dump(1)) == v);
}

TEST(SimConfigValidation, ThrowsTypedErrorsInsteadOfAsserting)
{
    sim::SimConfig bad;
    bad.batch_size = 0;
    EXPECT_THROW(bad.validate(), ConfigError);

    bad = sim::SimConfig();
    bad.num_images = -4;
    EXPECT_THROW(bad.validate(), ConfigError);

    bad = sim::SimConfig();
    bad.phase = sim::Phase::Training;
    bad.batch_size = 64;
    bad.num_images = 100; // not a multiple of 64
    EXPECT_THROW(bad.validate(), ConfigError);

    // Testing phase has no divisibility requirement.
    sim::SimConfig ok = sim::SimConfig::testing(100);
    ok.batch_size = 64;
    EXPECT_NO_THROW(ok.validate());

    EXPECT_THROW(sim::SimConfig::training(64, 100), ConfigError);
    EXPECT_NO_THROW(sim::SimConfig::training(64, 128));

    const sim::Simulator simulator(chainSpec(2), reram::DeviceParams());
    sim::SimConfig cfg;
    cfg.phase = sim::Phase::Training;
    cfg.batch_size = 3;
    cfg.num_images = 10;
    EXPECT_THROW(simulator.run(cfg), ConfigError);
}

// ---------------------------------------------------------------------
// StatGroup contracts
// ---------------------------------------------------------------------

TEST(StatGroup, RegisterResetAndDump)
{
    stats::StatGroup group("unit");
    stats::Scalar a, b;
    group.registerScalar("a", &a, "first");
    group.registerScalar("b", &b, "second");
    group.addFormula("sum", [&] { return a.value() + b.value(); },
                     "a + b");
    a += 2.0;
    b += 3.0;
    EXPECT_DOUBLE_EQ(group.lookup("sum"), 5.0);
    EXPECT_TRUE(group.has("a"));
    EXPECT_FALSE(group.has("missing"));

    const std::string dump = group.dumpString();
    EXPECT_NE(dump.find("unit.a"), std::string::npos);
    EXPECT_NE(dump.find("# first"), std::string::npos);

    group.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
    EXPECT_DOUBLE_EQ(group.lookup("sum"), 0.0);
}

TEST(StatGroup, FormulaLookupsAreCachedUntilDumpOrReset)
{
    stats::StatGroup group("unit");
    stats::Scalar a;
    group.registerScalar("a", &a, "input");
    int evals = 0;
    group.addFormula(
        "twice_a", [&] { ++evals; return 2.0 * a.value(); }, "2a");

    a += 3.0;
    EXPECT_DOUBLE_EQ(group.lookup("twice_a"), 6.0);
    EXPECT_EQ(evals, 1);
    // Repeated lookups between dumps reuse one evaluation.
    EXPECT_DOUBLE_EQ(group.lookup("twice_a"), 6.0);
    EXPECT_EQ(evals, 1);

    // dump() always evaluates fresh — a formula can never drift from
    // its inputs in dumped output — and refreshes the cache.
    a += 1.0;
    group.dumpString();
    EXPECT_EQ(evals, 2);
    EXPECT_DOUBLE_EQ(group.lookup("twice_a"), 8.0);
    EXPECT_EQ(evals, 2);

    // resetAll() starts a new measurement interval: scalars zeroed
    // and formula caches invalidated (the PR 3 resetAll bugfix).
    group.resetAll();
    EXPECT_DOUBLE_EQ(group.lookup("twice_a"), 0.0);
    EXPECT_EQ(evals, 3);
}

#ifdef NDEBUG
TEST(StatGroup, ResetAllSkipsDeadEntriesInRelease)
{
    // Release builds must skip a dead registration (the owning
    // component is gone) while still resetting the live ones — the
    // old behaviour asserted even with NDEBUG.
    stats::StatGroup group("unit");
    stats::Scalar live;
    group.registerScalar("live", &live, "survives");
    {
        stats::Scalar temp;
        group.registerScalar("gone", &temp, "dies early");
        temp += 7.0;
    }
    live += 5.0;
    group.resetAll();
    EXPECT_DOUBLE_EQ(live.value(), 0.0);
}
#else
TEST(StatGroupDeathTest, ResetAllAssertsOnDeadEntryInDebug)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    stats::StatGroup group("unit");
    {
        stats::Scalar temp;
        group.registerScalar("gone", &temp, "dies early");
    }
    EXPECT_DEATH(group.resetAll(), "reset after its owning");
}
#endif

TEST(StatGroupDeathTest, NameCollisionPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    stats::StatGroup group("unit");
    stats::Scalar a, b;
    group.registerScalar("x", &a, "first");
    EXPECT_DEATH(group.registerScalar("x", &b, "duplicate"),
                 "registered twice");
    EXPECT_DEATH(group.addFormula("x", [] { return 0.0; }, "dup"),
                 "registered twice");
}

TEST(StatGroup, ScalarDestructionMarksEntryDead)
{
    stats::StatGroup group("unit");
    {
        stats::Scalar temp;
        group.registerScalar("gone", &temp, "dies early");
        temp += 7.0;
        EXPECT_NE(group.dumpString().find("gone"), std::string::npos);
    }
    // Release builds skip the dead entry instead of reading freed
    // memory; debug builds assert at dump time (PL_DEBUG_ASSERT).
#ifdef NDEBUG
    EXPECT_EQ(group.dumpString().find("gone"), std::string::npos);
    group.resetAll(); // must not touch the dead registration
#endif
}

TEST(StatGroup, GroupDestructionUnlinksScalars)
{
    stats::Scalar survivor;
    {
        stats::StatGroup group("unit");
        group.registerScalar("s", &survivor, "outlives the group");
        survivor += 1.0;
    }
    // ~Scalar must not call into the destroyed group.
    survivor += 1.0;
    EXPECT_DOUBLE_EQ(survivor.value(), 2.0);
}

TEST(StatGroup, CopiedScalarCarriesValueNotRegistration)
{
    stats::StatGroup group("unit");
    stats::Scalar original;
    group.registerScalar("v", &original, "tracked");
    original += 4.0;
    stats::Scalar copy = original;
    EXPECT_DOUBLE_EQ(copy.value(), 4.0);
    // The copy dying must not mark the registration dead.
    { stats::Scalar dying = original; (void)dying; }
    original += 1.0;
    EXPECT_DOUBLE_EQ(group.lookup("v"), 5.0);
}

// ---------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------

TEST(TraceRecorder, EmitsValidNestedChromeTrace)
{
    trace::TraceRecorder rec("unit-test");
    const int64_t t0 = rec.addTrack("outer");
    rec.begin(t0, "span", "cat", 0);
    rec.begin(t0, "inner", "cat", 1);
    rec.end(t0, 3);   // inner: [1, 3)
    rec.end(t0, 5);   // outer: [0, 5)
    rec.complete(t0, "tail", "cat", 5, 2);

    const json::Value doc = json::parse(rec.toJson().dump(1));
    const json::Value &events = doc.at("traceEvents");
    int64_t x_events = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        if (events.at(i).at("ph").asString() == "X")
            ++x_events;
    }
    EXPECT_EQ(x_events, 3);
    EXPECT_EQ(rec.lastCycle(), 7);
}

TEST(PipelineSchedulerTrace, CycleCountMatchesPaperFormula)
{
    const int64_t depth = 3, batch = 4, images = 8;
    const auto spec = chainSpec(depth);
    const reram::DeviceParams params;
    const auto g = arch::GranularityConfig::naive(spec);
    const arch::NetworkMapping map(spec, g, params, true, batch);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = batch;
    config.num_images = images;
    arch::PipelineScheduler scheduler(map, config);
    trace::TraceRecorder rec("sched");
    scheduler.setTrace(&rec);
    const arch::ScheduleStats stats = scheduler.run();

    EXPECT_EQ(stats.total_cycles,
              arch::PipelineScheduler::analyticTrainingCycles(
                  depth, images, batch, true));
    EXPECT_EQ(rec.lastCycle(), stats.total_cycles);
    // One track per unit row: L forward, 1 seed, L-1 error-back,
    // L derivative, 1 update.
    EXPECT_EQ(rec.trackCount(), 3 * depth + 1);
    // The trace parses as JSON.
    EXPECT_NO_THROW(json::parse(rec.toJson().dump()));
}

// ---------------------------------------------------------------------
// PipelinedTrainer: counters, trace, determinism across threads
// ---------------------------------------------------------------------

nn::Network
trainerMlp(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("obs-mlp", {1, 8, 8});
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 24, rng));
    net.add(std::make_unique<nn::SigmoidLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(24, 4, rng));
    return net;
}

std::pair<std::vector<Tensor>, std::vector<int64_t>>
trainerBatch(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int64_t i = 0; i < n; ++i) {
        Tensor x({1, 8, 8});
        for (int64_t j = 0; j < x.numel(); ++j)
            x.at(j) = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(x));
        labels.push_back(static_cast<int64_t>(rng.uniformInt(4)));
    }
    return {std::move(inputs), std::move(labels)};
}

TEST(TrainerObservability, TraceSpansLogicalCyclesExactly)
{
    nn::Network net = trainerMlp(7);
    core::PipelinedTrainer trainer(net);
    trace::TraceRecorder rec("trainer");
    trainer.setTrace(&rec);
    const auto [inputs, labels] = trainerBatch(6, 21);
    const auto result = trainer.trainBatch(inputs, labels, 0.05f);

    EXPECT_EQ(result.logical_cycles, 2 * trainer.depth() + 6 + 1);
    EXPECT_EQ(rec.lastCycle(), result.logical_cycles);
    EXPECT_EQ(rec.trackCount(), 2 * trainer.depth() + 2);

    // Work accounting: L forwards + 1 seed + L backward pairs per
    // image, all committed through phase 2.
    const int64_t L = trainer.depth();
    EXPECT_EQ(result.forward_ops, 6 * L);
    EXPECT_EQ(result.error_seeds, 6);
    EXPECT_EQ(result.backward_ops, 6 * L);
    EXPECT_EQ(result.commits,
              result.forward_ops + result.error_seeds +
                  result.backward_ops);

    // A second batch appends; the trace keeps growing monotonically.
    const auto result2 = trainer.trainBatch(inputs, labels, 0.05f);
    EXPECT_EQ(rec.lastCycle(),
              result.logical_cycles + result2.logical_cycles);

    const json::Value doc = json::parse(rec.toJson().dump(1));
    EXPECT_GT(doc.at("traceEvents").size(), 0u);

    const json::Value rj = result.toJson();
    EXPECT_EQ(rj.at("logical_cycles").asInt(), result.logical_cycles);
    EXPECT_EQ(rj.at("commits").asInt(), result.commits);
}

/** Stats dump of one pipelined training run at @p threads threads. */
std::string
trainerStatsDump(int64_t threads)
{
    const int64_t saved = threadCount();
    setThreadCount(threads);
    nn::Network net = trainerMlp(13);
    core::PipelinedTrainer trainer(net);
    stats::StatGroup group("trainer");
    trainer.addStats(group);
    const auto [inputs, labels] = trainerBatch(8, 31);
    trainer.trainBatch(inputs, labels, 0.1f, nn::LossKind::Softmax);
    trainer.trainBatch(inputs, labels, 0.1f, nn::LossKind::Softmax);
    const std::string dump = group.dumpString();
    setThreadCount(saved);
    return dump;
}

TEST(Determinism, TrainerStatsDumpIsByteIdenticalAcrossThreadCounts)
{
    const std::string serial = trainerStatsDump(1);
    const std::string parallel = trainerStatsDump(4);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("trainer.cycles"), std::string::npos);
    EXPECT_NE(serial.find("trainer.commits"), std::string::npos);
}

/** SimReport stats dump at @p threads threads. */
std::string
simStatsDump(int64_t threads)
{
    const int64_t saved = threadCount();
    setThreadCount(threads);
    const sim::Simulator simulator(chainSpec(4), reram::DeviceParams());
    const sim::SimReport report =
        simulator.run(sim::SimConfig::training(8, 32));
    std::ostringstream os;
    report.dumpStats(os);
    setThreadCount(saved);
    return os.str();
}

TEST(Determinism, SimStatsDumpIsByteIdenticalAcrossThreadCounts)
{
    const std::string serial = simStatsDump(1);
    const std::string parallel = simStatsDump(4);
    EXPECT_EQ(serial, parallel);
    // Hierarchical per-layer names are present (ISSUE example).
    EXPECT_NE(serial.find("sim.obs-chain.layer3.forward_energy_j"),
              std::string::npos);
}

} // namespace
} // namespace pipelayer
