/**
 * @file
 * The benchmark's own tests (run by `python3 perfbench/selftest.py`):
 * the percentile rule, the result line, and that a doctored pinned
 * total is caught by the correctness accounting.  Names are checked
 * against BENCHMARK.json by selftest.py.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness.hh"
#include "serving_replay.hh"

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures += ok ? 0 : 1;
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(n - i)); // unsorted on purpose
    return v;
}

void
percentileRule()
{
    // 199 samples: rank ceil(0.95 * 199) = 190 leaves 9 beyond.
    check(perfbench::samplesBeyond(199, 95) == 9, "199 samples: 9 beyond p95");
    check(!perfbench::percentile(ramp(199), 95),
          "p95 refused with 9 samples beyond it");
    // 200 samples: rank 190 leaves 10 beyond; nearest rank is value 190.
    const auto p95 = perfbench::percentile(ramp(200), 95);
    check(p95 && *p95 == 190.0, "p95 of 1..200 is 190");
    const auto p50 = perfbench::percentile(ramp(200), 50);
    check(p50 && *p50 == 100.0, "p50 of 1..200 is 100");
    check(!perfbench::percentile({}, 50), "no percentile of nothing");
}

void
doctoredPin()
{
    perfbench::ServeTotals doctored = perfbench::pinnedServeTotals();
    doctored.latency_cycles += 1;
    const perfbench::ServingReplay serving(7);
    for (const bool doctor : {false, true}) {
        perfbench::Checks c;
        serving.checkCanonical(
            doctor ? doctored : perfbench::pinnedServeTotals(), c);
        const std::string tag = doctor ? "doctored" : "true";
        check(c.attempted() > 0, tag + " pin: checks attempted");
        check(doctor ? c.failed() == 1 : c.failed() == 0,
              tag + " pin: " + std::to_string(c.failed()) +
                  " failed check(s), so the error rate is " +
                  (doctor ? "non-zero" : "zero"));
    }
}

void
resultLineShape()
{
    const std::string line = perfbench::resultLine(
        true, 3, 0, {{"setup_s", "s", 0.25}, {"items_per_s", "1/s", 10.5}});
    check(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                  "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": "
                  "\"s\"}, \"items_per_s\": {\"value\": 10.5, \"unit\": "
                  "\"1/s\"}}}",
          "result line has the four keys and every metric's unit");
}

} // namespace

int
main()
{
    percentileRule();
    doctoredPin();
    resultLineShape();
    std::cout << (failures ? "selftest FAILED" : "selftest passed") << "\n";
    return failures ? 1 : 0;
}
