/**
 * @file
 * perfbench command line:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --list          (workload and metric declarations)
 *
 * The last line of standard output is the JSON result.  Exit code 0
 * only when every check passed; 2 on bad arguments.
 */

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.hh"

namespace {

int
usage()
{
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n       perfbench --list\n";
    return 2;
}

/** Parse a whole non-negative decimal string into @p out. */
bool
parseUnsigned(const std::string &text, unsigned long long &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos) {
        return false;
    }
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno == 0;
}

/** One line per workload and metric, for the self-tests. */
int
list()
{
    for (const auto &name : perfbench::workloadNames())
        std::cout << "workload " << name << "\n";
    for (const auto &m : perfbench::endToEndMetrics())
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
    for (const auto &m : perfbench::perLayerMetrics())
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--list")
        return list();

    perfbench::Options options;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[i + 1];
        unsigned long long number = 0;
        if (flag == "--workload") {
            options.workload = value;
            have[0] = true;
        } else if (flag == "--seed" && parseUnsigned(value, number)) {
            options.seed = number;
            have[1] = true;
        } else if (flag == "--seconds" && parseUnsigned(value, number) &&
                   number >= 1 && number <= 600) {
            options.seconds = static_cast<double>(number);
            have[2] = true;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            options.trace = value == "1";
            have[3] = true;
        } else {
            return usage();
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        return usage();
    return perfbench::runBenchmark(options, std::cout);
}
