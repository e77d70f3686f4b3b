# Fails when a golden that a test or a CI step reads is missing from
# the source tree, or (in a git checkout) is present but untracked, so
# a clean clone would not have it.  An ignore rule that swallows a
# golden shows up here, naming the file, instead of as a confusing
# byte-compare failure somewhere else.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/check_goldens.cmake

if(NOT SOURCE_DIR)
    message(FATAL_ERROR "check_goldens: pass -DSOURCE_DIR=<repo root>")
endif()

set(goldens
    # test_cluster; CI "Schedule equivalence gate" and
    # "Dispatch byte-compare".
    tests/goldens/fig6_timeline.trace.json
    # CI "Schedule equivalence gate" and "Dispatch byte-compare".
    tests/goldens/fig6_timeline.result.json
    tests/goldens/table2_formulas.result.json
    # CI "Bench smoke" (json_lint) and "Perf regression gate"
    # (bench_compare).
    bench/baselines/BENCH_fig15_speedup.json
    bench/baselines/BENCH_fig6_timeline.json
    bench/baselines/BENCH_fig_scaling.json
    bench/baselines/BENCH_micro_crossbar.json
    bench/baselines/BENCH_micro_tensor.json
    bench/baselines/BENCH_serving.json
    bench/baselines/BENCH_table2_formulas.json
)

set(missing "")
foreach(f ${goldens})
    if(NOT EXISTS "${SOURCE_DIR}/${f}")
        list(APPEND missing "${f}")
    endif()
endforeach()
if(missing)
    list(JOIN missing "\n  " names)
    message(FATAL_ERROR "golden file(s) missing from the source tree:\n"
                        "  ${names}")
endif()

# The tracking check applies only when SOURCE_DIR is itself the top
# of a git work tree (not an exported copy, nor a copy nested inside
# some other repository).
find_program(GIT_EXECUTABLE git)
if(NOT GIT_EXECUTABLE)
    message(STATUS "git not found: skipping the tracked-file check")
    return()
endif()
execute_process(
    COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" rev-parse --show-toplevel
    OUTPUT_VARIABLE toplevel
    OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE rc
    ERROR_QUIET)
get_filename_component(source_real "${SOURCE_DIR}" REALPATH)
get_filename_component(toplevel "${toplevel}" REALPATH)
if(NOT rc EQUAL 0 OR NOT toplevel STREQUAL source_real)
    message(STATUS "${SOURCE_DIR} is not a git checkout: "
                   "skipping the tracked-file check")
    return()
endif()

set(untracked "")
foreach(f ${goldens})
    execute_process(
        COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}"
                ls-files --error-unmatch -- "${f}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        list(APPEND untracked "${f}")
    endif()
endforeach()
if(untracked)
    list(JOIN untracked "\n  " names)
    message(FATAL_ERROR "golden file(s) present but not tracked by git "
                        "(check .gitignore, then git add):\n  ${names}")
endif()

list(LENGTH goldens n)
message(STATUS "all ${n} goldens present and tracked")
