# Config errors in `doxperf engine` must surface as `doxperf: <msg>` on
# stderr and exit code 2 — with and without --shards — never as a crash
# (exit 139) or any other non-zero code. A load with no clients or no
# names has nothing to draw its arrivals from.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -P this_file
set(cases
    "--names=0"
    "--clients=0"
    "--shards=2\;--names=0"
    "--shards=2\;--clients=0")
foreach(case IN LISTS cases)
  execute_process(COMMAND "${DOXPERF_BIN}" engine --qps=100 --seconds=1
                          ${case}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "doxperf engine ${case}: exit '${rc}', expected 2")
  endif()
  if(NOT err MATCHES "^doxperf: ")
    message(FATAL_ERROR "doxperf engine ${case}: stderr '${err}' does not "
                        "start with 'doxperf: '")
  endif()
endforeach()
