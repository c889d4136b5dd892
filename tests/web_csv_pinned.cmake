# Pin for the Fig. 3 / Fig. 4 web campaign: runs a small web campaign
# (6 resolvers, all ten pages, 2 loads per combination) and asserts the raw
# per-load CSV is bit-identical to the committed baseline. Page-load
# timings depend on every layer under the browser — proxy, transports,
# resolver, simulator, fabric — and on how the campaign builds each cell's
# world, so any change there that moves a single FCP/PLT shows up here.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DWORK_DIR=... -DEXPECTED_SHA256=... -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${DOXPERF_BIN}" campaign --web --resolvers=6
                        --loads=2 --seed=42 --csv=web_records.csv
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "doxperf campaign --web --csv failed (exit ${rc})")
endif()
file(SHA256 "${WORK_DIR}/web_records.csv" actual)
if(NOT actual STREQUAL "${EXPECTED_SHA256}")
  message(FATAL_ERROR "web_records.csv drifted: sha256 ${actual} != "
                      "pinned ${EXPECTED_SHA256} — the web campaign's page "
                      "loads changed observable behaviour")
endif()
