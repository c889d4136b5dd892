# Sharded-engine golden event streams: three small configurations whose
# per-shard CSVs (arrival counts, every engine counter, event totals, the
# per-shard event-stream and outcome digests, and the merged row) are
# committed under tests/golden/. Fresh output must match byte for byte.
#
# engine_shards_deterministic only compares a run against a second run of
# the same binary, so it cannot tell when a refactor of the hot path (the
# event queue, the swarm client's codec, the arrival slicing) changes what
# is executed. These files pin the stream itself: any change to a fired
# event's time or sequence number flips a digest here.
#
# Regenerate a file only for a change that is MEANT to alter the event
# stream, and say so where the change is recorded.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DGOLDEN_DIR=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")

function(check_golden name)
  execute_process(COMMAND "${DOXPERF_BIN}" engine ${ARGN}
                          --shard-csv=${name}.csv
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "doxperf engine ${ARGN} failed (exit ${rc})")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${GOLDEN_DIR}/${name}.csv"
                          "${WORK_DIR}/${name}.csv"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    file(READ "${GOLDEN_DIR}/${name}.csv" expected)
    file(READ "${WORK_DIR}/${name}.csv" actual)
    message(FATAL_ERROR
            "${name}: per-shard CSV differs from the golden file\n"
            "expected:\n${expected}\nactual:\n${actual}")
  endif()
endfunction()

# Hot cache: the wire cache answers almost everything.
check_golden(engine_shards4_wire --shards=4 --clients=20000 --qps=5000
             --seconds=3 --wire-cache=4096)
# Long tail: L1 evictions, L2 sweeps, coalescing, upstream resolves.
check_golden(engine_shards4_names20k --shards=4 --clients=20000 --qps=3000
             --seconds=3 --names=20000)
# Batched delivery plus a primary-upstream outage (fallback walk).
check_golden(engine_shards3_batch_kill --shards=3 --clients=20000 --qps=3000
             --seconds=3 --batch-us=50 --kill-primary)
