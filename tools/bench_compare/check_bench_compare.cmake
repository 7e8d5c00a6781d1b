# End-to-end self-check of the perf-trajectory gate: produce a real
# smoke-mode BENCH_perf.json with the harness, then require
#   (a) comparing the run against itself to PASS (every gate holds on
#       identical numbers, and the derived speedup clears its floor),
#   (b) a synthetic baseline that makes the hard fused-kernel entry
#       look 100x faster to FAIL with exit status 1, and
#   (c) a baseline naming a kernel the current run lacks to FAIL,
#   (d) a baseline from another host to be flagged, not failed.
# Invoked by the bench_compare_gate ctest entry with
# -DBENCH_PERF=<exe> -DBENCH_COMPARE=<exe> -DWORK_DIR=<dir>.

if(NOT BENCH_PERF)
    message(FATAL_ERROR "pass -DBENCH_PERF=<path to bench_perf_micro>")
endif()
if(NOT BENCH_COMPARE)
    message(FATAL_ERROR "pass -DBENCH_COMPARE=<path to bench_compare>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<writable work directory>")
endif()

set(ENV{VBOOST_BENCH_SMOKE} 1)
set(current ${WORK_DIR}/bench-compare-current.json)

execute_process(
    COMMAND ${BENCH_PERF} --threads 1 --json ${current}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "bench_perf_micro smoke run failed (${rc}):\n${out}\n${err}")
endif()

# (a) Self-comparison must pass: identical numbers regress nothing.
execute_process(
    COMMAND ${BENCH_COMPARE} ${current} ${current}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "self-comparison unexpectedly failed (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "current host:  cpu=" OR out MATCHES "host mismatch")
    message(FATAL_ERROR
        "self-comparison must print the host and see no mismatch:\n${out}")
endif()

# (b) A baseline claiming the hard fused kernel once ran 100x faster
# must trip the hard gate. The entry's identity (kernel, backend,
# threads) matches the real smoke run.
set(regressed ${WORK_DIR}/bench-compare-regressed.json)
file(WRITE ${regressed} "{
  \"schema\": \"vboost-bench-perf/1\",
  \"bench\": \"perf_micro\",
  \"threads\": 1,
  \"smoke\": true,
  \"entries\": [
    {
      \"kernel\": \"fused_corrupt_dequant\",
      \"backend\": \"vectorized\",
      \"threads\": 1,
      \"gate\": \"hard\",
      \"ns_per_op\": 0.001,
      \"items_per_op\": 1048576
    }
  ]
}
")
execute_process(
    COMMAND ${BENCH_COMPARE} ${regressed} ${current}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "hard regression was not detected (exit ${rc}, want 1):\n"
        "${out}\n${err}")
endif()

# (c) A baseline entry missing from the current run must fail too.
set(missing ${WORK_DIR}/bench-compare-missing.json)
file(WRITE ${missing} "{
  \"schema\": \"vboost-bench-perf/1\",
  \"bench\": \"perf_micro\",
  \"threads\": 1,
  \"smoke\": true,
  \"entries\": [
    {
      \"kernel\": \"kernel_that_no_longer_exists\",
      \"backend\": \"vectorized\",
      \"threads\": 1,
      \"gate\": \"soft\",
      \"ns_per_op\": 1.0,
      \"items_per_op\": 1
    }
  ]
}
")
execute_process(
    COMMAND ${BENCH_COMPARE} ${missing} ${current}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "dropped-kernel baseline was not detected (exit ${rc}, want 1):\n"
        "${out}\n${err}")
endif()

# (d) The same numbers recorded on another CPU: the mismatch is
# flagged, and no gate changes.
file(READ ${current} current_json)
string(REGEX REPLACE "\"cpu\": \"[^\"]*\"" "\"cpu\": \"another cpu\""
       other_json "${current_json}")
set(other ${WORK_DIR}/bench-compare-other-host.json)
file(WRITE ${other} "${other_json}")
execute_process(
    COMMAND ${BENCH_COMPARE} ${other} ${current}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "host mismatch"
   OR NOT out MATCHES "baseline host: cpu=another cpu")
    message(FATAL_ERROR
        "another host's baseline must pass with a mismatch flag (exit "
        "${rc}):\n${out}\n${err}")
endif()

message(STATUS "bench_compare gate OK: self-compare passes, hard "
               "regression and dropped kernels fail, host mismatch "
               "flagged")
