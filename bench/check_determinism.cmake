# Thread-count-invariance gate: run a bench in smoke mode at
# --threads 1 and --threads 8 with the same seed and config, and
# require (a) every listed artifact to be bitwise identical and (b) the
# metrics fingerprint of the --metrics-out JSON to be identical.
#
#   cmake -DBENCH=<exe> -DWORK_DIR=<dir> -DPREFIX=<artifact prefix>
#         -DARTIFACTS=<flag>[,<flag>...] -P check_determinism.cmake
#
# Each ARTIFACTS entry names a bench flag that writes a file (json for
# --json, trace-out for --trace-out); the run at N threads writes it to
# <WORK_DIR>/<PREFIX>-<flag>-t<N>.json.

foreach(var BENCH WORK_DIR PREFIX)
    if(NOT ${var})
        message(FATAL_ERROR "pass -D${var}=<value>")
    endif()
endforeach()
string(REPLACE "," ";" artifacts "${ARTIFACTS}")
get_filename_component(bench_name ${BENCH} NAME)

set(ENV{VBOOST_BENCH_SMOKE} 1)

foreach(threads 1 8)
    set(args --threads ${threads}
        --metrics-out ${WORK_DIR}/${PREFIX}-metrics-t${threads}.json)
    foreach(flag IN LISTS artifacts)
        list(APPEND args
            --${flag} ${WORK_DIR}/${PREFIX}-${flag}-t${threads}.json)
    endforeach()
    execute_process(
        COMMAND ${BENCH} ${args}
        WORKING_DIRECTORY ${WORK_DIR}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${bench_name} --threads ${threads} failed (${rc}):\n"
            "${out}\n${err}")
    endif()
endforeach()

# (a) Every listed artifact must match bitwise.
foreach(flag IN LISTS artifacts)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/${PREFIX}-${flag}-t1.json
            ${WORK_DIR}/${PREFIX}-${flag}-t8.json
        RESULT_VARIABLE cmp_rc)
    if(NOT cmp_rc EQUAL 0)
        message(FATAL_ERROR
            "${bench_name} --${flag} output differs between --threads 1 "
            "and --threads 8 (${PREFIX}-${flag}-t1.json vs "
            "${PREFIX}-${flag}-t8.json)")
    endif()
endforeach()

# (b) Metrics fingerprints must match.
foreach(threads 1 8)
    file(READ ${WORK_DIR}/${PREFIX}-metrics-t${threads}.json contents)
    string(REGEX MATCH "\"fingerprint\": ([0-9]+)" _ "${contents}")
    if(NOT CMAKE_MATCH_1)
        message(FATAL_ERROR
            "no fingerprint field in ${PREFIX}-metrics-t${threads}.json")
    endif()
    set(fp_t${threads} ${CMAKE_MATCH_1})
endforeach()
if(NOT fp_t1 STREQUAL fp_t8)
    message(FATAL_ERROR
        "${bench_name} metrics fingerprint differs: threads=1 -> "
        "${fp_t1}, threads=8 -> ${fp_t8}")
endif()

message(STATUS
    "${bench_name} determinism OK: fingerprint ${fp_t1} and "
    "[${ARTIFACTS}] bitwise identical at 1 vs 8 threads")
