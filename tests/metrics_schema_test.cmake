# End-to-end metrics-export contract check, run as a CTest:
#   1. validate_metrics.py --self-test (the validator still rejects
#      every class of schema drift),
#   2. a real `run --json-out` and `sweep --json-out` validated
#      against the checked-in tools/metrics.schema.json, including a
#      time-sampled sweep at sampled fidelity, a sampled run with a
#      victim buffer and analytic sweeps with the cache on and off;
#      every rate in them must agree with its counts, and every
#      l2_analytic section with its model and the counts beside it.
# Driven through `cmake -P` so the test works on every generator
# without a shell dependency.

foreach(var STREAMSIM_CLI PYTHON SOURCE_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "metrics_schema_test.cmake needs -D${var}")
    endif()
endforeach()

set(work ${CMAKE_CURRENT_BINARY_DIR}/metrics_schema_work)
file(MAKE_DIRECTORY ${work})

execute_process(
    COMMAND ${STREAMSIM_CLI} run --benchmark mgrid --refs 100000
            --json-out ${work}/run.json
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "run --json-out failed: ${status}")
endif()

execute_process(
    COMMAND ${STREAMSIM_CLI} sweep --benchmark mgrid --refs 50000
            --values 1,4 --json-out ${work}/sweep.json
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "sweep --json-out failed: ${status}")
endif()

# Analytic L2 model populated (run and sweep): the l2_analytic
# section must carry real predictions and still match the schema.
execute_process(
    COMMAND ${STREAMSIM_CLI} run --benchmark mgrid --refs 100000
            --no-streams --l2 256 --l2-model both
            --json-out ${work}/run_analytic.json
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "run --l2-model both --json-out failed: ${status}")
endif()

execute_process(
    COMMAND ${STREAMSIM_CLI} sweep --benchmark mgrid --refs 50000
            --values 1,4 --l2 256 --l2-model both
            --json-out ${work}/sweep_analytic.json
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "sweep --l2-model both --json-out failed: ${status}")
endif()

# An analytic sweep with a victim buffer and the cache off: its jobs
# run from their own sources, each profiling the misses that get past
# the victim buffer.
execute_process(
    COMMAND ${STREAMSIM_CLI} sweep --benchmark mgrid --refs 50000
            --values 1,4 --l2 256 --l2-model both --victim 4
            --trace-cache off --json-out ${work}/sweep_analytic_nocache.json
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "sweep --l2-model both --victim 4 --trace-cache off --json-out failed: ${status}")
endif()

# Both aggregate shapes: cache on (trace_cache block present) and off.
execute_process(
    COMMAND ${STREAMSIM_CLI} sweep --benchmark mgrid --refs 50000
            --values 1,4 --trace-cache off
            --json-out ${work}/sweep_nocache.json
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "sweep --trace-cache off --json-out failed: ${status}")
endif()

# Time-sampled input at sampled fidelity: the sampling section carries
# the phase plan's intervals and the TimeSampler counts.
execute_process(
    COMMAND ${STREAMSIM_CLI} sweep --benchmark mgrid --refs 50000
            --values 1,4 --sample --fidelity sampled
            --json-out ${work}/sweep_sampled.json
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "sweep --sample --fidelity sampled --json-out failed: ${status}")
endif()

# Sampled run with a victim buffer: its victim hit rate is a ratio of
# weighted sums like every other rate, so it agrees with its counts.
execute_process(
    COMMAND ${STREAMSIM_CLI} run --benchmark mgrid --refs 200000
            --victim 8 --fidelity sampled
            --json-out ${work}/run_sampled_victim.json
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "run --victim 8 --fidelity sampled --json-out failed: ${status}")
endif()

execute_process(
    COMMAND ${PYTHON} ${SOURCE_DIR}/tools/validate_metrics.py
            --self-test ${work}/run.json ${work}/sweep.json
            ${work}/run_analytic.json ${work}/sweep_analytic.json
            ${work}/sweep_analytic_nocache.json ${work}/sweep_nocache.json
            ${work}/sweep_sampled.json ${work}/run_sampled_victim.json
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "schema validation failed: ${status}")
endif()
