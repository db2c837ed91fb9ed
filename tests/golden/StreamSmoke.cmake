# Runs the nonstationary-traffic harness through the pbt-bench CLI on an
# abrupt-shift sort1 schedule at small scale:
#
#   1. `pbt-bench stream` must exit 0 and emit the BENCH_stream.json
#      perf-trajectory record into its private scratch dir.
#   2. The record must parse as JSON and report the stream fields the
#      CI artifact consumers rely on (drift detections, swap history,
#      segments).
#
# Invoked by ctest (label: integration) with -DPBT_BENCH, -DGOLDEN_DIR
# and -DWORK_DIR defined. WORK_DIR must be unique to this test: ctest -j
# runs CLI tests concurrently, and shared scratch dirs are exactly the
# collision the per-test --out-dir discipline exists to prevent.

file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${PBT_BENCH} stream --model=${GOLDEN_DIR}/sort1.pbt
          --schedule=abrupt --requests=300 --key=2 --scale=0.5
          --window=32 --reservoir=32 --seconds=120 --threads=2
          --json --out-dir=${WORK_DIR}
  RESULT_VARIABLE STREAM_RESULT
  OUTPUT_VARIABLE STREAM_OUTPUT
  ERROR_VARIABLE STREAM_OUTPUT)
if(NOT STREAM_RESULT EQUAL 0)
  message(FATAL_ERROR "pbt-bench stream failed:\n${STREAM_OUTPUT}")
endif()

if(NOT EXISTS ${WORK_DIR}/BENCH_stream.json)
  message(FATAL_ERROR "pbt-bench stream --json wrote no BENCH_stream.json")
endif()

file(READ ${WORK_DIR}/BENCH_stream.json STREAM_JSON)
# The record must parse as JSON (CMake's parser rejects malformed
# values, unbalanced brackets and missing commas) and name its
# subcommand.
string(JSON SUBCOMMAND ERROR_VARIABLE PARSE_ERROR
       GET "${STREAM_JSON}" subcommand)
if(PARSE_ERROR OR NOT SUBCOMMAND STREQUAL "stream")
  message(FATAL_ERROR
    "BENCH_stream.json does not parse as a stream report: ${PARSE_ERROR}\n${STREAM_JSON}")
endif()
foreach(field "\"subcommand\": \"stream\"" "\"drift_detections\""
        "\"swap_history\"" "\"segments\"" "\"adaptive_mean_cost\"")
  string(FIND "${STREAM_JSON}" "${field}" FIELD_POS)
  if(FIELD_POS EQUAL -1)
    message(FATAL_ERROR
      "BENCH_stream.json is missing expected field ${field}:\n${STREAM_JSON}")
  endif()
endforeach()
