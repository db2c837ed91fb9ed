# Runs the multi-tenant mixed-stream harness through the pbt-bench CLI:
# three golden models interleaved in one deterministic schedule, served
# through the daemon-side ModelRegistry, every answer replay-checked.
#
#   1. `pbt-bench stream --mix` must exit 0 (nonzero means a served
#      answer diverged from the per-tenant in-process replay) and emit
#      the BENCH_stream_mix.json record into its private scratch dir.
#   2. The record must parse as JSON and report the mixed-stream fields
#      the CI artifact consumers rely on (per-tenant accounting, parity
#      verdict).
#
# Invoked by ctest (label: integration) with -DPBT_BENCH, -DGOLDEN_DIR
# and -DWORK_DIR defined. WORK_DIR must be unique to this test: ctest -j
# runs CLI tests concurrently, and shared scratch dirs are exactly the
# collision the per-test --out-dir discipline exists to prevent.

file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${PBT_BENCH} stream --mix
          --model=${GOLDEN_DIR}/sort1.pbt,${GOLDEN_DIR}/clustering1.pbt,${GOLDEN_DIR}/binpacking.pbt
          --requests=300 --window=32 --reservoir=32
          --json --out-dir=${WORK_DIR}
  RESULT_VARIABLE MIX_RESULT
  OUTPUT_VARIABLE MIX_OUTPUT
  ERROR_VARIABLE MIX_OUTPUT)
if(NOT MIX_RESULT EQUAL 0)
  message(FATAL_ERROR "pbt-bench stream --mix failed:\n${MIX_OUTPUT}")
endif()

if(NOT EXISTS ${WORK_DIR}/BENCH_stream_mix.json)
  message(FATAL_ERROR
    "pbt-bench stream --mix --json wrote no BENCH_stream_mix.json")
endif()

file(READ ${WORK_DIR}/BENCH_stream_mix.json MIX_JSON)
# The record must parse as JSON (CMake's parser rejects malformed
# values, unbalanced brackets and missing commas) and name its
# subcommand.
string(JSON SUBCOMMAND ERROR_VARIABLE PARSE_ERROR
       GET "${MIX_JSON}" subcommand)
if(PARSE_ERROR OR NOT SUBCOMMAND STREQUAL "stream-mix")
  message(FATAL_ERROR
    "BENCH_stream_mix.json does not parse as a stream-mix report: ${PARSE_ERROR}\n${MIX_JSON}")
endif()
foreach(field "\"subcommand\": \"stream-mix\"" "\"parity_ok\": true"
        "\"parity_mismatches\": 0" "\"tenants\"" "\"first_shift_tick\""
        "\"decisions_per_sec\"")
  string(FIND "${MIX_JSON}" "${field}" FIELD_POS)
  if(FIELD_POS EQUAL -1)
    message(FATAL_ERROR
      "BENCH_stream_mix.json is missing expected field ${field}:\n${MIX_JSON}")
  endif()
endforeach()
