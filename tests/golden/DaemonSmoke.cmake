# The pbt-serve daemon end to end through the two shipped binaries:
#
#   1. `pbt-bench loadgen --spawn` forks a private pbt-serve over the
#      committed golden sort1 model, drives N concurrent connections
#      through sustained + saturation phases, and shuts the server down
#      over the protocol (no orphaned daemons, no leftover sockets).
#   2. Every daemon answer is checked against an in-process
#      AdaptiveService::decideAnswers replay; a single differing
#      landmark fails the run (exit 1), so exit 0 *is* the parity gate.
#   3. The BENCH_serve_daemon.json record must parse as JSON and carry
#      the fields CI uploads: both phases, tail percentiles (p999), shed
#      accounting, the parity verdict, and the CPU the reaped daemon
#      burned (a number, since this daemon was spawned and shut down).
#   4. A second, shorter run serves all seven golden models at once. Their
#      Stats outgrow a 4 KiB string field, and the report's server_stats
#      must still parse down to the seventh tenant's name. The tenants
#      build concurrently, yet must be listed in --model order (given
#      reverse-alphabetical here, so the order is not the files' order).
#
# Invoked by ctest (label: integration) with -DPBT_BENCH, -DPBT_SERVE,
# -DGOLDEN_DIR and -DWORK_DIR defined.

file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${PBT_BENCH} loadgen --spawn --server-exe=${PBT_SERVE}
          --model=${GOLDEN_DIR}/sort1.pbt
          --connections=4 --workers=2 --queue=16
          --seconds=0.4
          --json --out-dir=${WORK_DIR}
  RESULT_VARIABLE LOADGEN_RESULT
  OUTPUT_VARIABLE LOADGEN_OUTPUT
  ERROR_VARIABLE LOADGEN_OUTPUT
  TIMEOUT 120)
if(NOT LOADGEN_RESULT EQUAL 0)
  message(FATAL_ERROR "pbt-bench loadgen failed (${LOADGEN_RESULT}):\n${LOADGEN_OUTPUT}")
endif()

if(NOT EXISTS ${WORK_DIR}/BENCH_serve_daemon.json)
  message(FATAL_ERROR "loadgen --json wrote no BENCH_serve_daemon.json")
endif()

file(READ ${WORK_DIR}/BENCH_serve_daemon.json DAEMON_JSON)
# The record must parse as JSON (CMake's parser rejects malformed
# values, unbalanced brackets and missing commas) and name its
# subcommand.
string(JSON SUBCOMMAND ERROR_VARIABLE PARSE_ERROR
       GET "${DAEMON_JSON}" subcommand)
if(PARSE_ERROR OR NOT SUBCOMMAND STREQUAL "loadgen")
  message(FATAL_ERROR
    "BENCH_serve_daemon.json does not parse as a loadgen report: ${PARSE_ERROR}\n${DAEMON_JSON}")
endif()
foreach(field "\"subcommand\": \"loadgen\"" "\"spawned\": true"
        "\"sustained\"" "\"saturation\"" "\"p999_us\""
        "\"decisions_per_sec\"" "\"shed\"" "\"parity_checked\": true"
        "\"choices_match_inprocess\": true" "\"server_stats\""
        "\"server_exit\": 0")
  string(FIND "${DAEMON_JSON}" "${field}" FIELD_POS)
  if(FIELD_POS EQUAL -1)
    message(FATAL_ERROR
      "BENCH_serve_daemon.json is missing expected field ${field}:\n${DAEMON_JSON}")
  endif()
endforeach()
# The spawned daemon was reaped after a clean shutdown, so its CPU is a
# number, not null.
foreach(key server_cpu_s server_cpu_us_per_decision)
  string(JSON KEY_TYPE ERROR_VARIABLE KEY_ERROR
         TYPE "${DAEMON_JSON}" ${key})
  if(KEY_ERROR OR NOT KEY_TYPE STREQUAL "NUMBER")
    message(FATAL_ERROR
      "BENCH_serve_daemon.json: ${key} is not a number (${KEY_TYPE} ${KEY_ERROR}):\n${DAEMON_JSON}")
  endif()
endforeach()

file(GLOB GOLDEN_MODELS ${GOLDEN_DIR}/*.pbt)
list(LENGTH GOLDEN_MODELS MODEL_COUNT)
if(NOT MODEL_COUNT EQUAL 7)
  message(FATAL_ERROR "expected 7 golden models, found ${MODEL_COUNT}")
endif()
list(SORT GOLDEN_MODELS)
list(REVERSE GOLDEN_MODELS)
list(JOIN GOLDEN_MODELS "," MODEL_LIST)
execute_process(
  COMMAND ${PBT_BENCH} loadgen --spawn --server-exe=${PBT_SERVE}
          --model=${MODEL_LIST}
          --connections=2 --workers=2 --queue=16
          --seconds=0.2
          --json --out-dir=${WORK_DIR}/all
  RESULT_VARIABLE LOADGEN_RESULT
  OUTPUT_VARIABLE LOADGEN_OUTPUT
  ERROR_VARIABLE LOADGEN_OUTPUT
  TIMEOUT 120)
if(NOT LOADGEN_RESULT EQUAL 0)
  message(FATAL_ERROR "pbt-bench loadgen over all golden models failed (${LOADGEN_RESULT}):\n${LOADGEN_OUTPUT}")
endif()
file(READ ${WORK_DIR}/all/BENCH_serve_daemon.json DAEMON_JSON)
string(JSON LAST_TENANT ERROR_VARIABLE PARSE_ERROR
       GET "${DAEMON_JSON}" server_stats tenants 6 name)
if(PARSE_ERROR)
  message(FATAL_ERROR
    "server_stats of the seven-tenant run does not reach its last tenant: ${PARSE_ERROR}\n${DAEMON_JSON}")
endif()
set(INDEX 0)
foreach(model ${GOLDEN_MODELS})
  get_filename_component(EXPECTED_NAME ${model} NAME_WE)
  string(JSON TENANT_NAME GET "${DAEMON_JSON}" server_stats tenants ${INDEX} name)
  if(NOT TENANT_NAME STREQUAL EXPECTED_NAME)
    message(FATAL_ERROR
      "server_stats tenant ${INDEX} is '${TENANT_NAME}', expected '${EXPECTED_NAME}' (the --model order)\n${DAEMON_JSON}")
  endif()
  math(EXPR INDEX "${INDEX} + 1")
endforeach()
