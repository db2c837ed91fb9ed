# The pbt-serve daemon end to end through the two shipped binaries:
#
#   1. `pbt-bench loadgen --spawn` forks a private pbt-serve over the
#      committed golden sort1 model, drives N concurrent connections
#      through sustained + saturation phases, and shuts the server down
#      over the protocol (no orphaned daemons, no leftover sockets).
#   2. Every daemon answer is checked against an in-process
#      AdaptiveService::decideBatch replay; a single differing
#      landmark fails the run (exit 1), so exit 0 *is* the parity gate.
#   3. The BENCH_serve_daemon.json record must carry the fields CI
#      uploads: both phases, tail percentiles (p999), shed accounting
#      and the parity verdict.
#
# Invoked by ctest (label: integration) with -DPBT_BENCH, -DPBT_SERVE,
# -DGOLDEN_DIR and -DWORK_DIR defined.

file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${PBT_BENCH} loadgen --spawn --server-exe=${PBT_SERVE}
          --model=${GOLDEN_DIR}/sort1.pbt
          --connections=4 --workers=2 --queue=16
          --seconds=0.4 --threads=2
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
