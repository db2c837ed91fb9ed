# Runs `pbt-bench rollout --faults` on a short sort1 schedule. It must
# exit 0, and its BENCH_rollout.json must parse, report zero golden
# mismatches (every store follower served CURRENT with its epoch's
# golden decisions) and one recovery per injected crash.
#
# Invoked by ctest (label: integration) with -DPBT_BENCH and a WORK_DIR
# unique to this test (the harness writes its model store there).

execute_process(
  COMMAND ${PBT_BENCH} rollout --only=sort1 --scale=0.1 --cycles=6
          --faults --fault-seed=7 --json --out-dir=${WORK_DIR}
  RESULT_VARIABLE ROLLOUT_RESULT
  OUTPUT_VARIABLE ROLLOUT_OUTPUT
  ERROR_VARIABLE ROLLOUT_OUTPUT)
if(NOT ROLLOUT_RESULT EQUAL 0)
  message(FATAL_ERROR "pbt-bench rollout failed:\n${ROLLOUT_OUTPUT}")
endif()

file(READ ${WORK_DIR}/BENCH_rollout.json ROLLOUT_JSON)
foreach(key golden_mismatches crashes_injected recoveries)
  string(JSON ${key} ERROR_VARIABLE PARSE_ERROR GET "${ROLLOUT_JSON}" ${key})
  if(PARSE_ERROR)
    message(FATAL_ERROR "BENCH_rollout.json: ${PARSE_ERROR}\n${ROLLOUT_JSON}")
  endif()
endforeach()
if(NOT golden_mismatches EQUAL 0 OR NOT crashes_injected EQUAL recoveries)
  message(FATAL_ERROR "rollout served a wrong decision or missed a "
    "recovery:\n${ROLLOUT_JSON}")
endif()
