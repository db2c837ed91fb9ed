# A report that cannot be written must be a loud nonzero exit. On a
# full disk the buffered bytes fail only when flushed, so the writer
# must check the close as well as the write. Here the report path is a
# symlink to /dev/full, which opens and buffers fine and fails on the
# flush.
#
# Invoked by ctest (label: unit) with -DPBT_BENCH, -DGOLDEN_DIR and
# -DWORK_DIR.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(CREATE_LINK /dev/full "${WORK_DIR}/BENCH_stream.json" SYMBOLIC)

execute_process(
  COMMAND ${PBT_BENCH} stream --model=${GOLDEN_DIR}/sort1.pbt
          --requests=50 --json --out-dir=${WORK_DIR}
  RESULT_VARIABLE CMD_RESULT
  OUTPUT_QUIET
  ERROR_VARIABLE CMD_ERR
  TIMEOUT 120)
if(CMD_RESULT EQUAL 0)
  message(FATAL_ERROR
    "pbt-bench stream exited 0 although its report went to /dev/full\n"
    "stderr:\n${CMD_ERR}")
endif()
set(EXPECTED "pbt-bench stream: cannot write '${WORK_DIR}/BENCH_stream.json'")
string(FIND "${CMD_ERR}" "${EXPECTED}" TEXT_POS)
if(TEXT_POS EQUAL -1)
  message(FATAL_ERROR "expected '${EXPECTED}' on stderr, got:\n${CMD_ERR}")
endif()
