# Runs every training paper subcommand through the pbt-bench CLI on two
# small families, once without a thread pool and once with two workers:
#
#   1. each run must exit 0;
#   2. both runs must print the same stdout, apart from the "Total wall
#      time" line (pooled training reduces in the sequential order, so
#      every reported figure must agree).
#
# Invoked by ctest (label: integration) with -DPBT_BENCH and -DWORK_DIR
# defined. WORK_DIR must be unique to this test: fig6 and fig8 write CSV
# series into it, and ctest -j runs CLI tests concurrently.

set(SUBCOMMANDS table1 fig6 fig8 ablation-eta ablation-landmarks
    ablation-twolevel)

# Runs SUBCOMMAND with THREADING (--sequential or --threads=N) and stores
# its stdout, wall-time line removed, in the variable OUT.
function(run_paper SUBCOMMAND THREADING OUT)
  set(DIR ${WORK_DIR}/${SUBCOMMAND}${THREADING})
  file(MAKE_DIRECTORY ${DIR})
  execute_process(
    COMMAND ${PBT_BENCH} ${SUBCOMMAND} --only=sort1,binpacking --scale=0.1
            ${THREADING} --out-dir=${DIR}
    RESULT_VARIABLE RESULT
    OUTPUT_VARIABLE STDOUT
    ERROR_VARIABLE STDERR)
  if(NOT RESULT EQUAL 0)
    message(FATAL_ERROR
      "pbt-bench ${SUBCOMMAND} ${THREADING} exited ${RESULT}:\n${STDOUT}\n${STDERR}")
  endif()
  string(REGEX REPLACE "Total wall time:[^\n]*\n" "" STDOUT "${STDOUT}")
  set(${OUT} "${STDOUT}" PARENT_SCOPE)
endfunction()

foreach(SUBCOMMAND ${SUBCOMMANDS})
  run_paper(${SUBCOMMAND} --sequential SEQUENTIAL)
  run_paper(${SUBCOMMAND} --threads=2 POOLED)
  if(SEQUENTIAL STREQUAL "")
    message(FATAL_ERROR "pbt-bench ${SUBCOMMAND} printed nothing")
  endif()
  if(NOT SEQUENTIAL STREQUAL POOLED)
    message(FATAL_ERROR
      "pbt-bench ${SUBCOMMAND} printed differently with --threads=2:\n"
      "--- --sequential\n${SEQUENTIAL}\n--- --threads=2\n${POOLED}")
  endif()
endforeach()
