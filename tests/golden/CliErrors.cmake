# Malformed numeric flags must be loud, immediate, nonzero exits from
# both CLIs. The predecessor parsed flags with bare std::atoi/strtoull:
# `--seconds=banana` became 0 (an infinite default elsewhere),
# `--queue=-3` wrapped to 2^64-3, and both ran "successfully". The
# checked parsers (support/ParseNumber.h) make every one of these an
# error; this script pins the contract for a representative sample.
#
# Invoked by ctest (label: unit) with -DPBT_BENCH and -DPBT_SERVE.

function(expect_rejection expected_text)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE CMD_RESULT
    OUTPUT_VARIABLE CMD_OUTPUT
    ERROR_VARIABLE CMD_OUTPUT
    TIMEOUT 60)
  if(CMD_RESULT EQUAL 0)
    message(FATAL_ERROR
      "expected a nonzero exit from: ${ARGN}\noutput:\n${CMD_OUTPUT}")
  endif()
  string(FIND "${CMD_OUTPUT}" "${expected_text}" TEXT_POS)
  if(TEXT_POS EQUAL -1)
    message(FATAL_ERROR
      "expected '${expected_text}' in the rejection from: ${ARGN}\noutput:\n${CMD_OUTPUT}")
  endif()
endfunction()

# pbt-bench: garbage, half-parses, sign and range violations.
expect_rejection("bad --seconds value 'banana'"
  ${PBT_BENCH} loadgen --model=x.pbt --seconds=banana)
expect_rejection("bad --seconds value '1e'"
  ${PBT_BENCH} loadgen --model=x.pbt --seconds=1e)
expect_rejection("bad --threads value '-2'"
  ${PBT_BENCH} stream --model=x.pbt --threads=-2)
expect_rejection("bad --requests value '12abc'"
  ${PBT_BENCH} stream --model=x.pbt --requests=12abc)
expect_rejection("bad --connections value '0'"
  ${PBT_BENCH} loadgen --model=x.pbt --connections=0)
expect_rejection("bad --scale value '-1'"
  ${PBT_BENCH} table1 --scale=-1)

# pbt-serve: the same parser, the same loudness.
expect_rejection("bad --queue value '-3'"
  ${PBT_SERVE} --socket=/tmp/x.sock --model=x.pbt --queue=-3)
expect_rejection("bad --workers value 'many'"
  ${PBT_SERVE} --socket=/tmp/x.sock --model=x.pbt --workers=many)
expect_rejection("unknown argument"
  ${PBT_SERVE} --socket=/tmp/x.sock --model=x.pbt --frobnicate)
# The retrain pool is gone: a deployment still passing --threads fails
# loudly instead of being ignored.
expect_rejection("unknown argument"
  ${PBT_SERVE} --socket=/tmp/x.sock --model=x.pbt --threads=2)
# argv[0] lands in the usage line, so match the flag synopsis instead.
expect_rejection("--model=[NAME=]FILE"
  ${PBT_SERVE} --socket=/tmp/x.sock)
