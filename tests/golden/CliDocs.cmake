# Every subcommand `pbt-bench --help` lists must have a row in the
# README's driver table (a line starting "| `NAME` |"), so a new
# subcommand cannot ship undocumented.
#
# Invoked by ctest (label: unit) with -DPBT_BENCH and -DREADME.

execute_process(COMMAND ${PBT_BENCH} --help
  RESULT_VARIABLE HELP_RESULT
  OUTPUT_VARIABLE HELP
  ERROR_VARIABLE HELP)
# The subcommands sit between "subcommands:" and "options:", one per
# line, each indented by two spaces.
string(REGEX MATCH "subcommands:(\n.*)\noptions:" SECTION "${HELP}")
string(REGEX MATCHALL "\n  [a-z][a-z0-9-]*" ENTRIES "${CMAKE_MATCH_1}")
if(NOT HELP_RESULT EQUAL 0 OR NOT ENTRIES)
  message(FATAL_ERROR "no subcommand list in pbt-bench --help:\n${HELP}")
endif()

file(READ ${README} README_TEXT)
foreach(entry ${ENTRIES})
  string(STRIP "${entry}" name)
  string(FIND "${README_TEXT}" "\n| `${name}` |" ROW_POS)
  if(ROW_POS EQUAL -1)
    list(APPEND MISSING ${name})
  endif()
endforeach()
if(MISSING)
  message(FATAL_ERROR "pbt-bench subcommands without a README row: ${MISSING}")
endif()
