# Smoke check of a shipped binary: runs PROGRAM with ARGS once and fails
# unless it exits with EXIT and prints a whole line matching the regex
# LINE, on stdout or stderr. The ctests built on it (sm_add_smoke_test in
# the top-level CMakeLists.txt) cover the tools and examples no other test
# runs.
#
# Usage:
#   cmake -DPROGRAM=<path> [-DARGS=<arg;...>] -DEXIT=<code> -DLINE=<regex>
#         -P SmokeCheck.cmake
if(NOT DEFINED PROGRAM OR NOT DEFINED EXIT OR NOT DEFINED LINE)
  message(FATAL_ERROR "SmokeCheck: PROGRAM, EXIT and LINE required")
endif()

execute_process(
  COMMAND "${PROGRAM}" ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
list(JOIN ARGS " " args)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR
          "${PROGRAM} ${args} exited ${rc}, expected ${EXIT}\n${out}${err}")
endif()
string(REGEX MATCH "(^|\n)${LINE}(\n|$)" line "${out}\n${err}")
if(line STREQUAL "")
  message(FATAL_ERROR
          "${PROGRAM} ${args} printed no line matching '${LINE}':\n${out}${err}")
endif()
message(STATUS "${PROGRAM} ${args}: exit ${rc}, a line matching '${LINE}'")
