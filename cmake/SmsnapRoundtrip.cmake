# smsnap file round trip: the snapshot reader and writer on a file stream,
# driven through the command-line tool.
#
#   1. smsnap save --at=100 -o FILE   a mid-run machine, written to a file;
#   2. smsnap dump FILE               the schema-free walk reads all of it;
#   3. smsnap diff FILE FILE          exits 0 and prints nothing;
#   4. smsnap resume FILE             restores from the file, at the
#                                     instruction the save stopped at, and
#                                     runs the case to completion.
#
# Usage:
#   cmake -DSMSNAP=<path> -DWORK_DIR=<dir> -P SmsnapRoundtrip.cmake
if(NOT DEFINED SMSNAP OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "SmsnapRoundtrip: SMSNAP and WORK_DIR required")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(snap "${WORK_DIR}/case.snap")
file(REMOVE "${snap}")

# Runs one smsnap command, fails unless it exits 0, and leaves its stdout
# in `out`.
function(smsnap step)
  execute_process(
    COMMAND "${SMSNAP}" ${step} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smsnap ${step} ${ARGN} -> ${rc}\n${stdout}${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
endfunction()

smsnap(save --seed=1 --at=100 -o "${snap}")
if(NOT out MATCHES "at instruction ([0-9]+) \\(mid-run\\)")
  message(FATAL_ERROR "save did not stop mid-run:\n${out}")
endif()
set(saved_at ${CMAKE_MATCH_1})

smsnap(dump "${snap}")
if(NOT out MATCHES "machine\\.config\\.engine = \"split-memory"
   OR NOT out MATCHES "machine\\.watchdog\\.present = false")
  message(FATAL_ERROR "dump did not walk the whole machine:\n${out}")
endif()

smsnap(diff "${snap}" "${snap}")
if(NOT out STREQUAL "")
  message(FATAL_ERROR "a snapshot differs from itself:\n${out}")
endif()

smsnap(resume "${snap}" --seed=1)
if(NOT out MATCHES "resumed from instruction ${saved_at}\n"
   OR NOT out MATCHES "result: +exited\n")
  message(FATAL_ERROR "resume did not run the case to completion:\n${out}")
endif()

message(STATUS "smsnap save/dump/diff/resume round trip through ${snap}")
