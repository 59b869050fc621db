# Stdout-identity check for the bench binaries and fuzz_driver.
#
# Runs BENCH twice, once with ARGS_A and once with ARGS_B (with ENV_B added
# to the second run's environment), and fails unless both runs exit 0 and
# print byte-identical stdout. Two runs that fail the same way would also
# compare equal, so success is required, not just agreement. The ctests
# built on it (sm_add_identity_test in the top-level CMakeLists.txt):
#   determinism_*     --jobs=1 vs --jobs=4: --jobs never changes simulated
#                     output (DESIGN.md §9);
#   dbt_identity_*    ENV_B=SM_DBT=0: the block engine is a host-side fast
#                     path and never changes a simulated number (§13);
#   cores_identity_*  ARGS_B adds --cores=1: SMP is opt-in and the
#                     single-core output is the flagless one (§16).
#
# Usage:
#   cmake -DBENCH=<path> -DWORK_DIR=<dir> [-DARGS_A=<arg;...>]
#         [-DARGS_B=<arg;...>] [-DENV_B=<VAR=value;...>]
#         -P StdoutIdentityCheck.cmake
# Both runs also get --no-progress.
if(NOT DEFINED BENCH OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "StdoutIdentityCheck: BENCH and WORK_DIR required")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(out_a "${WORK_DIR}/a.stdout")
set(out_b "${WORK_DIR}/b.stdout")
set(run_a "${BENCH}" ${ARGS_A} --no-progress)
set(run_b ${ENV_B} "${BENCH}" ${ARGS_B} --no-progress)
list(JOIN run_a " " cmd_a)
list(JOIN run_b " " cmd_b)

execute_process(
  COMMAND ${run_a}
  OUTPUT_FILE "${out_a}"
  RESULT_VARIABLE rc_a)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${run_b}
  OUTPUT_FILE "${out_b}"
  RESULT_VARIABLE rc_b)

if(NOT rc_a EQUAL 0 OR NOT rc_b EQUAL 0)
  message(FATAL_ERROR
    "both runs must exit 0:\n  ${cmd_a}  -> ${rc_a}\n  ${cmd_b}  -> ${rc_b}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${out_a}" "${out_b}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "stdout differs (compare ${out_a} vs ${out_b}):\n"
    "  ${cmd_a}\n  ${cmd_b}")
endif()

message(STATUS "stdout byte-identical, both exit 0:\n  ${cmd_a}\n  ${cmd_b}")
