# Pins the sglint output format (path:line:rule:message, sorted)
# against a checked-in golden file.
#
#   cmake -DSGLINT=<binary> -DFIXTURE=<file> -DGOLDEN=<file> -P golden_test.cmake
execute_process(
  COMMAND ${SGLINT} ${FIXTURE}
  OUTPUT_VARIABLE got
  RESULT_VARIABLE rc)
if(rc GREATER 1)
  message(FATAL_ERROR "sglint failed to run (exit ${rc})")
endif()
file(READ ${GOLDEN} want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "sglint output drifted from the golden file "
                      "${GOLDEN}\n--- got ---\n${got}--- want ---\n${want}")
endif()
