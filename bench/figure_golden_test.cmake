# Pins a figure driver's --quick output: its stdout must match the committed
# golden file byte for byte.
#
#   cmake -DDRIVER=<binary> -DSEED=<n> -DGOLDEN=<file> -P figure_golden_test.cmake
execute_process(
  COMMAND ${DRIVER} --quick --seed ${SEED}
  OUTPUT_VARIABLE got
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --quick --seed ${SEED} exited ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${DRIVER} --quick --seed ${SEED} drifted from the "
                      "golden file ${GOLDEN}\n--- got ---\n${got}"
                      "--- want ---\n${want}")
endif()
