# Pins a figure driver's --quick output: its stdout must match the committed
# golden file byte for byte. GOLDEN may list several files, comma-separated:
# the stdout must then match them concatenated in that order.
#
#   cmake -DDRIVER=<binary> -DSEED=<n> -DGOLDEN=<file>[,<file>...] -P figure_golden_test.cmake
execute_process(
  COMMAND ${DRIVER} --quick --seed ${SEED}
  OUTPUT_VARIABLE got
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --quick --seed ${SEED} exited ${rc}")
endif()
string(REPLACE "," ";" goldens "${GOLDEN}")
set(want "")
foreach(golden IN LISTS goldens)
  file(READ ${golden} part)
  string(APPEND want "${part}")
endforeach()
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${DRIVER} --quick --seed ${SEED} drifted from the "
                      "golden file(s) ${GOLDEN}\n--- got ---\n${got}"
                      "--- want ---\n${want}")
endif()
