# `cmake -DEXAMPLE=<binary> -P unknown_workload_test.cmake`: an example given
# a workload the catalog lacks exits 2 with an `error: unknown workload` line.
execute_process(COMMAND ${EXAMPLE} bogus ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "error: unknown workload 'bogus'\n")
  message(FATAL_ERROR "expected exit 2 and an error naming 'bogus': ${rc} ${err}")
endif()
