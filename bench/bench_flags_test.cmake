# Bench flag parsing is strict: every malformed command line below must exit
# with code 2 and an error naming the offending flag; --help exits 0.
#
#   cmake -DDRIVER=<binary> -P bench_flags_test.cmake
set(cases
  "--reps"
  "--reps abc"
  "--reps 0"
  "--reps -3"
  "--reps 2x"
  "--seed"
  "--seed -1"
  "--seed abc"
  "--seed 7.5"
  "--seed 99999999999999999999999"
  "--qiuck"
  "--quick --bogus")
foreach(case IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${case}")
  # The flag the error must name: the unknown one, else the first.
  list(GET argv -1 flag)
  if(NOT flag MATCHES "^--" OR flag MATCHES "^--(reps|seed)$")
    list(GET argv 0 flag)
  endif()
  execute_process(
    COMMAND ${DRIVER} ${argv}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${case}': expected exit 2, got ${rc}\n${out}${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${case}': error does not name ${flag}: ${err}")
  endif()
endforeach()
execute_process(COMMAND ${DRIVER} --help RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--help: expected exit 0, got ${rc}")
endif()
