# Negative-compile test for the quantity types in src/common/time.hpp.
#
# Each forbidden expression below is compiled on its own and must be
# rejected: the explicit constructors and missing operators are what keep
# timestamps and spans from mixing. A control file that uses only allowed
# operations must compile, so a broken include path or compiler invocation
# cannot pass as a rejection.
#
#   cmake -DCXX=<compiler> -DSRC_DIR=<repo>/src -DWORK_DIR=<dir>
#         -P time_negative_compile.cmake

set(forbidden
  "TimePoint x = p + p"               # point + point
  "auto x = d - p"                    # duration - point
  "bool x = p < d"                    # point < duration
  "p = d"                             # TimePoint = Duration
  "d = p"                             # Duration = TimePoint
  "Duration x = 250"                  # bare integer as a duration
  "bool x = d < 1000"                 # duration compared with a number
  "int x = d"                         # duration narrowed to int
  "float x = d"                       # duration narrowed to float
  "std::int64_t x = 5_ms"             # literal narrowed to a raw count
  "auto x = d * d"                    # duration x duration
  "auto x = p * 2.0"                  # scaling a point
)

set(prologue "#include <cstdint>
#include \"common/time.hpp\"
using namespace sg;
using namespace sg::literals;
void use(Duration d, TimePoint p) {
")
set(epilogue ";
  (void)d; (void)p;
}
")

file(MAKE_DIRECTORY ${WORK_DIR})

function(try_compile_body name body out_result out_log)
  set(file ${WORK_DIR}/${name}.cpp)
  file(WRITE ${file} "${prologue}  ${body}${epilogue}")
  execute_process(
    COMMAND ${CXX} -std=c++20 -fsyntax-only -I ${SRC_DIR} ${file}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  set(${out_result} ${rc} PARENT_SCOPE)
  set(${out_log} "${out}" PARENT_SCOPE)
endfunction()

# Control: every allowed operation of the table in time.hpp.
try_compile_body(control
  "TimePoint q = p + d; q -= d; q = d + q;
  Duration x = q - p; x += 3 * 5_ms + d * 2.0 - d / 2 + d % 1_ms;
  double r = x / d;
  bool b = q < p && x < d; std::int64_t n = x.ns() + q.ns();
  (void)r; (void)b; (void)n"
  rc log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "control case failed to compile:\n${log}")
endif()

set(index 0)
set(accepted "")
foreach(body IN LISTS forbidden)
  math(EXPR index "${index} + 1")
  try_compile_body(case${index} "${body}" rc log)
  if(rc EQUAL 0)
    list(APPEND accepted "${body}")
  endif()
endforeach()
if(accepted)
  string(REPLACE ";" "\n  " accepted "${accepted}")
  message(FATAL_ERROR "forbidden expressions compiled:\n  ${accepted}")
endif()
list(LENGTH forbidden count)
message(STATUS "time_negative_compile: ${count} forbidden expressions "
               "rejected, control compiled")
