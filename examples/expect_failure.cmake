# Runs COMMAND (a ;-separated list) and passes only if it exits non-zero
# AND its output matches the regular expression EXPECT — ctest's own
# PASS_REGULAR_EXPRESSION ignores the exit code, so it cannot check both.
#
#   cmake -DCOMMAND="bin;arg;..." -DEXPECT=regex -P expect_failure.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(code EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected output matching '${EXPECT}'")
endif()
