# Runs COMMAND (a ;-separated list) and passes only if it exits non-zero
# (EXPECT_CODE, if set) AND its output matches the regular expression
# EXPECT — ctest's own PASS_REGULAR_EXPRESSION ignores the exit code.
#
#   cmake -DCOMMAND="bin;arg;..." -DEXPECT=regex [-DEXPECT_CODE=2] -P expect_failure.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(code EQUAL 0 OR (DEFINED EXPECT_CODE AND NOT code EQUAL EXPECT_CODE))
  message(FATAL_ERROR "got exit code ${code}, want non-zero ${EXPECT_CODE}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected output matching '${EXPECT}'")
endif()
