# Feeds custom_protocol input nested LEVELS deep and passes only if it exits
# 2 with a positioned diagnostic, not a crash. KIND selects the parser:
#   ltl-paren  --ltl '((...(true)...))'
#   ltl-unary  --ltl '!!...!true'
#   dsl-paren  a guard '[((...(true)...))]' in a copy of PROTOCOL
#   dsl-unary  a guard '[!!...!true]' in a copy of PROTOCOL
#
#   cmake -DBINARY=custom_protocol -DPROTOCOL=ticket.csp -DKIND=ltl-paren
#         -DLEVELS=100000 -DWORK_DIR=dir -P deep_nesting.cmake
if(KIND MATCHES "paren$")
  string(REPEAT "(" ${LEVELS} open)
  string(REPEAT ")" ${LEVELS} close)
  set(expr "${open}true${close}")
else()
  string(REPEAT "!" ${LEVELS} bangs)
  set(expr "${bangs}true")
endif()

if(KIND MATCHES "^ltl")
  set(args "${PROTOCOL}" --ltl "${expr}")
  set(expect "LTL parse error at offset [0-9]+: formula nested deeper than")
else()
  # Guard the first transition of the protocol with the deep expression.
  file(READ "${PROTOCOL}" text)
  string(FIND "${text}" "r(any j)?take" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no 'r(any j)?take' guard in ${PROTOCOL}")
  endif()
  string(SUBSTRING "${text}" 0 ${at} head)
  string(SUBSTRING "${text}" ${at} -1 tail)
  file(MAKE_DIRECTORY "${WORK_DIR}")
  set(deep "${WORK_DIR}/${KIND}.csp")
  file(WRITE "${deep}" "${head}[${expr}] ${tail}")
  set(args "${deep}")
  set(expect "[0-9]+:[0-9]+: expression nested deeper than")
endif()

execute_process(COMMAND "${BINARY}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(LENGTH "${err}" err_len)
if(err_len GREATER 2000)
  string(SUBSTRING "${err}" 0 2000 err)
endif()
message("exit ${code}\n${err}")
if(NOT code EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got ${code}")
endif()
if(NOT "${err}" MATCHES "${expect}")
  message(FATAL_ERROR "expected a diagnostic matching '${expect}'")
endif()
