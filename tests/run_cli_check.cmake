# Runs one driver command line and fails unless it exits with STATUS and
# its standard output followed by its standard error matches the regular
# expression OUTPUT.
#
#   cmake "-DCOMMAND=<program>|<arg>|..." -DSTATUS=<n> "-DOUTPUT=<regex>"
#         -P run_cli_check.cmake
#
# The command's words are separated by '|' so that the list survives
# add_test(). Environment variables come from the test's ENVIRONMENT.
string(REPLACE "|" ";" Command "${COMMAND}")
execute_process(COMMAND ${Command} RESULT_VARIABLE Status
                OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Status STREQUAL "${STATUS}" OR NOT "${Out}${Err}" MATCHES "${OUTPUT}")
  message(FATAL_ERROR "${Command}: status ${Status} (expected ${STATUS}), "
                      "output expected to match '${OUTPUT}'\n"
                      "stdout:\n${Out}\nstderr:\n${Err}")
endif()
