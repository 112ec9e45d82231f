# Runs a main() of 1000 nested `if (x)` statements under `minicc -run` on
# one execution engine and fails unless main returns 7. Bytecode
# translation must stay linear in the nesting depth.
#
#   cmake -DMINICC=<minicc> -DENGINE=<bytecode|tiered> -DWORK=<dir>
#         -P run_nested_if.cmake
string(REPEAT "  if (x) {\n" 1000 Open)
string(REPEAT "  }\n" 1000 Close)
set(Source "${WORK}/nested_if_${ENGINE}.c")
file(WRITE "${Source}"
     "int main() {\n  int x = 1;\n  int r = 0;\n${Open}  r = 7;\n${Close}"
     "  return r;\n}\n")
execute_process(COMMAND "${MINICC}" -run "--exec-engine=${ENGINE}" "${Source}"
                RESULT_VARIABLE Status OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Status EQUAL 0 OR NOT Out MATCHES "main returned 7")
  message(FATAL_ERROR "minicc -run --exec-engine=${ENGINE}: status "
                      "${Status}\n${Out}${Err}")
endif()
