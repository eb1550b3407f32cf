# ctest dswm_cli_sweep_epsilons:
#   cmake -DCLI=<path to dswm_cli> -P cli_sweep_epsilons_test.cmake
# A malformed or non-finite --epsilons entry exits 1 with an
# InvalidArgument naming it, before anything runs; a valid list prints one
# CSV row per epsilon.
foreach(bad "0.1junk" "abc" "inf")
  execute_process(COMMAND ${CLI} sweep --epsilons ${bad} --rows 300
                          --algorithms PWOR
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "InvalidArgument: --epsilons entry '${bad}'" at)
  if(NOT rc EQUAL 1 OR at EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR "sweep --epsilons ${bad} exited ${rc}:\n${out}${err}")
  endif()
endforeach()

execute_process(COMMAND ${CLI} sweep --epsilons 0.2,0.1 --rows 300
                        --algorithms PWOR
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(REGEX MATCHALL "\nPWOR,0\\.[12]," rows "${out}")
list(LENGTH rows n)
if(NOT rc EQUAL 0 OR NOT n EQUAL 2)
  message(FATAL_ERROR "sweep --epsilons 0.2,0.1 exited ${rc}:\n${out}${err}")
endif()
