# ctest dswm_cli_sweep_epsilons:
#   cmake -DCLI=<path to dswm_cli> -P cli_sweep_epsilons_test.cmake
# A malformed or non-finite --epsilons entry exits 1 with an
# InvalidArgument naming it, before anything runs; a valid list prints one
# CSV row per epsilon. The other numeric flags go through the same reader:
# a malformed value, or a count past int's range that would otherwise wrap
# (4294967297 read as 1), exits 1 with an InvalidArgument naming the flag,
# and prints nothing on stdout.
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

foreach(case "run;--rows;abc" "run;--epsilon;0.1x" "serve-bench;--readers;2x"
        "datasets;--rows;1e3" "run;--rows;4294967297"
        "serve-bench;--dim;-4294967295")
  list(GET case 1 flag)
  list(GET case 2 value)
  execute_process(COMMAND ${CLI} ${case}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "InvalidArgument: ${flag} '${value}'" at)
  if(NOT rc EQUAL 1 OR at EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR "dswm_cli ${case} exited ${rc}:\n${out}${err}")
  endif()
endforeach()
