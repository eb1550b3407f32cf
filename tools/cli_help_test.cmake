# ctest dswm_cli_help: `cmake -DCLI=<path to dswm_cli> -P cli_help_test.cmake`.
# Every way of asking for help must exit 0 and print a usage that names
# each subcommand; an unknown command must exit 1 with the usage on stderr;
# `dswm_cli algorithms` must list every name --algorithm accepts.
set(subcommands run sweep serve-bench datasets algorithms)

foreach(args "--help" "-h" "help" "run;--help")
  execute_process(COMMAND ${CLI} ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dswm_cli ${args} exited ${rc}: ${err}")
  endif()
  foreach(cmd ${subcommands})
    string(FIND "${out}" "dswm_cli ${cmd}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "dswm_cli ${args} does not list ${cmd}:\n${out}")
    endif()
  endforeach()
endforeach()

execute_process(COMMAND ${CLI} no-such-command
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "dswm_cli run" at)
if(NOT rc EQUAL 1 OR at EQUAL -1)
  message(FATAL_ERROR
          "unknown command: want exit 1 and usage on stderr, got ${rc}:\n${err}")
endif()

execute_process(COMMAND ${CLI} algorithms
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
foreach(name PWOR PWOR-ALL ESWOR ESWOR-ALL DA1 DA2 PWR ESWR PWR-ST ESWR-ST
        CENTRAL)
  string(FIND "${out}" "\n  ${name}\n" at)
  if(NOT rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "dswm_cli algorithms does not list ${name}:\n${out}")
  endif()
endforeach()
