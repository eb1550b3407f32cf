# ctest dswm_cli_trace_jsonl:
#   cmake -DCLI=<path to dswm_cli> -DOUT_DIR=<writable dir>
#         -P cli_trace_jsonl_test.cmake
# `run --trace-jsonl FILE` writes the merged message ledger, one
# `{"seq":...}` line per transmission: as many lines as the `sends` count
# the run prints. A path the CLI cannot open exits 1 with an IoError.
set(trace "${OUT_DIR}/cli_trace_jsonl_test.jsonl")
file(REMOVE "${trace}")
set(run_args run --dataset pamap --algorithm CENTRAL --rows 3000 --sites 4
             --net-drop 0.01 --net-seed 7 --queries 5)

execute_process(COMMAND ${CLI} ${run_args} --trace-jsonl ${trace}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run --trace-jsonl exited ${rc}:\n${out}${err}")
endif()
string(REGEX MATCH "wire bytes +: [0-9]+ payload \\([0-9]+ framed, ([0-9]+) sends\\)"
       wire_line "${out}")
if(NOT wire_line)
  message(FATAL_ERROR "no 'wire bytes' line in the run output:\n${out}")
endif()
set(sends "${CMAKE_MATCH_1}")
file(STRINGS "${trace}" lines)
file(STRINGS "${trace}" seq_lines REGEX "^{\"seq\":")
list(LENGTH lines n_lines)
list(LENGTH seq_lines n_seq)
if(sends EQUAL 0 OR NOT n_lines EQUAL sends OR NOT n_seq EQUAL sends)
  message(FATAL_ERROR "trace has ${n_lines} lines (${n_seq} starting "
                      "{\"seq\":), want one per send (${sends})")
endif()
file(REMOVE "${trace}")

execute_process(COMMAND ${CLI} ${run_args}
                        --trace-jsonl "${OUT_DIR}/no-such-dir/trace.jsonl"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "error: IoError" at)
if(NOT rc EQUAL 1 OR at EQUAL -1)
  message(FATAL_ERROR
          "unwritable trace path: want exit 1 and an IoError, got ${rc}:\n${err}")
endif()
