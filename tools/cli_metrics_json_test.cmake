# ctest dswm_cli_metrics_json:
#   cmake -DCLI=<path to dswm_cli> -DOUT_DIR=<writable dir>
#         -P cli_metrics_json_test.cmake
# `run --metrics-json FILE` writes the run's obs snapshot as one JSON line.
# The histogram linalg.batched.batch_size records the width of every
# BatchedDispatch batch, the driver's evaluation batch included: DA2 on
# this stream runs no other batch, so the histogram holds exactly one
# sample, the number of query points evaluated (33-64 for --queries 40).
set(metrics "${OUT_DIR}/cli_metrics_json_test.json")
file(REMOVE "${metrics}")
execute_process(COMMAND ${CLI} run --dataset pamap --algorithm DA2
                        --rows 3000 --queries 40 --metrics-json ${metrics}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run --metrics-json exited ${rc}:\n${out}${err}")
endif()
file(READ "${metrics}" json)
file(REMOVE "${metrics}")
string(JSON hist ERROR_VARIABLE missing
       GET "${json}" histograms linalg.batched.batch_size)
if(missing)
  message(FATAL_ERROR "no linalg.batched.batch_size histogram:\n${json}")
endif()
string(JSON samples GET "${hist}" count)
string(JSON width GET "${hist}" sum)
string(JSON edge GET "${hist}" edges 6)
string(JSON in_bucket GET "${hist}" counts 6)
if(NOT samples EQUAL 1 OR width LESS 33 OR width GREATER 64 OR
   NOT edge EQUAL 64 OR NOT in_bucket EQUAL 1)
  message(FATAL_ERROR "want one evaluation batch of 33-64 query points, "
                      "got ${samples} samples summing to ${width}: ${hist}")
endif()
