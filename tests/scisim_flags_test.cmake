# scisim reads every numeric flag (and SCI_BENCH_DAYS) as a checked
# number: a malformed value must exit 2 with a message naming its source,
# never run with a silent 0 or a truncated prefix.
#
#   cmake -DSCISIM=path/to/scisim -P scisim_flags_test.cmake

set(cases
  "--crash-rate=abc"
  "--claim-fail=0.1x"
  "--maintenance=1.5"
  "--seed=x"
  "--regions=2x"
  "--scale=fast"
  "--snapshot-at=noon")
foreach(case IN LISTS cases)
  string(REPLACE "=" ";" parts "${case}")
  list(GET parts 0 flag)
  list(GET parts 1 value)
  execute_process(COMMAND "${SCISIM}" simulate "${flag}" "${value}"
                  RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT status EQUAL 2 OR NOT err MATCHES "${flag}: expected")
    message(FATAL_ERROR "${flag} ${value}: exit ${status}, stderr: ${err}")
  endif()
endforeach()

execute_process(COMMAND "${CMAKE_COMMAND}" -E env SCI_BENCH_DAYS=two
                        "${SCISIM}" simulate
                RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT status EQUAL 2 OR NOT err MATCHES "SCI_BENCH_DAYS: expected")
  message(FATAL_ERROR "SCI_BENCH_DAYS=two: exit ${status}, stderr: ${err}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E env SCI_THREADS=abc
                        "${SCISIM}" simulate
                RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT status EQUAL 2 OR NOT err MATCHES "SCI_THREADS: expected")
  message(FATAL_ERROR "SCI_THREADS=abc: exit ${status}, stderr: ${err}")
endif()

# several --restore files on a one-region run: refuse instead of resuming
# from the first and dropping the rest (checked before any file is read)
execute_process(COMMAND "${SCISIM}" simulate --restore a.snap --restore b.snap
                RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT status EQUAL 2 OR NOT err MATCHES "--restore given 2 files")
  message(FATAL_ERROR "two --restore files: exit ${status}, stderr: ${err}")
endif()
