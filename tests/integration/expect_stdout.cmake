# Run one command and require exit status 0 and a stdout equal to a
# golden file byte for byte. On a mismatch, print a unified diff
# (golden, then actual) and fail.
#
#   cmake -DCMD=<exe> -DARGS=<arg1|arg2|...> -DGOLDEN=<file>
#         -DACTUAL=<output file> -P expect_stdout.cmake

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE status
                OUTPUT_FILE "${ACTUAL}"
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "exit status '${status}'\nstderr:\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
    # Not captured: message() would reflow the diff's lines.
    execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
    message(FATAL_ERROR "stdout differs from ${GOLDEN} (diff above)")
endif()
