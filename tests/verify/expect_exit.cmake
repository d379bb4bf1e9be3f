# Run one command and require an exact exit status plus a stderr
# pattern. A crash (death by signal) or any other status fails.
#
#   cmake -DCMD=<exe> -DARGS=<arg1|arg2|...> -DEXIT=<status>
#         -DSTDERR=<regex> -P expect_exit.cmake

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT}")
    message(FATAL_ERROR
            "exit status '${status}', expected ${EXIT}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "stderr does not match '${STDERR}':\n${err}")
endif()
