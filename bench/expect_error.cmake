# CTest driver: runs BENCH with ARGS (one space-separated string) and
# passes only when the process exits with status 1 and its stderr
# contains EXPECT. A bench given a bad option must print an error line
# and return 1; a PpdcError escaping main would abort with SIGABRT.
#
#   cmake -DBENCH=<binary> -DARGS="--k=x" -DEXPECT="--k" -P expect_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit status '${status}', want 1\n"
                      "stderr: ${err}")
endif()
string(FIND "${err}" "error: " at_error)
string(FIND "${err}" "${EXPECT}" at_expect)
if(at_error EQUAL -1 OR at_expect EQUAL -1)
  message(FATAL_ERROR "${BENCH} ${ARGS}: stderr does not name ${EXPECT} "
                      "in an error line: ${err}")
endif()
