# Runs BIN with the space-separated ARGS and fails unless it exits with code
# EXPECT and prints a usage line to stderr. Usage:
#   cmake -DBIN=<exe> "-DARGS=<args>" -DEXPECT=<code> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', expected ${EXPECT}\n${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${BIN} ${ARGS}: no usage line on stderr:\n${err}")
endif()
