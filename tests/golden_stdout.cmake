# Runs a command and compares its stdout byte-for-byte with a golden file.
#
#   cmake -DCOMMAND=<binary> -DARGS="<args>" -DGOLDEN=<file> -DACTUAL=<file>
#         -P golden_stdout.cmake
#
# On a mismatch the actual output is written to ACTUAL so it can be diffed
# against GOLDEN. A golden moves only with an intended change to the
# report, never to make a refactor pass.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} ${ARGS} exited with ${rc}:\n${stderr}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
          "stdout of '${ARGS}' drifted from ${GOLDEN}; actual output "
          "written to ${ACTUAL}")
endif()
