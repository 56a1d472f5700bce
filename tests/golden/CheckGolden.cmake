# Golden-output check: run BENCH with ARGS (one space-separated
# string) and compare its stdout byte for byte with the file GOLDEN.
# On a mismatch the actual stdout is written next to the build's
# test working directory as <name>.actual so `diff` shows the drift.
# With ND_BLESS set in the environment the stdout is written to GOLDEN
# instead (tests/golden/bless.sh).
#
#   cmake -DBENCH=<exe> "-DARGS=--short --reliable" \
#         -DGOLDEN=<file> -P CheckGolden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} exited with status ${rc}")
endif()
if(DEFINED ENV{ND_BLESS})
    file(WRITE ${GOLDEN} "${actual}")
    return()
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME_WE)
    file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual "${actual}")
    message(FATAL_ERROR
            "stdout of ${BENCH} ${ARGS} differs from ${GOLDEN}; "
            "see ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
