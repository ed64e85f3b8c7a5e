# Runs `${BENCH} --json --smoke` in an empty ${WORKDIR} and fails unless
# the bench exits 2 without writing any file there.
#
#   cmake -DBENCH=<bench binary> -DWORKDIR=<work dir> \
#         -P expect_json_flag_rejected.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
    COMMAND "${BENCH}" --json --smoke
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "`--json --smoke` exited '${rc}', expected 2")
endif()
file(GLOB written "${WORKDIR}/*")
if(written)
    message(FATAL_ERROR "`--json --smoke` wrote ${written}")
endif()
