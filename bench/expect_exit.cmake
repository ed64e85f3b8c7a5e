# Runs the command given after `--` and fails unless it exits with
# status ${EXPECT} (a plain add_test only tells zero from non-zero).
#
#   cmake -DEXPECT=<status> -P expect_exit.cmake -- <program> [args...]
set(cmd)
set(seen_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_dashes ON)
    endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT)
    message(FATAL_ERROR "`${cmd}` exited '${rc}', expected ${EXPECT}")
endif()
