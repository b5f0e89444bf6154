# Runs a command that must be refused: exits nonzero AND prints EXPECT.
#
#   cmake "-DEXPECT=<text>" -P expect_refusal.cmake -- <command> [args...]
#
# A plain WILL_FAIL test passes on any nonzero exit, and a
# PASS_REGULAR_EXPRESSION test ignores the exit code; this checks both.
set(cmd)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<text> -P expect_refusal.cmake -- <command>...")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a nonzero exit, got 0:\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "exit ${rc}, but the output lacks \"${EXPECT}\":\n${out}")
endif()
