# Runs `BENCH --quick` in an empty directory WORK_DIR and fails if a
# BENCH_*.json record appears there: a quick run writes its record only to
# an explicit --out. Exit 2 (an acceptance bar missed on a busy host) is
# not a failure here; any other nonzero exit is.
#
#   cmake -DBENCH=<binary> -DWORK_DIR=<dir> -P expect_no_record.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" --quick
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
file(GLOB records "${WORK_DIR}/BENCH_*.json")
file(REMOVE_RECURSE "${WORK_DIR}")
if(records)
  message(FATAL_ERROR "a --quick run without --out wrote ${records}")
endif()
if(NOT rc EQUAL 0 AND NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH} --quick exited with ${rc}")
endif()
