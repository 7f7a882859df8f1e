# Writes bench_source.h, which defines EUNOMIA_BENCH_SOURCE: the git commit
# the bench binaries are built from, so every BENCH_*.json names the code it
# measured (bench/bench_json.h). Runs as a script at every build, not at
# configure time, so the id follows checkouts made after configuring;
# file(CONFIGURE) leaves the header untouched while the id is unchanged, so
# an unchanged checkout recompiles nothing.
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -DGIT_EXECUTABLE=<git> \
#         -P source_id.cmake
cmake_minimum_required(VERSION 3.20)
set(source "unknown")
if(GIT_EXECUTABLE AND EXISTS "${SOURCE_DIR}/.git")
  execute_process(COMMAND "${GIT_EXECUTABLE}" rev-parse HEAD
                  WORKING_DIRECTORY "${SOURCE_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE sha
                  OUTPUT_STRIP_TRAILING_WHITESPACE
                  ERROR_QUIET)
  if(rc EQUAL 0)
    set(source "git:${sha}")
    # Uncommitted edits to the code a bench compiles mean the numbers did
    # not come from that commit alone.
    execute_process(COMMAND "${GIT_EXECUTABLE}" diff --quiet HEAD --
                            src bench CMakeLists.txt
                    WORKING_DIRECTORY "${SOURCE_DIR}"
                    RESULT_VARIABLE dirty)
    if(NOT dirty EQUAL 0)
      string(APPEND source "-dirty")
    endif()
  endif()
endif()
file(CONFIGURE OUTPUT "${OUTPUT}"
     CONTENT "#define EUNOMIA_BENCH_SOURCE \"@source@\"\n"
     @ONLY)
