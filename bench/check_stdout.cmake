# Runs one bench driver and compares the SHA-256 of its stdout with the
# driver's line in a digest file (`<sha256>  <name>` per line, the format
# `sha256sum` prints). The stdout is also written to `<name>.stdout` in the
# working directory, so a failing run can be diffed against a good one.
#
#   cmake -DDRIVER=<executable> -DNAME=<name> -DDIGESTS=<file>
#         -P check_stdout.cmake
#
# After a change that is meant to move a driver's output, regenerate its
# line from the new stdout: sha256sum < <name>.stdout.

foreach(var DRIVER NAME DIGESTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND "${DRIVER}" OUTPUT_VARIABLE stdout
                RESULT_VARIABLE status)
file(WRITE "${NAME}.stdout" "${stdout}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${status}")
endif()

string(SHA256 actual "${stdout}")
file(STRINGS "${DIGESTS}" lines REGEX "^[0-9a-f]+  ${NAME}$")
list(LENGTH lines count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "${DIGESTS} has ${count} lines for ${NAME}, not 1")
endif()
string(REGEX REPLACE "  .*$" "" expected "${lines}")
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${NAME} stdout digest ${actual}, expected ${expected} "
                      "(stdout in ${NAME}.stdout)")
endif()
