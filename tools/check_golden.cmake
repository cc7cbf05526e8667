# Runs `${CLI} ${INPUT} ${ARGS}` and compares its stdout with the file
# ${EXPECTED} byte for byte, printing a diff on mismatch. ARGS is a
# semicolon-separated list. Usage (see tools/CMakeLists.txt):
#   cmake -DCLI=<usher-cli> -DINPUT=<prog.tc> -DARGS=--dot
#         -DEXPECTED=<golden file> -P tools/check_golden.cmake
execute_process(COMMAND ${CLI} ${INPUT} ${ARGS}
                OUTPUT_VARIABLE Actual
                RESULT_VARIABLE Status)
file(READ ${EXPECTED} Expected)
if(NOT Actual STREQUAL Expected)
  string(RANDOM LENGTH 8 Tag)
  set(ActualFile ${CMAKE_CURRENT_BINARY_DIR}/golden-actual-${Tag}.txt)
  file(WRITE ${ActualFile} "${Actual}")
  execute_process(COMMAND diff -u ${EXPECTED} ${ActualFile})
  file(REMOVE ${ActualFile})
  message(FATAL_ERROR "output of ${INPUT} ${ARGS} differs from ${EXPECTED}"
                      " (exit status ${Status})")
endif()
message(STATUS "check_golden: OK: ${EXPECTED}")
