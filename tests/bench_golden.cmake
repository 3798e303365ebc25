# Runs one bench harness with --tiny and compares its stdout, its
# --metrics snapshot and, with REPORT set, its --report JSON against
# tests/golden/<NAME>.tiny.{txt,metrics.json,report.json}.
#
#   cmake -DBENCH=<exe> -DNAME=<bench name> -DREPORT=<bool>
#         -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<scratch dir>
#         -P bench_golden.cmake
#
# With RAP_REGEN_GOLDEN set in the environment the fresh outputs are
# copied over the golden files instead, and the test reports itself
# skipped:
#
#   RAP_REGEN_GOLDEN=1 ctest -R BenchGolden

file(MAKE_DIRECTORY "${OUT_DIR}")
set(prefix "${NAME}.tiny")
set(outputs txt metrics.json)
set(args --tiny --metrics "${OUT_DIR}/${prefix}.metrics.json")
if(REPORT)
    list(APPEND outputs report.json)
    list(APPEND args --report "${OUT_DIR}/${prefix}.report.json")
endif()

execute_process(COMMAND "${BENCH}" ${args}
    OUTPUT_FILE "${OUT_DIR}/${prefix}.txt"
    ERROR_VARIABLE bench_stderr
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
        "${NAME} --tiny exited with ${status}:\n${bench_stderr}")
endif()

set(drifted "")
foreach(ext IN LISTS outputs)
    set(fresh "${OUT_DIR}/${prefix}.${ext}")
    set(golden "${GOLDEN_DIR}/${prefix}.${ext}")
    if(DEFINED ENV{RAP_REGEN_GOLDEN})
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E copy "${fresh}" "${golden}")
    elseif(NOT EXISTS "${golden}")
        list(APPEND drifted "${golden} (missing)")
    else()
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${fresh}" "${golden}"
            RESULT_VARIABLE differs)
        if(NOT differs EQUAL 0)
            list(APPEND drifted "${golden} (fresh output: ${fresh})")
        endif()
    endif()
endforeach()

if(DEFINED ENV{RAP_REGEN_GOLDEN})
    message(STATUS "golden files regenerated for ${NAME}")
elseif(drifted)
    list(JOIN drifted "\n  " lines)
    message(FATAL_ERROR
        "${NAME} --tiny output drifted from its golden files:\n"
        "  ${lines}\n"
        "If the change is intentional, regenerate with "
        "RAP_REGEN_GOLDEN=1 ctest -R BenchGolden")
endif()
