# Resumes the fleet catalog committed under tests/fixtures/fleet_catalog
# and compares the resumed --report against the report of an
# uninterrupted catalog run, tests/golden/bench_fleet.tiny.catalog.report.json.
# The fixture was written by an earlier build, so a change that moves a
# key or reformats a number in the WAL genesis record, its frames or
# the snapshot fails here instead of refusing users' catalogs.
#
#   cmake -DBENCH=<bench_fleet> -DFIXTURE=<fixture dir> -DGOLDEN=<report>
#         -DOUT_DIR=<scratch dir> -P catalog_resume.cmake
#
# The fixture is `bench_fleet --tiny --catalog <dir> --fsync
# --compact-every 5 --stop-after 13` (killed with exit 137): a snapshot
# plus a WAL tail holding a `place` frame.

set(catalog "${OUT_DIR}/catalog")
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
file(COPY "${FIXTURE}/" DESTINATION "${catalog}")

set(report "${OUT_DIR}/report.json")
execute_process(COMMAND "${BENCH}" --tiny --catalog "${catalog}" --fsync
        --compact-every 5 --resume --report "${report}"
    OUTPUT_QUIET
    ERROR_VARIABLE bench_stderr
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
        "bench_fleet --resume exited with ${status}:\n${bench_stderr}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${report}" "${GOLDEN}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "resumed report ${report} differs from ${GOLDEN}")
endif()
