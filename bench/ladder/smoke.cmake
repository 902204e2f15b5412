# perf_ladder_smoke: runs every workload once with --quick (1/8-size
# inputs, one set-up, one pass) plus its traced pass, checks each report,
# then compares the set of reports with itself.
#
#   cmake -DLADDER=<perf_ladder> -DOUT=<dir> -P smoke.cmake
set(workloads bfs-social road-sssp tasks-spawn cluster-4dev)
set(metrics jobs_per_s job_ms_p50 job_ms_p90 sim_ms setup_s peak_rss_mb fail_ratio)

file(MAKE_DIRECTORY ${OUT})
set(reports)
foreach(w IN LISTS workloads)
  set(report ${OUT}/${w}.json)
  execute_process(
    COMMAND ${LADDER} --workload ${w} --seed 1 --quick --trace 1
            --json ${report} --spans ${OUT}/${w}.spans.json
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_ladder --workload ${w} --quick exited ${rc}")
  endif()
  file(READ ${report} doc)
  string(JSON name GET "${doc}" workload)
  if(NOT name STREQUAL w)
    message(FATAL_ERROR "${report} names workload '${name}'")
  endif()
  foreach(m IN LISTS metrics)
    # GET fails the script when the key is missing.
    string(JSON value GET "${doc}" end_to_end ${m} value)
  endforeach()
  string(JSON fail GET "${doc}" end_to_end fail_ratio value)
  if(NOT fail EQUAL 0)
    message(FATAL_ERROR "${w}: fail_ratio ${fail}")
  endif()
  file(READ ${OUT}/${w}.spans.json spans)
  string(JSON n_spans LENGTH "${spans}" traceEvents)
  if(n_spans EQUAL 0)
    message(FATAL_ERROR "${w}: no spans written")
  endif()
  list(APPEND reports ${report})
endforeach()

execute_process(COMMAND ${LADDER} --compare ${reports} -- ${reports}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_ladder --compare of a set with itself exited ${rc}")
endif()
