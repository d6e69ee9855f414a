# sg_run rejects malformed input: each case below must exit with code 2 and
# print an `error:` line naming the offending flag or config key, instead of
# running with a default.
#
#   cmake -DSG_RUN=<binary> -DWORK_DIR=<dir> -P sg_run_flags_test.cmake
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/valid.cfg "workload = chain\nduration_s = 1\n")
file(WRITE ${WORK_DIR}/nodes.cfg "workload = chain\nnodes = 2x\n")
file(WRITE ${WORK_DIR}/duration.cfg "workload = chain\nduration_s = two\n")
file(WRITE ${WORK_DIR}/trace.cfg "workload = chain\n[trace]\nenabled = ture\n")
file(WRITE ${WORK_DIR}/backoff.cfg
     "workload = chain\n[retry]\nenabled = true\nbackoff = nan\n")
file(WRITE ${WORK_DIR}/timeout.cfg "workload = chain\n[retry]\ntimeout_ms = 1e20\n")
file(WRITE ${WORK_DIR}/longest.cfg
     "workload = chain\n[retry]\nenabled = true\ntimeout_ms = 1000\nbackoff = 10\nmax = 20\n")
file(WRITE ${WORK_DIR}/nodes_wide.cfg "workload = chain\nnodes = 4294967297\n")
file(WRITE ${WORK_DIR}/max_wide.cfg "workload = chain\n[retry]\nmax = 4294967296\n")
file(WRITE ${WORK_DIR}/seed.cfg "workload = chain\nseed = -1\n")
file(WRITE ${WORK_DIR}/seed_wide.cfg "workload = chain\nseed = 99999999999999999999999\n")
file(WRITE ${WORK_DIR}/rate_nan.cfg "workload = chain\nrate_rps = nan\n")
file(WRITE ${WORK_DIR}/rate_neg.cfg "workload = chain\nrate_rps = -5\n")
file(WRITE ${WORK_DIR}/target.cfg "workload = chain\ntarget_mult = -1\n")
file(WRITE ${WORK_DIR}/qos.cfg "workload = chain\nqos_mult = nan\n")
file(WRITE ${WORK_DIR}/nodes_zero.cfg "workload = chain\nnodes = 0\n")
file(WRITE ${WORK_DIR}/duration_zero.cfg "workload = chain\nduration_s = 0\n")
file(WRITE ${WORK_DIR}/drain.cfg "workload = chain\ndrain_s = -1\n")
file(WRITE ${WORK_DIR}/period.cfg "workload = chain\n[surge]\nperiod_s = 0\n")
file(WRITE ${WORK_DIR}/len.cfg "workload = chain\n[surge]\nlen_ms = -5\n")
file(WRITE ${WORK_DIR}/detection_delay.cfg
     "workload = chain\ncontroller = ideal\n[ideal]\ndetection_delay_ms = -5\n")
file(WRITE ${WORK_DIR}/sample.cfg "workload = chain\n[trace]\nsample = 1.5\n")
file(WRITE ${WORK_DIR}/capacity.cfg "workload = chain\n[trace]\ncapacity = 0\n")
file(WRITE ${WORK_DIR}/unknown.cfg "workload = chain\n[retry]\ntimout_s = 5\n")
file(WRITE ${WORK_DIR}/service_name.cfg
     "workload = chain\n[service.no-such-service]\nexpected_exec_metric_us = 5\n")
file(WRITE ${WORK_DIR}/service_nan.cfg
     "workload = chain\n[service.chain-1]\nexpected_time_from_start_us = nan\n")
file(WRITE ${WORK_DIR}/service_neg.cfg
     "workload = chain\n[service.chain-1]\nexpected_time_from_start_us = -5\n")
file(WRITE ${WORK_DIR}/service_wide.cfg
     "workload = chain\n[service.chain-1]\nexpected_time_from_start_us = 1e300\n")

# Each case: config file, then the name the error must mention, then flags.
# A range error must name the value and the key; a flag that sets a config
# key names that key; a fault-plan key that its window's kind does not read
# must name the key and the kind. An unwritable trace.out fails before the
# experiment runs.
set(cases
  "valid.cfg|'abc' for key 'trace.sample'|--trace-sample abc"
  "valid.cfg|'1.5' for key 'trace.sample'|--trace-sample 1.5"
  "valid.cfg|trace.out '/nonexistent/dir/t.json'|--trace-out /nonexistent/dir/t.json"
  "nodes.cfg|nodes|"
  "duration.cfg|duration_s|"
  "trace.cfg|trace.enabled|"
  "backoff.cfg|retry.backoff|"
  "timeout.cfg|retry.timeout_ms|"
  "longest.cfg|retry.max|"
  "nodes_wide.cfg|'4294967297' for key 'nodes'|"
  "max_wide.cfg|'4294967296' for key 'retry.max'|"
  "seed.cfg|'-1' for key 'seed'|"
  "seed_wide.cfg|'99999999999999999999999' for key 'seed'|"
  "rate_nan.cfg|'nan' for key 'rate_rps'|"
  "rate_neg.cfg|'-5' for key 'rate_rps'|"
  "target.cfg|'-1' for key 'target_mult'|"
  "qos.cfg|'nan' for key 'qos_mult'|"
  "nodes_zero.cfg|'0' for key 'nodes'|"
  "duration_zero.cfg|'0' for key 'duration_s'|"
  "drain.cfg|'-1' for key 'drain_s'|"
  "period.cfg|'0' for key 'surge.period_s'|"
  "len.cfg|'-5' for key 'surge.len_ms'|"
  "detection_delay.cfg|'-5' for key 'ideal.detection_delay_ms'|"
  "sample.cfg|'1.5' for key 'trace.sample'|"
  "capacity.cfg|'0' for key 'trace.capacity'|"
  "unknown.cfg|unknown config key 'retry.timout_s'|"
  "service_name.cfg|'5' for key 'service.no-such-service.expected_exec_metric_us'|"
  "service_nan.cfg|'nan' for key 'service.chain-1.expected_time_from_start_us'|"
  "service_neg.cfg|'-5' for key 'service.chain-1.expected_time_from_start_us'|"
  "service_wide.cfg|'1e300' for key 'service.chain-1.expected_time_from_start_us'|"
  "valid.cfg|'nan' for key 'factor'|--fault-plan slow:start_ms=0,len_ms=1,factor=nan"
  "valid.cfg|'1e16' for key 'extra_us'|--fault-plan delay:start_ms=0,len_ms=1,extra_us=1e16"
  "valid.cfg|key 'node' does not apply to drop|--fault-plan drop:node=1,start_ms=1000,len_ms=500,rate=0.1"
  "valid.cfg|for key 'fault.plan': key 'node' does not apply to drop windows|--fault-plan drop:node=1,start_ms=0,len_ms=1,rate=0.1")
foreach(case IN LISTS cases)
  string(REGEX MATCH "^([^|]*)\\|([^|]*)\\|(.*)$" fields "${case}")
  set(config ${CMAKE_MATCH_1})
  set(name ${CMAKE_MATCH_2})
  set(flags "${CMAKE_MATCH_3}")
  separate_arguments(argv UNIX_COMMAND "${flags}")
  execute_process(
    COMMAND ${SG_RUN} ${WORK_DIR}/${config} --quiet ${argv}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "${config} ${flags}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  string(REGEX MATCH "error:[^\n]*${name}" hit "${err}")
  if(NOT hit)
    message(FATAL_ERROR
            "${config} ${flags}: no error line naming ${name}: ${err}")
  endif()
endforeach()
