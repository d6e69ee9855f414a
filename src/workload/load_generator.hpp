// Open-loop load generator: the wrk2_spike analog (artifact A2).
//
// Issues requests to an Application's entry service per a SpikePattern,
// records per-request latency, and reports the latency histogram plus the
// violation volume — exactly the outputs of the paper's modified wrk2.
// Arrivals are open-loop (requests are sent on schedule regardless of
// completions), which is what makes queue buildup during surges visible,
// and paced at a constant rate like wrk2's scheduler, so the arrival
// sequence is a pure function of the pattern. Request ids are issued in
// order from 1, the dense ids RequestWindow needs: the generator, the
// frontend's dedup and the trace sink all find in-flight requests by them.
#pragma once

#include <cstdint>

#include "app/application.hpp"
#include "common/histogram.hpp"
#include "common/request_window.hpp"
#include "common/time.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/spike.hpp"
#include "workload/violation_volume.hpp"

namespace sg {

struct LoadGenOptions {
  SpikePattern pattern;

  /// End-to-end QoS target (wrk2_spike -qos).
  Duration qos = 10 * kMillisecond;

  /// Measurement starts at `warmup` and lasts `duration` (paper: 30s + 60s;
  /// benches default shorter for wall-clock reasons, protocol identical).
  Duration warmup = 5 * kSecond;
  Duration duration = 30 * kSecond;

  /// Output-latency bucketing for the violation-volume curve.
  Duration vv_window = 5 * kMillisecond;

  /// Client-side request retransmission (wrk2 atop a retrying RPC client).
  /// A request's latency spans the ORIGINAL issue to the first completion,
  /// so retries show up as tail latency, exactly as they would at a real
  /// client. Requests abandoned after max_retries count as dropped.
  RpcRetryPolicy retry;
};

struct LoadGenResults {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;  // completions inside the measure window
  std::uint64_t completed_total = 0;  // completions over the whole run
  std::uint64_t retries = 0;    // client retransmissions
  std::uint64_t dropped = 0;    // requests abandoned (retries exhausted)
  /// Requests issued but neither completed nor abandoned when results()
  /// was read. Zero at drain is the request-conservation invariant:
  /// issued == completed_total + dropped + outstanding.
  std::uint64_t outstanding = 0;
  double violation_volume_ms_s = 0.0;
  double violation_duration_frac = 0.0;
  Duration p50;
  Duration p98;
  Duration p99;
  Duration max_latency;
  double mean_latency_ns = 0.0;
  double throughput_rps = 0.0;
  Duration qos;
};

class LoadGenerator {
 public:
  LoadGenerator(Simulator& sim, Network& network, Application& app,
                LoadGenOptions options);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Arms the arrival process from t = now. The simulation owner then runs
  /// the simulator to warmup + duration (plus drain slack if desired).
  void start();

  /// Stops issuing new requests (in-flight ones still complete).
  void stop() { stopped_ = true; }

  /// Results over the measurement window. Call after the simulator has run
  /// past warmup + duration.
  LoadGenResults results();

  TimePoint measure_start() const { return TimePoint::at(options_.warmup); }
  TimePoint measure_end() const {
    return TimePoint::at(options_.warmup + options_.duration);
  }

 private:
  struct Outstanding {
    TimePoint start;               // original issue time (latency anchor)
    EventId timer = kInvalidEvent; // armed only when retry is enabled
    int attempt = 0;               // 0 = initial send
  };

  void schedule_next_arrival();
  void issue_request();
  void send_request(RequestId id, TimePoint start_time);
  void on_request_timeout(RequestId id);
  void on_response(const RpcPacket& pkt);

  Simulator& sim_;
  Network& network_;
  Application& app_;
  LoadGenOptions options_;

  LatencyHistogram histogram_;
  ViolationVolumeTracker vv_;

  RequestId next_request_ = 1;
  std::uint64_t completed_in_window_ = 0;
  std::uint64_t completed_total_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t dropped_ = 0;
  // Requests issued and neither completed nor abandoned. One that never
  // completes (loss without retry) holds the window open until the run ends.
  RequestWindow<Outstanding> outstanding_;
  bool stopped_ = false;
};

}  // namespace sg
