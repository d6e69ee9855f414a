// Container: the unit of resource allocation.
//
// Each microservice instance runs in one container owning an integer number
// of logical cores on its node and a per-container DVFS frequency (the two
// resources SurgeGuard manages, paper §IV). CPU work executes under
// processor sharing: with N in-flight jobs and n cores at frequency f, every
// job progresses at min(1, n/N) * f/f_ref. This reproduces the contention
// behaviour the controllers react to: thread oversubscription slows all
// requests; added cores or frequency speed them all up.
//
// The implementation uses virtual time: a counter V advances at the common
// per-job rate, and a job submitted at V with work w completes when V
// reaches w + V. Completions therefore pop from a min-heap keyed by finish-V
// in O(log n), and rate changes (core grants, frequency boosts, arrivals,
// departures) only need V advanced to the present and the next completion
// event rescheduled.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "cluster/cpu.hpp"
#include "cluster/energy.hpp"
#include "common/inline_callback.hpp"
#include "common/slot_arena.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"
#include "sim/timeline.hpp"

namespace sg {

using ContainerId = int;
using NodeId = int;

class MemBwDomain;

class Container {
 public:
  struct Params {
    std::string name;
    ContainerId id = 0;
    NodeId node = 0;
    int initial_cores = 2;
  };

  Container(Simulator& sim, Params params);

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  const std::string& name() const { return params_.name; }
  ContainerId id() const { return params_.id; }
  NodeId node() const { return params_.node; }

  /// Submits a CPU-bound job of `work_ns_ref` nanoseconds measured at one
  /// dedicated core at the reference frequency. `on_complete` fires from the
  /// event loop when the job's share of the CPU has delivered that work.
  void submit(double work_ns_ref, InlineCallback on_complete);

  /// --- resource control (called by controllers) ---

  /// Sets the logical-core allocation. 0 is legal (jobs stall).
  void set_cores(int n);
  int cores() const { return cores_; }

  /// Sets the container's core frequency (quantized onto kDvfs's grid).
  void set_frequency(FreqMhz f);
  FreqMhz frequency() const { return freq_; }

  /// External execution-speed multiplier in (0, 1]: all in-flight jobs
  /// progress at scale x their normal rate. 0 is legal and stalls jobs
  /// entirely. Used by fault injection to model node slowdown/freeze;
  /// orthogonal to cores, DVFS, and memory-bandwidth interference.
  void set_speed_scale(double scale);

  /// --- introspection ---

  int active_jobs() const { return static_cast<int>(jobs_.size()); }
  double busy_cores() const;

  /// Advances internal accounting to the current simulation time. Energy and
  /// busy-time reads are exact after sync().
  void sync();

  /// Joins a shared memory-bandwidth domain; the container's execution rate
  /// is multiplied by the domain's interference factor from now on.
  void attach_membw(MemBwDomain* domain);

  /// Re-arms the pending completion event after an external rate change
  /// (MemBwDomain factor updates). Callers must have sync()ed first.
  void notify_rate_changed() {
    refresh_rate();
    reschedule();
  }

  /// Joules consumed by busy cores so far (idle excluded).
  double energy_joules() const { return energy_joules_; }

  /// Integrated busy-core-seconds (utilization numerator).
  double busy_core_seconds() const { return busy_core_seconds_; }

  /// Integrated per-job core share: ∫ min(1, cores/N) dt over time with
  /// jobs in flight, in nanoseconds. Under processor sharing every
  /// in-flight job advances through "core possession" at exactly this
  /// common rate, so the delta of this integral across a job's lifetime is
  /// the time it effectively held a core — and wall minus delta is its
  /// CPU-queue time. sg::trace reads it at span boundaries (both fall
  /// inside event handlers where advance() has already run).
  double share_integral_ns() const { return share_integral_ns_; }

  /// Allocation history; drives Fig. 14 and average-cores metrics.
  const StepTimeline& core_timeline() const { return core_timeline_; }
  const StepTimeline& freq_timeline() const { return freq_timeline_; }

  /// Total jobs completed (sanity/throughput accounting).
  std::uint64_t jobs_completed() const { return jobs_completed_; }

 private:
  /// Per-job progress rate (work-ns at ref per wall ns); 0 when starved.
  double rate() const { return rate_; }
  /// Recomputes rate_ from its inputs: job count, cores, frequency, speed
  /// scale and the membw factor. Called wherever one of them changes.
  void refresh_rate();

  /// Advances virtual time & energy integrals to sim_.now().
  void advance();

  /// Re-arms the single pending completion event.
  void reschedule();

  void on_completion_event();

  Simulator& sim_;
  Params params_;
  MemBwDomain* membw_ = nullptr;

  int cores_;
  FreqMhz freq_;
  // kDvfs.speed(freq_) and kEnergy.busy_core_watts(freq_), refreshed only
  // where freq_ changes (constructor, set_frequency): advance() and rate()
  // run on every submit and completion, the frequency rarely changes.
  double speed_;
  double busy_watts_;
  double speed_scale_ = 1.0;
  // rate() of the current inputs; advance() and reschedule() read it on
  // every submit and completion.
  double rate_ = 0.0;

  // Virtual-time processor-sharing state.
  double vtime_ = 0.0;
  TimePoint last_advance_;
  // Completions pop in (finish_v, seq) order; seq is the submission order,
  // so ties complete first-submitted first. `job` locates the callback.
  struct HeapEntry {
    double finish_v;
    std::uint64_t seq;
    SlotArena<InlineCallback>::Handle job;
    bool operator>(const HeapEntry& o) const {
      return finish_v != o.finish_v ? finish_v > o.finish_v : seq > o.seq;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      finish_heap_;
  SlotArena<InlineCallback> jobs_;
  std::uint64_t next_job_seq_ = 1;
  EventId completion_event_ = kInvalidEvent;

  // Accounting.
  double energy_joules_ = 0.0;
  double busy_core_seconds_ = 0.0;
  double share_integral_ns_ = 0.0;
  std::uint64_t jobs_completed_ = 0;
  StepTimeline core_timeline_;
  StepTimeline freq_timeline_;
};

}  // namespace sg
