// Processor-sharing container semantics: the heart of the CPU model.
#include "cluster/container.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

namespace sg {
namespace {

std::unique_ptr<Container> make_container(Simulator& sim, int cores) {
  Container::Params p;
  p.name = "c";
  p.id = 0;
  p.node = 0;
  p.initial_cores = cores;
  return std::make_unique<Container>(sim, std::move(p));
}

TEST(ContainerTest, SingleJobTakesItsWork) {
  Simulator sim;
  auto c = make_container(sim, 1);
  TimePoint done = TimePoint::infinity();  // sentinel: callback never ran
  c->submit(1000.0, [&]() { done = sim.now(); });
  sim.run_to_completion();
  EXPECT_EQ(done, TimePoint{1000});
}

TEST(ContainerTest, TwoJobsOnOneCoreShareProcessor) {
  // PS: two equal jobs on one core each progress at half speed; both finish
  // at 2x the solo time.
  Simulator sim;
  auto c = make_container(sim, 1);
  std::vector<TimePoint> done;
  c->submit(1000.0, [&]() { done.push_back(sim.now()); });
  c->submit(1000.0, [&]() { done.push_back(sim.now()); });
  sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[0].ns()), 2000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done[1].ns()), 2000.0, 2.0);
}

TEST(ContainerTest, TwoJobsOnTwoCoresRunFullSpeed) {
  Simulator sim;
  auto c = make_container(sim, 2);
  std::vector<TimePoint> done;
  c->submit(1000.0, [&]() { done.push_back(sim.now()); });
  c->submit(1000.0, [&]() { done.push_back(sim.now()); });
  sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[0].ns()), 1000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done[1].ns()), 1000.0, 2.0);
}

TEST(ContainerTest, ShorterJobCompletesFirst) {
  Simulator sim;
  auto c = make_container(sim, 1);
  std::vector<int> order;
  c->submit(2000.0, [&]() { order.push_back(2); });
  c->submit(500.0, [&]() { order.push_back(1); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ContainerTest, StaggeredArrivalPs) {
  // Job A (1000ns) starts at t=0 alone; at t=500, job B (1000ns) arrives.
  // Shared core: A's remaining 500 work takes 1000 wall -> A done at 1500.
  // B received 500 work during [500,1500]; its remaining 500 then runs at
  // full speed -> B done at 2000.
  Simulator sim;
  auto c = make_container(sim, 1);
  TimePoint done_a, done_b;
  c->submit(1000.0, [&]() { done_a = sim.now(); });
  sim.schedule_at(TimePoint{500}, [&]() {
    c->submit(1000.0, [&]() { done_b = sim.now(); });
  });
  sim.run_to_completion();
  EXPECT_NEAR(static_cast<double>(done_a.ns()), 1500.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done_b.ns()), 2000.0, 2.0);
}

TEST(ContainerTest, FrequencyScalesThroughput) {
  Simulator sim;
  auto c = make_container(sim, 1);
  c->set_frequency(kDvfs.max_mhz);
  TimePoint done = TimePoint::infinity();  // sentinel: callback never ran
  c->submit(1000.0, [&]() { done = sim.now(); });
  sim.run_to_completion();
  EXPECT_NEAR(static_cast<double>(done.ns()),
              1000.0 / kDvfs.speed(kDvfs.max_mhz), 2.0);
}

TEST(ContainerTest, FrequencyChangeMidJob) {
  Simulator sim;
  auto c = make_container(sim, 1);
  TimePoint done = TimePoint::infinity();  // sentinel: callback never ran
  c->submit(1000.0, [&]() { done = sim.now(); });
  // After 500ns at the reference frequency (500 work done), go to max: the
  // remaining 500 work runs at the max-frequency speed.
  sim.schedule_at(TimePoint{500}, [&]() { c->set_frequency(kDvfs.max_mhz); });
  sim.run_to_completion();
  EXPECT_NEAR(static_cast<double>(done.ns()),
              500.0 + 500.0 / kDvfs.speed(kDvfs.max_mhz), 2.0);
}

TEST(ContainerTest, CoreChangeMidJobRescales) {
  Simulator sim;
  auto c = make_container(sim, 1);
  std::vector<TimePoint> done;
  c->submit(1000.0, [&]() { done.push_back(sim.now()); });
  c->submit(1000.0, [&]() { done.push_back(sim.now()); });
  // At t=1000 each job has 500 work left (shared core). Granting a second
  // core lets both run at full speed: finish at 1500.
  sim.schedule_at(TimePoint{1000}, [&]() { c->set_cores(2); });
  sim.run_to_completion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[0].ns()), 1500.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done[1].ns()), 1500.0, 2.0);
}

TEST(ContainerTest, CompletionInstantsExactAcrossEveryRateInput) {
  // Each phase changes one input of the per-job rate, and the instants are
  // exact: a rate that missed any change would move A or B.
  //   [0, 1000)     A, B on 1 core: rate 0.5; vtime reaches 500.
  //   [1000, 1200)  2 cores: rate 1; vtime 700.
  //   [1200, 1400)  1 core: rate 0.5; vtime 800.
  //   [1400, 2200)  speed scale 0.5: rate 0.25; A's last 200 take 800.
  //   [2200, 5000)  A done, B alone: rate 0.5; vtime 1000 -> 2400.
  //   [5000, 6000)  0 cores: B stalls.
  //   [6000, 7000)  1 core again: rate 0.5; vtime 2900.
  //   [7000, ...)   max frequency: rate 0.5 * speed(max); B's last 2100
  //                 take ceil(4200 / 1.515625) = 2772.
  Simulator sim;
  auto c = make_container(sim, 1);
  TimePoint done_a = TimePoint::infinity();
  TimePoint done_b = TimePoint::infinity();
  c->submit(1000.0, [&]() { done_a = sim.now(); });
  c->submit(5000.0, [&]() { done_b = sim.now(); });
  sim.schedule_at(TimePoint{1000}, [&]() { c->set_cores(2); });
  sim.schedule_at(TimePoint{1200}, [&]() { c->set_cores(1); });
  sim.schedule_at(TimePoint{1400}, [&]() { c->set_speed_scale(0.5); });
  sim.schedule_at(TimePoint{5000}, [&]() { c->set_cores(0); });
  sim.schedule_at(TimePoint{6000}, [&]() { c->set_cores(1); });
  sim.schedule_at(TimePoint{7000},
                  [&]() { c->set_frequency(kDvfs.max_mhz); });
  sim.run_to_completion();
  EXPECT_EQ(done_a, TimePoint{2200});
  EXPECT_EQ(done_b, TimePoint{7000 + 2772});
  EXPECT_EQ(sim.now(), done_b);
}

TEST(ContainerTest, ZeroCoresStallsJobs) {
  Simulator sim;
  auto c = make_container(sim, 1);
  TimePoint done = TimePoint::infinity();  // sentinel: callback never ran
  c->submit(1000.0, [&]() { done = sim.now(); });
  sim.schedule_at(TimePoint{200}, [&]() { c->set_cores(0); });
  sim.schedule_at(TimePoint{5000}, [&]() { c->set_cores(1); });
  sim.run_to_completion();
  // 200 work done before the stall; 800 after cores return at t=5000.
  EXPECT_NEAR(static_cast<double>(done.ns()), 5800.0, 2.0);
}

TEST(ContainerTest, ZeroWorkJobCompletesImmediately) {
  Simulator sim;
  auto c = make_container(sim, 1);
  TimePoint done = TimePoint::infinity();  // sentinel: callback never ran
  c->submit(0.0, [&]() { done = sim.now(); });
  sim.run_to_completion();
  EXPECT_EQ(done, TimePoint{0});
}

TEST(ContainerTest, CompletionCallbackCanResubmit) {
  Simulator sim;
  auto c = make_container(sim, 1);
  int completions = 0;
  std::function<void()> chain = [&]() {
    ++completions;
    if (completions < 3) c->submit(100.0, chain);
  };
  c->submit(100.0, chain);
  sim.run_to_completion();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(sim.now(), TimePoint{300});
  EXPECT_EQ(c->jobs_completed(), 3u);
}

TEST(ContainerTest, BusyCoresCapped) {
  Simulator sim;
  auto c = make_container(sim, 2);
  for (int i = 0; i < 5; ++i) c->submit(1000.0, []() {});
  EXPECT_EQ(c->active_jobs(), 5);
  EXPECT_DOUBLE_EQ(c->busy_cores(), 2.0);
  sim.run_to_completion();
  EXPECT_EQ(c->active_jobs(), 0);
  EXPECT_DOUBLE_EQ(c->busy_cores(), 0.0);
}

TEST(ContainerTest, BusyCoreSecondsAccumulate) {
  Simulator sim;
  auto c = make_container(sim, 1);
  c->submit(1'000'000.0, []() {});  // 1ms of work on 1 core
  sim.run_to_completion();
  c->sync();
  EXPECT_NEAR(c->busy_core_seconds(), 0.001, 1e-6);
}

TEST(ContainerTest, EnergyChargedForBusyTime) {
  Simulator sim;
  auto c = make_container(sim, 1);
  c->submit(static_cast<double>(kSecond.ns()), []() {});
  sim.run_to_completion();
  c->sync();
  // 1 core-second busy at ref frequency.
  EXPECT_NEAR(c->energy_joules(), kEnergy.busy_core_watts(kDvfs.ref_mhz),
              0.01);
}

TEST(EnergyModelTest, WattsMatchHzRatioBitwise) {
  // The reference is the power formula with both frequencies in Hz. Every
  // DVFS level and its Hz value are exact in double, so the MHz ratio must
  // round to the same double and the watts must match bit for bit.
  for (FreqMhz f = kDvfs.min_mhz; f <= kDvfs.max_mhz; f += kDvfs.step_mhz) {
    const double hz = static_cast<double>(f) * 1e6;
    const double ref_hz = static_cast<double>(kDvfs.ref_mhz) * 1e6;
    const double expected =
        kEnergy.static_watts_per_core +
        kEnergy.dynamic_watts_at_ref *
            std::pow(hz / ref_hz, kEnergy.freq_exponent);
    EXPECT_EQ(kEnergy.busy_core_watts(f), expected) << f << " MHz";
  }
}

TEST(ContainerTest, PerFrequencyConstantsMatchModelsBitwise) {
  // One job on two cores at each DVFS level: it finishes at
  // ceil(work / speed), and the energy is the sum advance() charges per
  // interval, computed here from kEnergy/kDvfs at the level itself.
  const double work = 1'234'567.0;
  const TimePoint end = TimePoint::at(2 * kMillisecond);
  int levels = 0;
  for (FreqMhz f = kDvfs.min_mhz; f <= kDvfs.max_mhz; f += kDvfs.step_mhz) {
    ++levels;
    Simulator sim;
    auto c = make_container(sim, 2);
    c->set_frequency(f);
    TimePoint done = TimePoint::infinity();
    c->submit(work, [&]() { done = sim.now(); });
    sim.run_until(end);
    c->sync();
    const Duration busy{
        static_cast<std::int64_t>(std::ceil(work / kDvfs.speed(f)))};
    ASSERT_EQ(done, TimePoint::at(busy)) << f << " MHz";
    double expected = 0.0;
    // [0, done): one core busy, one idle.
    expected += kEnergy.energy(1.0, f, busy);
    expected += kEnergy.allocated_idle_watts * 1.0 * busy.seconds();
    // [done, end): both idle.
    expected += kEnergy.allocated_idle_watts * 2.0 * (end - done).seconds();
    EXPECT_EQ(c->energy_joules(), expected) << f << " MHz";
  }
  EXPECT_EQ(levels, 16);
}

TEST(ContainerTest, IdleAllocatedCoresDrawPower) {
  Simulator sim;
  auto c = make_container(sim, 4);
  sim.run_until(TimePoint::at(kSecond));
  c->sync();
  // 4 allocated, 0 busy for 1 second.
  EXPECT_NEAR(c->energy_joules(), 4.0 * kEnergy.allocated_idle_watts, 0.01);
}

TEST(ContainerTest, CoreTimelineTracksChanges) {
  Simulator sim;
  auto c = make_container(sim, 2);
  sim.schedule_at(TimePoint{100}, [&]() { c->set_cores(4); });
  sim.schedule_at(TimePoint{200}, [&]() { c->set_cores(1); });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(c->core_timeline().at(TimePoint{50}), 2.0);
  EXPECT_DOUBLE_EQ(c->core_timeline().at(TimePoint{150}), 4.0);
  EXPECT_DOUBLE_EQ(c->core_timeline().at(TimePoint{250}), 1.0);
}

TEST(ContainerTest, FreqTimelineQuantized) {
  Simulator sim;
  auto c = make_container(sim, 1);
  sim.schedule_at(TimePoint{10}, [&]() { c->set_frequency(2357); });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(c->freq_timeline().at(TimePoint{20}), 2300.0);
  EXPECT_EQ(c->frequency(), 2300);
}

// Property sweep: N jobs, k cores -> total completion time of the batch is
// total_work / min(N, k) (all jobs equal, ignoring rounding).
class PsBatchTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PsBatchTest, BatchMakespanMatchesCapacity) {
  const int jobs = std::get<0>(GetParam());
  const int cores = std::get<1>(GetParam());
  Simulator sim;
  auto c = make_container(sim, cores);
  int done = 0;
  for (int i = 0; i < jobs; ++i) {
    c->submit(1000.0, [&]() { ++done; });
  }
  sim.run_to_completion();
  EXPECT_EQ(done, jobs);
  const double expected =
      1000.0 * jobs / std::min(jobs, cores);
  EXPECT_NEAR(static_cast<double>(sim.now().ns()), expected,
              expected * 0.01 + 2);
}

INSTANTIATE_TEST_SUITE_P(
    JobCoreGrid, PsBatchTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7, 16),
                       ::testing::Values(1, 2, 3, 8)));

}  // namespace
}  // namespace sg
