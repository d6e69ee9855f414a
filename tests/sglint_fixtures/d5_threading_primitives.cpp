// sg-lint fixture: D5 — threading primitives.
// Simulations are single-threaded; a thread, lock or atomic inside one
// makes event order depend on scheduling. Only replication-level
// parallelism is legitimate, and it needs an explicit allow(D5).
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

namespace fixture {

struct Racy {
  // sglint: expect(D5)
  std::mutex lock;
  // sglint: expect(D5)
  std::atomic<int> counter{0};
  // sglint: expect(D5)
  std::condition_variable cv;
  // sglint: expect(D5)
  std::shared_mutex rw;
};

void spawn_worker() {
  // sglint: expect(D5)
  std::thread t([] {});
  t.join();
  // sglint: expect(D5)
  std::jthread j([] {});
}

// One token, two findings: the type and the flag variant both match.
// sglint: expect(D5)
std::atomic_flag busy = ATOMIC_FLAG_INIT;

// Suppressed with a justification: replication-level parallelism driving
// independent simulations is legitimate (the pattern src/core/sweep.cpp
// uses).
// sglint: allow(D5) independent replications, no shared simulator state
std::atomic<int> replication_cursor{0};

// Bare identifiers are not findings — only the std::-qualified names are.
struct NearMiss {
  int mutex = 0;
  int atomic = 0;
  int thread = 0;
};
int use_near_miss(const NearMiss& n) { return n.mutex + n.atomic + n.thread; }

// Banned names inside strings and comments are invisible to the rule:
// std::mutex, std::thread, std::atomic.
const char* trap() { return "std::mutex std::thread std::atomic"; }

}  // namespace fixture
