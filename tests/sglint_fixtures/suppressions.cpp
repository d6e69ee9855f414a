// sg-lint fixture: suppression semantics. A justified allow() silences the
// finding on its target line; an allow() without a reason is itself a
// finding (A0) and suppresses nothing.
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

// sglint: allow(D1) a fixture line: the whole-line form governs the next line
using Lookup = std::unordered_map<int, int>;

void justified_trailing() {
  std::thread worker([] {});  // sglint: allow(D5) independent replications
  worker.join();
}

// The parser accepts a space before '(' and lowercase rule ids; either
// spelling still needs a reason.
void spaced_and_lowercase() {
  // sglint: allow (D1) a fixture line: spaced form with a reason
  std::unordered_set<int> spaced;
  // sglint: allow(d5) independent replications, no shared simulator state
  std::thread lowercase([] {});
  // sglint: expect(A0)
  // sglint: allow (d1)
  std::unordered_map<int, int> unexplained;  // sglint: expect(D1)
  lowercase.join();
}

void unjustified() {
  // sglint: expect(A0)
  // sglint: allow(D5)
  std::thread t([] {});  // sglint: expect(D5)
  t.join();
}

}  // namespace fixture
