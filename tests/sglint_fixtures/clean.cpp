// sg-lint fixture: a clean file full of near-misses. Must produce zero
// findings — every pattern here is the deterministic twin of a violation.
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fixture {

// Banned words as identifier fragments are not findings.
int randomize_nothing(int operand) { return operand + 0; }
int timer_slack(int time_budget) { return time_budget; }

// Banned words inside strings and comments are invisible to the rules:
// new, delete, rand(), std::chrono::steady_clock::now(), unordered_map.
std::string comment_and_string_trap() {
  return "new delete rand() srand system_clock steady_clock unordered_set";
}

// Ordered iteration — including FP accumulation — is deterministic.
double ordered_sum(const std::map<std::string, double>& ordered) {
  double total = 0.0;
  for (const auto& [k, v] : ordered) total += v;
  return total;
}

// Ownership through the standard machinery.
std::unique_ptr<int> owned() { return std::make_unique<int>(7); }

}  // namespace fixture
