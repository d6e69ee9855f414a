// sg-lint fixture: suppression semantics. A justified allow() silences the
// finding on its target line; an allow() without a reason is itself a
// finding (A0) and suppresses nothing.
#include <unordered_map>
#include <vector>

namespace fixture {

int justified_whole_line(const std::unordered_map<int, int>& m) {
  int total = 0;
  // sglint: allow(D1) summation is order-independent (verified by test)
  for (const auto& [k, v] : m) total += v;
  return total;
}

std::vector<int> justified_trailing(const std::unordered_map<int, int>& m) {
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);  // sglint: allow(D1) keys are sorted by the caller
  return keys;
}

// The parser accepts a space before '(' and lowercase rule ids; either
// spelling still needs a reason.
int spaced_and_lowercase(const std::unordered_map<int, int>& m) {
  int total = 0;
  // sglint: allow (D1) summation is order-independent (verified by test)
  for (const auto& [k, v] : m) total += v;
  // sglint: allow(d1) summation is order-independent (verified by test)
  for (const auto& [k, v] : m) total += k;
  // sglint: expect(A0)
  // sglint: allow (d1)
  for (const auto& [k, v] : m) total -= v;  // sglint: expect(D1)
  return total;
}

int unjustified(const std::unordered_map<int, int>& m) {
  int total = 0;
  // sglint: expect(A0)
  // sglint: allow(D1)
  for (const auto& [k, v] : m) total += v;  // sglint: expect(D1)
  return total;
}

}  // namespace fixture
