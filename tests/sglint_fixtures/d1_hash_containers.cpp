// sg-lint fixture: D1 — hash containers are banned outright.
//
// Never compiled; linted by the sglint_selftest ctest, which demands that
// findings match the expect() annotations exactly (rule id + line).
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

int declaration() {
  // sglint: expect(D1)
  std::unordered_map<int, int> scores;
  scores[1] = 2;
  return scores.at(1);
}

// An alias is flagged where it is spelled; its uses are not.
// sglint: expect(D1)
using Index = std::unordered_multimap<int, double>;
int through_alias(const Index& idx) { return static_cast<int>(idx.size()); }

// sglint: expect(D1)
int parameter(const std::unordered_set<int>& ids) {
  return static_cast<int>(ids.count(3));
}

struct Registry {
  // sglint: expect(D1)
  std::unordered_multiset<long> entries;
};

// sglint: expect(D1)
using std::unordered_set;
// sglint: expect(D1)
unordered_set<int> unqualified;

// Ordered and dense containers, identifiers that merely contain a banned
// name, and banned names in strings and comments (unordered_map) are fine.
std::map<int, int> ordered;
std::set<int> ordered_ids;
std::vector<int> dense;
int unordered_map_count = 0;
const char* trap() { return "std::unordered_map<int, int>"; }

}  // namespace fixture
