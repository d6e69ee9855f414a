#include "common/request_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>

namespace sg {
namespace {

TEST(RequestWindowDeathTest, EraseOfAnAbsentIdAborts) {
  RequestWindow<int> w;
  w.insert(3);
  EXPECT_DEATH(w.erase(4), "not in the window");
}

TEST(RequestWindowTest, MatchesAReferenceModel) {
  // Fixed-seed random inserts below, inside and above the window and
  // out-of-order erases, checked against a std::map after every call: find
  // for every id in range, the pointer each insert returned (entries never
  // move), and size.
  RequestWindow<int> w;
  std::map<RequestId, int> model;
  std::map<RequestId, int*> where;
  std::mt19937_64 rng(33);
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  constexpr RequestId kFirst = 1000;
  RequestId top = kFirst;  // one past the highest id used
  RequestId bottom = kFirst;  // the lowest id used

  const auto check = [&](int step) {
    ASSERT_EQ(w.size(), model.size()) << "step " << step;
    for (RequestId id = bottom - 2; id < top + 2; ++id) {
      const int* got = w.find(id);
      const auto it = model.find(id);
      if (it == model.end()) {
        ASSERT_EQ(got, nullptr) << "step " << step << " id " << id;
      } else {
        ASSERT_EQ(got, where.at(id)) << "step " << step << " id " << id;
        ASSERT_EQ(*got, it->second) << "step " << step << " id " << id;
      }
    }
  };

  int below = 0, inside = 0, above = 0, repeats = 0, erases = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = pick(100);
    if (op < 45 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick(model.size())));
      const RequestId id = it->first;
      w.erase(id);
      model.erase(it);
      where.erase(id);
      ++erases;
    } else {
      RequestId id = 0;
      if (model.empty() || op < 70) {
        id = top + pick(3);  // above (a gap of up to two ids)
      } else if (op < 80 && model.begin()->first > kFirst) {
        const RequestId lo = model.begin()->first;
        id = lo - 1 - pick(std::min<RequestId>(4, lo - kFirst));  // below
      } else {
        const RequestId lo = model.begin()->first;
        id = lo + pick(model.rbegin()->first - lo + 1);  // inside
      }
      if (id < model.begin()->first && !model.empty()) ++below;
      else if (!model.empty() && id <= model.rbegin()->first) ++inside;
      else ++above;
      const auto [value, inserted] = w.insert(id);
      ASSERT_EQ(inserted, model.count(id) == 0) << "step " << step;
      if (inserted) {
        EXPECT_EQ(*value, 0) << "step " << step;
        *value = step;
        model[id] = step;
        where[id] = value;
      } else {
        ++repeats;
        EXPECT_EQ(value, where.at(id)) << "step " << step;
      }
      top = std::max(top, id + 1);
      bottom = std::min(bottom, id);
    }
    check(step);
  }
  // Every path ran many times.
  EXPECT_GT(below, 100);
  EXPECT_GT(inside, 100);
  EXPECT_GT(above, 100);
  EXPECT_GT(repeats, 100);
  EXPECT_GT(erases, 1000);

  // Drain in random order; the window ends empty.
  while (!model.empty()) {
    auto it = model.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(model.size())));
    w.erase(it->first);
    where.erase(it->first);
    model.erase(it);
    check(-1);
  }
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace sg
