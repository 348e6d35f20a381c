#include "src/core/upper_bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "src/util/random.h"

namespace mst {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Brute force: the kth smallest of all live bounds.
double BruteKth(const std::map<TrajectoryId, double>& bounds, int k) {
  if (static_cast<int>(bounds.size()) < k) return kInf;
  std::vector<double> values;
  for (const auto& [id, v] : bounds) values.push_back(v);
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end());
  return values[static_cast<size_t>(k - 1)];
}

// The id holding the smallest bound (a top-k member whenever one exists).
TrajectoryId SmallestId(const std::map<TrajectoryId, double>& bounds) {
  return std::min_element(bounds.begin(), bounds.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

// Seeded random Update/Remove sequences against the brute-force kth value,
// checked after every operation. Values come from a coarse grid half the
// time, so ties are frequent; updates both rise and fall; removals target
// top members as well as outside ones and absent ids.
TEST(UpperBoundsTest, MatchesBruteForceKth) {
  for (const int k : {1, 10, 50}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 1000 + static_cast<uint64_t>(k));
      UpperBounds uppers(k);
      std::map<TrajectoryId, double> brute;
      const int64_t id_space = 3 * k + 20;
      for (int op = 0; op < 4000; ++op) {
        const auto value = [&rng] {
          return rng.UniformIndex(2) == 0
                     ? static_cast<double>(rng.UniformIndex(8))
                     : rng.Uniform(0.0, 8.0);
        };
        const uint64_t kind = rng.UniformIndex(10);
        if (kind < 5) {
          const TrajectoryId id = rng.UniformInt(0, id_space - 1);
          const double v = value();
          uppers.Update(id, v);
          brute[id] = v;
        } else if (kind < 7 && !brute.empty()) {
          // Raise or lower an existing bound, often a top member's.
          const TrajectoryId id =
              rng.UniformIndex(2) == 0
                  ? SmallestId(brute)
                  : std::next(brute.begin(),
                              static_cast<long>(rng.UniformIndex(brute.size())))
                        ->first;
          const double v = brute[id] + rng.Uniform(-2.0, 6.0);
          uppers.Update(id, v);
          brute[id] = v;
        } else if (kind < 8 && !brute.empty()) {
          const TrajectoryId id = SmallestId(brute);
          uppers.Remove(id);
          brute.erase(id);
        } else {
          const TrajectoryId id = rng.UniformInt(0, id_space + 9);
          uppers.Remove(id);
          brute.erase(id);
        }
        ASSERT_EQ(uppers.KthValue(), BruteKth(brute, k))
            << "k=" << k << " seed=" << seed << " op=" << op;
        ASSERT_EQ(uppers.size(), brute.size());
      }
    }
  }
}

TEST(UpperBoundsTest, InfiniteUntilKBounds) {
  UpperBounds uppers(3);
  EXPECT_EQ(uppers.KthValue(), kInf);
  uppers.Update(1, 5.0);
  uppers.Update(2, 1.0);
  EXPECT_EQ(uppers.KthValue(), kInf);
  uppers.Update(3, 3.0);
  EXPECT_EQ(uppers.KthValue(), 5.0);
  uppers.Update(4, 2.0);
  EXPECT_EQ(uppers.KthValue(), 3.0);
  // A top member rising past the kth value trades places with the smallest
  // outside bound.
  uppers.Update(2, 9.0);
  EXPECT_EQ(uppers.KthValue(), 5.0);
  // Removing a top member promotes the smallest outside bound.
  uppers.Remove(4);
  EXPECT_EQ(uppers.KthValue(), 9.0);
  uppers.Remove(2);
  EXPECT_EQ(uppers.KthValue(), kInf);
  EXPECT_EQ(uppers.size(), 2u);
}

}  // namespace
}  // namespace mst
