#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "src/geom/trajectory.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace mst {
namespace {

Trajectory Line() {
  // Straight movement (0,0) → (4,8) over t ∈ [0, 4].
  return Trajectory(1, {{0.0, {0.0, 0.0}},
                        {1.0, {1.0, 2.0}},
                        {2.0, {2.0, 4.0}},
                        {4.0, {4.0, 8.0}}});
}

TEST(TrajectoryTest, BasicAccessors) {
  const Trajectory t = Line();
  EXPECT_EQ(t.id(), 1);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.SegmentCount(), 3u);
  EXPECT_DOUBLE_EQ(t.start_time(), 0.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 4.0);
  EXPECT_TRUE(t.Covers({1.0, 3.0}));
  EXPECT_FALSE(t.Covers({-0.1, 3.0}));
}

TEST(TrajectoryTest, PositionInterpolation) {
  const Trajectory t = Line();
  EXPECT_EQ(*t.PositionAt(0.5), (Vec2{0.5, 1.0}));
  EXPECT_EQ(*t.PositionAt(3.0), (Vec2{3.0, 6.0}));
  EXPECT_EQ(*t.PositionAt(0.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(*t.PositionAt(4.0), (Vec2{4.0, 8.0}));
  EXPECT_FALSE(t.PositionAt(-0.01).has_value());
  EXPECT_FALSE(t.PositionAt(4.01).has_value());
}

TEST(TrajectoryTest, SegmentLookup) {
  const Trajectory t = Line();
  EXPECT_EQ(*t.SegmentAt(0.0), 0u);
  EXPECT_EQ(*t.SegmentAt(0.5), 0u);
  EXPECT_EQ(*t.SegmentAt(1.5), 1u);
  EXPECT_EQ(*t.SegmentAt(3.9), 2u);
  EXPECT_EQ(*t.SegmentAt(4.0), 2u);
  EXPECT_FALSE(t.SegmentAt(5.0).has_value());
}

TEST(TrajectoryTest, SliceInterpolatesEndpoints) {
  const Trajectory t = Line();
  const auto slice = t.Slice({0.5, 3.0});
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->id(), t.id());
  EXPECT_DOUBLE_EQ(slice->start_time(), 0.5);
  EXPECT_DOUBLE_EQ(slice->end_time(), 3.0);
  EXPECT_EQ(*slice->PositionAt(0.5), (Vec2{0.5, 1.0}));
  EXPECT_EQ(*slice->PositionAt(3.0), (Vec2{3.0, 6.0}));
  // Interior samples kept: 1.0 and 2.0 plus the two cut points.
  EXPECT_EQ(slice->size(), 4u);
}

TEST(TrajectoryTest, SliceOutsideLifespanIsNull) {
  const Trajectory t = Line();
  EXPECT_FALSE(t.Slice({5.0, 6.0}).has_value());
}

TEST(TrajectoryTest, SlicePreservesPositions) {
  Rng rng(3);
  const Trajectory t =
      testing_util::RandomIrregularTrajectory(&rng, 7, 40, 0.0, 10.0);
  const auto slice = t.Slice({2.3, 7.7});
  ASSERT_TRUE(slice.has_value());
  for (double time = 2.3; time <= 7.7; time += 0.37) {
    const Vec2 a = *t.PositionAt(time);
    const Vec2 b = *slice->PositionAt(time);
    EXPECT_NEAR(a.x, b.x, 1e-12);
    EXPECT_NEAR(a.y, b.y, 1e-12);
  }
}

TEST(TrajectoryTest, SpatialLengthAndMaxSpeed) {
  const Trajectory t = Line();
  EXPECT_NEAR(t.SpatialLength(), std::sqrt(80.0), 1e-12);
  // Uniform speed sqrt(5) per time unit.
  EXPECT_NEAR(t.MaxSpeed(), std::sqrt(5.0), 1e-12);
}

TEST(TrajectoryTest, BoundsCoverAllSamples) {
  Rng rng(5);
  const Trajectory t = testing_util::RandomTrajectory(&rng, 9, 25);
  const Mbb3 b = t.Bounds();
  for (const TPoint& s : t.samples()) {
    EXPECT_GE(s.p.x, b.xlo);
    EXPECT_LE(s.p.x, b.xhi);
    EXPECT_GE(s.p.y, b.ylo);
    EXPECT_LE(s.p.y, b.yhi);
    EXPECT_GE(s.t, b.tlo);
    EXPECT_LE(s.t, b.thi);
  }
}

TEST(TrajectoryTest, SingleSampleTrajectory) {
  const Trajectory t(2, {{1.0, {3.0, 4.0}}});
  EXPECT_EQ(t.SegmentCount(), 0u);
  EXPECT_EQ(*t.PositionAt(1.0), (Vec2{3.0, 4.0}));
  EXPECT_FALSE(t.SegmentAt(1.0).has_value());
  EXPECT_DOUBLE_EQ(t.MaxSpeed(), 0.0);
}

TEST(TrajectoryDeathTest, RejectsUnsortedTimestamps) {
  EXPECT_DEATH(Trajectory(1, {{1.0, {0, 0}}, {0.5, {1, 1}}}), "increase");
  EXPECT_DEATH(Trajectory(1, {{1.0, {0, 0}}, {1.0, {1, 1}}}), "increase");
}

// The cursor must reproduce PositionAt bit for bit over any non-decreasing
// time sequence: sample instants (where the segment choice flips), repeated
// instants, runs that skip many samples, and end_time() (the clamp).
TEST(TrajectoryCursorTest, MatchesPositionAtOnNonDecreasingTimes) {
  Rng rng(61);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformIndex(40));
    const Trajectory traj =
        testing_util::RandomIrregularTrajectory(&rng, 1, n);
    std::vector<double> times;
    for (int i = 0; i < 60; ++i) {
      switch (rng.UniformIndex(4)) {
        case 0:
          times.push_back(traj.sample(rng.UniformIndex(traj.size())).t);
          break;
        case 1:
          times.push_back(traj.end_time());
          break;
        default:
          times.push_back(rng.Uniform(traj.start_time(), traj.end_time()));
      }
    }
    std::sort(times.begin(), times.end());
    // Duplicate a few instants in place (still non-decreasing).
    for (size_t i = 1; i < times.size(); i += 7) times[i] = times[i - 1];

    TrajectoryCursor cursor(traj, times.front());
    for (const double t : times) {
      const Vec2 got = cursor.PositionAt(t);
      const Vec2 want = *traj.PositionAt(t);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(Vec2)), 0)
          << "t=" << t << " trial " << trial;
      const auto later =
          std::upper_bound(traj.samples().begin(), traj.samples().end(), t,
                           [](double v, const TPoint& s) { return v < s.t; });
      const double want_next = later == traj.samples().end()
                                   ? std::numeric_limits<double>::infinity()
                                   : later->t;
      EXPECT_EQ(cursor.NextSampleTime(), want_next);
    }
  }
}

TEST(TrajectoryCursorTest, SingleSampleTrajectory) {
  const Trajectory still(1, {{2.0, {3.0, 4.0}}});
  TrajectoryCursor cursor(still, 2.0);
  EXPECT_EQ(cursor.PositionAt(2.0), (Vec2{3.0, 4.0}));
  EXPECT_EQ(cursor.NextSampleTime(), std::numeric_limits<double>::infinity());
}

TEST(TrajectoryStoreTest, AddFindGet) {
  TrajectoryStore store;
  EXPECT_TRUE(store.empty());
  store.Add(Line());
  store.Add(Trajectory(42, {{0.0, {0, 0}}, {1.0, {1, 1}}}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(store.Find(1), nullptr);
  EXPECT_NE(store.Find(42), nullptr);
  EXPECT_EQ(store.Find(99), nullptr);
  EXPECT_EQ(store.Get(42).id(), 42);
}

TEST(TrajectoryStoreTest, AggregateStats) {
  TrajectoryStore store;
  store.Add(Line());  // 3 segments, speed sqrt(5)
  store.Add(Trajectory(2, {{0.0, {0, 0}}, {1.0, {10, 0}}}));  // speed 10
  EXPECT_EQ(store.TotalSegments(), 4);
  EXPECT_NEAR(store.MaxSpeed(), 10.0, 1e-12);
}

TEST(TrajectoryStoreDeathTest, RejectsDuplicateIds) {
  TrajectoryStore store;
  store.Add(Line());
  EXPECT_DEATH(store.Add(Line()), "duplicate");
}

}  // namespace
}  // namespace mst
