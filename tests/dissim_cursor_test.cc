// Bitwise identity of the cursor-walk DISSIM kernels against the
// PositionAt-based formulation they replaced: every elementary interval's
// endpoints come from a binary search per cut here, from a forward-only
// TrajectoryCursor in src/core/dissim.cc. Both must pick the same segments
// and cuts, so every double must match bit for bit (compared with memcmp,
// which also tells -0.0 from 0.0).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/core/dissim.h"
#include "src/core/dissim_batch.h"
#include "src/gen/gstd.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace mst {
namespace {

constexpr IntegrationPolicy kPolicies[] = {IntegrationPolicy::kTrapezoid,
                                           IntegrationPolicy::kExact,
                                           IntegrationPolicy::kAdaptive};

// Reference ComputeDissim: sorted cut list, two PositionAt calls per cut.
DissimResult ReferenceDissim(const Trajectory& q, const Trajectory& t,
                             const TimeInterval& period,
                             IntegrationPolicy policy) {
  std::vector<double> cuts;
  cuts.push_back(period.begin);
  for (const TPoint& s : q.samples()) {
    if (s.t > period.begin && s.t < period.end) cuts.push_back(s.t);
  }
  for (const TPoint& s : t.samples()) {
    if (s.t > period.begin && s.t < period.end) cuts.push_back(s.t);
  }
  cuts.push_back(period.end);
  std::sort(cuts.begin(), cuts.end());
  TrinomialBatch batch;
  Vec2 q_prev = *q.PositionAt(cuts.front());
  Vec2 t_prev = *t.PositionAt(cuts.front());
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double t0 = cuts[i];
    const double t1 = cuts[i + 1];
    if (t1 <= t0) continue;  // duplicate timestamps
    const Vec2 q_next = *q.PositionAt(t1);
    const Vec2 t_next = *t.PositionAt(t1);
    batch.Add(
        DistanceTrinomial::Between(q_prev, q_next, t_prev, t_next, t1 - t0));
    q_prev = q_next;
    t_prev = t_next;
  }
  return IntegrateBatch(batch, policy);
}

// Reference per-entry kernel: scans every query sample for the window's
// interior ones, then one PositionAt per cut.
SegmentDissim ReferenceSegmentDissim(const Trajectory& q,
                                     const LeafEntry& entry,
                                     const TimeInterval& window,
                                     IntegrationPolicy policy) {
  const TPoint a = entry.Start();
  const TPoint b = entry.End();
  std::vector<double> cuts;
  cuts.push_back(window.begin);
  for (const TPoint& s : q.samples()) {
    if (s.t > window.begin && s.t < window.end) cuts.push_back(s.t);
  }
  cuts.push_back(window.end);
  TrinomialBatch batch;
  SegmentDissim out;
  Vec2 q_prev = *q.PositionAt(cuts.front());
  Vec2 e_prev = Lerp(a, b, cuts.front());
  out.dist_begin = Distance(q_prev, e_prev);
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double t0 = cuts[i];
    const double t1 = cuts[i + 1];
    if (t1 <= t0) continue;
    const Vec2 q_next = *q.PositionAt(t1);
    const Vec2 e_next = Lerp(a, b, t1);
    batch.Add(
        DistanceTrinomial::Between(q_prev, q_next, e_prev, e_next, t1 - t0));
    q_prev = q_next;
    e_prev = e_next;
  }
  out.integral = IntegrateBatch(batch, policy);
  out.dist_end = Distance(q_prev, e_prev);
  return out;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectSameDissim(const Trajectory& q, const Trajectory& t,
                      const TimeInterval& period) {
  for (const IntegrationPolicy policy : kPolicies) {
    const DissimResult got = ComputeDissim(q, t, period, policy);
    const DissimResult want = ReferenceDissim(q, t, period, policy);
    EXPECT_TRUE(SameBits(got.value, want.value))
        << got.value << " vs " << want.value << " over [" << period.begin
        << ", " << period.end << "]";
    EXPECT_TRUE(SameBits(got.error_bound, want.error_bound))
        << got.error_bound << " vs " << want.error_bound;
  }
}

void ExpectSameSegmentDissim(const Trajectory& q, const LeafEntry& entry,
                             const TimeInterval& window) {
  for (const IntegrationPolicy policy : kPolicies) {
    const SegmentDissim got = ComputeSegmentDissim(q, entry, window, policy);
    const SegmentDissim want =
        ReferenceSegmentDissim(q, entry, window, policy);
    EXPECT_TRUE(SameBits(got.integral.value, want.integral.value))
        << got.integral.value << " vs " << want.integral.value
        << " over [" << window.begin << ", " << window.end << "]";
    EXPECT_TRUE(SameBits(got.integral.error_bound, want.integral.error_bound));
    EXPECT_TRUE(SameBits(got.dist_begin, want.dist_begin));
    EXPECT_TRUE(SameBits(got.dist_end, want.dist_end));
  }
}

TrajectoryStore GstdStore(int objects, int samples, double jitter,
                          uint64_t seed) {
  GstdOptions gen;
  gen.num_objects = objects;
  gen.samples_per_object = samples;
  gen.timestamp_jitter = jitter;
  gen.seed = seed;
  return GenerateGstd(gen);
}

// Query = a random slice of one trajectory; data = every segment of another
// that overlaps it, each integrated over its window. Covers windows that
// clip at the query's ends and windows wholly inside the query.
TEST(DissimCursorTest, RandomGstdSlicesMatchReference) {
  const TrajectoryStore store = GstdStore(24, 160, 0.4, 7);
  Rng rng(301);
  const auto& trajs = store.trajectories();
  for (int trial = 0; trial < 120; ++trial) {
    const Trajectory& base = trajs[rng.UniformIndex(trajs.size())];
    const Trajectory& other = trajs[rng.UniformIndex(trajs.size())];
    const double len = trial % 2 == 0 ? 0.05 : 0.25;
    const double b = rng.Uniform(base.start_time(), base.end_time() - len);
    const Trajectory q = *base.Slice({b, b + len});
    ExpectSameDissim(q, other, q.Lifespan());
    const double pb = rng.Uniform(q.start_time(), q.end_time());
    const double pe = rng.Uniform(pb, q.end_time());
    if (pe > pb) ExpectSameDissim(q, other, {pb, pe});

    for (size_t i = 0; i + 1 < other.size(); ++i) {
      const LeafEntry e =
          LeafEntry::Of(other.id(), other.sample(i), other.sample(i + 1));
      const TimeInterval window = q.Lifespan().Intersect(e.TimeSpan());
      if (window.Duration() <= 0.0) continue;
      ExpectSameSegmentDissim(q, e, window);
    }
  }
}

// A window whose ends sit exactly on query samples: neither end is an
// interior cut, and the cursor must take the segment *starting* at the
// begin sample, as PositionAt does.
TEST(DissimCursorTest, WindowOnQuerySamples) {
  Rng rng(302);
  const Trajectory q = testing_util::RandomIrregularTrajectory(&rng, 1, 40);
  const Trajectory t = testing_util::RandomIrregularTrajectory(&rng, 2, 25);
  for (size_t i = 0; i + 1 < q.size(); ++i) {
    for (size_t j = i + 1; j < q.size(); j += 3) {
      const TimeInterval window{q.sample(i).t, q.sample(j).t};
      const LeafEntry e = LeafEntry::Of(3, {window.begin - 0.5, {1.0, 2.0}},
                                        {window.end + 0.5, {-3.0, 4.0}});
      ExpectSameSegmentDissim(q, e, window);
      ExpectSameDissim(q, t, window);
    }
  }
}

// window.end == q.end_time(): the final PositionAt clamps to the last
// segment instead of stepping past it.
TEST(DissimCursorTest, WindowEndingAtQueryEnd) {
  Rng rng(303);
  const Trajectory q = testing_util::RandomIrregularTrajectory(&rng, 1, 30);
  const Trajectory t = testing_util::RandomIrregularTrajectory(&rng, 2, 30);
  for (int trial = 0; trial < 40; ++trial) {
    const double begin = rng.Uniform(q.start_time(), q.end_time());
    const TimeInterval window{begin, q.end_time()};
    if (window.Duration() <= 0.0) continue;
    const LeafEntry e = LeafEntry::Of(3, {begin, {0.0, 0.0}},
                                      {q.end_time(), {5.0, 5.0}});
    ExpectSameSegmentDissim(q, e, window);
    ExpectSameDissim(q, t, window);
  }
  ExpectSameDissim(q, t, q.Lifespan());
  ExpectSameSegmentDissim(
      q, LeafEntry::Of(3, {q.start_time(), {0, 0}}, {q.end_time(), {1, 1}}),
      q.Lifespan());
}

// A window strictly inside one query segment has no interior cut: one
// elementary interval from begin to end.
TEST(DissimCursorTest, WindowWithoutInteriorSample) {
  Rng rng(304);
  const Trajectory q = testing_util::RandomIrregularTrajectory(&rng, 1, 20);
  const Trajectory t = testing_util::RandomTrajectory(&rng, 2, 2);
  for (size_t i = 0; i + 1 < q.size(); ++i) {
    const double lo = q.sample(i).t;
    const double hi = q.sample(i + 1).t;
    const TimeInterval inner{lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)};
    const LeafEntry e =
        LeafEntry::Of(3, {lo, {2.0, -1.0}}, {hi, {-2.0, 1.0}});
    ExpectSameSegmentDissim(q, e, inner);
    ExpectSameDissim(q, t, inner);
    // Begins on a sample, ends inside the same segment.
    ExpectSameSegmentDissim(q, e, {lo, inner.end});
    ExpectSameDissim(q, t, {lo, inner.end});
  }
}

// Query and data sampled at the same instants (unjittered GSTD puts every
// object on one clock): every interior timestamp appears twice in the
// merged sequence and must yield a single cut.
TEST(DissimCursorTest, SharedTimestampsYieldOneCut) {
  const TrajectoryStore store = GstdStore(6, 120, 0.0, 9);
  const TrajectoryStore coarse = GstdStore(6, 60, 0.0, 10);
  const auto& trajs = store.trajectories();
  for (size_t i = 0; i < trajs.size(); ++i) {
    const Trajectory& q = trajs[i];
    const Trajectory& t = trajs[(i + 1) % trajs.size()];
    ExpectSameDissim(q, t, q.Lifespan());
    ExpectSameDissim(q, t, {q.sample(10).t, q.sample(70).t});
    ExpectSameDissim(q, coarse.trajectories()[i], q.Lifespan());
    ExpectSameDissim(q, coarse.trajectories()[i],
                     {q.sample(3).t, q.sample(99).t});
  }
  // A data segment whose endpoints are query sample times.
  const Trajectory& q = trajs[0];
  const Trajectory& t = trajs[1];
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const LeafEntry e = LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1));
    ExpectSameSegmentDissim(q, e, e.TimeSpan());
  }
}

}  // namespace
}  // namespace mst
