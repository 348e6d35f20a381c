// The trajectory data model: a sequence of timestamped 2D samples with
// linear interpolation in between (the MOD model of the paper, §3).

#ifndef MST_GEOM_TRAJECTORY_H_
#define MST_GEOM_TRAJECTORY_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/geom/interval.h"
#include "src/geom/mbb.h"
#include "src/geom/point.h"

namespace mst {

/// Identifier of a moving object / trajectory.
using TrajectoryId = int64_t;

/// Sentinel for "no trajectory".
inline constexpr TrajectoryId kInvalidTrajectoryId = -1;

/// A sampled trajectory of one moving object. Samples are kept sorted by
/// strictly increasing timestamp; the object's position between consecutive
/// samples is defined by linear interpolation. A trajectory needs at least
/// two samples to describe movement (single-sample trajectories are allowed
/// but have zero duration).
class Trajectory {
 public:
  /// Builds a trajectory from samples. Samples must be non-empty and sorted
  /// by strictly increasing timestamp (checked).
  Trajectory(TrajectoryId id, std::vector<TPoint> samples);

  Trajectory(const Trajectory&) = default;
  Trajectory(Trajectory&&) = default;
  Trajectory& operator=(const Trajectory&) = default;
  Trajectory& operator=(Trajectory&&) = default;

  TrajectoryId id() const { return id_; }

  /// Number of samples.
  size_t size() const { return samples_.size(); }

  /// Number of line segments (size() - 1; 0 for a single sample).
  size_t SegmentCount() const { return samples_.size() - 1; }

  const TPoint& sample(size_t i) const { return samples_[i]; }
  const std::vector<TPoint>& samples() const { return samples_; }

  double start_time() const { return samples_.front().t; }
  double end_time() const { return samples_.back().t; }

  /// Lifespan [start_time, end_time].
  TimeInterval Lifespan() const { return {start_time(), end_time()}; }

  /// True iff the trajectory is defined over the whole closed `period`.
  bool Covers(const TimeInterval& period) const {
    return Lifespan().Covers(period);
  }

  /// Position at time `t`, linearly interpolated; nullopt outside the
  /// lifespan.
  std::optional<Vec2> PositionAt(double t) const;

  /// Index `i` of the segment [sample(i), sample(i+1)] whose time range
  /// contains `t` (the last such segment for boundary timestamps); nullopt
  /// outside the lifespan or if the trajectory has a single sample.
  std::optional<size_t> SegmentAt(double t) const;

  /// Sub-trajectory restricted to `period` (clipped; endpoints interpolated
  /// if `period` cuts through segments). Returns nullopt if `period` does not
  /// intersect the lifespan in more than measure-zero fashion... precisely:
  /// nullopt when the intersection of `period` with the lifespan is empty.
  /// The slice keeps this trajectory's id.
  std::optional<Trajectory> Slice(const TimeInterval& period) const;

  /// Total spatial (polyline) length.
  double SpatialLength() const;

  /// Maximum speed over all segments (0 for single-sample trajectories).
  /// Zero-duration segments cannot occur (timestamps strictly increase).
  double MaxSpeed() const;

  /// Bounding box over space and time.
  Mbb3 Bounds() const;

  friend bool operator==(const Trajectory& a, const Trajectory& b) {
    return a.id_ == b.id_ && a.samples_ == b.samples_;
  }

 private:
  TrajectoryId id_;
  std::vector<TPoint> samples_;
};

/// Forward-only position lookup along one trajectory, for kernels that visit
/// a non-decreasing sequence of instants (the elementary-interval cuts of
/// DISSIM). Construction costs one binary search; every PositionAt after
/// that advances a sample index, amortized O(1). Each PositionAt(t) picks
/// exactly the segment Trajectory::PositionAt(t) picks — the one before the
/// first sample later than t, clamped to the last segment at end_time() —
/// so Lerp gets the same inputs and the position is bit-identical.
class TrajectoryCursor {
 public:
  /// Positions the cursor at `t`, which must lie in the lifespan.
  TrajectoryCursor(const Trajectory& traj, double t)
      : samples_(traj.samples().data()),
        size_(traj.size()),
        next_(static_cast<size_t>(
            std::upper_bound(samples_, samples_ + size_, t, Before) -
            samples_)) {}

  /// Position at `t`; `t` must lie in the lifespan and be no earlier than
  /// any instant the cursor was positioned at or asked for before.
  Vec2 PositionAt(double t) {
    while (next_ < size_ && samples_[next_].t <= t) ++next_;
    if (size_ == 1) return samples_[0].p;
    const size_t seg = (next_ < size_ ? next_ : size_ - 1) - 1;
    return Lerp(samples_[seg], samples_[seg + 1], t);
  }

  /// Timestamp of the first sample later than every instant seen so far;
  /// +infinity once the cursor has passed the last sample.
  double NextSampleTime() const {
    return next_ < size_ ? samples_[next_].t
                         : std::numeric_limits<double>::infinity();
  }

 private:
  static bool Before(double t, const TPoint& s) { return t < s.t; }

  const TPoint* samples_;
  size_t size_;
  size_t next_;  // index of the first sample with timestamp > last instant
};

/// Read-side lookup interface of a trajectory table. BFMSTSearch needs only
/// this from its "store": each candidate's lifespan for the eligibility
/// check and its samples for the §4.4 refinement integrals. The build-once
/// TrajectoryStore below is the canonical implementation; the streaming
/// ingest engine serves immutable point-in-time snapshots through the same
/// interface (src/ingest/ingest_engine.h), so the search never knows whether
/// it reads a static table or a live one.
class TrajectorySource {
 public:
  virtual ~TrajectorySource() = default;

  /// Lookup by id; nullptr if absent.
  virtual const Trajectory* Find(TrajectoryId id) const = 0;

  /// Lookup by id; aborts if absent.
  const Trajectory& Get(TrajectoryId id) const;

  /// True when this source is the write-version authority for its
  /// trajectories (live snapshots are; static stores are not — there the
  /// index's per-trajectory versions rule, see
  /// TrajectoryIndex::TrajectoryWriteVersion). The result cache keys off
  /// whichever authority the search is handed.
  virtual bool OwnsWriteVersions() const { return false; }

  /// Monotonic write version of `id` as of this source's snapshot point;
  /// only meaningful when OwnsWriteVersions(). Never-written ids report 0.
  virtual uint64_t SourceWriteVersion(TrajectoryId) const { return 0; }
};

/// An owning collection of trajectories with id lookup — the "trajectory
/// table" of the MOD. BFMST uses it to (a) know each object's lifespan and
/// (b) fetch remaining segments during exact post-processing (§4.4).
class TrajectoryStore : public TrajectorySource {
 public:
  TrajectoryStore() = default;

  /// Adds a trajectory; ids must be unique (checked).
  void Add(Trajectory trajectory);

  /// Number of trajectories.
  size_t size() const { return trajectories_.size(); }
  bool empty() const { return trajectories_.empty(); }

  /// Lookup by id; nullptr if absent.
  const Trajectory* Find(TrajectoryId id) const override;

  /// All trajectories, in insertion order.
  const std::vector<Trajectory>& trajectories() const { return trajectories_; }

  /// Maximum MaxSpeed() over the stored trajectories (0 when empty). Used as
  /// the dataset component of V_max in the speed-dependent bounds.
  double MaxSpeed() const;

  /// Total number of line segments across all trajectories.
  int64_t TotalSegments() const;

 private:
  std::vector<Trajectory> trajectories_;
  // id -> index into trajectories_. Kept sorted at Add() time (ids arrive
  // mostly in increasing order, so the insert is an O(1) append in
  // practice), so Find() is a pure const read — concurrent readers never
  // mutate the store. A lazily-sorted variant raced when the first Find
  // landed on an executor worker thread.
  std::vector<std::pair<TrajectoryId, size_t>> by_id_;
};

}  // namespace mst

#endif  // MST_GEOM_TRAJECTORY_H_
