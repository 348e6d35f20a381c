// Index persistence: serialize a built trajectory index (its 4 KB pages
// plus root/height/counter metadata) to a file and load it back for
// querying. A loaded index is read-only — the build-time in-memory state of
// the insertion policies (trajectory chains, rightmost paths) is not
// persisted, and BFMST/range/NN search never needs it.

#ifndef MST_IO_INDEX_IO_H_
#define MST_IO_INDEX_IO_H_

#include <memory>
#include <optional>
#include <string>

#include "src/index/trajectory_index.h"

namespace mst {

/// Writes `index` (pages + metadata) to `path`. Returns false on I/O error.
bool SaveIndex(const TrajectoryIndex& index, const std::string& path);

/// How to open a saved index. A zero-page buffer is an explicit load error
/// that fails before any I/O.
struct IndexOpenOptions {
  /// Buffer/cache configuration of the loaded index.
  TrajectoryIndex::Options index;
};

/// Loads an index previously written by SaveIndex. The returned index
/// answers all read-side queries; calling Insert on it aborts. Every page is
/// validated before the index is built: it must be a v2 leaf or a v1
/// internal node (CheckNodePage) whose children are in range and exactly one
/// level below it, with the root at level height − 1. Returns nullptr and
/// fills `*error` on failure, naming the page and the fault; files holding
/// pages of a retired format must be rebuilt from the CSV.
std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           std::string* error);

/// LoadIndex honoring explicit open options (validated — see
/// IndexOpenOptions). The two-argument overload is equivalent to passing
/// default options.
std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           const IndexOpenOptions& options,
                                           std::string* error);

}  // namespace mst

#endif  // MST_IO_INDEX_IO_H_
