#include "src/io/index_io.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/index/node.h"
#include "src/util/check.h"

namespace mst {
namespace {

constexpr char kMagic[8] = {'M', 'S', 'T', 'I', 'D', 'X', '0', '1'};

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

// Fixed-size header following the magic.
struct Header {
  int64_t page_count = 0;
  PageId root = kInvalidPageId;
  int32_t height = 0;
  int64_t entry_count = 0;
  double max_speed = 0.0;
  char name[32] = {};
};
static_assert(std::is_trivially_copyable_v<Header>);

/// Read-only deserialized index: pages restored verbatim; insertion state
/// (chains, rightmost paths) is gone, so Insert aborts.
class LoadedIndex : public TrajectoryIndex {
 public:
  LoadedIndex(const Options& options, std::string name)
      : TrajectoryIndex(options), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  void Restore(const Header& header, const std::vector<Page>& pages) {
    for (const Page& page : pages) {
      const PageId id = buffer().AllocatePage();
      PageGuard guard = buffer().PinMutable(id);
      *guard.mutable_page() = page;
    }
    buffer().Flush();
    set_root(header.root);
    set_height(header.height);
    RestoreStats(header.entry_count, header.max_speed);
  }

 protected:
  void InsertEntry(const LeafEntry&) override {
    MST_CHECK_MSG(false, "a loaded index is read-only");
  }

 private:
  std::string name_;
};

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

// Validates every page before any of them is trusted: headers first (format,
// level, entry count), then each internal entry's child id and level, so a
// query can neither decode a bad page nor follow a child out of the file or
// into a cycle. Returns "" when sound, else "page N: <fault>".
std::string ValidatePages(const std::vector<Page>& pages,
                          const Header& header) {
  std::vector<int32_t> levels(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    const std::string fault = CheckNodePage(pages[i], &levels[i]);
    if (!fault.empty()) return "page " + std::to_string(i) + ": " + fault;
  }
  const auto page_count = static_cast<int64_t>(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    if (levels[i] == 0) continue;
    const IndexNode node =
        IndexNode::Decode(pages[i], static_cast<PageId>(i));
    for (const InternalEntry& e : node.internals) {
      if (e.child < 0 || e.child >= page_count) {
        return "page " + std::to_string(i) + ": child page id " +
               std::to_string(e.child) + " outside [0, " +
               std::to_string(page_count) + ")";
      }
      const int32_t child_level = levels[static_cast<size_t>(e.child)];
      if (child_level != levels[i] - 1) {
        return "page " + std::to_string(i) + " (level " +
               std::to_string(levels[i]) + "): child page " +
               std::to_string(e.child) + " has level " +
               std::to_string(child_level);
      }
    }
  }
  if (page_count > 0 &&
      levels[static_cast<size_t>(header.root)] != header.height - 1) {
    return "root page " + std::to_string(header.root) + " has level " +
           std::to_string(levels[static_cast<size_t>(header.root)]) +
           " but the header says height " + std::to_string(header.height);
  }
  return "";
}

}  // namespace

bool SaveIndex(const TrajectoryIndex& index, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) return false;

  // Make sure every dirty frame is on the simulated disk first.
  index.buffer().Flush();

  Header header;
  header.page_count = index.NodeCount();
  header.root = index.root();
  header.height = index.height();
  header.entry_count = index.EntryCount();
  header.max_speed = index.max_speed();
  const std::string name = index.name();
  std::strncpy(header.name, name.c_str(), sizeof(header.name) - 1);

  if (std::fwrite(kMagic, 1, sizeof(kMagic), file.get()) != sizeof(kMagic)) {
    return false;
  }
  if (std::fwrite(&header, 1, sizeof(header), file.get()) != sizeof(header)) {
    return false;
  }
  // Page payload, read through the buffer so accounting stays consistent.
  for (PageId id = 0; id < header.page_count; ++id) {
    const PageGuard page = index.buffer().Pin(id);
    if (std::fwrite(page->bytes.data(), 1, kPageSize, file.get()) !=
        kPageSize) {
      return false;
    }
  }
  return std::fflush(file.get()) == 0;
}

std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           std::string* error) {
  return LoadIndex(path, IndexOpenOptions(), error);
}

std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           const IndexOpenOptions& options,
                                           std::string* error) {
  if (options.index.build_buffer_pages == 0) {
    SetError(error, path +
                        ": invalid open options: build_buffer_pages must be "
                        "at least 1");
    return nullptr;
  }
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    SetError(error, "cannot open " + path);
    return nullptr;
  }
  char magic[sizeof(kMagic)];
  if (std::fread(magic, 1, sizeof(magic), file.get()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    SetError(error, path + ": not an index file");
    return nullptr;
  }
  Header header;
  if (std::fread(&header, 1, sizeof(header), file.get()) != sizeof(header)) {
    SetError(error, path + ": truncated header");
    return nullptr;
  }
  if (header.page_count < 0 || header.height < 0 ||
      (header.page_count > 0 &&
       (header.root < 0 || header.root >= header.page_count))) {
    SetError(error, path + ": corrupt header");
    return nullptr;
  }
  if (header.entry_count < 0 || !std::isfinite(header.max_speed) ||
      header.max_speed < 0.0) {
    SetError(error, path + ": corrupt header (entry count / max speed)");
    return nullptr;
  }
  std::vector<Page> pages(static_cast<size_t>(header.page_count));
  for (Page& page : pages) {
    if (std::fread(page.bytes.data(), 1, kPageSize, file.get()) !=
        kPageSize) {
      SetError(error, path + ": truncated page payload");
      return nullptr;
    }
  }
  char extra;
  if (std::fread(&extra, 1, 1, file.get()) == 1) {
    SetError(error, path + ": trailing bytes after page payload");
    return nullptr;
  }
  const std::string fault = ValidatePages(pages, header);
  if (!fault.empty()) {
    SetError(error, path + ": " + fault);
    return nullptr;
  }
  header.name[sizeof(header.name) - 1] = '\0';
  auto index = std::make_unique<LoadedIndex>(
      options.index, std::string(header.name) + " (loaded)");
  index->Restore(header, pages);
  return index;
}

}  // namespace mst
