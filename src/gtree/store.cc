#include "gtree/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "graph/graph_io.h"
#include "util/coding.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace gmine::gtree {

using graph::Graph;
using graph::NodeId;
using graph::Subgraph;

namespace {

constexpr uint32_t kStoreMagic = 0x47545246;  // "GTRF"
// v2: directory offsets became absolute, and a journal section plus the
// build-shape hints were added for incremental edits (ApplyUpdate).
// v3: the applied write-ahead-log LSN joined the header (storage/wal.h)
// so crash recovery knows which log records the store already covers.
constexpr uint32_t kStoreVersion = 3;
// magic, version, 12 fixed64 section fields, 2 fixed32 counts,
// build hints (3 fixed32 + 1 fixed64), applied_lsn, checksum.
constexpr size_t kHeaderSize =
    4 + 4 + 12 * 8 + 4 + 4 + (3 * 4 + 8) + 8 + 8;

// Every section location in one place so the header can be (re)written
// by Create and by ApplyUpdate's append path alike.
struct SectionTable {
  uint64_t tree_off = 0, tree_size = 0;
  uint64_t conn_off = 0, conn_size = 0;
  uint64_t labels_off = 0, labels_size = 0;
  uint64_t dir_off = 0, dir_size = 0;
  uint64_t graph_off = 0, graph_size = 0;
  uint64_t journal_off = 0, journal_size = 0;
  uint32_t num_pages = 0;
  uint32_t num_graph_nodes = 0;
  GTreeBuildHints hints;
  uint64_t applied_lsn = 0;
};

std::string SerializeHeader(const SectionTable& t) {
  std::string header;
  PutFixed32(&header, kStoreMagic);
  PutFixed32(&header, kStoreVersion);
  PutFixed64(&header, t.tree_off);
  PutFixed64(&header, t.tree_size);
  PutFixed64(&header, t.conn_off);
  PutFixed64(&header, t.conn_size);
  PutFixed64(&header, t.labels_off);
  PutFixed64(&header, t.labels_size);
  PutFixed64(&header, t.dir_off);
  PutFixed64(&header, t.dir_size);
  PutFixed64(&header, t.graph_off);
  PutFixed64(&header, t.graph_size);
  PutFixed64(&header, t.journal_off);
  PutFixed64(&header, t.journal_size);
  PutFixed32(&header, t.num_pages);
  PutFixed32(&header, t.num_graph_nodes);
  PutFixed32(&header, t.hints.levels);
  PutFixed32(&header, t.hints.fanout);
  PutFixed32(&header, t.hints.min_partition_size);
  PutFixed64(&header, t.hints.partition_seed);
  PutFixed64(&header, t.applied_lsn);
  PutFixed64(&header, Hash64(header));
  return header;
}

std::string SerializeTree(const GTree& tree) {
  std::string blob;
  PutVarint32(&blob, tree.size());
  for (const TreeNode& tn : tree.nodes()) {
    // parent encoded +1 so the root's kInvalidTreeNode fits a varint.
    PutVarint32(&blob, tn.parent == kInvalidTreeNode ? 0 : tn.parent + 1);
    PutVarint32(&blob, tn.depth);
    PutVarint64(&blob, tn.subtree_size);
    PutLengthPrefixed(&blob, tn.name);
    PutVarint32(&blob, static_cast<uint32_t>(tn.children.size()));
    for (TreeNodeId c : tn.children) PutVarint32(&blob, c);
    PutVarint32(&blob, static_cast<uint32_t>(tn.members.size()));
    NodeId prev = 0;
    for (NodeId m : tn.members) {  // members are sorted ascending
      PutVarint32(&blob, m - prev);
      prev = m;
    }
  }
  return blob;
}

gmine::Result<GTree> DeserializeTree(std::string_view blob,
                                     uint32_t num_graph_nodes) {
  uint32_t count = 0;
  if (!GetVarint32(&blob, &count)) {
    return Status::Corruption("gtree store: bad tree node count");
  }
  std::vector<TreeNode> nodes(count);
  for (uint32_t i = 0; i < count; ++i) {
    TreeNode& tn = nodes[i];
    tn.id = i;
    uint32_t parent_plus1 = 0;
    uint32_t nchildren = 0;
    uint32_t nmembers = 0;
    std::string_view name;
    if (!GetVarint32(&blob, &parent_plus1) || !GetVarint32(&blob, &tn.depth) ||
        !GetVarint64(&blob, &tn.subtree_size) ||
        !GetLengthPrefixed(&blob, &name) || !GetVarint32(&blob, &nchildren)) {
      return Status::Corruption("gtree store: truncated tree node");
    }
    tn.parent = parent_plus1 == 0 ? kInvalidTreeNode : parent_plus1 - 1;
    tn.name.assign(name);
    tn.children.resize(nchildren);
    for (uint32_t c = 0; c < nchildren; ++c) {
      if (!GetVarint32(&blob, &tn.children[c])) {
        return Status::Corruption("gtree store: truncated child list");
      }
    }
    if (!GetVarint32(&blob, &nmembers)) {
      return Status::Corruption("gtree store: truncated member count");
    }
    tn.members.resize(nmembers);
    NodeId prev = 0;
    for (uint32_t m = 0; m < nmembers; ++m) {
      uint32_t delta = 0;
      if (!GetVarint32(&blob, &delta)) {
        return Status::Corruption("gtree store: truncated members");
      }
      prev += delta;
      tn.members[m] = prev;
    }
  }
  return GTree::FromNodes(std::move(nodes), num_graph_nodes);
}

/// Reads exactly `size` bytes at `offset` (pread(2), retrying short
/// reads and EINTR). Positional reads share no file offset, so any
/// number of threads read one descriptor without a lock.
bool PreadFull(int fd, char* dst, uint64_t size, uint64_t offset) {
  while (size > 0) {
    const ssize_t got = ::pread(fd, dst, size, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    dst += got;
    size -= static_cast<uint64_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

/// Bytes a header at `t` actually references (the live set): header +
/// metadata sections + every page in `directory`. Everything else in
/// the file is dead weight from superseded appends. (Templated because
/// PageLocation is private to GTreeStore.)
template <typename Directory>
uint64_t ComputeLiveBytes(const SectionTable& t, const Directory& directory) {
  uint64_t live = kHeaderSize + t.tree_size + t.conn_size + t.labels_size +
                  t.dir_size + t.journal_size + t.graph_size;
  for (const auto& [leaf, loc] : directory) live += loc.size;
  return live;
}

}  // namespace

GTreeStore::~GTreeStore() {
  if (pool_ != nullptr) pool_->UnregisterStore(pool_id_);
  if (fd_ >= 0) ::close(fd_);
}

Status GTreeStore::Create(const std::string& path, const Graph& g,
                          const GTree& tree, const ConnectivityIndex& conn,
                          const graph::LabelStore& labels,
                          const GTreeBuildHints* hints,
                          uint64_t applied_lsn) {
  // Build section blobs.
  std::string tree_blob = SerializeTree(tree);
  std::string conn_blob = conn.Serialize();
  std::string labels_blob = labels.Serialize();

  uint64_t pages_off =
      kHeaderSize + tree_blob.size() + conn_blob.size() + labels_blob.size();
  std::string pages;
  std::string directory;
  uint32_t num_pages = 0;
  for (const TreeNode& tn : tree.nodes()) {
    if (!tn.IsLeaf()) continue;
    auto sub = graph::InducedSubgraph(g, tn.members);
    if (!sub.ok()) return sub.status();
    std::string page = SerializeLeafPayload(sub.value());
    PutVarint32(&directory, tn.id);
    PutVarint64(&directory, pages_off + pages.size());  // absolute offset
    PutVarint64(&directory, page.size());
    pages += page;
    ++num_pages;
  }

  std::string graph_blob = graph::SerializeGraph(g);

  SectionTable t;
  t.tree_off = kHeaderSize;
  t.tree_size = tree_blob.size();
  t.conn_off = t.tree_off + tree_blob.size();
  t.conn_size = conn_blob.size();
  t.labels_off = t.conn_off + conn_blob.size();
  t.labels_size = labels_blob.size();
  t.dir_off = pages_off + pages.size();
  t.dir_size = directory.size();
  t.graph_off = t.dir_off + directory.size();
  t.graph_size = graph_blob.size();
  t.journal_off = t.graph_off + graph_blob.size();
  t.journal_size = 0;  // a fresh store has no pending edits
  t.num_pages = num_pages;
  t.num_graph_nodes = g.num_nodes();
  if (hints != nullptr) t.hints = *hints;
  t.applied_lsn = applied_lsn;

  std::string file = SerializeHeader(t);
  file += tree_blob;
  file += conn_blob;
  file += labels_blob;
  file += pages;
  file += directory;
  file += graph_blob;
  return graph::WriteStringToFile(file, path);
}

Status GTreeStore::LoadMetadata(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  }
  auto read_at = [fd](uint64_t off, uint64_t size,
                      std::string* out) -> Status {
    out->resize(size);
    if (!PreadFull(fd, out->data(), size, off)) {
      return Status::IOError("short read");
    }
    return Status::OK();
  };
  // The new descriptor replaces the old one only after the whole load
  // succeeds, so a failed reload leaves the store usable.
  struct Closer {
    int fd;
    ~Closer() {
      if (fd >= 0) ::close(fd);
    }
  } closer{fd};

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError(StrFormat("cannot stat %s", path.c_str()));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  std::string header;
  GMINE_RETURN_IF_ERROR(read_at(0, kHeaderSize, &header));
  std::string_view in = header;
  uint32_t magic = 0;
  uint32_t version = 0;
  GetFixed32(&in, &magic);
  GetFixed32(&in, &version);
  if (magic != kStoreMagic) {
    return Status::Corruption("gtree store: bad magic");
  }
  if (version != kStoreVersion) {
    return Status::Corruption("gtree store: unsupported version");
  }
  SectionTable t;
  uint64_t checksum = 0;
  GetFixed64(&in, &t.tree_off);
  GetFixed64(&in, &t.tree_size);
  GetFixed64(&in, &t.conn_off);
  GetFixed64(&in, &t.conn_size);
  GetFixed64(&in, &t.labels_off);
  GetFixed64(&in, &t.labels_size);
  GetFixed64(&in, &t.dir_off);
  GetFixed64(&in, &t.dir_size);
  GetFixed64(&in, &t.graph_off);
  GetFixed64(&in, &t.graph_size);
  GetFixed64(&in, &t.journal_off);
  GetFixed64(&in, &t.journal_size);
  GetFixed32(&in, &t.num_pages);
  GetFixed32(&in, &t.num_graph_nodes);
  GetFixed32(&in, &t.hints.levels);
  GetFixed32(&in, &t.hints.fanout);
  GetFixed32(&in, &t.hints.min_partition_size);
  GetFixed64(&in, &t.hints.partition_seed);
  GetFixed64(&in, &t.applied_lsn);
  GetFixed64(&in, &checksum);
  if (Hash64(std::string_view(header.data(), kHeaderSize - 8)) != checksum) {
    return Status::Corruption("gtree store: header checksum mismatch");
  }

  GTree tree;
  ConnectivityIndex conn;
  graph::LabelStore labels;
  std::vector<graph::GraphEdit> journal;
  std::unordered_map<TreeNodeId, PageLocation> directory;

  std::string blob;
  GMINE_RETURN_IF_ERROR(read_at(t.tree_off, t.tree_size, &blob));
  {
    auto parsed = DeserializeTree(blob, t.num_graph_nodes);
    if (!parsed.ok()) return parsed.status();
    tree = std::move(parsed).value();
  }
  GMINE_RETURN_IF_ERROR(read_at(t.conn_off, t.conn_size, &blob));
  {
    auto parsed = ConnectivityIndex::Deserialize(blob);
    if (!parsed.ok()) return parsed.status();
    conn = std::move(parsed).value();
  }
  if (t.labels_size > 0) {
    GMINE_RETURN_IF_ERROR(read_at(t.labels_off, t.labels_size, &blob));
    auto parsed = graph::LabelStore::Deserialize(blob);
    if (!parsed.ok()) return parsed.status();
    labels = std::move(parsed).value();
  }
  GMINE_RETURN_IF_ERROR(read_at(t.dir_off, t.dir_size, &blob));
  {
    std::string_view dir = blob;
    for (uint32_t i = 0; i < t.num_pages; ++i) {
      uint32_t leaf = 0;
      uint64_t off = 0;
      uint64_t size = 0;
      if (!GetVarint32(&dir, &leaf) || !GetVarint64(&dir, &off) ||
          !GetVarint64(&dir, &size)) {
        return Status::Corruption("gtree store: truncated directory");
      }
      if (off + size > file_size) {
        return Status::Corruption("gtree store: page outside the file");
      }
      directory[leaf] = PageLocation{off, size};
    }
  }
  if (t.journal_size > 0) {
    GMINE_RETURN_IF_ERROR(read_at(t.journal_off, t.journal_size, &blob));
    std::string_view body = blob;
    uint32_t count = 0;
    if (!GetVarint32(&body, &count)) {
      return Status::Corruption("gtree store: bad journal count");
    }
    journal.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view entry;
      if (!GetLengthPrefixed(&body, &entry)) {
        return Status::Corruption("gtree store: truncated journal");
      }
      auto edit = graph::GraphEdit::Deserialize(entry);
      if (!edit.ok()) return edit.status();
      journal.push_back(std::move(edit).value());
    }
  }

  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  closer.fd = -1;
  path_ = path;
  file_size_ = file_size;
  hints_ = t.hints;
  num_graph_nodes_ = t.num_graph_nodes;
  applied_lsn_ = t.applied_lsn;
  tree_ = std::move(tree);
  conn_ = std::move(conn);
  labels_ = std::move(labels);
  journal_ = std::move(journal);
  SetDirectory(std::move(directory));
  graph_section_ = PageLocation{t.graph_off, t.graph_size};
  labels_section_ = PageLocation{t.labels_off, t.labels_size};
  live_bytes_ = ComputeLiveBytes(t, directory_);
  return Status::OK();
}

void GTreeStore::SetDirectory(
    std::unordered_map<TreeNodeId, PageLocation> directory) {
  directory_ = std::move(directory);
  leaf_page_bytes_ = 0;
  max_leaf_page_bytes_ = 0;
  for (const auto& [leaf, loc] : directory_) {
    leaf_page_bytes_ += loc.size;
    max_leaf_page_bytes_ = std::max(max_leaf_page_bytes_, loc.size);
  }
}

gmine::Result<std::unique_ptr<GTreeStore>> GTreeStore::Open(
    const std::string& path, const GTreeStoreOptions& options) {
  std::unique_ptr<GTreeStore> store(new GTreeStore());
  store->options_ = options;
  // Every leaf read goes through a buffer pool: the caller's private
  // one when given, the process-wide pool otherwise. The pool keys
  // frames by (store id, leaf id), so id registration is what keeps
  // two stores' pages apart.
  store->pool_ = options.buffer_pool != nullptr
                     ? options.buffer_pool
                     : &storage::BufferPool::Global();
  store->pool_id_ = store->pool_->RegisterStore();
  GMINE_RETURN_IF_ERROR(store->LoadMetadata(path));
  return store;
}

Status GTreeStore::ReadAt(const PageLocation& loc, char* dst) const {
  if (!PreadFull(fd_, dst, loc.size, loc.offset)) {
    return Status::IOError("gtree store: short read");
  }
  return Status::OK();
}

Status GTreeStore::ReadAt(const PageLocation& loc, std::string* out) const {
  out->resize(loc.size);
  return ReadAt(loc, out->data());
}

gmine::Result<graph::Graph> GTreeStore::LoadFullGraph() const {
  if (graph_section_.size == 0) {
    return Status::NotFound("gtree store: no embedded graph section");
  }
  std::string blob;
  GMINE_RETURN_IF_ERROR(ReadAt(graph_section_, &blob));
  uncached_bytes_read_.fetch_add(blob.size(), std::memory_order_relaxed);
  auto g = graph::DeserializeGraph(blob);
  if (!g.ok() || journal_.empty()) return g;
  // Replay the edit journal: the graph section is the base state and
  // each journaled edit was validated when it was applied live.
  graph::Graph current = std::move(g).value();
  for (const graph::GraphEdit& edit : journal_) {
    auto replayed = edit.Apply(current);
    if (!replayed.ok()) {
      return Status::Corruption(
          StrFormat("gtree store: journal replay failed: %s",
                    replayed.status().ToString().c_str()));
    }
    current = std::move(replayed).value().graph;
  }
  return current;
}

gmine::Result<std::shared_ptr<const LeafPayload>> GTreeStore::LoadLeaf(
    TreeNodeId leaf, ReaderTag reader) const {
  if (storage::PagePayload hit = pool_->Lookup(pool_id_, leaf, reader)) {
    return std::static_pointer_cast<const LeafPayload>(hit);
  }
  // directory_ is immutable except under ApplyUpdate, whose contract
  // excludes every concurrent reader, so the miss path reads it
  // latch-free.
  auto it = directory_.find(leaf);
  if (it == directory_.end()) {
    return Status::NotFound(
        StrFormat("leaf %u has no page (not a leaf community?)", leaf));
  }
  // The disk read is a lock-free pread, so a load never blocks pool
  // hits or other loads.
  std::string blob;
  GMINE_RETURN_IF_ERROR(ReadAt(it->second, &blob));
  // Deserialization runs outside every latch: it is the expensive part
  // and touches only local state. Two threads racing on the same
  // non-resident leaf both read and decode it; the first Insert wins
  // the frame and the loser's copy simply dies with its shared_ptr.
  auto payload = DeserializeLeafPayload(blob);
  if (!payload.ok()) return payload.status();
  auto shared =
      std::make_shared<const LeafPayload>(std::move(payload).value());
  GMINE_ASSIGN_OR_RETURN(
      storage::PagePayload winner,
      pool_->Insert(pool_id_, leaf, shared, blob.size(), reader));
  return std::static_pointer_cast<const LeafPayload>(winner);
}

Status GTreeStore::ScanLeafPages(
    const std::function<bool(const TreeNode&)>& prune,
    const std::function<Status(const TreeNode&, const LeafPayload&)>& visit,
    LeafScanStats* stats, ReaderTag reader) const {
  LeafScanStats local;
  for (const TreeNode& node : tree_.nodes()) {
    if (!node.IsLeaf()) continue;
    ++local.pages_total;
    if (prune && prune(node)) {
      ++local.pages_pruned;
      continue;
    }
    GMINE_ASSIGN_OR_RETURN(std::shared_ptr<const LeafPayload> payload,
                           LoadLeaf(node.id, reader));
    ++local.pages_scanned;
    GMINE_RETURN_IF_ERROR(visit(node, *payload));
    // The pin (shared_ptr) drops here, before the next page loads:
    // the scan holds at most one frame at a time, so it runs within
    // any pool budget that fits the largest single page.
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status GTreeStore::ApplyUpdate(GTreeStoreUpdate& update,
                               GTreeStoreUpdateStats* stats) {
  if (streamed()) {
    // Streamed stores have no embedded base graph for the journal to
    // replay against, so in-place edits are off the table by design
    // (docs/OUTOFCORE.md) — rebuild through the streaming pipeline.
    // Checked before update validation: it is a property of the store,
    // not of this particular update.
    return Status::NotSupported(
        "streamed (out-of-core) store is read-only; rebuild to edit");
  }
  if (update.tree == nullptr || update.graph == nullptr) {
    return Status::InvalidArgument("ApplyUpdate: tree and graph required");
  }
  if (update.conn_deltas != nullptr && update.replacement_conn != nullptr) {
    return Status::InvalidArgument(
        "ApplyUpdate: conn_deltas and replacement_conn are exclusive");
  }
  GTreeStoreUpdateStats local;
  GTreeStoreUpdateStats& out = stats != nullptr ? *stats : local;

  // Size-ratio defragmentation trigger: when the dead bytes accumulated
  // by prior appends already dwarf the live set, compact now instead of
  // waiting for the journal to fill — a burst of page-heavy edits can
  // triple the file long before journal_compact_ops edits have landed.
  const bool defrag_due =
      options_.defrag_wasted_ratio > 0 && live_bytes_ > 0 &&
      static_cast<double>(wasted_bytes()) >
          options_.defrag_wasted_ratio * static_cast<double>(live_bytes_);
  const bool compact = update.journal_edit == nullptr ||
                       options_.journal_compact_ops == 0 ||
                       journal_.size() >= options_.journal_compact_ops ||
                       defrag_due;
  if (compact) {
    out.defragmented = defrag_due;
    // Compaction: materialize the post-edit state and rewrite the whole
    // file through Create + atomic rename; memory commits only after
    // the rename so a failure leaves the store on its old state.
    GTree new_tree = std::move(*update.tree);
    ConnectivityIndex new_conn;
    if (update.replacement_conn != nullptr) {
      new_conn = std::move(*update.replacement_conn);
    } else {
      new_conn = conn_;
      if (update.conn_deltas != nullptr) {
        new_conn.ApplyDeltas(*update.conn_deltas);
      }
    }
    const graph::LabelStore& labels =
        update.labels != nullptr ? *update.labels : labels_;
    const std::string tmp = path_ + ".tmp";
    const uint64_t new_lsn =
        update.applied_lsn != 0 ? update.applied_lsn : applied_lsn_;
    Status created = Create(tmp, *update.graph, new_tree, new_conn, labels,
                            &hints_, new_lsn);
    if (!created.ok()) {
      std::remove(tmp.c_str());
      return created;
    }
    if (options_.durable_appends) {
      // Push the replacement to disk before it takes the store's name.
      std::FILE* t = std::fopen(tmp.c_str(), "rb");
      if (t != nullptr) {
        (void)fdatasync(fileno(t));
        std::fclose(t);
      }
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      std::remove(tmp.c_str());
      return Status::IOError(
          StrFormat("ApplyUpdate: cannot replace %s", path_.c_str()));
    }
    GMINE_RETURN_IF_ERROR(LoadMetadata(path_));
    // Every page was rewritten, so every resident frame of *this*
    // store is stale; other stores' frames are untouched.
    out.pages_invalidated +=
        static_cast<uint32_t>(pool_->DropStore(pool_id_));
    out.compacted = true;
    out.journal_ops = 0;
    return Status::OK();
  }

  // Append path: dirty pages + fresh metadata sections go at the end of
  // the file; the header is rewritten last. Everything fallible
  // (serialization, IO) runs before any in-memory commit.
  std::string tree_blob = SerializeTree(*update.tree);
  ConnectivityIndex new_conn;
  if (update.replacement_conn != nullptr) {
    new_conn = std::move(*update.replacement_conn);
  } else {
    new_conn = conn_;
    if (update.conn_deltas != nullptr) {
      new_conn.ApplyDeltas(*update.conn_deltas);
    }
  }
  std::string conn_blob = new_conn.Serialize();
  std::string labels_blob;
  if (update.labels != nullptr) labels_blob = update.labels->Serialize();
  std::string journal_blob;
  PutVarint32(&journal_blob, static_cast<uint32_t>(journal_.size() + 1));
  for (const graph::GraphEdit& e : journal_) {
    PutLengthPrefixed(&journal_blob, e.Serialize());
  }
  PutLengthPrefixed(&journal_blob, update.journal_edit->Serialize());

  // Layout: dirty pages first, then tree/conn/[labels]/directory/journal.
  const uint64_t append_base = file_size_;
  std::string appended;
  std::unordered_map<TreeNodeId, PageLocation> new_directory;
  std::unordered_set<TreeNodeId> dirty;
  for (auto& [leaf, sub] : update.dirty_pages) {
    std::string page = SerializeLeafPayload(sub);
    new_directory[leaf] =
        PageLocation{append_base + appended.size(), page.size()};
    dirty.insert(leaf);
    appended += page;
    ++out.pages_written;
  }
  // Clean pages carry over at their old offsets under their new ids.
  std::unordered_map<TreeNodeId, TreeNodeId> new_to_old;
  if (update.old_to_new != nullptr) {
    new_to_old.reserve(update.old_to_new->size());
    for (TreeNodeId o = 0;
         o < static_cast<TreeNodeId>(update.old_to_new->size()); ++o) {
      if ((*update.old_to_new)[o] != kInvalidTreeNode) {
        new_to_old[(*update.old_to_new)[o]] = o;
      }
    }
  }
  for (const TreeNode& tn : update.tree->nodes()) {
    if (!tn.IsLeaf() || dirty.count(tn.id) > 0) continue;
    TreeNodeId old_id = tn.id;
    if (update.old_to_new != nullptr) {
      auto mapped = new_to_old.find(tn.id);
      old_id = mapped == new_to_old.end() ? kInvalidTreeNode
                                          : mapped->second;
    }
    auto it = old_id == kInvalidTreeNode ? directory_.end()
                                         : directory_.find(old_id);
    if (it == directory_.end()) {
      return Status::Internal(
          StrFormat("ApplyUpdate: clean leaf %u has no prior page", tn.id));
    }
    new_directory[tn.id] = it->second;
  }
  std::string directory_blob;
  {
    // Deterministic directory order (ascending leaf id).
    std::vector<TreeNodeId> leaves;
    leaves.reserve(new_directory.size());
    for (const auto& [leaf, _] : new_directory) leaves.push_back(leaf);
    std::sort(leaves.begin(), leaves.end());
    for (TreeNodeId leaf : leaves) {
      const PageLocation& loc = new_directory.at(leaf);
      PutVarint32(&directory_blob, leaf);
      PutVarint64(&directory_blob, loc.offset);
      PutVarint64(&directory_blob, loc.size);
    }
  }

  SectionTable t;
  t.tree_off = append_base + appended.size();
  t.tree_size = tree_blob.size();
  appended += tree_blob;
  t.conn_off = append_base + appended.size();
  t.conn_size = conn_blob.size();
  appended += conn_blob;
  if (update.labels != nullptr) {
    t.labels_off = append_base + appended.size();
    t.labels_size = labels_blob.size();
    appended += labels_blob;
  } else {
    t.labels_off = labels_section_.offset;
    t.labels_size = labels_section_.size;
  }
  t.dir_off = append_base + appended.size();
  t.dir_size = directory_blob.size();
  appended += directory_blob;
  t.journal_off = append_base + appended.size();
  t.journal_size = journal_blob.size();
  appended += journal_blob;
  t.graph_off = graph_section_.offset;
  t.graph_size = graph_section_.size;
  t.num_pages = static_cast<uint32_t>(new_directory.size());
  t.num_graph_nodes = update.graph->num_nodes();
  t.hints = hints_;
  t.applied_lsn =
      update.applied_lsn != 0 ? update.applied_lsn : applied_lsn_;
  std::string header = SerializeHeader(t);

  {
    // Appends land before the header write, so a *process* crash in
    // between leaves the old header describing the old sections — the
    // previous consistent state. For power-loss safety the kernel must
    // not reorder the header ahead of the appends: durable_appends
    // inserts fdatasync barriers around the header write (costing
    // milliseconds per edit, hence opt-in).
    std::FILE* w = std::fopen(path_.c_str(), "r+b");
    if (w == nullptr) {
      return Status::IOError(
          StrFormat("ApplyUpdate: cannot reopen %s for writing",
                    path_.c_str()));
    }
    bool ok = std::fseek(w, 0, SEEK_END) == 0 &&
              static_cast<uint64_t>(std::ftell(w)) == append_base &&
              std::fwrite(appended.data(), 1, appended.size(), w) ==
                  appended.size() &&
              std::fflush(w) == 0;
    if (ok && options_.durable_appends) ok = fdatasync(fileno(w)) == 0;
    ok = ok && std::fseek(w, 0, SEEK_SET) == 0 &&
         std::fwrite(header.data(), 1, header.size(), w) ==
             header.size() &&
         std::fflush(w) == 0;
    if (ok && options_.durable_appends) ok = fdatasync(fileno(w)) == 0;
    std::fclose(w);
    if (!ok) {
      return Status::IOError(
          StrFormat("ApplyUpdate: write to %s failed", path_.c_str()));
    }
  }

  // Commit (infallible from here).
  tree_ = std::move(*update.tree);
  conn_ = std::move(new_conn);
  if (update.labels != nullptr) {
    labels_ = *update.labels;
    labels_section_ = PageLocation{t.labels_off, t.labels_size};
  }
  journal_.push_back(*update.journal_edit);
  applied_lsn_ = t.applied_lsn;
  file_size_ = append_base + appended.size();
  out.appended_bytes = appended.size();
  out.journal_ops = journal_.size();
  live_bytes_ = ComputeLiveBytes(t, new_directory);

  // Invalidate only the touched frames; clean frames survive in the
  // pool, re-keyed when the repair renumbered the tree.
  out.pages_invalidated += static_cast<uint32_t>(pool_->RekeyStore(
      pool_id_,
      [&](storage::PageId old_page) -> storage::PageId {
        const TreeNodeId old_id = static_cast<TreeNodeId>(old_page);
        const TreeNodeId new_id =
            update.old_to_new != nullptr
                ? (old_id < update.old_to_new->size()
                       ? (*update.old_to_new)[old_id]
                       : kInvalidTreeNode)
                : old_id;
        if (new_id == kInvalidTreeNode || dirty.count(new_id) > 0 ||
            new_directory.count(new_id) == 0) {
          return storage::kInvalidPage;
        }
        return new_id;
      }));
  SetDirectory(std::move(new_directory));
  return Status::OK();
}

namespace {
/// Resume-token magic: "GPS1".
constexpr uint32_t kPageScanTokenMagic = 0x47505331;
}  // namespace

/// The store-backed PageScan (storage/page_scan.h): ascending leaf-id
/// walk, tokens fingerprinted against the store state they were minted
/// from. How pages arrive is decided once, at construction: through the
/// pool when every leaf page fits its budget, around it otherwise (see
/// GTreeStore::NewPageScan). With SetThreads(N > 1) pool workers decode
/// the next 2N pages into a ring of slots while Next() hands them out in
/// order; the caller decodes a page itself whenever no worker has
/// claimed it yet, so it never idles behind the queue.
class GTreeLeafPageScan final : public storage::PageScan {
 public:
  GTreeLeafPageScan(const GTreeStore* store, ReaderTag reader)
      : store_(store), reader_(reader) {
    for (const TreeNode& tn : store->tree_.nodes()) {
      if (!tn.IsLeaf()) continue;
      leaves_.push_back(tn.id);
      max_members_ = std::max(max_members_, tn.members.size());
    }
    std::sort(leaves_.begin(), leaves_.end());
    const uint64_t budget = store->pool_->budget_bytes();
    cache_ = budget == 0 || store->leaf_page_bytes_ <= budget;
    serial_ = NewDecoder();
    // Any ApplyUpdate changes file_size_ (append or rewrite), so this
    // is enough to invalidate tokens across store mutations.
    std::string fp;
    PutFixed64(&fp, leaves_.size());
    PutFixed32(&fp, store->num_graph_nodes_);
    PutFixed64(&fp, store->applied_lsn_);
    PutFixed64(&fp, store->file_size_);
    PutFixed64(&fp, store->journal_.size());
    fingerprint_ = Hash64(fp);
  }

  ~GTreeLeafPageScan() override { Seek(0); }

  gmine::Result<bool> Next(storage::GraphPage* page) override {
    if (next_ >= leaves_.size()) return false;
    if (slots_.empty()) {
      GMINE_RETURN_IF_ERROR(Fetch(next_, page, serial_.get()));
      ++next_;
      return true;
    }
    Status status;
    {
      std::unique_lock<std::mutex> lock(mu_);
      FillWindowLocked();
      Slot& slot = slots_[next_ % slots_.size()];
      while (!slot.done) {
        if (claimed_ == next_) {
          // No worker has started this page: decode it here.
          ++claimed_;
          lock.unlock();
          status = Fetch(next_, page, serial_.get());
          break;
        }
        if (claimed_ < issued_) {
          // The page is on its way; decode a later one meanwhile.
          ClaimAndFetch(serial_.get(), lock);
        } else {
          cv_.wait(lock, [&] { return slot.done; });
        }
      }
      if (slot.done) {
        slot.done = false;
        if (slot.exception) {
          // Thrown while decoding ahead: surface it where the serial
          // path would have thrown it.
          std::exception_ptr e = std::exchange(slot.exception, nullptr);
          lock.unlock();
          Seek(next_);
          std::rethrow_exception(e);
        }
        status = std::move(slot.status);
        std::swap(*page, slot.page);  // the slot keeps the old buffers
        Reserve(&slot.page);
      }
    }
    if (!status.ok()) {
      Seek(next_);  // a retry reads this page again
      return status;
    }
    ++next_;
    return true;
  }

  void Reset() override { Seek(0); }

  std::string Checkpoint() const override {
    std::string token;
    PutFixed32(&token, kPageScanTokenMagic);
    PutFixed64(&token, fingerprint_);
    PutVarint64(&token, next_);
    return token;
  }

  Status Restore(std::string_view token) override {
    uint32_t magic = 0;
    uint64_t fp = 0;
    uint64_t pos = 0;
    if (!GetFixed32(&token, &magic) || !GetFixed64(&token, &fp) ||
        !GetVarint64(&token, &pos) || !token.empty() ||
        magic != kPageScanTokenMagic) {
      return Status::InvalidArgument("page scan: malformed resume token");
    }
    if (fp != fingerprint_) {
      return Status::InvalidArgument(
          "page scan: resume token does not match this store state");
    }
    if (pos > leaves_.size()) {
      return Status::InvalidArgument("page scan: token position out of range");
    }
    Seek(pos);
    return Status::OK();
  }

  void SetThreads(int threads) override {
    // On a pool worker the scan stays serial: Seek waits for queued
    // read-ahead, which only the pool's other (maybe equally waiting)
    // workers could run.
    const size_t participants =
        internal::InPoolWorker() ? 1
                                 : static_cast<size_t>(ResolveThreads(threads));
    const size_t window =
        participants <= 1 ? 0 : std::min(2 * participants, leaves_.size());
    const size_t workers =
        window == 0 ? 0 : std::min(participants - 1, window);
    if (window == slots_.size() && workers == worker_decoders_.size()) return;
    Seek(next_);  // no worker runs past here
    slots_ = std::vector<Slot>(window);
    for (Slot& slot : slots_) Reserve(&slot.page);
    worker_decoders_.clear();
    for (size_t i = 0; i < workers; ++i) {
      worker_decoders_.push_back(NewDecoder());
    }
    idle_decoders_.clear();
    for (auto& d : worker_decoders_) idle_decoders_.push_back(d.get());
  }

  uint32_t num_nodes() const override { return store_->num_graph_nodes_; }
  uint64_t pages_total() const override { return leaves_.size(); }
  bool complete_adjacency() const override { return store_->streamed(); }

 private:
  /// One participant's buffers: the raw page (sized to the largest page
  /// once; only read-around scans read raw pages) and the parser's
  /// reusable arrays.
  struct Decoder {
    std::unique_ptr<char[]> blob;
    LeafPageParts parts;
  };

  /// A decoded page waiting in the read-ahead ring.
  struct Slot {
    bool done = false;  // guarded by mu_
    Status status;
    std::exception_ptr exception;  // what Fetch threw, if it threw
    storage::GraphPage page;
  };

  // Read-ahead buffers are sized here, on the calling thread, for the
  // largest page the store can hold: a serialized page spends at least
  // one byte per member and five per arc. Pool workers then never
  // allocate (which would spread the buffers over their malloc arenas),
  // and capacity a page does not fill is never touched, so it costs
  // address space, not resident memory.
  size_t MaxArcs() const { return store_->max_leaf_page_bytes_ / 5; }

  void Reserve(storage::GraphPage* page) const {
    page->nodes.reserve(max_members_);
    page->arc_offsets.reserve(max_members_ + 1);
    page->arc_dst.reserve(MaxArcs());
    page->arc_weight.reserve(MaxArcs());
  }

  std::unique_ptr<Decoder> NewDecoder() const {
    auto d = std::make_unique<Decoder>();
    if (!cache_) {
      d->blob.reset(new char[store_->max_leaf_page_bytes_]);
      d->parts.members.reserve(max_members_);
      d->parts.graph.offsets.reserve(max_members_ + 1);
      d->parts.graph.arcs.reserve(MaxArcs());
      d->parts.boundary_offsets.reserve(max_members_ + 1);
      d->parts.boundary_arcs.reserve(MaxArcs());
    }
    return d;
  }

  /// Produces page `pos` into `page`. Safe from any thread: the pool,
  /// LoadLeaf and ReadAt are thread-safe and `d` is the caller's own.
  Status Fetch(size_t pos, storage::GraphPage* page, Decoder* d) const {
    GMINE_RETURN_IF_ERROR(Produce(leaves_[pos], page, d));
    return CheckNodeIds(*page);
  }

  Status Produce(TreeNodeId leaf, storage::GraphPage* page,
                 Decoder* d) const {
    if (cache_) {
      GMINE_ASSIGN_OR_RETURN(std::shared_ptr<const LeafPayload> payload,
                             store_->LoadLeaf(leaf, reader_));
      // The pin (shared_ptr) drops on return: a page stays checked
      // out only while it is flattened.
      LeafPayloadToGraphPage(leaf, *payload, page);
      return Status::OK();
    }
    // Read around the pool: use a resident copy, never insert one.
    if (storage::PagePayload hit =
            store_->pool_->Lookup(store_->pool_id_, leaf, reader_)) {
      LeafPayloadToGraphPage(
          leaf, *std::static_pointer_cast<const LeafPayload>(hit), page);
      return Status::OK();
    }
    auto it = store_->directory_.find(leaf);
    if (it == store_->directory_.end()) {
      return Status::NotFound(StrFormat("leaf %u has no page", leaf));
    }
    GMINE_RETURN_IF_ERROR(store_->ReadAt(it->second, d->blob.get()));
    store_->uncached_pages_read_.fetch_add(1, std::memory_order_relaxed);
    store_->uncached_bytes_read_.fetch_add(it->second.size,
                                           std::memory_order_relaxed);
    return DecodeLeafPage(std::string_view(d->blob.get(), it->second.size),
                          leaf, &d->parts, page);
  }

  /// Member ids and boundary arcs lie outside the page checksum, and
  /// the page kernels index O(num_nodes) arrays with them: a page that
  /// names a node past the graph is corrupt, not a kernel input.
  Status CheckNodeIds(const storage::GraphPage& page) const {
    uint32_t max_id = 0;
    for (uint32_t v : page.nodes) max_id = std::max(max_id, v);
    for (uint32_t v : page.arc_dst) max_id = std::max(max_id, v);
    if (page.num_nodes() + page.num_arcs() > 0 &&
        max_id >= store_->num_graph_nodes_) {
      return Status::Corruption(
          StrFormat("leaf page %llu names node %u of a %u-node graph",
                    static_cast<unsigned long long>(page.page_id), max_id,
                    store_->num_graph_nodes_));
    }
    return Status::OK();
  }

  /// Opens the window [next_, next_ + slots) to decoders and starts
  /// pool workers for the pages no decoder has claimed yet. mu_ held.
  void FillWindowLocked() {
    issued_ = std::min(leaves_.size(), next_ + slots_.size());
    while (!idle_decoders_.empty() &&
           static_cast<size_t>(workers_) < issued_ - claimed_) {
      Decoder* d = idle_decoders_.back();
      idle_decoders_.pop_back();
      ++workers_;
      internal::SubmitAsync([this, d] { WorkerTask(d); });
    }
  }

  /// Claims the first unclaimed page of the window and decodes it into
  /// its slot, with mu_ released meanwhile. `lock` holds mu_.
  void ClaimAndFetch(Decoder* d, std::unique_lock<std::mutex>& lock) {
    const size_t pos = claimed_++;
    Slot& slot = slots_[pos % slots_.size()];
    lock.unlock();
    Status status;
    std::exception_ptr exception;
    try {
      status = Fetch(pos, &slot.page, d);
    } catch (...) {
      // A pool worker must not let it escape; Next() rethrows it.
      exception = std::current_exception();
    }
    lock.lock();
    slot.status = std::move(status);
    slot.exception = exception;
    slot.done = true;
    cv_.notify_all();
  }

  /// A pool worker's turn: decodes the next unclaimed page, then
  /// queues itself again while pages remain, so other work waiting for
  /// the pool runs between pages instead of behind a whole sweep. A
  /// worker that finds nothing to do hands its decoder back.
  void WorkerTask(Decoder* d) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_ && claimed_ < issued_) {
      ClaimAndFetch(d, lock);
      if (!stop_ && claimed_ < issued_) {
        internal::SubmitAsync([this, d] { WorkerTask(d); });
        return;
      }
    }
    idle_decoders_.push_back(d);
    --workers_;
    cv_.notify_all();
  }

  /// Waits out every worker (queued ones included: they see stop_ and
  /// return at once), empties the ring and repositions at `pos`.
  void Seek(size_t pos) {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    cv_.wait(lock, [&] { return workers_ == 0; });
    stop_ = false;
    for (Slot& slot : slots_) slot.done = false;
    next_ = issued_ = claimed_ = pos;
  }

  const GTreeStore* store_;
  ReaderTag reader_;
  std::vector<TreeNodeId> leaves_;
  uint64_t fingerprint_ = 0;
  size_t max_members_ = 0;  // of any leaf
  bool cache_ = true;  // pages go through the pool (store fits it)
  size_t next_ = 0;    // pages Next() has returned this pass
  std::unique_ptr<Decoder> serial_;  // the calling thread's decoder

  // Read-ahead (empty ring = serial). Positions [next_, issued_) are
  // open to decoders; [claimed_, issued_) are not yet taken by one.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Decoder>> worker_decoders_;
  // Guarded by mu_ (workers_ counts worker tasks queued or running):
  std::vector<Decoder*> idle_decoders_;
  size_t issued_ = 0;
  size_t claimed_ = 0;
  int workers_ = 0;
  bool stop_ = false;
};

std::unique_ptr<storage::PageScan> GTreeStore::NewPageScan(
    ReaderTag reader) const {
  return std::make_unique<GTreeLeafPageScan>(this, reader);
}

gmine::Result<graph::Graph> GTreeStore::MaterializeFullGraph() const {
  if (!streamed()) return LoadFullGraph();
  // Streamed store: every node's complete adjacency lives in its own
  // page, so two page scans rebuild the CSR — degrees first, then fill.
  // O(n + m) memory in the *result*, by definition of materializing.
  const uint32_t n = num_graph_nodes_;
  std::vector<uint64_t> offsets(n + 1, 0);
  std::unique_ptr<storage::PageScan> scan = NewPageScan();
  storage::GraphPage page;
  while (true) {
    GMINE_ASSIGN_OR_RETURN(bool more, scan->Next(&page));
    if (!more) break;
    for (size_t i = 0; i < page.nodes.size(); ++i) {
      offsets[page.nodes[i] + 1] =
          page.arc_offsets[i + 1] - page.arc_offsets[i];
    }
  }
  for (uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<graph::Neighbor> arcs(offsets[n]);
  scan->Reset();
  while (true) {
    GMINE_ASSIGN_OR_RETURN(bool more, scan->Next(&page));
    if (!more) break;
    for (size_t i = 0; i < page.nodes.size(); ++i) {
      uint64_t at = offsets[page.nodes[i]];
      for (uint32_t a = page.arc_offsets[i]; a < page.arc_offsets[i + 1];
           ++a) {
        arcs[at++] = graph::Neighbor{page.arc_dst[a], page.arc_weight[a]};
      }
    }
  }
  return graph::Graph(std::move(offsets), std::move(arcs), {},
                      /*directed=*/false);
}

gmine::Result<std::unique_ptr<GTreeStoreWriter>> GTreeStoreWriter::Begin(
    const std::string& path) {
  std::unique_ptr<GTreeStoreWriter> w(new GTreeStoreWriter());
  w->path_ = path;
  w->file_ = std::fopen(path.c_str(), "wb");
  if (w->file_ == nullptr) {
    return Status::IOError(
        StrFormat("gtree writer: cannot create %s", path.c_str()));
  }
  // Header placeholder; the real header lands last (crash safety: a
  // zeroed header never parses as a store).
  const std::string placeholder(kHeaderSize, '\0');
  GMINE_RETURN_IF_ERROR(w->Append(placeholder));
  return w;
}

GTreeStoreWriter::~GTreeStoreWriter() {
  if (file_ != nullptr) std::fclose(file_);
  // An abandoned (unfinished) build leaves no half-written store behind.
  if (!finished_ && !path_.empty()) std::remove(path_.c_str());
}

Status GTreeStoreWriter::Append(std::string_view blob) {
  if (std::fwrite(blob.data(), 1, blob.size(), file_) != blob.size()) {
    return Status::IOError(
        StrFormat("gtree writer: write to %s failed", path_.c_str()));
  }
  offset_ += blob.size();
  return Status::OK();
}

Status GTreeStoreWriter::AddLeafPage(
    TreeNodeId leaf, const graph::Subgraph& sub,
    const std::vector<uint32_t>& boundary_offsets,
    const std::vector<graph::Neighbor>& boundary_arcs) {
  if (finished_) {
    return Status::InvalidArgument("gtree writer: AddLeafPage after Finish");
  }
  const std::string page =
      SerializeLeafPayload(sub, &boundary_offsets, &boundary_arcs);
  PutVarint32(&directory_, leaf);
  PutVarint64(&directory_, offset_);  // absolute, like Create's directory
  PutVarint64(&directory_, page.size());
  ++num_pages_;
  return Append(page);
}

Status GTreeStoreWriter::Finish(const GTree& tree,
                                const ConnectivityIndex& conn,
                                const graph::LabelStore& labels,
                                uint32_t num_graph_nodes,
                                const GTreeBuildHints* hints,
                                uint64_t applied_lsn) {
  if (finished_) {
    return Status::InvalidArgument("gtree writer: Finish called twice");
  }
  if (num_pages_ != tree.num_leaves()) {
    return Status::InvalidArgument(
        StrFormat("gtree writer: %u pages for %u leaves", num_pages_,
                  tree.num_leaves()));
  }
  SectionTable t;
  const std::string tree_blob = SerializeTree(tree);
  t.tree_off = offset_;
  t.tree_size = tree_blob.size();
  GMINE_RETURN_IF_ERROR(Append(tree_blob));
  const std::string conn_blob = conn.Serialize();
  t.conn_off = offset_;
  t.conn_size = conn_blob.size();
  GMINE_RETURN_IF_ERROR(Append(conn_blob));
  const std::string labels_blob = labels.Serialize();
  t.labels_off = offset_;
  t.labels_size = labels_blob.size();
  GMINE_RETURN_IF_ERROR(Append(labels_blob));
  t.dir_off = offset_;
  t.dir_size = directory_.size();
  GMINE_RETURN_IF_ERROR(Append(directory_));
  // No embedded graph and no journal: the pages (with their boundary
  // arcs) *are* the graph — that is what GTreeStore::streamed() keys on.
  t.graph_off = offset_;
  t.graph_size = 0;
  t.journal_off = offset_;
  t.journal_size = 0;
  t.num_pages = num_pages_;
  t.num_graph_nodes = num_graph_nodes;
  if (hints != nullptr) t.hints = *hints;
  t.applied_lsn = applied_lsn;

  const std::string header = SerializeHeader(t);
  bool ok = std::fflush(file_) == 0 && std::fseek(file_, 0, SEEK_SET) == 0 &&
            std::fwrite(header.data(), 1, header.size(), file_) ==
                header.size() &&
            std::fflush(file_) == 0;
  ok = std::fclose(file_) == 0 && ok;
  file_ = nullptr;
  if (!ok) {
    std::remove(path_.c_str());
    return Status::IOError(
        StrFormat("gtree writer: sealing %s failed", path_.c_str()));
  }
  finished_ = true;
  return Status::OK();
}

bool GTreeStore::IsCached(TreeNodeId leaf) const {
  return pool_->Contains(pool_id_, leaf);
}

GTreeStoreStats GTreeStore::stats() const {
  const storage::BufferPoolStoreStats pool = pool_->store_stats(pool_id_);
  GTreeStoreStats total;
  total.leaf_loads = pool.loads;
  total.cache_hits = pool.hits;
  total.shared_hits = pool.shared_hits;
  total.bytes_read = pool.bytes_loaded;
  total.evictions = pool.evictions;
  total.resident_bytes = pool.resident_bytes;
  total.pinned_bytes = pool.pinned_bytes;
  total.leaf_loads += uncached_pages_read_.load(std::memory_order_relaxed);
  total.bytes_read += uncached_bytes_read_.load(std::memory_order_relaxed);
  return total;
}

void GTreeStore::ClearCache() { pool_->DropStore(pool_id_); }

}  // namespace gmine::gtree
