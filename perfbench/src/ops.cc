#include "ops.h"

#include <algorithm>

#include "mining/components.h"
#include "util/string_util.h"

namespace perfbench {

using gmine::StrFormat;

// ------------------------------------------------------------ FocusModel

void FocusModel::Set(TreeNodeId id) {
  if (id != focus_) back_.push_back(focus_);
  focus_ = id;
}

void FocusModel::Parent() {
  const TreeNodeId parent = tree_->node(focus_).parent;
  if (parent != gmine::gtree::kInvalidTreeNode) Set(parent);
}

void FocusModel::Back() {
  if (back_.empty()) return;
  focus_ = back_.back();
  back_.pop_back();
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kChild: return "child";
    case OpKind::kParent: return "parent";
    case OpKind::kBack: return "back";
    case OpKind::kRoot: return "root";
    case OpKind::kLocate: return "locate";
    case OpKind::kLoad: return "load";
    case OpKind::kSummary: return "summary";
    case OpKind::kConnectivity: return "connectivity";
    case OpKind::kRender: return "render";
    case OpKind::kQuerySummarize: return "query_summarize";
    case OpKind::kQueryNeighbors: return "query_neighbors";
    default: return "?";
  }
}

uint32_t Author(const gmine::gtree::GTree& tree,
                const gmine::graph::LabelStore& labels, uint32_t v) {
  const uint32_t n = labels.size();
  for (uint32_t i = 0; i < n; ++i) {
    const std::string_view label = labels.Label((v + i) % n);
    if (label.empty()) continue;
    const uint32_t resolved = labels.Find(label);
    if (tree.LeafOf(resolved) != gmine::gtree::kInvalidTreeNode) {
      return resolved;
    }
  }
  return kNoNode;
}

std::vector<uint32_t> ConnectedAuthors(const gmine::graph::Graph& g,
                                       const gmine::gtree::GTree& tree,
                                       const gmine::graph::LabelStore& labels) {
  const gmine::mining::ComponentResult comp = gmine::mining::WeakComponents(g);
  if (comp.num_components == 0) return {};
  const uint32_t largest = static_cast<uint32_t>(
      std::max_element(comp.sizes.begin(), comp.sizes.end()) -
      comp.sizes.begin());
  std::vector<uint32_t> out;
  for (uint32_t v = 0; v < g.num_nodes(); ++v) {
    if (comp.component[v] != largest) continue;
    const uint32_t author = Author(tree, labels, v);
    if (author < g.num_nodes() && comp.component[author] == largest) {
      out.push_back(author);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Quote(std::string_view label) {
  std::string out = "\"";
  for (char c : label) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

namespace {

// A locate op on a random author.
NavOp LocateOp(const gmine::gtree::GTree& tree,
               const gmine::graph::LabelStore& labels, Rng* rng) {
  NavOp op;
  op.kind = OpKind::kLocate;
  op.node =
      Author(tree, labels, static_cast<uint32_t>(rng->Below(labels.size())));
  op.focus = tree.LeafOf(op.node);
  op.line = "locate " + std::string(labels.Label(op.node));
  return op;
}

}  // namespace

// --------------------------------------------------------------- NavWalk

NavWalk::NavWalk(const gmine::gtree::GTree* tree,
                 const gmine::graph::LabelStore* labels, uint64_t seed)
    : tree_(tree), labels_(labels), rng_(seed), model_(tree) {}

NavOp NavWalk::Next() {
  // Weights per op (out of 100): a walk that mostly drills down and
  // climbs back, with lookups, loads and rendering mixed in. They are an
  // assumption, not fitted to recorded sessions; each run reports the
  // mix actually sent (README.md).
  static constexpr struct {
    OpKind kind;
    int weight;
  } kMix[] = {
      {OpKind::kChild, 28},   {OpKind::kParent, 10},
      {OpKind::kBack, 6},     {OpKind::kRoot, 4},
      {OpKind::kLocate, 10},  {OpKind::kLoad, 12},
      {OpKind::kSummary, 12}, {OpKind::kConnectivity, 10},
      {OpKind::kRender, 8},
  };
  int pick = static_cast<int>(rng_.Below(100));
  OpKind kind = OpKind::kSummary;
  for (const auto& entry : kMix) {
    if (pick < entry.weight) {
      kind = entry.kind;
      break;
    }
    pick -= entry.weight;
  }
  const gmine::gtree::TreeNode& focus = tree_->node(model_.focus());
  // Keep every op valid: load needs a leaf, child needs children.
  if (kind == OpKind::kLoad && !focus.IsLeaf()) kind = OpKind::kChild;
  if (kind == OpKind::kChild && focus.IsLeaf()) kind = OpKind::kParent;

  NavOp op;
  op.kind = kind;
  switch (kind) {
    case OpKind::kChild: {
      const size_t index = rng_.Below(focus.children.size());
      model_.Child(index);
      op.line = StrFormat("child %zu", index);
      break;
    }
    case OpKind::kParent:
      model_.Parent();
      op.line = "parent";
      break;
    case OpKind::kBack:
      model_.Back();
      op.line = "back";
      break;
    case OpKind::kRoot:
      model_.Root();
      op.line = "root";
      break;
    case OpKind::kLocate:
      op = LocateOp(*tree_, *labels_, &rng_);
      model_.Set(op.focus);
      break;
    case OpKind::kLoad:
      op.line = "load";
      break;
    case OpKind::kSummary:
      op.line = "summary";
      break;
    case OpKind::kConnectivity:
      op.line = "connectivity";
      break;
    case OpKind::kRender:
      op.line = "render svg";
      break;
    default:
      break;
  }
  op.focus = model_.focus();
  return op;
}

// ----------------------------------------------------------- AuthorCycle

AuthorCycle::AuthorCycle(const gmine::gtree::GTree* tree,
                         const gmine::graph::LabelStore* labels,
                         uint64_t seed)
    : tree_(tree), labels_(labels), rng_(seed) {}

NavOp AuthorCycle::Next() {
  NavOp op;
  if (step_ == 0) {
    op = LocateOp(*tree_, *labels_, &rng_);
    node_ = op.node;
  } else {
    op.kind = step_ == 1 ? OpKind::kLoad : OpKind::kSummary;
    op.line = step_ == 1 ? "load" : "summary";
    op.node = node_;
    op.focus = tree_->LeafOf(node_);
  }
  step_ = (step_ + 1) % 3;
  return op;
}

// ------------------------------------------------------------- ReaderOps

ReaderOps::ReaderOps(const gmine::gtree::GTree* tree,
                     const gmine::graph::LabelStore* labels, uint64_t seed)
    : tree_(tree), labels_(labels), rng_(seed) {}

NavOp ReaderOps::Next() {
  const uint64_t pick = rng_.Below(3);
  if (pick == 0) return LocateOp(*tree_, *labels_, &rng_);
  NavOp op;
  op.node = Author(*tree_, *labels_,
                   static_cast<uint32_t>(rng_.Below(labels_->size())));
  if (pick == 1) {
    op.kind = OpKind::kQuerySummarize;
    op.line = StrFormat("query SUMMARIZE NODE %u", op.node);
  } else {
    op.kind = OpKind::kQueryNeighbors;
    op.line = StrFormat("query MATCH NEIGHBORS(%u, 1) LIMIT 20", op.node);
  }
  return op;
}

// --------------------------------------------------------------- RestMix

const char* RestKindName(RestKind kind) {
  switch (kind) {
    case RestKind::kMatchPrunable: return "match_prunable";
    case RestKind::kMatchScan: return "match_scan";
    case RestKind::kNeighbors: return "neighbors";
    case RestKind::kSummarize: return "summarize";
    case RestKind::kSummaryGet: return "summary_get";
    case RestKind::kRenderGet: return "render_get";
    case RestKind::kCsg: return "csg";
    default: return "?";
  }
}

RestMix::RestMix(const gmine::gtree::GTree* tree,
                 const gmine::graph::LabelStore* labels,
                 const std::vector<uint32_t>* csg_authors, std::string store,
                 uint64_t seed)
    : tree_(tree),
      labels_(labels),
      csg_authors_(csg_authors),
      store_(std::move(store)),
      rng_(seed) {}

RestOp RestMix::Next() {
  RestOp op;
  const std::string base = "/api/v1/stores/" + store_;
  const uint32_t n = labels_->size();
  auto author = [&] {
    return Author(*tree_, *labels_, static_cast<uint32_t>(rng_.Below(n)));
  };
  // A fixed 12-request cycle holds the class mix constant from run to
  // run; the seed picks the authors, id windows and communities. One
  // request in six is CSG, always over three connected authors, so the
  // CSG median never straddles populations of different cost (2 and 3
  // sources, or walks that settle early in an isolated community). The
  // page-scanning MATCH is one in ten of the other requests: it costs
  // about half as much again as they do, and at one in five its share
  // sat on the tail percentile a run can report (about p78 of ~45), which
  // then jumped between the two populations from run to run.
  static constexpr RestKind kCycle[12] = {
      RestKind::kMatchPrunable, RestKind::kNeighbors, RestKind::kSummaryGet,
      RestKind::kMatchScan,     RestKind::kSummarize, RestKind::kCsg,
      RestKind::kMatchPrunable, RestKind::kNeighbors, RestKind::kRenderGet,
      RestKind::kMatchPrunable, RestKind::kSummarize, RestKind::kCsg,
  };
  op.kind = kCycle[issued_++ % 12];
  if (op.kind == RestKind::kCsg) {
    const size_t k = 3;
    while (op.sources.size() < k) {
      const uint32_t v = (*csg_authors_)[rng_.Below(csg_authors_->size())];
      if (std::find(op.sources.begin(), op.sources.end(), v) ==
          op.sources.end()) {
        op.sources.push_back(v);
      }
    }
    std::string refs;
    for (uint32_t v : op.sources) {
      if (!refs.empty()) refs += ", ";
      refs += Quote(labels_->Label(v));
    }
    op.body = "EXTRACT CSG FROM {" + refs + "}";
  } else {
    switch (op.kind) {
      case RestKind::kMatchPrunable: {
        // Leaf pages cover contiguous id ranges, so an id window prunes
        // every page but one or two.
        const uint32_t lo = static_cast<uint32_t>(rng_.Below(n));
        op.body = StrFormat(
            "MATCH NODES WHERE id >= %u AND id < %u ORDER BY degree DESC "
            "LIMIT 10",
            lo, lo + 40);
        break;
      }
      case RestKind::kMatchScan:
        op.body = StrFormat(
            "MATCH NODES WHERE degree > %u LIMIT 10",
            static_cast<unsigned>(28 + rng_.Below(8)));
        break;
      case RestKind::kNeighbors:
        op.body = StrFormat("MATCH NEIGHBORS(%s, %u) LIMIT 25",
                            Quote(labels_->Label(author())).c_str(),
                            static_cast<unsigned>(1 + rng_.Below(2)));
        break;
      case RestKind::kSummarize:
        op.body = "SUMMARIZE NODE " + Quote(labels_->Label(author()));
        break;
      case RestKind::kSummaryGet:
      case RestKind::kRenderGet: {
        const TreeNodeId id =
            static_cast<TreeNodeId>(rng_.Below(tree_->size()));
        op.community = tree_->node(id).name;
        op.method = "GET";
        op.target = base +
                    (op.kind == RestKind::kSummaryGet ? "/summary?node="
                                                      : "/render.svg?node=") +
                    op.community;
        return op;
      }
      default:
        break;
    }
  }
  op.method = "POST";
  op.target = base + "/query";
  return op;
}

// ------------------------------------------------------------ EditStream

EditStream::EditStream(const gmine::gtree::GTree* tree, uint32_t num_nodes,
                       uint64_t seed)
    : tree_(tree), base_(num_nodes), tip_(num_nodes), rng_(seed) {}

uint32_t EditStream::LeafMate(uint32_t v) {
  const TreeNodeId leaf = tree_->LeafOf(v);
  const auto& members = tree_->node(leaf).members;
  for (int tries = 0; tries < 4; ++tries) {
    const uint32_t u =
        static_cast<uint32_t>(members[rng_.Below(members.size())]);
    if (u != v) return u;
  }
  return v;
}

EditBatch EditStream::Next() {
  EditBatch batch;
  ++batches_;
  auto key = [](uint32_t a, uint32_t b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };
  std::set<std::pair<uint32_t, uint32_t>> touched;
  auto add_edge = [&](uint32_t u, uint32_t v) {
    if (u == v || touched.count(key(u, v)) != 0) return false;
    touched.insert(key(u, v));
    batch.lines.push_back(StrFormat("edit add-edge %u %u", u, v));
    batch.edges.push_back({key(u, v), true});
    added_.push_back(key(u, v));
    return true;
  };
  // Half the batches keep every edge inside one leaf (the cheap repair
  // path); the rest cross leaves.
  batch.intra_leaf = rng_.Below(2) == 0;
  if (rng_.Below(7) == 0) {
    batch.intra_leaf = false;
    const uint32_t id = tip_++;
    const std::string label = StrFormat("Bench Author %llu",
                                        static_cast<unsigned long long>(
                                            batches_));
    batch.lines.push_back("edit add-node " + label);
    batch.added_labels.push_back(label);
    batch.added_ids.push_back(id);
    add_edge(id, RandomNode());
  }
  const size_t edges = 1 + rng_.Below(3);
  for (size_t i = 0; i < edges; ++i) {
    const uint32_t u = RandomNode();
    const uint32_t v = batch.intra_leaf ? LeafMate(u) : RandomNode();
    add_edge(u, v);
  }
  // A batch is never empty: `edit apply` on nothing acks nothing.
  while (batch.lines.empty()) {
    batch.intra_leaf = false;
    add_edge(RandomNode(), RandomNode());
  }
  // Remove an edge an earlier batch added (and no batch re-added since):
  // it is known to exist, and the removal must survive recovery too.
  if (added_.size() > batch.edges.size() && rng_.Below(3) == 0) {
    const size_t pool = added_.size() - batch.edges.size();
    const size_t at = rng_.Below(pool);
    const auto edge = added_[at];
    if (touched.count(edge) == 0) {
      touched.insert(edge);
      batch.lines.push_back(
          StrFormat("edit remove-edge %u %u", edge.first, edge.second));
      batch.edges.push_back({edge, false});
      added_.erase(added_.begin() + static_cast<std::ptrdiff_t>(at));
      if (batch.intra_leaf &&
          tree_->LeafOf(edge.first) != tree_->LeafOf(edge.second)) {
        batch.intra_leaf = false;
      }
    }
  }
  for (const std::string& line : batch.lines) {
    batch.script_bytes += line.size() + 1;
  }
  return batch;
}

}  // namespace perfbench
