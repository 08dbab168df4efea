// Seeded op streams for the benchmark's clients. Each generator is a
// pure function of (seed, the store's resident tree and labels, and for
// CSG sources the graph's connected authors): the same seed always
// yields the same op sequence, whatever the server answers. Navigation
// streams carry the focus the driver expects the server to report,
// tracked by a model of NavigationSession's focus and history rules.

#ifndef GMINE_PERFBENCH_OPS_H_
#define GMINE_PERFBENCH_OPS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "graph/graph.h"
#include "graph/labels.h"
#include "gtree/gtree.h"

namespace perfbench {

using gmine::gtree::TreeNodeId;
inline constexpr uint32_t kNoNode = 0xffffffffu;

/// Focus + back stack with NavigationSession's rules: focus changes push
/// the previous focus (unless it is the same node), parent at the root
/// and back with an empty history are no-ops.
class FocusModel {
 public:
  explicit FocusModel(const gmine::gtree::GTree* tree) : tree_(tree) {}
  TreeNodeId focus() const { return focus_; }
  void Set(TreeNodeId id);
  void Root() { Set(tree_->root()); }
  void Child(size_t index) { Set(tree_->node(focus_).children[index]); }
  void Parent();
  void Back();

 private:
  const gmine::gtree::GTree* tree_;
  TreeNodeId focus_ = 0;
  std::vector<TreeNodeId> back_;
};

enum class OpKind : uint8_t {
  kChild,
  kParent,
  kBack,
  kRoot,
  kLocate,
  kLoad,
  kSummary,
  kConnectivity,
  kRender,
  kQuerySummarize,  // `query SUMMARIZE NODE v` (line protocol)
  kQueryNeighbors,  // `query MATCH NEIGHBORS(v, 1) ...` (line protocol)
  kCount,
};
const char* OpKindName(OpKind kind);

/// One navigator/reader op: the wire line plus what the reply must say.
struct NavOp {
  OpKind kind = OpKind::kRoot;
  std::string line;
  uint32_t node = kNoNode;          // graph node (locate / query ops)
  TreeNodeId focus = kNoNode;       // expected focus after the op
};

/// Interactive navigator: a seeded walk over the hierarchy mixing every
/// navigation op (workloads navigate and mixed_analyst).
class NavWalk {
 public:
  NavWalk(const gmine::gtree::GTree* tree,
          const gmine::graph::LabelStore* labels, uint64_t seed);
  NavOp Next();

 private:
  const gmine::gtree::GTree* tree_;
  const gmine::graph::LabelStore* labels_;
  Rng rng_;
  FocusModel model_;
};

/// Author lookups: locate a seeded author, load its leaf, summarize
/// (workload outofcore_mine).
class AuthorCycle {
 public:
  AuthorCycle(const gmine::gtree::GTree* tree,
              const gmine::graph::LabelStore* labels, uint64_t seed);
  NavOp Next();

 private:
  const gmine::gtree::GTree* tree_;
  const gmine::graph::LabelStore* labels_;
  Rng rng_;
  int step_ = 0;
  uint32_t node_ = 0;
};

/// Focus-independent reader ops (workload edit_navigate): every
/// committed edit group re-seats sessions at the root, so readers never
/// depend on a focus they set earlier.
class ReaderOps {
 public:
  ReaderOps(const gmine::gtree::GTree* tree,
            const gmine::graph::LabelStore* labels, uint64_t seed);
  NavOp Next();

 private:
  const gmine::gtree::GTree* tree_;
  const gmine::graph::LabelStore* labels_;
  Rng rng_;
};

/// REST request classes of the analyst client (workload mixed_analyst).
enum class RestKind : uint8_t {
  kMatchPrunable,  // MATCH NODES with an id-range/community predicate
  kMatchScan,      // MATCH NODES on degree: no page can be pruned
  kNeighbors,      // MATCH NEIGHBORS(v, 1|2)
  kSummarize,      // SUMMARIZE NODE v
  kSummaryGet,     // GET .../summary?node=COMMUNITY
  kRenderGet,      // GET .../render.svg?node=COMMUNITY
  kCsg,            // EXTRACT CSG over 2-3 authors
  kCount,
};
const char* RestKindName(RestKind kind);

struct RestOp {
  RestKind kind = RestKind::kSummarize;
  std::string method;   // GET or POST
  std::string target;   // path + query string
  std::string body;     // GQL statement for POST .../query
  std::vector<uint32_t> sources;  // CSG sources
  std::string community;          // summary / render focus
};

/// The analyst's GQL/REST mix: one request in six is EXTRACT CSG, over
/// three authors drawn from `csg_authors` (at least three; see
/// ConnectedAuthors). The other requests name any author.
class RestMix {
 public:
  RestMix(const gmine::gtree::GTree* tree,
          const gmine::graph::LabelStore* labels,
          const std::vector<uint32_t>* csg_authors, std::string store,
          uint64_t seed);
  RestOp Next();

 private:
  const gmine::gtree::GTree* tree_;
  const gmine::graph::LabelStore* labels_;
  const std::vector<uint32_t>* csg_authors_;
  std::string store_;
  Rng rng_;
  uint64_t issued_ = 0;
};

/// One edit batch: the `edit ...` sub-op lines (without `edit apply`)
/// and the durable state an ack promises.
struct EditBatch {
  std::vector<std::string> lines;
  /// Edge (min, max) -> present after this batch.
  std::vector<std::pair<std::pair<uint32_t, uint32_t>, bool>> edges;
  std::vector<std::string> added_labels;
  /// Provisional id the server must assign to each add-node.
  std::vector<uint32_t> added_ids;
  bool intra_leaf = false;  // every edge op stays inside one leaf
  uint64_t script_bytes = 0;
};

/// Seeded edit batches: add-edge (half inside one leaf, half across
/// leaves), remove-edge of an edge an earlier batch added, and add-node
/// (with an edge to it) in about one batch in seven. Never removes
/// nodes, so original node ids and labels stay valid for readers.
class EditStream {
 public:
  EditStream(const gmine::gtree::GTree* tree, uint32_t num_nodes,
             uint64_t seed);
  EditBatch Next();
  uint32_t tip() const { return tip_; }

 private:
  uint32_t RandomNode() { return static_cast<uint32_t>(rng_.Below(base_)); }
  uint32_t LeafMate(uint32_t v);

  const gmine::gtree::GTree* tree_;
  uint32_t base_;
  uint32_t tip_;
  Rng rng_;
  uint64_t batches_ = 0;
  std::vector<std::pair<uint32_t, uint32_t>> added_;  // removable edges
};

/// The node the first label at or after `v` (wrapping) resolves to, among
/// labels whose node sits in a leaf. `gmine generate` labels every node,
/// but an edge list cannot carry a trailing isolated node, so the built
/// graph can end one node short of its labels; that label's node is in no
/// leaf and `locate` answers NotFound for it.
uint32_t Author(const gmine::gtree::GTree& tree,
                const gmine::graph::LabelStore& labels, uint32_t v);

/// The authors (as Author resolves them) in `g`'s largest connected
/// component, ascending. A connection subgraph links its sources, so the
/// analyst asks for one over authors that are connected. The surrogate
/// graph leaves about a third of its nodes in small isolated communities;
/// a random walk from there settles in 35-61 sweeps instead of about 110,
/// so CSG sources drawn from the whole graph would make the request's
/// cost depend on how many of them land there.
std::vector<uint32_t> ConnectedAuthors(const gmine::graph::Graph& g,
                                       const gmine::gtree::GTree& tree,
                                       const gmine::graph::LabelStore& labels);

/// GQL string literal for a label.
std::string Quote(std::string_view label);

}  // namespace perfbench

#endif  // GMINE_PERFBENCH_OPS_H_
