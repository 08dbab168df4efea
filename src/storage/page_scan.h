// PageScan — the pull-based iterator page-at-a-time mining runs over
// (docs/OUTOFCORE.md). A scan walks a store's leaf pages in a fixed,
// deterministic order and hands out one page of adjacency per Next()
// call. The backing implementation (gtree::GTreeStore::NewPageScan)
// decides once per scan how pages reach it: through the buffer pool
// when all of the store's pages fit its budget, otherwise around it
// (resident pages are still used, nothing is inserted or evicted), so
// a scan larger than the pool does not flush everyone else's pages.
// Either way it holds a bounded number of decoded pages — one, or
// 2 x threads with read-ahead (SetThreads) — never the whole graph.
//
// Checkpoint/resume: Checkpoint() returns an opaque token naming the
// scan position *and* a fingerprint of the underlying store; Restore()
// rejects tokens minted against a different store state, which is what
// lets a killed kernel resume mid-scan with bit-identical results
// (mining/pagescan_kernels.h serializes these tokens into its kernel
// checkpoints).

#ifndef GMINE_STORAGE_PAGE_SCAN_H_
#define GMINE_STORAGE_PAGE_SCAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace gmine::storage {

/// One page of adjacency in global-id terms: `nodes[i]`'s arcs are
/// `arc_dst[arc_offsets[i] .. arc_offsets[i+1])` with parallel weights.
/// When the scan reports complete_adjacency(), those arcs are the
/// node's *entire* global adjacency (intra-page plus boundary), so a
/// kernel that scatters per page touches every arc exactly once per
/// pass.
struct GraphPage {
  /// The backing store's page id (leaf community id for G-Tree pages).
  uint64_t page_id = 0;
  /// Global node ids owned by this page, ascending.
  std::vector<uint32_t> nodes;
  /// CSR offsets into arc_dst/arc_weight; size nodes.size() + 1.
  std::vector<uint32_t> arc_offsets;
  /// Arc destinations, global ids.
  std::vector<uint32_t> arc_dst;
  /// Arc weights, parallel to arc_dst.
  std::vector<float> arc_weight;

  size_t num_nodes() const { return nodes.size(); }
  size_t num_arcs() const { return arc_dst.size(); }
};

/// Pull-based, restartable iterator over a store's pages. Not
/// thread-safe; each concurrent kernel opens its own scan. Destroying
/// a scan waits for its read-ahead to finish, so no work outlives it.
class PageScan {
 public:
  virtual ~PageScan() = default;

  /// Fills `*page` with the next page; returns false at end of scan.
  virtual gmine::Result<bool> Next(GraphPage* page) = 0;

  /// Rewinds to the first page.
  virtual void Reset() = 0;

  /// Opaque resume token for the position *before* the next Next()
  /// call, bound to the current store state.
  virtual std::string Checkpoint() const = 0;

  /// Repositions the scan at a token minted by Checkpoint(). Fails with
  /// InvalidArgument when the token is malformed or was minted against
  /// a different store state (the store changed, or it is a different
  /// store altogether).
  virtual Status Restore(std::string_view token) = 0;

  /// Nodes in the underlying graph (pages partition [0, num_nodes())).
  virtual uint32_t num_nodes() const = 0;

  /// Pages one full scan visits.
  virtual uint64_t pages_total() const = 0;

  /// Sets how many participants produce pages for the following Next()
  /// calls (util/parallel.h semantics: 0 = auto, 1 = serial on the
  /// calling thread, the default). With N > 1 the scan decodes up to 2N
  /// pages ahead on pool workers while the caller consumes; pages still
  /// come out one at a time in scan order, and Checkpoint() counts only
  /// the pages Next() has returned.
  virtual void SetThreads(int threads) = 0;

  /// True when every page carries its nodes' complete global adjacency
  /// (stores written by the streaming builder). False for legacy stores,
  /// whose pages hold only the intra-community subgraph — global
  /// kernels must then fall back to a resident graph.
  virtual bool complete_adjacency() const = 0;
};

}  // namespace gmine::storage

#endif  // GMINE_STORAGE_PAGE_SCAN_H_
