// Page-at-a-time mining kernels (docs/OUTOFCORE.md): PageRank/RWR,
// degree distribution and weak components running over a
// storage::PageScan instead of a resident graph::Graph. Peak kernel
// memory is O(num_nodes) scalars (the semi-external model) plus the
// scan's decoded pages — one, or 2 x KernelContext::threads with
// read-ahead — never O(arcs), so mining works under a hard
// --mem-budget-mb on stores arbitrarily larger than memory.
//
// Correctness requires the scan's complete_adjacency() (stores written
// by the streaming builder): each node's entire global adjacency lives
// in its own page, so one pass over the pages touches every arc
// exactly once. On legacy stores the kernels return NotSupported and
// callers fall back to the in-memory kernels.
//
// Every kernel passes KernelContext::threads to the scan, which then
// decodes pages ahead on pool workers; the kernel itself consumes pages
// serially in the scan's fixed order, so results do not depend on the
// thread count.
//
// Restartability: PageRankOverPages checkpoints its full state (rank
// vectors, dangling mass, sweep counter, scan resume token) through
// `checkpoint_sink` at page boundaries; feeding the checkpoint back via
// `resume_from` continues the run with bit-identical results — the
// page order is fixed and every float operation replays in the same
// sequence (verified by outofcore_resume_test). Tokens count the pages
// the kernel consumed, never pages decoded ahead.

#ifndef GMINE_MINING_PAGESCAN_KERNELS_H_
#define GMINE_MINING_PAGESCAN_KERNELS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "mining/components.h"
#include "mining/degree.h"
#include "mining/kernel_context.h"
#include "mining/pagerank.h"
#include "storage/page_scan.h"
#include "util/status.h"

namespace gmine::mining {

/// Options for the out-of-core PageRank/RWR kernel. Push-based: each
/// page scatters its nodes' rank along their (complete) adjacency, so
/// scores match the in-memory pull kernel up to float summation order.
struct PageRankOverPagesOptions {
  double damping = 0.85;
  double tolerance = 1e-9;
  int max_iterations = 100;
  /// Scatter proportionally to arc weights instead of 1/degree.
  bool weighted = false;
  /// Random-walk-with-restart mode: when non-empty, the restart mass
  /// (1 - damping, plus redistributed dangling mass) concentrates
  /// uniformly on these sources instead of on every node — i.e. RWR
  /// with restart probability c is damping = 1 - c. Sorted ascending
  /// ids recommended (the set is hashed into checkpoints).
  std::vector<graph::NodeId> restart_sources;
  /// `threads` sets the scan's read-ahead (PageScan::SetThreads): pages
  /// decode in parallel, but the kernel consumes them one at a time in
  /// scan order, so every float operation happens in the same sequence
  /// and the result is bit-identical at every thread count.
  /// Cancellation is polled at page boundaries; a cancelled run emits a
  /// final checkpoint through `checkpoint_sink` (when set) and returns
  /// Aborted.
  KernelContext context;
  /// Serialized checkpoint from a previous run; empty = fresh start.
  /// Rejected (InvalidArgument) when minted with different options or
  /// against a different store state.
  std::string resume_from;
  /// Checkpoint consumer; see checkpoint_every_pages.
  std::function<Status(const std::string&)> checkpoint_sink;
  /// Emit a checkpoint every this many pages (0 = only on
  /// cancellation). Checkpoints are O(num_nodes) bytes.
  uint64_t checkpoint_every_pages = 0;
};

/// PageRank (or RWR, see restart_sources) over a page scan.
gmine::Result<PageRankResult> PageRankOverPages(
    storage::PageScan& scan, const PageRankOverPagesOptions& options = {});

/// Global degree distribution over a page scan.
gmine::Result<DegreeDistribution> DegreeDistributionOverPages(
    storage::PageScan& scan, const KernelContext& context = {});

/// Global weak components over a page scan. Labels are identical to
/// WeakComponents on the materialized graph (same union order).
gmine::Result<ComponentResult> WeakComponentsOverPages(
    storage::PageScan& scan, const KernelContext& context = {});

}  // namespace gmine::mining

#endif  // GMINE_MINING_PAGESCAN_KERNELS_H_
