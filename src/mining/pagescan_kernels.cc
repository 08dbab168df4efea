#include "mining/pagescan_kernels.h"

#include <algorithm>
#include <cmath>

#include "util/coding.h"

namespace gmine::mining {

using graph::NodeId;
using storage::GraphPage;
using storage::PageScan;

namespace {

/// Checkpoint magic: "OPR1" (out-of-core PageRank, format 1).
constexpr uint32_t kCheckpointMagic = 0x4F505231;

/// Fingerprints the options a checkpoint was minted under, so a resume
/// with different damping/weighting/sources is rejected instead of
/// silently producing garbage.
uint64_t OptionsHash(const PageRankOverPagesOptions& options) {
  std::string sig;
  PutDouble(&sig, options.damping);
  PutDouble(&sig, options.tolerance);
  PutVarint32(&sig, options.weighted ? 1 : 0);
  PutVarint32(&sig, static_cast<uint32_t>(options.restart_sources.size()));
  for (NodeId s : options.restart_sources) PutVarint32(&sig, s);
  return Hash64(sig);
}

/// Mid-run kernel state, serialized whole so a resumed run replays the
/// exact float sequence of an uninterrupted one.
struct PageRankState {
  uint32_t iteration = 0;     // completed sweeps
  uint64_t pages_done = 0;    // pages scattered in the current sweep
  double dangling = 0.0;      // dangling mass accumulated this sweep
  double last_delta = 0.0;    // residual of the last completed sweep
  std::vector<double> rank;
  std::vector<double> next;
};

std::string SerializeCheckpoint(const PageRankState& st, uint64_t opts_hash,
                                const std::string& scan_token) {
  std::string blob;
  PutFixed32(&blob, kCheckpointMagic);
  PutFixed64(&blob, opts_hash);
  PutFixed32(&blob, static_cast<uint32_t>(st.rank.size()));
  PutVarint32(&blob, st.iteration);
  PutVarint64(&blob, st.pages_done);
  PutDouble(&blob, st.dangling);
  PutDouble(&blob, st.last_delta);
  PutLengthPrefixed(&blob, scan_token);
  for (double r : st.rank) PutDouble(&blob, r);
  for (double x : st.next) PutDouble(&blob, x);
  return blob;
}

Status ParseCheckpoint(std::string_view blob, uint64_t opts_hash,
                       uint32_t expect_n, PageRankState* st,
                       std::string* scan_token) {
  uint32_t magic = 0;
  uint64_t hash = 0;
  uint32_t n = 0;
  if (!GetFixed32(&blob, &magic) || magic != kCheckpointMagic) {
    return Status::InvalidArgument("pagerank checkpoint: bad magic");
  }
  if (!GetFixed64(&blob, &hash) || hash != opts_hash) {
    return Status::InvalidArgument(
        "pagerank checkpoint: minted under different kernel options");
  }
  std::string_view token;
  if (!GetFixed32(&blob, &n) || !GetVarint32(&blob, &st->iteration) ||
      !GetVarint64(&blob, &st->pages_done) ||
      !GetDouble(&blob, &st->dangling) ||
      !GetDouble(&blob, &st->last_delta) ||
      !GetLengthPrefixed(&blob, &token)) {
    return Status::InvalidArgument("pagerank checkpoint: truncated header");
  }
  if (n != expect_n) {
    return Status::InvalidArgument(
        "pagerank checkpoint: node count does not match the scan");
  }
  st->rank.resize(n);
  st->next.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    if (!GetDouble(&blob, &st->rank[v])) {
      return Status::InvalidArgument("pagerank checkpoint: truncated rank");
    }
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (!GetDouble(&blob, &st->next[v])) {
      return Status::InvalidArgument("pagerank checkpoint: truncated next");
    }
  }
  if (!blob.empty()) {
    return Status::InvalidArgument("pagerank checkpoint: trailing bytes");
  }
  scan_token->assign(token);
  return Status::OK();
}

}  // namespace

gmine::Result<PageRankResult> PageRankOverPages(
    PageScan& scan, const PageRankOverPagesOptions& options) {
  PageRankResult out;
  const uint32_t n = scan.num_nodes();
  if (n == 0) return out;
  if (!scan.complete_adjacency()) {
    return Status::NotSupported(
        "page scan lacks complete adjacency (legacy store): use the "
        "in-memory kernel or rebuild with the streaming builder");
  }
  for (NodeId s : options.restart_sources) {
    if (s >= n) {
      return Status::InvalidArgument("pagerank: restart source out of range");
    }
  }
  const double d = options.damping;
  const uint64_t pages_total = scan.pages_total();
  const uint64_t opts_hash = OptionsHash(options);
  const KernelContext& ctx = options.context;
  scan.SetThreads(ctx.threads);

  PageRankState st;
  if (options.resume_from.empty()) {
    st.rank.assign(n, 1.0 / n);
    st.next.assign(n, 0.0);
    scan.Reset();
  } else {
    std::string token;
    GMINE_RETURN_IF_ERROR(
        ParseCheckpoint(options.resume_from, opts_hash, n, &st, &token));
    GMINE_RETURN_IF_ERROR(scan.Restore(token));
  }

  auto emit_checkpoint = [&]() -> Status {
    if (!options.checkpoint_sink) return Status::OK();
    return options.checkpoint_sink(
        SerializeCheckpoint(st, opts_hash, scan.Checkpoint()));
  };

  bool converged = false;
  while (true) {
    // One sweep: scatter every page's rank along its complete
    // adjacency. Page order is fixed (ascending leaf id), so the float
    // sequence — and therefore the result — is deterministic and
    // resumable mid-sweep.
    GraphPage page;
    while (true) {
      if (ctx.IsCancelled()) {
        GMINE_RETURN_IF_ERROR(emit_checkpoint());
        return Status::Aborted("pagerank: cancelled");
      }
      GMINE_ASSIGN_OR_RETURN(bool more, scan.Next(&page));
      if (!more) break;
      for (size_t i = 0; i < page.nodes.size(); ++i) {
        const NodeId u = page.nodes[i];
        const uint32_t begin = page.arc_offsets[i];
        const uint32_t end = page.arc_offsets[i + 1];
        if (begin == end) {
          st.dangling += st.rank[u];
          continue;
        }
        if (options.weighted) {
          double total_w = 0.0;
          for (uint32_t a = begin; a < end; ++a) {
            total_w += page.arc_weight[a];
          }
          if (total_w <= 0.0) {
            st.dangling += st.rank[u];
            continue;
          }
          const double scale = d * st.rank[u] / total_w;
          for (uint32_t a = begin; a < end; ++a) {
            st.next[page.arc_dst[a]] += scale * page.arc_weight[a];
          }
        } else {
          const double scale = d * st.rank[u] / (end - begin);
          for (uint32_t a = begin; a < end; ++a) {
            st.next[page.arc_dst[a]] += scale;
          }
        }
      }
      ++st.pages_done;
      ctx.Report(KernelProgress{st.iteration, st.pages_done, pages_total,
                                st.last_delta});
      if (options.checkpoint_every_pages != 0 &&
          st.pages_done % options.checkpoint_every_pages == 0) {
        GMINE_RETURN_IF_ERROR(emit_checkpoint());
      }
    }

    // Sweep done: teleport mass plus redistributed dangling mass — on
    // every node (PageRank) or concentrated on the restart sources
    // (RWR with restart probability 1 - damping).
    if (options.restart_sources.empty()) {
      const double base = (1.0 - d) / n + d * st.dangling / n;
      for (uint32_t v = 0; v < n; ++v) st.next[v] += base;
    } else {
      const double share = ((1.0 - d) + d * st.dangling) /
                           static_cast<double>(options.restart_sources.size());
      for (NodeId s : options.restart_sources) st.next[s] += share;
    }
    double delta = 0.0;
    for (uint32_t v = 0; v < n; ++v) {
      delta += std::abs(st.next[v] - st.rank[v]);
    }
    st.rank.swap(st.next);
    std::fill(st.next.begin(), st.next.end(), 0.0);
    st.dangling = 0.0;
    st.pages_done = 0;
    ++st.iteration;
    st.last_delta = delta;
    out.iterations = static_cast<int>(st.iteration);
    out.final_delta = delta;
    if (delta < options.tolerance) {
      converged = true;
      break;
    }
    if (static_cast<int>(st.iteration) >= options.max_iterations) break;
    scan.Reset();
  }
  out.converged = converged;
  out.score = std::move(st.rank);
  return out;
}

gmine::Result<DegreeDistribution> DegreeDistributionOverPages(
    PageScan& scan, const KernelContext& context) {
  if (!scan.complete_adjacency()) {
    return Status::NotSupported(
        "page scan lacks complete adjacency (legacy store)");
  }
  std::vector<uint32_t> degrees(scan.num_nodes(), 0);
  scan.SetThreads(context.threads);
  scan.Reset();
  GraphPage page;
  uint64_t pages_done = 0;
  while (true) {
    if (context.IsCancelled()) {
      return Status::Aborted("degrees: cancelled");
    }
    GMINE_ASSIGN_OR_RETURN(bool more, scan.Next(&page));
    if (!more) break;
    for (size_t i = 0; i < page.nodes.size(); ++i) {
      degrees[page.nodes[i]] =
          page.arc_offsets[i + 1] - page.arc_offsets[i];
    }
    ++pages_done;
    context.Report(KernelProgress{0, pages_done, scan.pages_total(), 0.0});
  }
  return DistributionFromDegrees(degrees);
}

gmine::Result<ComponentResult> WeakComponentsOverPages(
    PageScan& scan, const KernelContext& context) {
  if (!scan.complete_adjacency()) {
    return Status::NotSupported(
        "page scan lacks complete adjacency (legacy store)");
  }
  const uint32_t n = scan.num_nodes();
  UnionFind uf(n);
  scan.SetThreads(context.threads);
  scan.Reset();
  GraphPage page;
  uint64_t pages_done = 0;
  while (true) {
    if (context.IsCancelled()) {
      return Status::Aborted("components: cancelled");
    }
    GMINE_ASSIGN_OR_RETURN(bool more, scan.Next(&page));
    if (!more) break;
    for (size_t i = 0; i < page.nodes.size(); ++i) {
      const NodeId u = page.nodes[i];
      for (uint32_t a = page.arc_offsets[i]; a < page.arc_offsets[i + 1];
           ++a) {
        uf.Union(u, page.arc_dst[a]);
      }
    }
    ++pages_done;
    context.Report(KernelProgress{0, pages_done, scan.pages_total(), 0.0});
  }
  // Same labeling pass as WeakComponents: component ids in first-seen
  // node order, so the two kernels agree exactly.
  ComponentResult out;
  out.component.assign(n, 0);
  std::vector<uint32_t> remap(n, static_cast<uint32_t>(-1));
  uint32_t next_id = 0;
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t root = uf.Find(v);
    if (remap[root] == static_cast<uint32_t>(-1)) {
      remap[root] = next_id++;
      out.sizes.push_back(0);
    }
    out.component[v] = remap[root];
    out.sizes[remap[root]]++;
  }
  out.num_components = next_id;
  return out;
}

}  // namespace gmine::mining
