#include "gtree/leaf_page.h"

#include <span>
#include <utility>

#include "util/coding.h"

namespace gmine::gtree {

using graph::Neighbor;
using graph::NodeId;

namespace {

/// Merges each member's intra arcs (local ids, mapped through
/// `members`) with its boundary arcs (global already) into one row.
/// Members are ascending, so mapped intra ids stay sorted, and boundary
/// arcs are sorted per member: a two-way merge keeps each row sorted by
/// destination. Both routes to a GraphPage end here.
void FlattenRows(uint64_t page_id, std::span<const NodeId> members,
                 std::span<const uint64_t> offsets,
                 std::span<const Neighbor> arcs,
                 std::span<const uint32_t> boundary_offsets,
                 std::span<const Neighbor> boundary_arcs,
                 storage::GraphPage* out) {
  const size_t n = members.size();
  const bool has_boundary = !boundary_offsets.empty();
  const size_t total = arcs.size() + boundary_arcs.size();
  out->page_id = page_id;
  graph::ResizeExact(out->nodes, n);
  graph::ResizeExact(out->arc_offsets, n + 1);
  graph::ResizeExact(out->arc_dst, total);
  graph::ResizeExact(out->arc_weight, total);
  uint32_t* dst = out->arc_dst.data();
  float* weight = out->arc_weight.data();
  size_t at = 0;
  out->arc_offsets[0] = 0;
  for (size_t v = 0; v < n; ++v) {
    out->nodes[v] = members[v];
    size_t ii = offsets[v];
    const size_t ie = offsets[v + 1];
    size_t bi = has_boundary ? boundary_offsets[v] : 0;
    const size_t be = has_boundary ? boundary_offsets[v + 1] : 0;
    while (ii < ie && bi < be) {
      const NodeId intra_global = members[arcs[ii].id];
      if (intra_global < boundary_arcs[bi].id) {
        dst[at] = intra_global;
        weight[at++] = arcs[ii++].weight;
      } else {
        dst[at] = boundary_arcs[bi].id;
        weight[at++] = boundary_arcs[bi++].weight;
      }
    }
    for (; ii < ie; ++ii) {
      dst[at] = members[arcs[ii].id];
      weight[at++] = arcs[ii].weight;
    }
    for (; bi < be; ++bi) {
      dst[at] = boundary_arcs[bi].id;
      weight[at++] = boundary_arcs[bi].weight;
    }
    out->arc_offsets[v + 1] = static_cast<uint32_t>(at);
  }
}

}  // namespace

std::string SerializeLeafPayload(
    const graph::Subgraph& sub, const std::vector<uint32_t>* boundary_offsets,
    const std::vector<Neighbor>* boundary_arcs) {
  std::string blob;
  PutVarint32(&blob, static_cast<uint32_t>(sub.to_parent.size()));
  NodeId prev = 0;
  for (NodeId p : sub.to_parent) {  // ascending (leaf members are sorted)
    PutVarint32(&blob, p - prev);
    prev = p;
  }
  PutLengthPrefixed(&blob, graph::SerializeGraph(sub.graph));
  if (boundary_offsets != nullptr && !boundary_offsets->empty()) {
    for (size_t i = 0; i + 1 < boundary_offsets->size(); ++i) {
      const uint32_t begin = (*boundary_offsets)[i];
      const uint32_t end = (*boundary_offsets)[i + 1];
      PutVarint32(&blob, end - begin);
      NodeId prev_dst = 0;
      for (uint32_t a = begin; a < end; ++a) {
        const Neighbor& nb = (*boundary_arcs)[a];
        PutVarint32(&blob, nb.id - prev_dst);  // ascending per member
        PutFloat(&blob, nb.weight);
        prev_dst = nb.id;
      }
    }
  }
  return blob;
}

Status ParseLeafPage(std::string_view blob, LeafPageParts* out) {
  uint32_t count = 0;
  if (!GetVarint32(&blob, &count)) {
    return Status::Corruption("leaf payload: bad member count");
  }
  // Every member delta takes at least one byte.
  if (count > blob.size()) {
    return Status::Corruption("leaf payload: truncated members");
  }
  // Filled in locals that take over out's buffers, as in
  // graph::ParseGraphBlob; on error they are left empty.
  std::vector<NodeId> members = std::move(out->members);
  graph::ResizeExact(members, count);
  NodeId prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    if (!GetVarint32(&blob, &delta)) {
      return Status::Corruption("leaf payload: truncated members");
    }
    prev += delta;
    members[i] = prev;
  }
  std::string_view graph_blob;
  if (!GetLengthPrefixed(&blob, &graph_blob)) {
    return Status::Corruption("leaf payload: missing graph blob");
  }
  GMINE_RETURN_IF_ERROR(graph::ParseGraphBlob(graph_blob, &out->graph));
  if (out->graph.offsets.size() != static_cast<size_t>(count) + 1) {
    return Status::Corruption("leaf payload: member/graph size mismatch");
  }
  std::vector<uint32_t> boundary_offsets = std::move(out->boundary_offsets);
  std::vector<Neighbor> boundary_arcs = std::move(out->boundary_arcs);
  boundary_offsets.clear();
  boundary_arcs.clear();
  if (!blob.empty()) {
    // Boundary section (streamed stores): per-member global arcs.
    graph::ResizeExact(boundary_offsets, count + 1);
    boundary_offsets[0] = 0;
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t degree = 0;
      if (!GetVarint32(&blob, &degree)) {
        return Status::Corruption("leaf payload: truncated boundary degree");
      }
      NodeId prev_dst = 0;
      for (uint32_t a = 0; a < degree; ++a) {
        uint32_t delta = 0;
        float w = 0.0f;
        if (!GetVarint32(&blob, &delta) || !GetFloat(&blob, &w)) {
          return Status::Corruption("leaf payload: truncated boundary arc");
        }
        prev_dst += delta;
        boundary_arcs.push_back(Neighbor{prev_dst, w});
      }
      boundary_offsets[i + 1] = static_cast<uint32_t>(boundary_arcs.size());
    }
    if (!blob.empty()) {
      return Status::Corruption("leaf payload: trailing bytes after boundary");
    }
  }
  out->members = std::move(members);
  out->boundary_offsets = std::move(boundary_offsets);
  out->boundary_arcs = std::move(boundary_arcs);
  return Status::OK();
}

gmine::Result<LeafPayload> DeserializeLeafPayload(std::string_view blob) {
  LeafPageParts parts;
  GMINE_RETURN_IF_ERROR(ParseLeafPage(blob, &parts));
  LeafPayload out;
  graph::Subgraph& sub = out.subgraph;
  for (NodeId i = 0; i < parts.members.size(); ++i) {
    sub.to_local.emplace(parts.members[i], i);
  }
  sub.to_parent = std::move(parts.members);
  sub.graph = graph::Graph(std::move(parts.graph.offsets),
                           std::move(parts.graph.arcs),
                           std::move(parts.graph.node_weights),
                           parts.graph.directed);
  out.boundary_offsets = std::move(parts.boundary_offsets);
  out.boundary_arcs = std::move(parts.boundary_arcs);
  return out;
}

Status DecodeLeafPage(std::string_view blob, uint64_t page_id,
                      LeafPageParts* parts, storage::GraphPage* page) {
  GMINE_RETURN_IF_ERROR(ParseLeafPage(blob, parts));
  FlattenRows(page_id, parts->members, parts->graph.offsets,
              parts->graph.arcs, parts->boundary_offsets,
              parts->boundary_arcs, page);
  return Status::OK();
}

void LeafPayloadToGraphPage(uint64_t page_id, const LeafPayload& payload,
                            storage::GraphPage* page) {
  const graph::Subgraph& sub = payload.subgraph;
  FlattenRows(page_id, sub.to_parent, sub.graph.offsets(), sub.graph.arcs(),
              payload.boundary_offsets, payload.boundary_arcs, page);
}

}  // namespace gmine::gtree
