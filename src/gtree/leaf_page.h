// The leaf page format of a G-Tree store (docs/STORAGE.md): one blob
// per leaf community holding its members, its induced subgraph and —
// in stores written by the streaming builder — its members' boundary
// arcs. Everything that reads or writes a page goes through this file:
// ParseLeafPage is the one parser, and the two decoders on top of it
// produce the two in-memory forms a page takes:
//
//   * LeafPayload — the navigation form (Subgraph with id maps), built
//     by DeserializeLeafPayload and cached in the buffer pool;
//   * storage::GraphPage — the mining form (global-id CSR rows), built
//     by DecodeLeafPage straight from the blob into reused buffers, or
//     by LeafPayloadToGraphPage from a resident payload.
//
// Both forms flatten through one row merge, so a page decodes to the
// same GraphPage whichever route it takes.

#ifndef GMINE_GTREE_LEAF_PAGE_H_
#define GMINE_GTREE_LEAF_PAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "storage/page_scan.h"
#include "util/status.h"

namespace gmine::gtree {

/// A leaf community's materialized payload: the induced subgraph over its
/// members plus the local<->global id mapping — and, for stores written
/// by the streaming out-of-core builder (gtree/stream_build.h), the
/// members' *boundary* arcs (arcs to nodes outside the leaf, global
/// destination ids). With boundary arcs present, a node's complete
/// global adjacency lives in exactly its own leaf page, which is what
/// makes page-at-a-time kernels (mining/pagescan_kernels.h) globally
/// correct without a resident graph. Legacy stores carry no boundary
/// section; their bytes are unchanged.
struct LeafPayload {
  graph::Subgraph subgraph;
  /// CSR offsets into boundary_arcs per local member id; empty when the
  /// page carries no boundary section, size members+1 otherwise.
  std::vector<uint32_t> boundary_offsets;
  /// Boundary arcs: destinations are *global* node ids, ascending per
  /// member.
  std::vector<graph::Neighbor> boundary_arcs;

  bool has_boundary() const { return !boundary_offsets.empty(); }
};

/// Serializes a leaf page. The optional boundary section (streamed
/// stores) trails the graph blob: per member, a varint arc count
/// followed by delta-encoded global destination ids and float weights.
/// Legacy pages end at the graph blob, so their bytes are unchanged and
/// presence of trailing bytes is what signals a boundary section.
std::string SerializeLeafPayload(
    const graph::Subgraph& sub,
    const std::vector<uint32_t>* boundary_offsets = nullptr,
    const std::vector<graph::Neighbor>* boundary_arcs = nullptr);

/// The decoded pieces of one page, in caller-owned storage that a
/// reader parsing many pages reuses.
struct LeafPageParts {
  /// Global ids of the members, in local-id order.
  std::vector<graph::NodeId> members;
  /// The induced subgraph, in local ids.
  graph::GraphBlobParts graph;
  /// Boundary CSR (see LeafPayload); empty for legacy pages.
  std::vector<uint32_t> boundary_offsets;
  std::vector<graph::Neighbor> boundary_arcs;
};

/// The one parser of the leaf page format. Verifies the graph blob
/// (graph::ParseGraphBlob: checksum, magic, version, counts, arc ids,
/// node weights), that it has one node per member, and that a boundary
/// section is complete with no trailing bytes. The member list and the
/// boundary arcs are outside the checksum. On error the arrays of `*out`
/// are unspecified (possibly emptied).
Status ParseLeafPage(std::string_view blob, LeafPageParts* out);

/// Parses a page into its navigation form.
gmine::Result<LeafPayload> DeserializeLeafPayload(std::string_view blob);

/// Parses a page straight into its mining form, reusing the capacity of
/// `parts` and `page`. Accepts and rejects exactly the blobs
/// DeserializeLeafPayload does, and on success `*page` equals
/// LeafPayloadToGraphPage of that payload.
Status DecodeLeafPage(std::string_view blob, uint64_t page_id,
                      LeafPageParts* parts, storage::GraphPage* page);

/// Flattens a resident payload into global-id CSR rows.
void LeafPayloadToGraphPage(uint64_t page_id, const LeafPayload& payload,
                            storage::GraphPage* page);

}  // namespace gmine::gtree

#endif  // GMINE_GTREE_LEAF_PAGE_H_
