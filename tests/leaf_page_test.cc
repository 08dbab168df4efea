// The two leaf page decoders against each other: DeserializeLeafPayload
// (the navigation form, cached in the buffer pool) and DecodeLeafPage
// (straight into a page scan's GraphPage). For legacy and streamed page
// blobs, every single-bit flip, every whole-byte inversion and every
// truncation must be accepted or rejected by both alike, and an
// accepted blob must decode to the same GraphPage either way.

#include "gtree/leaf_page.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "storage/page_scan.h"

namespace gmine::gtree {
namespace {

using graph::Neighbor;
using graph::NodeId;

/// Bitwise equality, so NaN weights from flipped bytes compare too.
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SamePage(const storage::GraphPage& a, const storage::GraphPage& b) {
  return a.page_id == b.page_id && SameBytes(a.nodes, b.nodes) &&
         SameBytes(a.arc_offsets, b.arc_offsets) &&
         SameBytes(a.arc_dst, b.arc_dst) &&
         SameBytes(a.arc_weight, b.arc_weight);
}

struct Blobs {
  std::string legacy;
  std::string streamed;
};

/// A 24-member leaf of a weighted random graph: its induced subgraph
/// alone (legacy page) and with its members' boundary arcs (streamed
/// page).
Blobs MakeBlobs() {
  graph::Graph g = std::move(gen::ErdosRenyiM(120, 420, 5)).value();
  std::vector<NodeId> members;
  for (NodeId v = 30; v < 54; ++v) members.push_back(v);
  graph::Subgraph sub =
      std::move(graph::InducedSubgraph(g, members)).value();
  std::vector<uint32_t> boundary_offsets{0};
  std::vector<Neighbor> boundary_arcs;
  for (NodeId v : members) {
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (nb.id < 30 || nb.id >= 54) {
        boundary_arcs.push_back(Neighbor{nb.id, 0.5f + nb.id % 3});
      }
    }
    boundary_offsets.push_back(static_cast<uint32_t>(boundary_arcs.size()));
  }
  Blobs out;
  out.legacy = SerializeLeafPayload(sub);
  out.streamed = SerializeLeafPayload(sub, &boundary_offsets, &boundary_arcs);
  return out;
}

/// Decodes `blob` both ways, reusing `parts`/`page` from earlier
/// calls the way a scan does, and checks the two agree.
void ExpectAgree(const std::string& blob, LeafPageParts* parts,
                 storage::GraphPage* page, const std::string& what) {
  auto payload = DeserializeLeafPayload(blob);
  Status direct = DecodeLeafPage(blob, 7, parts, page);
  ASSERT_EQ(payload.ok(), direct.ok())
      << what << ": payload=" << payload.status().ToString()
      << " direct=" << direct.ToString();
  if (!direct.ok()) return;
  storage::GraphPage converted;
  LeafPayloadToGraphPage(7, payload.value(), &converted);
  ASSERT_TRUE(SamePage(converted, *page)) << what;
}

void SweepMutations(const std::string& blob, int* accepted, int* rejected) {
  LeafPageParts parts;
  storage::GraphPage page;
  for (size_t i = 0; i < blob.size(); ++i) {
    for (int mask : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF}) {
      std::string flipped = blob;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      ExpectAgree(flipped, &parts, &page,
                  "byte " + std::to_string(i) + " ^ " + std::to_string(mask));
      if (DeserializeLeafPayload(flipped).ok()) {
        ++*accepted;
      } else {
        ++*rejected;
      }
    }
  }
  for (size_t len = 0; len < blob.size(); ++len) {
    ExpectAgree(blob.substr(0, len), &parts, &page,
                "truncated to " + std::to_string(len));
  }
}

TEST(LeafPageTest, IntactBlobsDecodeTheSameBothWays) {
  const Blobs blobs = MakeBlobs();
  LeafPageParts parts;
  storage::GraphPage page;
  for (const std::string* blob : {&blobs.legacy, &blobs.streamed}) {
    ExpectAgree(*blob, &parts, &page, "intact");
    ASSERT_TRUE(DecodeLeafPage(*blob, 7, &parts, &page).ok());
    EXPECT_EQ(page.num_nodes(), 24u);
    EXPECT_GT(page.num_arcs(), 0u);
  }
  // The streamed page carries the boundary arcs on top of the intra ones.
  storage::GraphPage legacy_page;
  ASSERT_TRUE(DecodeLeafPage(blobs.legacy, 7, &parts, &legacy_page).ok());
  ASSERT_TRUE(DecodeLeafPage(blobs.streamed, 7, &parts, &page).ok());
  EXPECT_GT(page.num_arcs(), legacy_page.num_arcs());
}

TEST(LeafPageTest, LegacyMutationsAgree) {
  int accepted = 0;
  int rejected = 0;
  SweepMutations(MakeBlobs().legacy, &accepted, &rejected);
  // Both outcomes occur: flips in the checksummed graph blob are
  // rejected, flips in the unchecked member list mostly accepted.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(LeafPageTest, StreamedMutationsAgree) {
  int accepted = 0;
  int rejected = 0;
  SweepMutations(MakeBlobs().streamed, &accepted, &rejected);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace gmine::gtree
