// Unit tests for the benchmark driver's own code: percentile selection,
// failure accounting, span self times, seeded op streams and the
// counter parsers. The reduced-scale smoke of each workload is a
// separate ctest entry (perfbench/CMakeLists.txt).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common.h"
#include "driver.h"
#include "graph/graph_builder.h"
#include "graph/labels.h"
#include "gtree/gtree.h"
#include "ops.h"

namespace perfbench {
namespace {

// ------------------------------------------------------------ percentiles

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(SelectPercentile, NamedPercentileWhenTenSamplesLieBeyond) {
  const Percentile p99 = SelectPercentile(Iota(1000), 99);
  EXPECT_TRUE(p99.qualified);
  EXPECT_DOUBLE_EQ(p99.percentile, 99);
  EXPECT_DOUBLE_EQ(p99.value, 990);  // nearest rank: ceil(0.99 * 1000)
  EXPECT_EQ(p99.samples, 1000u);
  const Percentile p50 = SelectPercentile(Iota(21), 50);
  EXPECT_TRUE(p50.qualified);
  EXPECT_DOUBLE_EQ(p50.value, 11);  // exactly 10 samples beyond
}

TEST(SelectPercentile, FallsBackToHighestPercentileWithTenBeyond) {
  // 500 samples: p99 has only 5 beyond; p98 has exactly 10 beyond.
  const Percentile p = SelectPercentile(Iota(500), 99);
  EXPECT_TRUE(p.qualified);
  EXPECT_DOUBLE_EQ(p.percentile, 98);
  EXPECT_DOUBLE_EQ(p.value, 490);
  EXPECT_EQ(p.samples, 500u);
  // 40 samples: p90 has 4 beyond; p75 has exactly 10 beyond.
  const Percentile mid = SelectPercentile(Iota(40), 90);
  EXPECT_TRUE(mid.qualified);
  EXPECT_DOUBLE_EQ(mid.percentile, 75);
  EXPECT_DOUBLE_EQ(mid.value, 30);
}

TEST(SelectPercentile, NeverFallsBelowTheMedian) {
  // 19 samples: no tail percentile has 10 beyond, and neither has the
  // median (9 beyond). The median is reported, flagged.
  const Percentile tail = SelectPercentile(Iota(19), 90);
  EXPECT_FALSE(tail.qualified);
  EXPECT_DOUBLE_EQ(tail.percentile, 50);
  EXPECT_DOUBLE_EQ(tail.value, 10);
  const Percentile median = SelectPercentile(Iota(19), 50);
  EXPECT_FALSE(median.qualified);
  EXPECT_DOUBLE_EQ(median.value, 10);
}

TEST(SelectPercentile, TooFewSamplesReportsMedianUnqualified) {
  const Percentile p = SelectPercentile({5, 1, 3}, 99);
  EXPECT_FALSE(p.qualified);
  EXPECT_DOUBLE_EQ(p.percentile, 50);
  EXPECT_DOUBLE_EQ(p.value, 3);
  EXPECT_EQ(p.samples, 3u);
  const Percentile none = SelectPercentile({}, 50);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_FALSE(none.qualified);
}

// ------------------------------------------------------ failure accounting

TEST(Tally, RefusedAndTimedOutOpsCountAsFailed) {
  Tally t;
  t.Add(Outcome::kOk);
  t.Add(Outcome::kOk);
  t.Add(ClassifyError("IOError: recv timed out after 5000 ms"));
  t.Add(ClassifyError("connect: Connection refused"));
  t.Add(ClassifyError("HTTP 503 at capacity"));
  t.Add(Outcome::kWrong);
  EXPECT_EQ(t.attempted, 6u);
  EXPECT_EQ(t.failed, 4u);
  EXPECT_EQ(t.by_outcome[static_cast<int>(Outcome::kTimeout)], 1u);
  EXPECT_EQ(t.by_outcome[static_cast<int>(Outcome::kRefused)], 2u);
  EXPECT_DOUBLE_EQ(t.ErrorRate(), 4.0 / 6.0);
  EXPECT_EQ(ClassifyError("NotFound: community 'x' not found"),
            Outcome::kError);
  Tally sum;
  sum.Merge(t);
  sum.Merge(t);
  EXPECT_EQ(sum.attempted, 12u);
  EXPECT_EQ(sum.failed, 8u);
}

// ---------------------------------------------------------------- tracing

TEST(SelfTimes, SubtractsTheUnionOfChildIntervals) {
  // request [0,100] with children [10,30], [20,50] (overlapping) and
  // [60,70]; [20,50] has its own child [25,35]; one child sticks out
  // past its parent's end and is clipped.
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 7}, {"a", 10, 30, 0, 7},
      {"b", 20, 50, 0, 7},        {"c", 60, 70, 0, 7},
      {"b.inner", 25, 35, 2, 7},  {"late", 95, 120, 0, 7},
  };
  const auto self = SelfTimes(spans);
  // Covered: [10,50] + [60,70] + [95,100] = 55.
  EXPECT_DOUBLE_EQ(self.at("request").self_ns, 45);
  EXPECT_DOUBLE_EQ(self.at("request").total_ns, 100);
  EXPECT_DOUBLE_EQ(self.at("a").self_ns, 20);
  EXPECT_DOUBLE_EQ(self.at("b").self_ns, 20);
  EXPECT_DOUBLE_EQ(self.at("b.inner").self_ns, 10);
  EXPECT_DOUBLE_EQ(self.at("c").self_ns, 10);
  EXPECT_EQ(self.at("request").count, 1u);
}

TEST(SelfTimes, MergedTracersKeepTheirOwnParents) {
  // Two threads' tracers, each a request with one child; merging must
  // rebase the second tracer's parent indices.
  std::vector<Span> merged;
  AppendSpans(&merged, {{"req", 0, 10, -1, 1}, {"child", 2, 6, 0, 1}});
  AppendSpans(&merged, {{"req", 0, 10, -1, 2}, {"child", 1, 9, 0, 2}});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[3].parent, 2);
  const auto self = SelfTimes(merged);
  EXPECT_DOUBLE_EQ(self.at("req").self_ns, 6 + 2);
  EXPECT_DOUBLE_EQ(self.at("child").self_ns, 4 + 8);
}

TEST(Tracer, NestsScopedSpansAndSkipsWhenDisabled) {
  Tracer on(true);
  {
    ScopedSpan outer(&on, "outer", 1);
    ScopedSpan inner(&on, "inner", 1);
    on.Add("measured", 1, 5, 6);
  }
  ASSERT_EQ(on.spans().size(), 3u);
  EXPECT_EQ(on.spans()[0].parent, -1);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[2].parent, 1);
  Tracer off(false);
  {
    ScopedSpan span(&off, "x", 1);
    off.Add("y", 1, 0, 1);
  }
  EXPECT_TRUE(off.spans().empty());
}

// ------------------------------------------------------------- op streams

// root s000 -> {s001 (members 0..3), s002 -> {s003 (4..6), s004 (7..9)}}
gmine::gtree::GTree SmallTree() {
  using gmine::gtree::TreeNode;
  std::vector<TreeNode> nodes(5);
  for (uint32_t i = 0; i < 5; ++i) {
    nodes[i].id = i;
    nodes[i].name = "s00" + std::to_string(i);
  }
  nodes[0].children = {1, 2};
  nodes[1].parent = 0;
  nodes[1].depth = 1;
  nodes[1].members = {0, 1, 2, 3};
  nodes[2].parent = 0;
  nodes[2].depth = 1;
  nodes[2].children = {3, 4};
  nodes[3].parent = 2;
  nodes[3].depth = 2;
  nodes[3].members = {4, 5, 6};
  nodes[4].parent = 2;
  nodes[4].depth = 2;
  nodes[4].members = {7, 8, 9};
  auto tree = gmine::gtree::GTree::FromNodes(std::move(nodes), 10);
  EXPECT_TRUE(tree.ok());
  return std::move(tree).value();
}

gmine::graph::LabelStore SmallLabels() {
  std::vector<std::string> names;
  for (int i = 0; i < 10; ++i) names.push_back("Author " + std::to_string(i));
  return gmine::graph::LabelStore(std::move(names));
}

template <typename Gen>
std::vector<std::string> Lines(Gen gen, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(gen.Next().line);
  return out;
}

TEST(OpStreams, SameSeedSameStream) {
  const auto tree = SmallTree();
  const auto labels = SmallLabels();
  EXPECT_EQ(Lines(NavWalk(&tree, &labels, 42), 500),
            Lines(NavWalk(&tree, &labels, 42), 500));
  EXPECT_NE(Lines(NavWalk(&tree, &labels, 42), 500),
            Lines(NavWalk(&tree, &labels, 43), 500));
  EXPECT_EQ(Lines(AuthorCycle(&tree, &labels, 9), 60),
            Lines(AuthorCycle(&tree, &labels, 9), 60));
  EXPECT_EQ(Lines(ReaderOps(&tree, &labels, 9), 60),
            Lines(ReaderOps(&tree, &labels, 9), 60));
  const std::vector<uint32_t> connected = {0, 1, 2, 3};
  RestMix a(&tree, &labels, &connected, "paper_rest", 5),
      b(&tree, &labels, &connected, "paper_rest", 5);
  for (int i = 0; i < 200; ++i) {
    const RestOp x = a.Next(), y = b.Next();
    EXPECT_EQ(x.target + x.body, y.target + y.body);
  }
  EditStream e1(&tree, 10, 3), e2(&tree, 10, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(e1.Next().lines, e2.Next().lines);
  EXPECT_EQ(StreamSeed(1, 2), StreamSeed(1, 2));
  EXPECT_NE(StreamSeed(1, 2), StreamSeed(2, 2));
}

TEST(OpStreams, AuthorsAreNodesTheTreeHolds) {
  // Label 10 belongs to a trailing isolated node the graph does not hold.
  const auto tree = SmallTree();
  std::vector<std::string> names;
  for (int i = 0; i <= 10; ++i) names.push_back("Author " + std::to_string(i));
  const gmine::graph::LabelStore labels(std::move(names));
  EXPECT_EQ(Author(tree, labels, 4), 4u);
  EXPECT_EQ(Author(tree, labels, 10), 0u);  // skips 10, wraps to 0
  ReaderOps readers(&tree, &labels, 1);
  for (int i = 0; i < 200; ++i) EXPECT_LT(readers.Next().node, 10u);
}

TEST(OpStreams, NavWalkOnlyIssuesValidOps) {
  const auto tree = SmallTree();
  const auto labels = SmallLabels();
  NavWalk walk(&tree, &labels, 7);
  FocusModel model(&tree);
  for (int i = 0; i < 2000; ++i) {
    const NavOp op = walk.Next();
    const auto& focus = tree.node(model.focus());
    switch (op.kind) {
      case OpKind::kChild: {
        const size_t index = std::stoul(op.line.substr(6));
        ASSERT_LT(index, focus.children.size());
        model.Child(index);
        break;
      }
      case OpKind::kLoad: ASSERT_TRUE(focus.IsLeaf()); break;
      case OpKind::kParent: model.Parent(); break;
      case OpKind::kBack: model.Back(); break;
      case OpKind::kRoot: model.Root(); break;
      case OpKind::kLocate:
        ASSERT_EQ(op.focus, tree.LeafOf(op.node));
        model.Set(op.focus);
        break;
      default: break;
    }
    ASSERT_EQ(op.focus, model.focus()) << op.line;
  }
}

TEST(OpStreams, RestMixKeepsItsCycleOnTheNamedStore) {
  // rest_analyst queries its only store; one request in six is CSG.
  const auto tree = SmallTree();
  const auto labels = SmallLabels();
  const std::vector<uint32_t> connected = {1, 2, 3};
  RestMix mix(&tree, &labels, &connected, RestStoreName(Workload::kRest), 5);
  int csg = 0;
  for (int i = 0; i < 48; ++i) {
    const RestOp op = mix.Next();
    EXPECT_EQ(op.target.rfind("/api/v1/stores/paper/", 0), 0u) << op.target;
    if (op.kind == RestKind::kCsg) {
      ++csg;
      EXPECT_EQ(op.sources.size(), 3u);
      for (uint32_t v : op.sources) EXPECT_TRUE(v >= 1 && v <= 3) << v;
    }
  }
  EXPECT_EQ(csg, 8);
  EXPECT_STREQ(RestStoreName(Workload::kMixed), "paper_rest");
}

TEST(OpStreams, ConnectedAuthorsKeepTheLargestComponent) {
  // 0-1-2-3 and 5-6 are connected; 4 is isolated; 7-9 form a triangle.
  gmine::graph::GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(5, 6);
  b.AddEdge(7, 8);
  b.AddEdge(8, 9);
  b.AddEdge(7, 9);
  auto g = std::move(b.Build()).value();
  const auto tree = SmallTree();
  const auto labels = SmallLabels();
  EXPECT_EQ(ConnectedAuthors(g, tree, labels),
            (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(OpStreams, EditBatchesStayWithinKnownIds) {
  const auto tree = SmallTree();
  EditStream stream(&tree, 10, 11);
  int add_nodes = 0, removes = 0;
  for (int i = 0; i < 300; ++i) {
    const uint32_t tip = stream.tip();
    const EditBatch batch = stream.Next();
    ASSERT_FALSE(batch.lines.empty());
    for (uint32_t id : batch.added_ids) EXPECT_EQ(id, tip);
    add_nodes += static_cast<int>(batch.added_ids.size());
    for (const auto& [edge, present] : batch.edges) {
      EXPECT_LT(edge.first, edge.second);
      EXPECT_LT(edge.second, stream.tip());
      removes += present ? 0 : 1;
    }
  }
  EXPECT_GT(add_nodes, 0);
  EXPECT_GT(removes, 0);
}

// ---------------------------------------------------------------- parsers

TEST(Parsers, GatewayStatsJson) {
  Json doc;
  ASSERT_TRUE(ParseJson(
      R"({"gateway":{"requests":12},"catalog":{"opens":3},)"
      R"("endpoints":[{"endpoint":"ws-op","count":4,"errors":0,)"
      R"("total_micros":80,"max_micros":30}],"s":"a\"bé"})",
      &doc));
  EXPECT_DOUBLE_EQ(doc.Path("gateway.requests"), 12);
  EXPECT_DOUBLE_EQ(doc.Path("catalog.opens"), 3);
  EXPECT_DOUBLE_EQ(doc.Path("catalog.missing"), 0);
  EXPECT_EQ(doc.Get("s")->String(), "a\"b\xc3\xa9");
  const auto eps = StatsEndpoints(doc);
  EXPECT_DOUBLE_EQ(eps.at("ws-op").total_micros, 80);
  Json bad;
  EXPECT_FALSE(ParseJson("{\"a\":1", &bad));
  EXPECT_FALSE(ParseJson("[1,]", &bad));
}

TEST(Parsers, LineProtocolStats) {
  const auto m = ParseNetStats(
      "conn id=1 requests=9 | server active=1 requests=73 errors=0 "
      "latency_avg_us=63012 | wal size=130 next_lsn=4");
  EXPECT_DOUBLE_EQ(m.at("conn.requests"), 9);
  EXPECT_DOUBLE_EQ(m.at("server.requests"), 73);
  EXPECT_DOUBLE_EQ(m.at("server.latency_avg_us"), 63012);
  EXPECT_DOUBLE_EQ(m.at("wal.size"), 130);
}

}  // namespace
}  // namespace perfbench
