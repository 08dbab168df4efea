// Page-scan read paths against recorded results: the page kernels
// (PageRank plain, weighted and with restart sources; degrees;
// components) run on one seeded streamed store at threads 1, 2 and 4,
// under a 1 MiB pool (the store does not fit: the scan reads around
// the pool) and an unbounded pool (the scan caches its pages). Every
// run must produce the same bytes, and those bytes must match the
// fingerprints recorded from the serial, always-cached scan that
// preceded read-ahead.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "gtree/store.h"
#include "gtree/stream_build.h"
#include "mining/pagescan_kernels.h"
#include "storage/buffer_pool.h"
#include "storage/page_scan.h"
#include "util/coding.h"
#include "util/string_util.h"

namespace gmine::mining {
namespace {

/// A per-process fixture path, so concurrent runs of this binary never
/// share files.
std::string TempPath(const char* name, const char* ext) {
  return StrFormat("%s/%s.%d%s", ::testing::TempDir().c_str(), name,
                   static_cast<int>(getpid()), ext);
}

class PageScanReadAheadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ~2.3 MB of pages: more than twice the 1 MiB pool below.
    graph::Graph g =
        std::move(gen::ErdosRenyiM(16000, 120000, 20240917)).value();
    std::string lines;
    for (uint32_t u = 0; u < g.num_nodes(); ++u) {
      for (const auto& arc : g.Neighbors(u)) {
        // Non-unit weights so the weighted kernel differs from plain.
        if (u < arc.id) {
          lines += StrFormat("%u %u %u\n", u, arc.id, 1 + (u + arc.id) % 7);
        }
      }
    }
    edges_path_ = new std::string(TempPath("pagescan_readahead", ".edges"));
    store_path_ = new std::string(TempPath("pagescan_readahead", ".gtree"));
    ASSERT_TRUE(graph::WriteStringToFile(lines, *edges_path_).ok());
    gtree::StreamBuildOptions options;
    options.leaf_size = 64;
    ASSERT_TRUE(gtree::StreamBuildStore(*edges_path_, *store_path_, {},
                                        options, nullptr)
                    .ok());
  }

  static void TearDownTestSuite() {
    std::remove(edges_path_->c_str());
    std::remove(store_path_->c_str());
    delete edges_path_;
    delete store_path_;
  }

  /// Opens the fixture on a private pool of `budget` bytes (0 =
  /// unbounded).
  struct Opened {
    std::unique_ptr<storage::BufferPool> pool;
    std::unique_ptr<gtree::GTreeStore> store;
  };
  static Opened Open(uint64_t budget) {
    Opened o;
    o.pool = std::make_unique<storage::BufferPool>(
        storage::BufferPoolOptions{.budget_bytes = budget});
    gtree::GTreeStoreOptions sopts;
    sopts.buffer_pool = o.pool.get();
    o.store = std::move(gtree::GTreeStore::Open(*store_path_, sopts)).value();
    return o;
  }

  static std::string* edges_path_;
  static std::string* store_path_;
};

std::string* PageScanReadAheadTest::edges_path_ = nullptr;
std::string* PageScanReadAheadTest::store_path_ = nullptr;

enum class Kernel { kPlain, kWeighted, kRestart, kDegrees, kComponents };

/// Runs one kernel and fingerprints every byte of its result.
uint64_t Fingerprint(storage::PageScan& scan, Kernel kernel, int threads) {
  KernelContext context;
  context.threads = threads;
  std::string bytes;
  if (kernel == Kernel::kDegrees) {
    auto d = DegreeDistributionOverPages(scan, context);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    if (!d.ok()) return 0;
    for (const auto& [deg, count] : d.value().count) {
      PutFixed32(&bytes, deg);
      PutFixed64(&bytes, count);
    }
    PutFixed32(&bytes, d.value().min_degree);
    PutFixed32(&bytes, d.value().max_degree);
    PutDouble(&bytes, d.value().mean_degree);
    PutDouble(&bytes, d.value().powerlaw_slope);
    return Hash64(bytes);
  }
  if (kernel == Kernel::kComponents) {
    auto c = WeakComponentsOverPages(scan, context);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    if (!c.ok()) return 0;
    PutFixed32(&bytes, c.value().num_components);
    for (uint32_t id : c.value().component) PutFixed32(&bytes, id);
    for (uint32_t size : c.value().sizes) PutFixed32(&bytes, size);
    return Hash64(bytes);
  }
  PageRankOverPagesOptions options;
  options.max_iterations = 12;
  options.context = context;
  options.weighted = kernel == Kernel::kWeighted;
  if (kernel == Kernel::kRestart) options.restart_sources = {3, 77, 1500};
  auto r = PageRankOverPages(scan, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return 0;
  PutFixed32(&bytes, static_cast<uint32_t>(r.value().iterations));
  PutDouble(&bytes, r.value().final_delta);
  bytes.append(reinterpret_cast<const char*>(r.value().score.data()),
               r.value().score.size() * sizeof(double));
  return Hash64(bytes);
}

struct Expected {
  Kernel kernel;
  const char* name;
  uint64_t fingerprint;
};

// Recorded from the serial scan that always went through the pool
// (before read-around and read-ahead existed), on this fixture.
constexpr Expected kExpected[] = {
    {Kernel::kPlain, "pagerank", 0x71ebdcf9917889acull},
    {Kernel::kWeighted, "pagerank weighted", 0x9aa18da29f185a03ull},
    {Kernel::kRestart, "pagerank restart_sources", 0xf0dde0fdf7227051ull},
    {Kernel::kDegrees, "degrees", 0xcaa7010c0772f6baull},
    {Kernel::kComponents, "components", 0x9e6460b972b9fac6ull},
};

TEST_F(PageScanReadAheadTest, EveryThreadCountAndReadPathMatchesTheRecord) {
  for (uint64_t budget : {uint64_t{1} << 20, uint64_t{0}}) {
    for (int threads : {1, 2, 4}) {
      Opened o = Open(budget);
      auto scan = o.store->NewPageScan();
      ASSERT_TRUE(scan->complete_adjacency());
      for (const Expected& e : kExpected) {
        EXPECT_EQ(Fingerprint(*scan, e.kernel, threads), e.fingerprint)
            << e.name << " budget=" << budget << " threads=" << threads;
      }
    }
  }
}

TEST_F(PageScanReadAheadTest, ReadAroundNeitherInsertsNorEvicts) {
  Opened o = Open(1 << 20);
  ASSERT_GT(o.store->file_size(), 2u << 20);
  // One page resident before the scan: read-around still uses it.
  gtree::TreeNodeId some_leaf = 0;
  for (const gtree::TreeNode& tn : o.store->tree().nodes()) {
    if (tn.IsLeaf()) some_leaf = tn.id;
  }
  ASSERT_TRUE(o.store->LoadLeaf(some_leaf).ok());
  const storage::BufferPoolStats before = o.pool->stats();
  ASSERT_EQ(before.loads, 1u);

  auto scan = o.store->NewPageScan();
  for (int threads : {1, 4}) {
    KernelContext context;
    context.threads = threads;
    ASSERT_TRUE(DegreeDistributionOverPages(*scan, context).ok());
  }
  const storage::BufferPoolStats after = o.pool->stats();
  EXPECT_EQ(after.loads, before.loads);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.hits - before.hits, 2u);  // the resident page, twice
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
  // The uncached reads still show in the store's IO statistics.
  EXPECT_EQ(o.store->stats().leaf_loads, 1 + 2 * (scan->pages_total() - 1));
}

TEST_F(PageScanReadAheadTest, AStoreThatFitsIsCachedByItsScan) {
  Opened o = Open(0);
  auto scan = o.store->NewPageScan();
  KernelContext context;
  context.threads = 4;
  ASSERT_TRUE(DegreeDistributionOverPages(*scan, context).ok());
  ASSERT_TRUE(WeakComponentsOverPages(*scan, context).ok());
  const gtree::GTreeStoreStats stats = o.store->stats();
  EXPECT_EQ(stats.leaf_loads, scan->pages_total());
  EXPECT_EQ(stats.cache_hits, scan->pages_total());
}

TEST_F(PageScanReadAheadTest, CancelWithReadAheadInFlightStopsEveryWorker) {
  for (uint64_t budget : {uint64_t{1} << 20, uint64_t{0}}) {
    Opened o = Open(budget);
    auto scan = o.store->NewPageScan();
    uint64_t consumed = 0;
    PageRankOverPagesOptions options;
    options.context.threads = 4;
    options.context.progress = [&](const KernelProgress& p) {
      consumed = p.pages_scanned;
    };
    options.context.cancelled = [&] { return consumed >= 3; };
    std::string checkpoint;
    options.checkpoint_sink = [&](const std::string& bytes) {
      checkpoint = bytes;
      return Status::OK();
    };
    auto r = PageRankOverPages(*scan, options);
    ASSERT_TRUE(r.status().IsAborted()) << r.status().ToString();
    EXPECT_EQ(consumed, 3u);
    ASSERT_FALSE(checkpoint.empty());
    // The token counts consumed pages, not pages decoded ahead.
    EXPECT_EQ(scan->Checkpoint().back(), 3);

    // Destroying the scan waits out its workers: from then on nothing
    // reads the store, so its counters stay put and it can go away.
    scan.reset();
    const uint64_t loads = o.store->stats().leaf_loads;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(o.store->stats().leaf_loads, loads);
    o.store.reset();
    o.pool.reset();
  }
}

TEST_F(PageScanReadAheadTest, APageNamingANodePastTheGraphIsCorruption) {
  // Boundary arcs are outside the page checksum. Copy the fixture with
  // one boundary arc pointing past the graph: every read path must
  // refuse that page instead of handing it to a kernel, which would
  // index its rank arrays with it.
  Opened o = Open(0);
  const std::string bad_path = TempPath("pagescan_bad_id", ".gtree");
  {
    auto writer = std::move(gtree::GTreeStoreWriter::Begin(bad_path)).value();
    bool planted = false;
    for (const gtree::TreeNode& tn : o.store->tree().nodes()) {
      if (!tn.IsLeaf()) continue;
      auto payload = std::move(o.store->LoadLeaf(tn.id)).value();
      std::vector<graph::Neighbor> arcs = payload->boundary_arcs;
      if (!planted && !arcs.empty()) {
        arcs.back().id = o.store->num_graph_nodes() + 5;
        planted = true;
      }
      ASSERT_TRUE(writer
                      ->AddLeafPage(tn.id, payload->subgraph,
                                    payload->boundary_offsets, arcs)
                      .ok());
    }
    ASSERT_TRUE(planted);
    ASSERT_TRUE(writer
                    ->Finish(o.store->tree(), o.store->connectivity(),
                             o.store->labels(), o.store->num_graph_nodes())
                    .ok());
  }
  for (uint64_t budget : {uint64_t{1} << 20, uint64_t{0}}) {
    for (int threads : {1, 4}) {
      storage::BufferPool pool(
          storage::BufferPoolOptions{.budget_bytes = budget});
      gtree::GTreeStoreOptions sopts;
      sopts.buffer_pool = &pool;
      auto bad = std::move(gtree::GTreeStore::Open(bad_path, sopts)).value();
      auto scan = bad->NewPageScan();
      KernelContext context;
      context.threads = threads;
      auto r = DegreeDistributionOverPages(*scan, context);
      EXPECT_TRUE(r.status().IsCorruption())
          << "budget=" << budget << " threads=" << threads << ": "
          << r.status().ToString();
    }
  }
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace gmine::mining
