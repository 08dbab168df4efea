// Kill-and-resume sweep for the restartable out-of-core PageRank
// (mining/pagescan_kernels.h): cancel the kernel at every page
// boundary of the first sweeps, resume each time from the emitted
// checkpoint, and require the resumed scores to be bit-identical to an
// uninterrupted run, with the resumed runs decoding pages ahead on four
// threads — plus buffer-pool backpressure coverage (the same kernel
// under a 1 MiB pool budget on a store far larger than that).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "gtree/store.h"
#include "gtree/stream_build.h"
#include "mining/pagerank.h"
#include "mining/pagescan_kernels.h"
#include "storage/buffer_pool.h"
#include "storage/page_scan.h"
#include "util/string_util.h"

namespace gmine::mining {
namespace {

struct Fixture {
  std::string edges_path;
  std::string store_path;
  std::unique_ptr<gtree::GTreeStore> store;
};

Fixture MakeStreamedStore(const char* name, uint32_t n, uint64_t m,
                          uint32_t leaf_size) {
  Fixture f;
  graph::Graph g = std::move(gen::ErdosRenyiM(n, m, 99)).value();
  std::string lines;
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (const auto& arc : g.Neighbors(u)) {
      if (u < arc.id) lines += StrFormat("%u %u\n", u, arc.id);
    }
  }
  // Per-process names: concurrent runs of this binary never share files.
  const std::string base = StrFormat("%s/%s.%d", ::testing::TempDir().c_str(),
                                     name, static_cast<int>(getpid()));
  f.edges_path = base + ".edges";
  f.store_path = base + ".gtree";
  EXPECT_TRUE(graph::WriteStringToFile(lines, f.edges_path).ok());
  gtree::StreamBuildOptions options;
  options.leaf_size = leaf_size;
  EXPECT_TRUE(gtree::StreamBuildStore(f.edges_path, f.store_path, {},
                                      options, nullptr)
                  .ok());
  f.store = std::move(gtree::GTreeStore::Open(f.store_path)).value();
  return f;
}

void Cleanup(const Fixture& f) {
  std::remove(f.edges_path.c_str());
  std::remove(f.store_path.c_str());
}

TEST(OutOfCoreResumeTest, KillAtEveryPageBoundaryResumesBitIdentical) {
  Fixture f = MakeStreamedStore("oc_kill", 300, 1200, 32);
  auto scan = f.store->NewPageScan();
  ASSERT_TRUE(scan->complete_adjacency());
  const uint64_t pages = scan->pages_total();
  ASSERT_GT(pages, 3u);

  PageRankOverPagesOptions base;
  base.max_iterations = 20;
  base.context.threads = 1;
  auto uninterrupted = PageRankOverPages(*scan, base);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();

  // Kill after k pages for every k within the first two sweeps. The
  // killed and resumed runs read ahead on four threads; their tokens
  // must still name exactly the pages the kernel consumed.
  base.context.threads = 4;
  for (uint64_t kill_after = 1; kill_after <= 2 * pages; ++kill_after) {
    scan->Reset();
    std::string checkpoint;
    uint64_t seen = 0;
    PageRankOverPagesOptions killed = base;
    killed.context.cancelled = [&]() { return seen >= kill_after; };
    killed.context.progress = [&](const KernelProgress& p) {
      seen = p.iteration * pages + p.pages_scanned;
    };
    killed.checkpoint_sink = [&](const std::string& bytes) {
      checkpoint = bytes;
      return Status::OK();
    };
    auto aborted = PageRankOverPages(*scan, killed);
    ASSERT_FALSE(aborted.ok()) << "kill_after=" << kill_after;
    ASSERT_TRUE(aborted.status().IsAborted()) << aborted.status().ToString();
    ASSERT_FALSE(checkpoint.empty()) << "kill_after=" << kill_after;

    scan->Reset();
    PageRankOverPagesOptions resumed = base;
    resumed.resume_from = checkpoint;
    auto result = PageRankOverPages(*scan, resumed);
    ASSERT_TRUE(result.ok())
        << "kill_after=" << kill_after << ": "
        << result.status().ToString();
    ASSERT_EQ(result.value().score.size(),
              uninterrupted.value().score.size());
    for (size_t v = 0; v < result.value().score.size(); ++v) {
      // Bit-identical, not just close: same page order, same float
      // operation sequence.
      EXPECT_EQ(std::memcmp(&result.value().score[v],
                            &uninterrupted.value().score[v],
                            sizeof(double)),
                0)
          << "kill_after=" << kill_after << " node " << v;
    }
    EXPECT_EQ(result.value().iterations, uninterrupted.value().iterations);
    EXPECT_EQ(result.value().converged, uninterrupted.value().converged);
  }
  Cleanup(f);
}

TEST(OutOfCoreResumeTest, PeriodicCheckpointsAlsoResumeExactly) {
  Fixture f = MakeStreamedStore("oc_periodic", 300, 1200, 32);
  auto scan = f.store->NewPageScan();

  PageRankOverPagesOptions base;
  base.max_iterations = 15;
  auto uninterrupted = PageRankOverPages(*scan, base);
  ASSERT_TRUE(uninterrupted.ok());

  scan->Reset();
  std::vector<std::string> checkpoints;
  PageRankOverPagesOptions periodic = base;
  periodic.checkpoint_every_pages = 3;
  periodic.checkpoint_sink = [&](const std::string& bytes) {
    checkpoints.push_back(bytes);
    return Status::OK();
  };
  auto full = PageRankOverPages(*scan, periodic);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(checkpoints.size(), 2u);

  // Resuming from any periodic checkpoint finishes with the same bits.
  for (size_t i = 0; i < checkpoints.size(); i += 5) {
    scan->Reset();
    PageRankOverPagesOptions resumed = base;
    resumed.resume_from = checkpoints[i];
    auto result = PageRankOverPages(*scan, resumed);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().score, uninterrupted.value().score)
        << "checkpoint " << i;
  }
  Cleanup(f);
}

TEST(OutOfCoreResumeTest, CheckpointRejectedOnOptionOrStoreMismatch) {
  Fixture f = MakeStreamedStore("oc_reject", 200, 800, 32);
  auto scan = f.store->NewPageScan();

  std::string checkpoint;
  uint64_t pages_seen = 0;
  PageRankOverPagesOptions killed;
  killed.context.cancelled = [&]() { return pages_seen >= 2; };
  killed.context.progress = [&](const KernelProgress& p) {
    pages_seen = p.pages_scanned;
  };
  killed.checkpoint_sink = [&](const std::string& bytes) {
    checkpoint = bytes;
    return Status::OK();
  };
  ASSERT_TRUE(PageRankOverPages(*scan, killed).status().IsAborted());
  ASSERT_FALSE(checkpoint.empty());

  // Different damping -> different options hash -> rejected.
  scan->Reset();
  PageRankOverPagesOptions wrong_options;
  wrong_options.damping = 0.5;
  wrong_options.resume_from = checkpoint;
  auto r1 = PageRankOverPages(*scan, wrong_options);
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsInvalidArgument()) << r1.status().ToString();

  // Truncated blob -> rejected.
  scan->Reset();
  PageRankOverPagesOptions truncated;
  truncated.resume_from = checkpoint.substr(0, checkpoint.size() / 2);
  auto r2 = PageRankOverPages(*scan, truncated);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsInvalidArgument());

  // A checkpoint minted against a different store -> rejected (the
  // scan token's fingerprint differs).
  Fixture other = MakeStreamedStore("oc_reject_other", 200, 801, 32);
  auto other_scan = other.store->NewPageScan();
  PageRankOverPagesOptions foreign;
  foreign.resume_from = checkpoint;
  auto r3 = PageRankOverPages(*other_scan, foreign);
  ASSERT_FALSE(r3.ok());
  EXPECT_TRUE(r3.status().IsInvalidArgument()) << r3.status().ToString();
  Cleanup(other);
  Cleanup(f);
}

TEST(OutOfCoreResumeTest, KernelRunsUnderOneMebibytePoolBudget) {
  // Backpressure: a 1 MiB pool budget on a store with hundreds of
  // pages. Every page is checked out one at a time, so the kernel
  // completes — and completes correctly — while the pool stays at its
  // budget and keeps evicting.
  storage::BufferPool& pool = storage::BufferPool::Global();
  const uint64_t old_budget = pool.stats().budget_bytes;
  pool.SetBudgetBytes(1 << 20);

  Fixture f = MakeStreamedStore("oc_pressure", 4000, 20000, 16);
  auto scan = f.store->NewPageScan();
  ASSERT_GT(scan->pages_total(), 100u);

  auto pr_pages = PageRankOverPages(*scan);
  ASSERT_TRUE(pr_pages.ok()) << pr_pages.status().ToString();

  auto materialized = f.store->MaterializeFullGraph();
  ASSERT_TRUE(materialized.ok());
  PageRankResult pr_mem = ComputePageRank(materialized.value());
  ASSERT_EQ(pr_pages.value().score.size(), pr_mem.score.size());
  for (size_t v = 0; v < pr_mem.score.size(); ++v) {
    EXPECT_NEAR(pr_pages.value().score[v], pr_mem.score[v], 1e-7);
  }

  const storage::BufferPoolStats stats = pool.stats();
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);
  pool.SetBudgetBytes(old_budget);
  Cleanup(f);
}

}  // namespace
}  // namespace gmine::mining
