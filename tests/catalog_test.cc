// Catalog proofs: directory/manifest discovery, lazy refcounted
// open/close against a private buffer pool (per-store isolation — one
// store's teardown drops exactly its own pages), the one idle store
// kept warm after its last lease (reused without an open, closed when
// another store opens or turns idle, or on CloseIdle), per-store
// session quotas, and a concurrent open/close/navigate hammer across
// four named stores (run it under TSan) that never holds two unleased
// stores open and must end with every store closed and zero sessions
// leaked.

#include "core/catalog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/dblp.h"
#include "gtree/builder.h"
#include "gtree/store.h"
#include "storage/buffer_pool.h"

namespace gmine::core {
namespace {

namespace fs = std::filesystem;

/// Builds a small dblp store file at `path` (seed varies the graph).
void BuildStore(const std::string& path, uint64_t seed) {
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = seed;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  gtree::GTreeBuildOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  gtree::GTree tree =
      std::move(gtree::BuildGTree(dblp.graph, opts)).value();
  auto conn = gtree::ConnectivityIndex::Build(dblp.graph, tree);
  ASSERT_TRUE(gtree::GTreeStore::Create(path, dblp.graph, tree, conn,
                                        dblp.labels)
                  .ok());
}

/// A temp directory holding `n` stores named s0..s{n-1}.
class CatalogDir {
 public:
  explicit CatalogDir(const char* tag, size_t n) {
    dir_ = std::string(::testing::TempDir()) + "/catalog_" + tag;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (size_t i = 0; i < n; ++i) {
      std::string path = dir_ + "/s" + std::to_string(i) + ".gtree";
      BuildStore(path, 17 + i);
      paths_.push_back(std::move(path));
    }
  }
  ~CatalogDir() { fs::remove_all(dir_); }

  const std::string& dir() const { return dir_; }
  const std::string& path(size_t i) const { return paths_[i]; }

 private:
  std::string dir_;
  std::vector<std::string> paths_;
};

TEST(CatalogTest, DirectoryDiscoverySkipsNonStores) {
  CatalogDir d("discover", 3);
  std::ofstream(d.dir() + "/notes.txt") << "not a store\n";
  auto catalog = std::move(Catalog::OpenDirectory(d.dir())).value();
  EXPECT_EQ(catalog->store_names(),
            (std::vector<std::string>{"s0", "s1", "s2"}));
  for (const CatalogStoreInfo& info : catalog->ListStores()) {
    EXPECT_FALSE(info.open);
    EXPECT_EQ(info.live_sessions, 0u);
    EXPECT_EQ(info.quota, 64u);
  }
  CatalogStats stats = catalog->stats();
  EXPECT_EQ(stats.stores, 3u);
  EXPECT_EQ(stats.open_now, 0u);
}

TEST(CatalogTest, EmptyDirectoryIsNotFound) {
  std::string dir = std::string(::testing::TempDir()) + "/catalog_empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_TRUE(Catalog::OpenDirectory(dir).status().IsNotFound());
  EXPECT_TRUE(
      Catalog::OpenDirectory(dir + "/missing").status().IsIOError());
  fs::remove_all(dir);
}

TEST(CatalogTest, LazyOpenAndRefcountedCloseIsolatePoolResidency) {
  CatalogDir d("lazy", 2);
  storage::BufferPool pool;
  CatalogOptions copts;
  copts.store.buffer_pool = &pool;
  auto catalog = std::move(Catalog::OpenDirectory(d.dir(), copts)).value();
  ASSERT_EQ(pool.stats().stores, 0u);

  // First lease opens the store; a second shares it.
  CatalogSession a1 = std::move(catalog->AcquireSession("s0")).value();
  ASSERT_TRUE(a1.valid());
  EXPECT_EQ(a1.store_name(), "s0");
  EXPECT_EQ(pool.stats().stores, 1u);
  CatalogSession a2 = std::move(catalog->AcquireSession("s0")).value();
  CatalogStoreInfo info = std::move(catalog->Info("s0")).value();
  EXPECT_TRUE(info.open);
  EXPECT_EQ(info.live_sessions, 2u);
  EXPECT_GT(info.file_size, 0u);
  EXPECT_GT(info.communities, 1u);
  EXPECT_GT(info.leaves, 0u);
  EXPECT_GT(info.labels, 0u);

  // Pull a leaf through each store so both own resident pages.
  CatalogSession b1 = std::move(catalog->AcquireSession("s1")).value();
  EXPECT_EQ(pool.stats().stores, 2u);
  auto load_leaf = [](gtree::NavigationSession& session) {
    GMINE_RETURN_IF_ERROR(session.FocusRoot());
    GMINE_RETURN_IF_ERROR(session.FocusChild(0));
    GMINE_RETURN_IF_ERROR(session.FocusChild(0));
    return session.LoadFocusSubgraph().status();
  };
  ASSERT_TRUE(a1.With(load_leaf).ok());
  ASSERT_TRUE(b1.With(load_leaf).ok());
  const uint64_t resident_both = pool.stats().resident_bytes;
  EXPECT_GT(resident_both, 0u);

  // Releasing s0's last lease leaves it open and idle: its
  // registration and its pages stay in the pool.
  a1.Release();
  EXPECT_EQ(pool.stats().stores, 2u);  // a2 still holds s0
  a2.Release();
  EXPECT_EQ(pool.stats().stores, 2u);
  EXPECT_EQ(pool.stats().resident_bytes, resident_both);
  info = std::move(catalog->Info("s0")).value();
  EXPECT_TRUE(info.open);
  EXPECT_EQ(info.live_sessions, 0u);
  EXPECT_EQ(catalog->stats().idle_now, 1u);

  // s1 becoming idle closes s0: exactly s0's registration and pages
  // leave the pool, s1's stay.
  b1.Release();
  EXPECT_EQ(pool.stats().stores, 1u);
  const uint64_t resident_s1 = pool.stats().resident_bytes;
  EXPECT_LT(resident_s1, resident_both);
  EXPECT_GT(resident_s1, 0u);
  info = std::move(catalog->Info("s0")).value();
  EXPECT_FALSE(info.open);
  EXPECT_EQ(info.live_sessions, 0u);
  info = std::move(catalog->Info("s1")).value();
  EXPECT_TRUE(info.open);
  EXPECT_EQ(info.live_sessions, 0u);
  EXPECT_EQ(catalog->stats().idle_now, 1u);

  catalog->CloseIdle();
  EXPECT_EQ(pool.stats().stores, 0u);
  EXPECT_EQ(pool.stats().resident_bytes, 0u);
  EXPECT_EQ(pool.stats().pinned_bytes, 0u);

  CatalogStats stats = catalog->stats();
  EXPECT_EQ(stats.open_now, 0u);
  EXPECT_EQ(stats.idle_now, 0u);
  EXPECT_EQ(stats.sessions_now, 0u);
  EXPECT_EQ(stats.opens, 2u);
  EXPECT_EQ(stats.closes, 2u);
  EXPECT_EQ(stats.leases, 3u);
}

/// Focuses the first leaf under the root and loads its page.
Status LoadFirstLeaf(gtree::NavigationSession& session) {
  GMINE_RETURN_IF_ERROR(session.FocusRoot());
  GMINE_RETURN_IF_ERROR(session.FocusChild(0));
  GMINE_RETURN_IF_ERROR(session.FocusChild(0));
  return session.LoadFocusSubgraph().status();
}

TEST(CatalogTest, OpeningAnotherStoreClosesTheIdleOne) {
  CatalogDir d("displace", 3);
  storage::BufferPool pool;
  CatalogOptions copts;
  copts.store.buffer_pool = &pool;
  auto catalog = std::move(Catalog::OpenDirectory(d.dir(), copts)).value();

  CatalogSession held = std::move(catalog->AcquireSession("s1")).value();
  ASSERT_TRUE(held.With(LoadFirstLeaf).ok());
  const uint64_t resident_s1 = pool.stats().resident_bytes;
  CatalogSession a = std::move(catalog->AcquireSession("s0")).value();
  ASSERT_TRUE(a.With(LoadFirstLeaf).ok());
  a.Release();  // s0 idle, pages resident
  EXPECT_EQ(pool.stats().stores, 2u);
  EXPECT_GT(pool.stats().resident_bytes, resident_s1);

  // Opening s2 closes s0 first: exactly s0's registration and pages
  // leave; the leased s1 keeps its own.
  CatalogSession c = std::move(catalog->AcquireSession("s2")).value();
  EXPECT_FALSE(std::move(catalog->Info("s0")).value().open);
  EXPECT_EQ(pool.stats().stores, 2u);  // s1 + s2
  EXPECT_EQ(pool.stats().resident_bytes, resident_s1);
  CatalogStats stats = catalog->stats();
  EXPECT_EQ(stats.open_now, 2u);
  EXPECT_EQ(stats.idle_now, 0u);
  EXPECT_EQ(stats.opens, 3u);
  EXPECT_EQ(stats.closes, 1u);

  held.Release();
  c.Release();  // s2 idle displaces s1
  stats = catalog->stats();
  EXPECT_EQ(stats.open_now, 1u);
  EXPECT_EQ(stats.idle_now, 1u);
  EXPECT_TRUE(std::move(catalog->Info("s2")).value().open);
  catalog->CloseIdle();
  stats = catalog->stats();
  EXPECT_EQ(stats.open_now, 0u);
  EXPECT_EQ(stats.opens, stats.closes);
  EXPECT_EQ(pool.stats().stores, 0u);
  EXPECT_EQ(pool.stats().resident_bytes, 0u);
  EXPECT_EQ(pool.stats().pinned_bytes, 0u);
}

TEST(CatalogTest, LeaseOnTheIdleStoreSkipsTheOpenAndTheDisk) {
  CatalogDir d("warm", 1);
  storage::BufferPool pool;
  CatalogOptions copts;
  copts.store.buffer_pool = &pool;
  auto catalog = std::move(Catalog::OpenDirectory(d.dir(), copts)).value();

  CatalogSession first = std::move(catalog->AcquireSession("s0")).value();
  ASSERT_TRUE(first.With(LoadFirstLeaf).ok());
  first.Release();
  EXPECT_EQ(catalog->stats().opens, 1u);
  const storage::BufferPoolStats cold = pool.stats();
  EXPECT_GT(cold.misses, 0u);

  // The second lease reuses the idle store: no open, and the same leaf
  // comes back from the pool without a single miss.
  CatalogSession second = std::move(catalog->AcquireSession("s0")).value();
  EXPECT_EQ(catalog->stats().opens, 1u);
  EXPECT_EQ(catalog->stats().idle_now, 0u);
  ASSERT_TRUE(second.With(LoadFirstLeaf).ok());
  const storage::BufferPoolStats warm = pool.stats();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.loads, cold.loads);
  EXPECT_GT(warm.hits, cold.hits);
  second.Release();
  EXPECT_EQ(catalog->stats().closes, 0u);
}

TEST(CatalogTest, QuotaCapsConcurrentLeases) {
  CatalogDir d("quota", 1);
  CatalogOptions copts;
  copts.session_quota = 2;
  auto catalog = std::move(Catalog::OpenDirectory(d.dir(), copts)).value();
  CatalogSession a = std::move(catalog->AcquireSession("s0")).value();
  CatalogSession b = std::move(catalog->AcquireSession("s0")).value();
  auto third = catalog->AcquireSession("s0");
  EXPECT_TRUE(third.status().IsAborted()) << third.status().ToString();
  EXPECT_EQ(catalog->stats().quota_rejections, 1u);
  // Releasing one frees a slot.
  b.Release();
  EXPECT_TRUE(catalog->AcquireSession("s0").ok());
}

TEST(CatalogTest, UnknownStoreIsNotFound) {
  CatalogDir d("unknown", 1);
  auto catalog = std::move(Catalog::OpenDirectory(d.dir())).value();
  EXPECT_TRUE(catalog->AcquireSession("nope").status().IsNotFound());
  EXPECT_TRUE(catalog->Info("nope").status().IsNotFound());
}

TEST(CatalogTest, ManifestNamesPathsAndQuotas) {
  CatalogDir d("manifest", 2);
  const std::string manifest = d.dir() + "/stores.manifest";
  {
    std::ofstream out(manifest);
    out << "# the demo fleet\n";
    out << "\n";
    out << "alpha s0.gtree\n";                 // relative to the manifest
    out << "beta " << d.path(1) << " 1\n";     // absolute, quota 1
  }
  CatalogOptions copts;
  copts.session_quota = 8;
  auto catalog =
      std::move(Catalog::OpenManifest(manifest, copts)).value();
  EXPECT_EQ(catalog->store_names(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(std::move(catalog->Info("alpha")).value().quota, 8u);
  EXPECT_EQ(std::move(catalog->Info("beta")).value().quota, 1u);
  CatalogSession a = std::move(catalog->AcquireSession("alpha")).value();
  CatalogSession b = std::move(catalog->AcquireSession("beta")).value();
  EXPECT_TRUE(catalog->AcquireSession("beta").status().IsAborted());
  EXPECT_TRUE(a.With([](gtree::NavigationSession& s) {
                 return s.FocusRoot();
               }).ok());
}

TEST(CatalogTest, ManifestRejectsMalformedLines) {
  CatalogDir d("badmanifest", 1);
  auto write = [&](const char* tag, const std::string& body) {
    std::string path = d.dir() + "/" + tag + ".manifest";
    std::ofstream(path) << body;
    return path;
  };
  EXPECT_TRUE(Catalog::OpenManifest(d.dir() + "/absent.manifest")
                  .status()
                  .IsIOError());
  EXPECT_TRUE(Catalog::OpenManifest(write("noline", "# only comments\n"))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(Catalog::OpenManifest(write("short", "justaname\n"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      Catalog::OpenManifest(write("dup", "a s0.gtree\na s0.gtree\n"))
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      Catalog::OpenManifest(write("quota", "a s0.gtree soon\n"))
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      Catalog::OpenManifest(write("missing", "a nosuch.gtree\n"))
          .status()
          .IsIOError());
  EXPECT_TRUE(
      Catalog::OpenManifest(write("badname", "a/b s0.gtree\n"))
          .status()
          .IsInvalidArgument());
}

TEST(CatalogTest, ReleasedLeaseIsInert) {
  CatalogDir d("release", 1);
  auto catalog = std::move(Catalog::OpenDirectory(d.dir())).value();
  CatalogSession lease = std::move(catalog->AcquireSession("s0")).value();
  EXPECT_TRUE(lease.Touch());
  lease.Release();
  EXPECT_FALSE(lease.valid());
  EXPECT_FALSE(lease.Touch());
  EXPECT_TRUE(lease.With([](gtree::NavigationSession&) {
                   return Status::OK();
                 }).IsNotFound());
  lease.Release();  // idempotent
  EXPECT_EQ(catalog->stats().sessions_now, 0u);
}

// The satellite hammer: concurrent open/close/navigate across four
// named stores through one private buffer pool. Run under TSan. A
// sampler polls stats() throughout: never more than one open store
// without a lease. Ends with zero outstanding sessions and at most the
// idle store open; after CloseIdle every store is closed, the pool is
// empty (leaked=0) and every lazy open is matched by a teardown.
TEST(CatalogTest, ConcurrentOpenCloseNavigateAcrossStores) {
  constexpr size_t kStores = 4;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 400;
  CatalogDir d("hammer", kStores);
  storage::BufferPool pool;
  CatalogOptions copts;
  copts.store.buffer_pool = &pool;
  copts.session_quota = 3;  // keep the quota path hot under contention
  auto catalog = std::move(Catalog::OpenDirectory(d.dir(), copts)).value();

  std::atomic<uint64_t> navigations{0};
  std::atomic<uint64_t> quota_hits{0};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::atomic<size_t> max_idle{0};
  std::atomic<uint64_t> samples{0};
  std::thread sampler([&] {
    while (!done.load()) {
      const CatalogStats s = catalog->stats();
      if (s.idle_now > max_idle.load()) max_idle.store(s.idle_now);
      samples.fetch_add(1);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (size_t i = 0; i < kIters; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::string name =
            "s" + std::to_string((rng >> 33) % kStores);
        auto lease = catalog->AcquireSession(name);
        if (!lease.ok()) {
          if (lease.status().IsAborted()) {
            quota_hits.fetch_add(1);
            continue;
          }
          failures.fetch_add(1);
          continue;
        }
        Status st = lease.value().With([&](gtree::NavigationSession& s) {
          GMINE_RETURN_IF_ERROR(s.FocusRoot());
          GMINE_RETURN_IF_ERROR(s.FocusChild(0));
          GMINE_RETURN_IF_ERROR(s.FocusChild(0));
          GMINE_RETURN_IF_ERROR(s.LoadFocusSubgraph().status());
          navigations.fetch_add(1);
          return Status::OK();
        });
        if (!st.ok()) failures.fetch_add(1);
        // lease releases here: possibly the store's last ref.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  sampler.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(navigations.load(), 0u);
  EXPECT_GT(samples.load(), 0u);
  EXPECT_LE(max_idle.load(), 1u);
  CatalogStats stats = catalog->stats();
  EXPECT_EQ(stats.sessions_now, 0u);
  // Only the idle store may still be open.
  EXPECT_LE(stats.open_now, 1u);
  EXPECT_EQ(stats.idle_now, stats.open_now);
  EXPECT_EQ(stats.opens, stats.closes + stats.open_now);
  EXPECT_EQ(stats.leases, navigations.load());
  EXPECT_EQ(stats.quota_rejections, quota_hits.load());
  catalog->CloseIdle();
  stats = catalog->stats();
  EXPECT_EQ(stats.open_now, 0u);
  EXPECT_EQ(stats.opens, stats.closes);
  // leaked=0: nothing stays registered or resident in the pool.
  storage::BufferPoolStats pstats = pool.stats();
  EXPECT_EQ(pstats.stores, 0u);
  EXPECT_EQ(pstats.resident_bytes, 0u);
  EXPECT_EQ(pstats.pinned_bytes, 0u);
}

}  // namespace
}  // namespace gmine::core
