// Out-of-core PageRank sweep (docs/OUTOFCORE.md): the page-at-a-time
// kernel over a streamed store many times larger than the buffer-pool
// budget it runs under. The paper-facing claim: mining completes on a
// graph that never materializes, the pool's resident set stays at or
// below the configured budget while the store is >= 10x larger, and
// the memory of the mine phase is recorded alongside so the sweep is
// honest about total footprint. peak_rss is the whole process (fixture
// build included); mine_rss is a fresh child process (this binary,
// re-executed with --mine-phase) that only opens the store and runs the
// same PageRank, with base_rss its footprint before it opened anything.
// Feeds the "outofcore_pagerank" entry of BENCH_kernels.json via
// tools/run_benches.sh (columns: budget_bytes, graph_bytes, peak_rss,
// pool_resident_bytes, mine_rss, base_rss, num_nodes, readahead_bytes,
// threads); tools/check_bench_json.sh gates graph_bytes >= 10x
// budget_bytes, pool_resident_bytes <= budget_bytes and the mine-phase
// memory model of docs/OUTOFCORE.md.
//
// The sweep argument is the pool budget in MiB.

#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_common.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "gtree/store.h"
#include "gtree/stream_build.h"
#include "mining/pagescan_kernels.h"
#include "storage/buffer_pool.h"
#include "storage/page_scan.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace {

using namespace gmine;  // NOLINT

/// Large enough that the store file dwarfs the sweep's budgets (the
/// check script gates >= 10x), small enough that the one-time streamed
/// build finishes in seconds.
constexpr uint32_t kNodes = 300000;
constexpr uint64_t kEdges = 1500000;

uint64_t PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

/// A "VmHWM:"/"VmRSS:" line of /proc/self/status, in bytes. Unlike
/// ru_maxrss, which survives fork and exec, VmHWM belongs to the current
/// address space, so an exec'd child starts from its own footprint.
uint64_t ProcStatusBytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      std::sscanf(line + len, "%llu", &kib);
      break;
    }
  }
  std::fclose(f);
  return static_cast<uint64_t>(kib) * 1024;
}

/// PageRank sweeps every measurement runs: a fixed count keeps ns/op
/// stable.
constexpr int kSweeps = 3;

/// What one --mine-phase child measured.
struct MinePhase {
  uint64_t base_rss = 0;  // before the store was opened
  uint64_t mine_rss = 0;  // peak over open + PageRank
  uint64_t num_nodes = 0;
  uint64_t readahead_bytes = 0;  // allowance for the scan's pages
  uint64_t threads = 0;
};

/// The child's side: open `path` on a private pool of `budget_mb`, run
/// the PageRank every benchmark iteration runs, print what it cost.
int RunMinePhase(const char* path, const char* budget_mb) {
  MinePhase m;
  m.base_rss = ProcStatusBytes("VmRSS:");
  storage::BufferPool pool(storage::BufferPoolOptions{
      .budget_bytes = std::strtoull(budget_mb, nullptr, 10) << 20});
  gtree::GTreeStoreOptions sopts;
  sopts.buffer_pool = &pool;
  auto store = gtree::GTreeStore::Open(path, sopts);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  auto scan = store.value()->NewPageScan();
  mining::PageRankOverPagesOptions options;
  options.max_iterations = kSweeps;
  auto r = mining::PageRankOverPages(*scan, options);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  m.mine_rss = ProcStatusBytes("VmHWM:");
  m.num_nodes = scan->num_nodes();
  m.threads = static_cast<uint64_t>(ResolveThreads(options.context.threads));
  // docs/OUTOFCORE.md: a scan holds 2 x threads read-ahead pages, the
  // caller's page and one decoder per participant; each costs at most
  // three times the largest serialized page.
  m.readahead_bytes =
      (3 * m.threads + 1) * 3 * store.value()->max_leaf_page_bytes();
  std::printf("%llu %llu %llu %llu %llu\n",
              static_cast<unsigned long long>(m.base_rss),
              static_cast<unsigned long long>(m.mine_rss),
              static_cast<unsigned long long>(m.num_nodes),
              static_cast<unsigned long long>(m.readahead_bytes),
              static_cast<unsigned long long>(m.threads));
  return 0;
}

/// The parent's side: re-executes this binary as a --mine-phase child
/// so the fixture build and the benchmark's own pages stay out of the
/// measurement.
MinePhase MeasureMinePhase(const std::string& path, uint64_t budget_mb) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("bench_outofcore: pipe");
    std::exit(1);
  }
  const std::string budget = std::to_string(budget_mb);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execl("/proc/self/exe", "bench_outofcore", "--mine-phase", path.c_str(),
          budget.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t got;
  while ((got = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, got);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  MinePhase m;
  unsigned long long v[5] = {0, 0, 0, 0, 0};
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "%llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4]) != 5) {
    std::fprintf(stderr, "bench_outofcore: mine-phase child failed\n");
    std::exit(1);
  }
  m.base_rss = v[0];
  m.mine_rss = v[1];
  m.num_nodes = v[2];
  m.readahead_bytes = v[3];
  m.threads = v[4];
  return m;
}

/// Builds the streamed store once per process and reports its size.
const std::string& StorePath() {
  static std::string* path = [] {
    auto* out = new std::string("/tmp/gmine_bm_outofcore.gtree");
    const std::string edges = "/tmp/gmine_bm_outofcore.edges";
    graph::Graph g = std::move(gen::ErdosRenyiM(kNodes, kEdges, 4242)).value();
    std::string lines;
    lines.reserve(kEdges * 14);
    for (uint32_t u = 0; u < g.num_nodes(); ++u) {
      for (const auto& arc : g.Neighbors(u)) {
        if (u < arc.id) lines += StrFormat("%u %u\n", u, arc.id);
      }
    }
    if (!graph::WriteStringToFile(lines, edges).ok()) {
      std::fprintf(stderr, "bench_outofcore: cannot write %s\n",
                   edges.c_str());
      std::exit(1);
    }
    gtree::StreamBuildOptions options;
    Status st = gtree::StreamBuildStore(edges, *out, {}, options, nullptr);
    std::remove(edges.c_str());
    if (!st.ok()) {
      std::fprintf(stderr, "bench_outofcore: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    return out;
  }();
  return *path;
}

void BM_OutOfCorePageRank(benchmark::State& state) {
  const uint64_t budget_bytes = static_cast<uint64_t>(state.range(0)) << 20;
  const uint64_t graph_bytes = std::filesystem::file_size(StorePath());

  storage::BufferPool pool(
      storage::BufferPoolOptions{.budget_bytes = budget_bytes});
  gtree::GTreeStoreOptions sopts;
  sopts.buffer_pool = &pool;
  auto store = gtree::GTreeStore::Open(StorePath(), sopts);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  auto scan = store.value()->NewPageScan();

  uint64_t pool_resident_peak = 0;
  for (auto _ : state) {
    scan->Reset();
    mining::PageRankOverPagesOptions options;
    options.max_iterations = kSweeps;
    auto r = mining::PageRankOverPages(*scan, options);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    benchmark::DoNotOptimize(r.value().score.data());
    pool_resident_peak =
        std::max(pool_resident_peak, pool.stats().resident_bytes);
  }
  state.counters["budget_bytes"] = static_cast<double>(budget_bytes);
  state.counters["graph_bytes"] = static_cast<double>(graph_bytes);
  state.counters["peak_rss"] = static_cast<double>(PeakRssBytes());
  state.counters["pool_resident_bytes"] =
      static_cast<double>(pool_resident_peak);
  const MinePhase m = MeasureMinePhase(StorePath(), state.range(0));
  state.counters["mine_rss"] = static_cast<double>(m.mine_rss);
  state.counters["base_rss"] = static_cast<double>(m.base_rss);
  state.counters["num_nodes"] = static_cast<double>(m.num_nodes);
  state.counters["readahead_bytes"] = static_cast<double>(m.readahead_bytes);
  state.counters["threads"] = static_cast<double>(m.threads);
}

BENCHMARK(BM_OutOfCorePageRank)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Paper-facing report: one line per budget proving the store-to-budget
/// ratio and the bounded resident set.
void PrintReport() {
  const uint64_t graph_bytes = std::filesystem::file_size(StorePath());
  std::printf("out-of-core PageRank: store %.1f MiB, %u nodes, "
              "%llu edges\n",
              graph_bytes / (1024.0 * 1024.0), kNodes,
              static_cast<unsigned long long>(kEdges));
  for (uint64_t budget_mb : {1, 2}) {
    storage::BufferPool pool(storage::BufferPoolOptions{
        .budget_bytes = budget_mb << 20});
    gtree::GTreeStoreOptions sopts;
    sopts.buffer_pool = &pool;
    auto store = gtree::GTreeStore::Open(StorePath(), sopts);
    if (!store.ok()) return;
    auto scan = store.value()->NewPageScan();
    mining::PageRankOverPagesOptions options;
    options.max_iterations = kSweeps;
    auto r = mining::PageRankOverPages(*scan, options);
    if (!r.ok()) return;
    const auto stats = pool.stats();
    const MinePhase m = MeasureMinePhase(StorePath(), budget_mb);
    std::printf("  budget %llu MiB: ratio %.1fx, pool resident "
                "%llu bytes (<= budget), mine-phase RSS %.1f MiB "
                "(%.1f MiB before the store opened, %llu threads)\n",
                static_cast<unsigned long long>(budget_mb),
                static_cast<double>(graph_bytes) / (budget_mb << 20),
                static_cast<unsigned long long>(stats.resident_bytes),
                m.mine_rss / (1024.0 * 1024.0),
                m.base_rss / (1024.0 * 1024.0),
                static_cast<unsigned long long>(m.threads));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--mine-phase") {
    return RunMinePhase(argv[2], argv[3]);
  }
  if (gmine::bench::ShouldPrintReport()) PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::remove(StorePath().c_str());
  return 0;
}
