// perfbench_driver: one run of one workload of the GMine analyst
// benchmark (perfbench/README.md).
//
//   perfbench_driver --workload navigate|mixed_analyst|rest_analyst|
//                    outofcore_mine|edit_navigate --seed N --seconds S
//                    --trace 0|1 --gmine PATH --work DIR [--trace-dir DIR]
//                    [--scale paper|smoke]
//
// Set-up generates the seeded surrogate graph, builds the stores the
// workload serves and starts the real server (`gmine gateway` or
// `gmine server`); the load then runs from this process over loopback.
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics. The exit code is
// non-zero when any output check fails.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <thread>

#include "core/engine.h"
#include "driver.h"
#include "http/client.h"
#include "net/client.h"
#include "query/executor.h"
#include "storage/buffer_pool.h"
#include "util/string_util.h"

namespace fs = std::filesystem;

namespace perfbench {

using gmine::StrFormat;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kNavigate: return "navigate";
    case Workload::kMixed: return "mixed_analyst";
    case Workload::kOutOfCore: return "outofcore_mine";
    case Workload::kEdit: return "edit_navigate";
    case Workload::kRest: return "rest_analyst";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kNavigate, Workload::kMixed,
                     Workload::kOutOfCore, Workload::kEdit,
                     Workload::kRest}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

uint64_t BudgetMb(Workload w) { return w == Workload::kOutOfCore ? 2 : 64; }

namespace {

// ------------------------------------------------------------------ setup

bool Run(const Config& cfg, const std::vector<std::string>& argv,
         const std::string& log, double* seconds, std::string* output,
         std::string* error) {
  const int64_t t0 = NowNs();
  const int rc = RunCommand(argv, cfg.work + "/" + log, output, 600000);
  if (seconds != nullptr) *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (rc != 0) {
    *error = StrFormat("%s exited %d (see %s/%s)", argv[1].c_str(), rc,
                       cfg.work.c_str(), log.c_str());
    return false;
  }
  return true;
}

/// "spilled=1.5 MB" from the stream builder's report, in bytes.
double ParseSpilled(const std::string& report) {
  const size_t at = report.find("spilled=");
  if (at == std::string::npos) return 0;
  char unit[8] = {0};
  double value = 0;
  if (std::sscanf(report.c_str() + at + 8, "%lf %7s", &value, unit) < 1) {
    return 0;
  }
  const std::string u = unit;
  const double scale = u == "KB" ? 1024.0
                       : u == "MB" ? 1048576.0
                       : u == "GB" ? 1073741824.0
                                   : 1.0;
  return value * scale;
}

bool WaitReady(const Config& cfg, Setup* s, std::string* error) {
  const std::string port_file = cfg.work + "/port";
  const int64_t deadline = NowNs() + int64_t{120} * 1000000000;
  while (NowNs() < deadline) {
    std::string text;
    if (ReadFile(port_file, &text) && !text.empty()) {
      s->port = static_cast<uint16_t>(std::atoi(text.c_str()));
      break;
    }
    if (s->server.Wait(0) != -2) {  // exited (and was reaped)
      *error = "server exited during start-up (see " + cfg.work +
               "/server.log)";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (s->port == 0) {
    *error = "server did not publish a port";
    return false;
  }
  // Ready means answering: one round trip on the serving path.
  if (cfg.workload == Workload::kEdit) {
    gmine::net::Client client;
    auto st = client.Connect("127.0.0.1", s->port, 20000);
    auto pong = st.ok() ? client.Roundtrip("ping")
                        : gmine::Result<gmine::net::ClientResponse>(st);
    if (!pong.ok() || !pong.value().ok) {
      *error = "server not answering ping";
      return false;
    }
    (void)client.Roundtrip("close");
  } else {
    gmine::http::GatewayClient client;
    auto st = client.Connect("127.0.0.1", s->port);
    auto stats = st.ok() ? client.Request("GET", "/stats")
                         : gmine::Result<gmine::http::HttpClientResponse>(st);
    if (!stats.ok() || stats.value().status != 200) {
      *error = "gateway not answering /stats";
      return false;
    }
  }
  return true;
}

bool DoSetup(const Config& cfg, Setup* s, std::string* error) {
  std::error_code ec;
  const std::string prefix = cfg.work + "/graph";
  const bool edit = cfg.workload == Workload::kEdit;
  s->store_dir = cfg.work + (edit ? "/edit" : "/stores");
  fs::create_directories(s->store_dir, ec);
  s->nav_store = s->store_dir + "/paper.gtree";
  const std::string graph_seed =
      std::to_string(StreamSeed(cfg.seed, 0) % 1000000007ull);

  const int64_t t0 = NowNs();
  if (!Run(cfg,
           {cfg.gmine, "generate", "--out", prefix, "--levels",
            std::to_string(cfg.scale.levels), "--fanout",
            std::to_string(cfg.scale.fanout), "--leaf-size",
            std::to_string(cfg.scale.leaf), "--seed", graph_seed},
           "generate.log", &s->generate_s, nullptr, error)) {
    return false;
  }
  if (cfg.workload == Workload::kOutOfCore) {
    std::string report;
    if (!Run(cfg,
             {cfg.gmine, "build", "--stream", "--graph", prefix + ".edges",
              "--labels", prefix + ".labels", "--out", s->nav_store},
             "build.log", &s->stream_build_s, &report, error)) {
      return false;
    }
    s->spilled_bytes = ParseSpilled(report);
  } else {
    if (!Run(cfg,
             {cfg.gmine, "build", "--graph", prefix + ".edges", "--labels",
              prefix + ".labels", "--out", s->nav_store, "--levels",
              std::to_string(cfg.scale.levels), "--fanout",
              std::to_string(cfg.scale.fanout), "--shards", "0"},
             "build.log", &s->build_s, nullptr, error)) {
      return false;
    }
  }
  if (cfg.workload == Workload::kMixed) {
    // A second catalog entry no navigator leases: every REST request
    // pays the catalog's lazy open and close.
    s->rest_store = s->store_dir + "/paper_rest.gtree";
    fs::copy_file(s->nav_store, s->rest_store,
                  fs::copy_options::overwrite_existing, ec);
  } else if (cfg.workload == Workload::kRest) {
    // No navigator leases the only store either, so every REST request
    // pays the same open and close.
    s->rest_store = s->nav_store;
  }
  if (edit && cfg.trace) {
    fs::create_directories(cfg.work + "/replay", ec);
    s->replay_store = cfg.work + "/replay/paper.gtree";
    fs::copy_file(s->nav_store, s->replay_store,
                  fs::copy_options::overwrite_existing, ec);
  }
  if (ec) {
    *error = "copy: " + ec.message();
    return false;
  }
  // A port file or WAL left by an earlier run in the same directory would
  // point at a server that is gone, or replay old edits.
  fs::remove(cfg.work + "/port", ec);
  fs::remove(s->nav_store + ".wal", ec);
  std::vector<std::string> argv;
  if (edit) {
    argv = {cfg.gmine, "server", s->nav_store, "--port", "0", "--port-file",
            cfg.work + "/port", "--writable", "on", "--wal", "on"};
  } else {
    argv = {cfg.gmine, "gateway", s->store_dir, "--port", "0",
            "--port-file", cfg.work + "/port", "--mem-budget-mb",
            std::to_string(BudgetMb(cfg.workload))};
  }
  if (!s->server.Start(argv, cfg.work + "/server.log")) {
    *error = "cannot start the server";
    return false;
  }
  if (!WaitReady(cfg, s, error)) return false;
  s->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

/// Stops the server; returns false (with `why`) when it had already
/// died on its own during the run.
bool StopServer(const Config& cfg, Setup* s, std::string* why) {
  const int early = s->server.Wait(0);
  if (early != -2) {
    *why = StrFormat("server died during the run (status %d)", early);
    return false;
  }
  if (cfg.workload == Workload::kEdit) {
    // A crash, not a shutdown: durability is checked on what SIGKILL
    // leaves behind.
    s->server.Kill(SIGKILL);
    return true;
  }
  gmine::http::GatewayClient client;
  if (client.Connect("127.0.0.1", s->port).ok()) {
    (void)client.Request("POST", "/api/v1/shutdown");
  }
  client.Close();
  if (s->server.Wait(15000) == -2) s->server.Kill(SIGKILL);
  return true;
}

// ----------------------------------------------------------------- checks

/// GQL rows the REST client sampled must equal an in-process executor's
/// answer on the same store.
uint64_t CheckGqlSamples(const Setup& setup, const PhaseResult& phase,
                         std::vector<std::string>* problems) {
  uint64_t bad = 0;
  auto store = gmine::gtree::GTreeStore::Open(setup.rest_store);
  if (!store.ok()) {
    problems->push_back("reference store: " + store.status().ToString());
    return 1;
  }
  gmine::query::Executor exec(store.value().get());
  for (const ClientResult& c : phase.clients) {
    for (const auto& [statement, body] : c.gql_samples) {
      auto want = exec.ExecuteText(statement);
      const std::string expect =
          want.ok() ? gmine::query::ResultToJson(want.value()) + "\n"
                    : want.status().ToString();
      if (expect != body) {
        ++bad;
        if (problems->size() < 16) {
          problems->push_back("GQL mismatch: " + statement);
        }
      }
    }
  }
  return bad;
}

/// Every acked edit must survive a SIGKILL: reopen with WAL replay and
/// compare edge presence, node count and added labels.
uint64_t CheckDurability(const Setup& setup, uint32_t base_nodes,
                         const std::vector<const EditBatch*>& acked,
                         std::vector<std::string>* problems) {
  gmine::core::EngineOptions options;
  options.wal.enabled = true;
  auto engine = gmine::core::GMineEngine::Open(setup.nav_store, options);
  if (!engine.ok()) {
    problems->push_back("reopen after kill: " + engine.status().ToString());
    return 1;
  }
  auto g = engine.value()->full_graph();
  if (!g.ok()) {
    problems->push_back("recovered graph: " + g.status().ToString());
    return 1;
  }
  std::map<std::pair<uint32_t, uint32_t>, bool> edges;
  uint32_t nodes = base_nodes;
  uint64_t bad = 0;
  for (const EditBatch* batch : acked) {
    for (const auto& [edge, present] : batch->edges) edges[edge] = present;
    for (size_t i = 0; i < batch->added_ids.size(); ++i) {
      ++nodes;
      if (engine.value()->labels().Label(batch->added_ids[i]) !=
          batch->added_labels[i]) {
        ++bad;
        problems->push_back("lost label " + batch->added_labels[i]);
      }
    }
  }
  if (g.value()->num_nodes() != nodes) {
    ++bad;
    problems->push_back(StrFormat("recovered %u nodes, acked %u",
                                  g.value()->num_nodes(), nodes));
  }
  for (const auto& [edge, present] : edges) {
    const bool has = edge.second < g.value()->num_nodes() &&
                     g.value()->HasEdge(edge.first, edge.second);
    if (has != present) {
      ++bad;
      if (problems->size() < 16) {
        problems->push_back(StrFormat("edge %u-%u %s after recovery",
                                      edge.first, edge.second,
                                      has ? "present" : "missing"));
      }
    }
  }
  return bad;
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  double percentile = 0;  // 0 = not a percentile
  bool qualified = true;
  int slices = 0;  // > 0: median over that many slices of the window
  double slice_min = 0, slice_max = 0;
};

Samples GatherSamples(const PhaseResult& p, Samples ClientResult::*field) {
  Samples out;
  for (const ClientResult& c : p.clients) {
    const Samples& s = c.*field;
    out.value.insert(out.value.end(), s.value.begin(), s.value.end());
    out.end_ns.insert(out.end_ns.end(), s.end_ns.begin(), s.end_ns.end());
  }
  return out;
}

std::vector<double> Gather(const PhaseResult& p,
                           Samples ClientResult::*field) {
  return GatherSamples(p, field).value;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Metric Pct(const std::string& name, const std::string& unit,
           const std::vector<double>& samples, double want) {
  const Percentile p = SelectPercentile(samples, want);
  return Metric{name, p.value, unit, p.samples, p.percentile, p.qualified};
}

// On a shared 4-core VM the CPU speed can drift by ±20% within seconds
// (a fixed single-thread loop varied that much; README.md). Where every
// tenth of the window holds enough samples, a metric is taken in each
// tenth and the median over the ten is reported, so a burst of noise
// from other tenants moves it less.
constexpr int kSlices = 10;

/// Splits `s` by completion time into kSlices equal slices of the
/// phase's window.
std::vector<std::vector<double>> Slice(const Samples& s,
                                       const PhaseResult& p) {
  std::vector<std::vector<double>> slices(kSlices);
  const double width =
      static_cast<double>(p.window_end_ns - p.window_start_ns) / kSlices;
  for (size_t i = 0; i < s.value.size(); ++i) {
    const int k = static_cast<int>(
        static_cast<double>(s.end_ns[i] - p.window_start_ns) / width);
    slices[static_cast<size_t>(std::clamp(k, 0, kSlices - 1))].push_back(
        s.value[i]);
  }
  return slices;
}

/// Percentile `want` of `s`: the median of the per-slice percentiles
/// when every slice has 10 samples beyond it (and at least 100 samples),
/// the whole window's otherwise.
Metric WindowedPct(const std::string& name, const std::string& unit,
                   const Samples& s, double want, const PhaseResult& p) {
  const size_t need = std::max<size_t>(
      100, static_cast<size_t>(std::ceil(10.0 / (1.0 - want / 100.0))) + 1);
  std::vector<double> per_slice;
  for (const auto& slice : Slice(s, p)) {
    if (slice.size() < need) return Pct(name, unit, s.value, want);
    per_slice.push_back(SelectPercentile(slice, want).value);
  }
  Metric m{name, Median(per_slice), unit, s.value.size(), want, true};
  m.slice_min = *std::min_element(per_slice.begin(), per_slice.end());
  m.slice_max = *std::max_element(per_slice.begin(), per_slice.end());
  m.slices = kSlices;
  return m;
}

void PrintMetric(const Metric& m) {
  if (m.samples == 0) {  // a per-layer figure: no sample count to show
    std::printf("  %-44s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    return;
  }
  std::string extra = StrFormat(" (n=%zu", m.samples);
  if (m.percentile > 0) {
    extra += StrFormat(", p%g", m.percentile);
    if (!m.qualified) extra += ", <10 samples beyond";
  }
  if (m.slices > 0) {
    extra += StrFormat(", median of %d slices %.4g..%.4g", m.slices,
                       m.slice_min, m.slice_max);
  }
  std::printf("  %-44s %14.6g %-6s%s)\n", m.name.c_str(), m.value,
              m.unit.c_str(), extra.c_str());
}

/// The measured share of each op class among the phase's completed
/// in-window ops, so the traffic behind the latencies is shown, not
/// assumed.
void PrintOpMix(const PhaseResult& p) {
  std::map<std::string, uint64_t> count;
  uint64_t total = 0;
  for (const ClientResult& c : p.clients) {
    for (const auto& [cls, sum] : c.by_class) {
      count[cls] += sum.second;
      total += sum.second;
    }
  }
  if (total == 0) return;
  std::printf("op mix (n=%llu):", static_cast<unsigned long long>(total));
  for (const auto& [cls, n] : count) {
    std::printf(" %s=%.1f%%", cls.c_str(),
                100.0 * static_cast<double>(n) / static_cast<double>(total));
  }
  std::printf("\n");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  return StrFormat("%.17g", v);
}

/// Per-layer metrics in a fixed order, with units; a layer the
/// workload never exercises reports 0.
const std::vector<std::pair<std::string, std::string>>& LayerTable() {
  static const std::vector<std::pair<std::string, std::string>> kTable = {
      {"http.ws_op_service_us", "us"},
      {"http.ws_transport_us", "us"},
      {"http.rest_service_ms", "ms"},
      {"http.rest_service_max_ms", "ms"},
      {"http.frame_codec_ns", "ns"},
      {"http.request_parse_ns", "ns"},
      {"http.jobs.queue_wait_ms", "ms"},
      {"net.service_us", "us"},
      {"net.transport_us", "us"},
      {"net.errors", "count"},
      {"core.catalog.opens_per_request", "ratio"},
      {"core.catalog.acquire_cold_ms", "ms"},
      {"core.catalog.release_last_ms", "ms"},
      {"core.session.wait_us.p50", "us"},
      {"core.session.wait_us.p99", "us"},
      {"core.views.render_svg_us", "us"},
      {"core.edit_queue.ops_per_group", "ratio"},
      {"core.edit_queue.rejected", "count"},
      {"core.engine.apply_ms.intra_leaf", "ms"},
      {"core.engine.apply_ms.cross_leaf", "ms"},
      {"core.engine.apply_ms.add_node", "ms"},
      {"gtree.navigation.op_us.child", "us"},
      {"gtree.navigation.op_us.parent", "us"},
      {"gtree.navigation.op_us.root", "us"},
      {"gtree.navigation.op_us.locate", "us"},
      {"gtree.navigation.op_us.load", "us"},
      {"gtree.navigation.op_us.summary", "us"},
      {"gtree.navigation.op_us.connectivity", "us"},
      {"gtree.store.open_ms", "ms"},
      {"gtree.store.materialize_ms", "ms"},
      {"gtree.store.leaf_hit_us", "us"},
      {"gtree.store.leaf_miss_us", "us"},
      {"gtree.store.compactions_per_1k_edits", "ratio"},
      {"gtree.store.compaction_ms", "ms"},
      {"gtree.store.bytes_written_per_edit_byte", "ratio"},
      {"gtree.edit_repair.pages_invalidated_per_group", "ratio"},
      {"gtree.builder.build_s", "s"},
      {"gtree.stream_build.build_s", "s"},
      {"storage.extsort.spilled_bytes", "bytes"},
      {"gen.generate_s", "s"},
      {"storage.buffer_pool.hit_rate", "ratio"},
      {"storage.buffer_pool.misses_per_op", "ratio"},
      {"storage.buffer_pool.evictions_per_op", "ratio"},
      {"storage.buffer_pool.bypasses", "count"},
      {"storage.buffer_pool.backpressure", "count"},
      {"storage.buffer_pool.resident_peak_bytes", "bytes"},
      {"storage.wal.syncs_per_ack", "ratio"},
      {"storage.wal.bytes_per_edit_op", "bytes"},
      {"storage.wal.sync_ms", "ms"},
      {"query.parse_us", "us"},
      {"query.plan_us", "us"},
      {"query.execute_us", "us"},
      {"query.pages_scanned_ratio", "ratio"},
      {"query.rows_scanned_per_output", "ratio"},
      {"csg.extract_ms", "ms"},
      {"csg.rwr_ms", "ms"},
      {"mining.pagerank_ms", "ms"},
      {"mining.pagerank_iterations", "count"},
      {"mining.pages_per_s", "1/s"},
      {"mining.cpu_util", "ratio"},
      {"mining.degrees_ms", "ms"},
      {"mining.components_ms", "ms"},
      {"proc.server_cpu_us_per_op", "us"},
      {"proc.server_cpu_util", "ratio"},
      {"proc.driver_cpu_util", "ratio"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kTable;
}

/// The workloads BENCHMARK.json runs. mixed_analyst (not steady) and
/// edit_navigate (fails at this commit) stay runnable; README.md says why
/// they are left out.
bool GatedWorkload(Workload w) {
  return w == Workload::kNavigate || w == Workload::kOutOfCore ||
         w == Workload::kRest;
}

/// Layers only the ungated workloads exercise (edit_navigate's write
/// path; the stream builder's spill, which is 0 at this scale). The gated
/// workloads leave them out of their result line instead of reporting a
/// constant 0.
bool UngatedLayer(const std::string& name) {
  for (const char* prefix :
       {"net.", "core.edit_queue.", "core.engine.", "storage.wal.",
        "gtree.edit_repair.", "gtree.store.compaction",
        "gtree.store.bytes_written", "storage.extsort."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Layer metrics measured on the served system during a phase.
void NetworkLayers(const Config& cfg, const PhaseResult& p,
                   std::map<std::string, double>* m) {
  const double window_s = static_cast<double>(p.end.at_ns - p.begin.at_ns) / 1e9;
  uint64_t ops = 0;
  for (const ClientResult& c : p.clients) ops += c.done_ns.size();
  const double cpu = p.end.server.cpu_s - p.begin.server.cpu_s;
  (*m)["proc.server_cpu_us_per_op"] =
      ops > 0 ? cpu * 1e6 / static_cast<double>(ops) : 0;
  (*m)["proc.server_cpu_util"] = window_s > 0 ? cpu / window_s : 0;
  (*m)["proc.driver_cpu_util"] =
      window_s > 0 ? (p.end.driver.cpu_s - p.begin.driver.cpu_s) / window_s
                   : 0;
  const double client_nav_us = Mean(Gather(p, &ClientResult::nav_ms)) * 1e3;
  if (cfg.workload == Workload::kEdit) {
    auto d = [&](const std::string& key) {
      auto a = p.begin.net.find(key), b = p.end.net.find(key);
      return (b == p.end.net.end() ? 0 : b->second) -
             (a == p.begin.net.end() ? 0 : a->second);
    };
    auto at = [](const std::map<std::string, double>& s, const char* k) {
      auto it = s.find(k);
      return it == s.end() ? 0.0 : it->second;
    };
    const double requests = d("server.requests");
    const double busy_us =
        at(p.end.net, "server.latency_avg_us") * at(p.end.net, "server.requests") -
        at(p.begin.net, "server.latency_avg_us") *
            at(p.begin.net, "server.requests");
    const double service = requests > 0 ? busy_us / requests : 0;
    double client_sum = 0, client_n = 0;
    for (const ClientResult& c : p.clients) {
      for (const auto& [cls, sum] : c.by_class) {
        client_sum += sum.first * 1e3;
        client_n += static_cast<double>(sum.second);
      }
    }
    (*m)["net.service_us"] = service;
    (*m)["net.transport_us"] = client_n > 0 ? client_sum / client_n - service : 0;
    (*m)["net.errors"] = d("server.errors");
    const ClientResult& writer = p.clients.back();
    (*m)["core.edit_queue.ops_per_group"] =
        writer.edit_groups > 0
            ? static_cast<double>(writer.edit_ops) / writer.edit_groups
            : 0;
    (*m)["core.edit_queue.rejected"] = static_cast<double>(writer.tally.failed);
    const double grown =
        std::max(0.0, static_cast<double>(p.end.store_bytes) -
                          static_cast<double>(p.begin.store_bytes)) +
        (static_cast<double>(p.end.wal_bytes) -
         static_cast<double>(p.begin.wal_bytes));
    (*m)["gtree.store.bytes_written_per_edit_byte"] =
        writer.edit_script_bytes > 0
            ? grown / static_cast<double>(writer.edit_script_bytes)
            : 0;
    return;
  }
  const auto e0 = StatsEndpoints(p.begin.gateway);
  const auto e1 = StatsEndpoints(p.end.gateway);
  auto delta = [&](const std::string& ep, double EndpointCounters::*f) {
    auto a = e0.find(ep), b = e1.find(ep);
    return (b == e1.end() ? 0 : b->second.*f) - (a == e0.end() ? 0 : a->second.*f);
  };
  const double ws_n = delta("ws-op", &EndpointCounters::count);
  const double ws_us = ws_n > 0 ? delta("ws-op", &EndpointCounters::total_micros) / ws_n : 0;
  (*m)["http.ws_op_service_us"] = ws_us;
  (*m)["http.ws_transport_us"] = ws_n > 0 ? client_nav_us - ws_us : 0;
  double rest_n = 0, rest_us = 0, rest_max = 0;
  for (const char* ep : {"query", "summary", "render-svg"}) {
    rest_n += delta(ep, &EndpointCounters::count);
    rest_us += delta(ep, &EndpointCounters::total_micros);
    auto it = e1.find(ep);
    if (it != e1.end()) rest_max = std::max(rest_max, it->second.max_micros);
  }
  (*m)["http.rest_service_ms"] = rest_n > 0 ? rest_us / rest_n / 1e3 : 0;
  (*m)["http.rest_service_max_ms"] = rest_max / 1e3;
  const double opens =
      p.end.gateway.Path("catalog.opens") - p.begin.gateway.Path("catalog.opens");
  (*m)["core.catalog.opens_per_request"] = rest_n > 0 ? opens / rest_n : 0;
  (*m)["http.jobs.queue_wait_ms"] = Mean(Gather(p, &ClientResult::queue_wait_ms));
}

int Main(int argc, char** argv) {
  Config cfg;
  std::string workload, trace_dir, scale = "paper";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") cfg.seconds = std::atof(value.c_str());
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--gmine") cfg.gmine = value;
    else if (flag == "--work") cfg.work = value;
    else if (flag == "--trace-dir") trace_dir = value;
    else if (flag == "--scale") scale = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!ParseWorkload(workload, &cfg.workload) || cfg.gmine.empty() ||
      cfg.work.empty() || cfg.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --gmine PATH --work DIR\n");
    return 2;
  }
  if (scale == "smoke") {
    cfg.scale = Scale{2, 4, 30, 0.2, 200, 3, 6};
  } else if (scale != "paper") {
    std::fprintf(stderr, "--scale expects paper or smoke\n");
    return 2;
  }

  Setup setup;
  std::string error;
  if (!DoSetup(cfg, &setup, &error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return 3;
  }
  gmine::storage::BufferPool::Global().SetBudgetBytes(BudgetMb(cfg.workload) << 20);
  auto ref = gmine::gtree::GTreeStore::Open(setup.nav_store);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference store: %s\n", ref.status().ToString().c_str());
    return 3;
  }
  const uint32_t base_nodes = ref.value()->num_graph_nodes();
  EditStream writer(&ref.value()->tree(), base_nodes, ClientSeed(cfg, 1, 3));
  std::vector<uint32_t> csg_authors;
  if (cfg.workload == Workload::kMixed || cfg.workload == Workload::kRest) {
    csg_authors = CsgAuthors(*ref.value(), &error);
    if (!error.empty()) {
      std::fprintf(stderr, "reference store: %s\n", error.c_str());
      return 3;
    }
  }

  // Untraced runs measure one phase. The traced run measures half the
  // time untraced and half with client spans, to price the tracing.
  std::vector<PhaseResult> phases;
  if (cfg.trace) {
    phases.push_back(RunPhase(cfg, setup, *ref.value(), csg_authors,
                              cfg.seconds / 2, false, 1, &writer));
    phases.push_back(RunPhase(cfg, setup, *ref.value(), csg_authors,
                              cfg.seconds / 2, true, 2, &writer));
  } else {
    phases.push_back(RunPhase(cfg, setup, *ref.value(), csg_authors,
                              cfg.seconds, false, 1, &writer));
  }
  const ProcSample server_proc = ReadProc(setup.server.pid());
  std::string server_death;
  const bool server_ok = StopServer(cfg, &setup, &server_death);
  ref.value().reset();

  // ------------------------------------------------------------ checks
  Tally tally;
  std::vector<std::string> problems;
  for (const PhaseResult& p : phases) {
    for (const ClientResult& c : p.clients) {
      tally.Merge(c.tally);
      for (const std::string& s : c.problems) problems.push_back(s);
    }
  }
  uint64_t wrong = 0;
  const bool rest = cfg.workload == Workload::kMixed ||
                    cfg.workload == Workload::kRest;
  if (rest) {
    for (const PhaseResult& p : phases) wrong += CheckGqlSamples(setup, p, &problems);
  }
  if (cfg.workload == Workload::kEdit) {
    std::vector<const EditBatch*> acked;
    for (const PhaseResult& p : phases) {
      for (const EditBatch& b : p.clients.back().acked) acked.push_back(&b);
    }
    wrong += CheckDurability(setup, base_nodes, acked, &problems);
  }
  ReplayResult replay;
  if (cfg.trace) replay = RunReplay(cfg, setup, 2);
  if (cfg.workload == Workload::kOutOfCore) {
    std::vector<std::string> results;
    for (const PhaseResult& p : phases) {
      for (const ClientResult& c : p.clients) {
        results.insert(results.end(), c.pagerank_results.begin(),
                       c.pagerank_results.end());
      }
    }
    if (!results.empty()) {
      std::string expect = replay.pagerank_top;
      if (expect.empty()) {
        std::string err;
        expect = PageRankTop(setup.nav_store, BudgetMb(cfg.workload), &err);
        if (!err.empty()) problems.push_back("in-process pagerank: " + err);
      }
      for (const std::string& got : results) {
        if (got != expect) {
          ++wrong;
          problems.push_back("pagerank top-k differs: " + got.substr(0, 120) +
                             " vs " + expect.substr(0, 120));
        }
      }
    }
  }
  for (const std::string& p : replay.problems) problems.push_back("replay: " + p);
  tally.failed += wrong;
  if (!server_ok) problems.insert(problems.begin(), server_death);
  const bool correct =
      server_ok && tally.failed == 0 && replay.problems.empty();

  // ------------------------------------------------------------ report
  const PhaseResult& main_phase = phases.front();
  // Each workload's signature request: the op class its fourth client
  // (or, on navigate, its heaviest op; on rest_analyst, its heaviest
  // request) exists to exercise.
  Samples signature;
  switch (cfg.workload) {
    case Workload::kNavigate:
      signature = GatherSamples(main_phase, &ClientResult::render_ms);
      break;
    case Workload::kMixed:
    case Workload::kRest:
      signature = GatherSamples(main_phase, &ClientResult::csg_ms);
      break;
    case Workload::kOutOfCore:
      signature = GatherSamples(main_phase, &ClientResult::pagerank_s);
      for (double& s : signature.value) s *= 1e3;
      break;
    case Workload::kEdit:
      signature = GatherSamples(main_phase, &ClientResult::edit_ack_ms);
      break;
  }
  // Throughput: each completed op counts once, as a sample of value 1.
  Samples done;
  for (const ClientResult& c : main_phase.clients) {
    done.end_ns.insert(done.end_ns.end(), c.done_ns.begin(), c.done_ns.end());
  }
  done.value.assign(done.end_ns.size(), 1.0);
  Metric ops{"ops_per_s",
             static_cast<double>(done.value.size()) / main_phase.window_s,
             "1/s", done.value.size(), 0, true};
  {
    const auto slices = Slice(done, main_phase);
    std::vector<double> rates;
    for (const auto& slice : slices) {
      rates.push_back(static_cast<double>(slice.size()) /
                      (main_phase.window_s / kSlices));
    }
    if (std::all_of(slices.begin(), slices.end(),
                    [](const auto& s) { return s.size() >= 100; })) {
      ops.value = Median(rates);
      ops.slices = kSlices;
      ops.slice_min = *std::min_element(rates.begin(), rates.end());
      ops.slice_max = *std::max_element(rates.begin(), rates.end());
    }
  }
  // The reader round trip: navigator ops, or on rest_analyst (which has
  // no navigators) its REST requests other than CSG.
  Samples ClientResult::*const reader =
      cfg.workload == Workload::kRest ? &ClientResult::query_ms
                                      : &ClientResult::nav_ms;
  const Samples nav = GatherSamples(main_phase, reader);
  // Gated metrics (README.md says why throughput and p99 are not).
  std::vector<Metric> e2e;
  e2e.push_back(Metric{"setup_s", setup.setup_s, "s", 1, 0, true});
  e2e.push_back(WindowedPct("nav_p50_ms", "ms", nav, 50, main_phase));
  e2e.push_back(WindowedPct("nav_p90_ms", "ms", nav, 90, main_phase));
  e2e.push_back(Metric{"peak_rss_mb", server_proc.peak_rss_mb, "MB", 1, 0, true});
  e2e.push_back(
      WindowedPct("signature_p50_ms", "ms", signature, 50, main_phase));
  std::vector<Metric> extra;
  extra.push_back(ops);
  extra.push_back(WindowedPct("nav_p99_ms", "ms", nav, 99, main_phase));
  if (rest) {
    extra.push_back(Pct("query_p50_ms", "ms", Gather(main_phase, &ClientResult::query_ms), 50));
    extra.push_back(Pct("query_p90_ms", "ms", Gather(main_phase, &ClientResult::query_ms), 90));
    extra.push_back(Pct("csg_p50_ms", "ms", Gather(main_phase, &ClientResult::csg_ms), 50));
  }
  if (cfg.workload == Workload::kOutOfCore) {
    extra.push_back(Pct("pagerank_job_s", "s", Gather(main_phase, &ClientResult::pagerank_s), 50));
    extra.push_back(Pct("scan_job_ms", "ms", Gather(main_phase, &ClientResult::scan_ms), 50));
  }
  if (cfg.workload == Workload::kEdit) {
    extra.push_back(Pct("edit_ack_p50_ms", "ms", Gather(main_phase, &ClientResult::edit_ack_ms), 50));
    extra.push_back(Pct("edit_ack_p99_ms", "ms", Gather(main_phase, &ClientResult::edit_ack_ms), 99));
  }
  extra.push_back(Metric{"error_rate", tally.ErrorRate(), "ratio", tally.attempted, 0, true});

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d scale=%s\n",
              WorkloadName(cfg.workload),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, scale.c_str());
  std::printf("end-to-end:\n");
  for (const Metric& m : e2e) PrintMetric(m);
  for (const Metric& m : extra) PrintMetric(m);
  std::printf("ops: attempted=%llu failed=%llu (error=%llu refused=%llu "
              "timeout=%llu wrong=%llu)\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.by_outcome[1]),
              static_cast<unsigned long long>(tally.by_outcome[2]),
              static_cast<unsigned long long>(tally.by_outcome[3]),
              static_cast<unsigned long long>(tally.by_outcome[4] + wrong));
  PrintOpMix(main_phase);
  {
    // Latencies follow the host: say how much CPU it took away.
    const HostCpu& a = main_phase.begin.host;
    const HostCpu& b = main_phase.end.host;
    if (b.total > a.total) {
      std::printf("host: steal=%.1f%% of CPU time in the measured window\n",
                  100.0 * (b.steal - a.steal) / (b.total - a.total));
    }
  }
  for (size_t i = 0; i < problems.size() && i < 16; ++i) {
    std::printf("check: %s\n", problems[i].c_str());
  }

  std::map<std::string, double> layers;
  if (cfg.trace) {
    layers = replay.metrics;
    NetworkLayers(cfg, phases.back(), &layers);
    const std::map<std::string, double> untraced_proc = [&] {
      std::map<std::string, double> m;
      NetworkLayers(cfg, phases.front(), &m);
      return m;
    }();
    for (const char* k : {"proc.server_cpu_us_per_op", "proc.server_cpu_util",
                          "proc.driver_cpu_util"}) {
      layers[k] = untraced_proc.at(k);
    }
    layers["gtree.builder.build_s"] = setup.build_s;
    layers["gtree.stream_build.build_s"] = setup.stream_build_s;
    layers["storage.extsort.spilled_bytes"] = setup.spilled_bytes;
    layers["gen.generate_s"] = setup.generate_s;
    // Unattributed: the part of each op class's client round trip the
    // in-process replay of the same class does not account for.
    double total = 0, unattributed = 0;
    for (const ClientResult& c : phases.back().clients) {
      for (const auto& [cls, sum] : c.by_class) {
        auto it = replay.class_ms.find(cls);
        if (it == replay.class_ms.end() || sum.second == 0) continue;
        const double client_mean = sum.first / static_cast<double>(sum.second);
        total += sum.first;
        unattributed += std::max(0.0, client_mean - it->second) *
                        static_cast<double>(sum.second);
      }
    }
    layers["trace.unattributed_share"] = total > 0 ? unattributed / total : 0;
    const double untraced_mean = Mean(Gather(phases.front(), reader));
    const double traced_mean = Mean(Gather(phases.back(), reader));
    layers["trace.overhead"] =
        untraced_mean > 0 ? traced_mean / untraced_mean - 1.0 : 0;
    std::printf("per-layer (traced run):\n");
    for (const auto& [name, unit] : LayerTable()) {
      PrintMetric(Metric{name, layers[name], unit, 0, 0, true});
    }
    if (!trace_dir.empty()) {
      std::vector<Span> spans = replay.spans;
      for (const ClientResult& c : phases.back().clients) {
        const size_t keep = std::min<size_t>(c.spans.size(), 20000);
        AppendSpans(&spans, std::vector<Span>(c.spans.begin(),
                                              c.spans.begin() + keep));
      }
      std::error_code ec;
      fs::create_directories(trace_dir, ec);
      WriteSpans(StrFormat("%s/%s-seed%llu.tsv", trace_dir.c_str(),
                           WorkloadName(cfg.workload),
                           static_cast<unsigned long long>(cfg.seed)),
                 spans);
    }
  }

  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, tally.attempted)),
      static_cast<unsigned long long>(tally.failed));
  bool first = true;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    json += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), JsonNumber(value).c_str(),
                      unit.c_str());
    first = false;
  };
  if (cfg.trace) {
    for (const auto& [name, unit] : LayerTable()) {
      if (!GatedWorkload(cfg.workload) || !UngatedLayer(name)) {
        emit(name, layers[name], unit);
      }
    }
  } else {
    for (const Metric& m : e2e) emit(m.name, m.value, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
