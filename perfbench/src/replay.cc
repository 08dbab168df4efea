// The traced replay: the workload's seeded ops run again in-process
// against the public layer functions the servers call, with a span
// around each call. Spans live in the benchmark's own code; the
// program itself is not instrumented.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "core/catalog.h"
#include "core/engine.h"
#include "core/views.h"
#include "csg/extraction.h"
#include "csg/goodness.h"
#include "driver.h"
#include "graph/graph_edit.h"
#include "http/http.h"
#include "http/websocket.h"
#include "mining/pagerank.h"
#include "mining/pagescan_kernels.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "util/string_util.h"

namespace perfbench {

using gmine::StrFormat;
namespace gt = gmine::gtree;

namespace {

double ThreadCpuS() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double Ms(int64_t a, int64_t b) { return static_cast<double>(b - a) / 1e6; }

/// Counts kept beside the spans.
struct ReplayCounters {
  std::vector<double> leaf_hit_us, leaf_miss_us;
  uint64_t nav_ops = 0;
  uint64_t pages_scanned = 0, pages_total = 0, rows_scanned = 0,
           rows_output = 0;
  uint64_t resident_peak = 0;
};

/// The gateway's WebSocket codec on one op line: a masked client frame
/// encoded and parsed back, as the reactor does per message.
void FrameCodec(Tracer* tracer, uint64_t op_id, const std::string& line) {
  ScopedSpan span(tracer, "http.frame_codec", op_id);
  const std::string wire = gmine::http::EncodeWsFrame(
      gmine::http::WsOpcode::kText, line, true, true, 0x6d61736b);
  gmine::http::WsFrameParser parser;
  (void)parser.Feed(wire);
  if (parser.HasFrame()) (void)parser.TakeFrame();
}

void RequestParse(Tracer* tracer, uint64_t op_id, const std::string& wire) {
  ScopedSpan span(tracer, "http.request_parse", op_id);
  gmine::http::HttpRequestParser parser;
  (void)parser.Feed(wire);
  if (parser.HasRequest()) (void)parser.TakeRequest();
}

/// One navigation op against a leased session, mirroring the gateway's
/// WebSocket dispatch.
void NavOpInProcess(const NavOp& op, uint64_t op_id,
                    gmine::core::CatalogSession* lease, Tracer* tracer,
                    ReplayCounters* counters, std::vector<std::string>* bad) {
  const std::string cls = OpKindName(op.kind);
  ScopedSpan root(tracer, "replay." + cls, op_id);
  FrameCodec(tracer, op_id, op.line);
  const int64_t call = NowNs();
  gmine::Status st = lease->With([&](gt::NavigationSession& nav) {
    tracer->Add("core.session.wait", op_id, call, NowNs());
    const gt::GTree& tree = nav.store()->tree();
    ScopedSpan span(tracer, "gtree.navigation." + cls, op_id);
    switch (op.kind) {
      case OpKind::kChild: {
        const size_t index =
            static_cast<size_t>(std::atoll(op.line.c_str() + 6));
        return nav.FocusChild(index);
      }
      case OpKind::kParent: return nav.FocusParent();
      case OpKind::kBack: return nav.Back();
      case OpKind::kRoot: return nav.FocusRoot();
      case OpKind::kLocate:
        return nav.LocateByLabel(op.line.substr(7)).status();
      case OpKind::kLoad: {
        const bool hit = nav.store()->IsCached(nav.focus());
        const int64_t t0 = NowNs();
        auto payload = nav.LoadFocusSubgraph();
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        (hit ? counters->leaf_hit_us : counters->leaf_miss_us).push_back(us);
        return payload.status();
      }
      case OpKind::kSummary: {
        std::vector<std::string> path;
        for (gt::TreeNodeId id : tree.PathFromRoot(nav.focus())) {
          path.push_back(tree.node(id).name);
        }
        return gmine::Status::OK();
      }
      case OpKind::kConnectivity:
        (void)nav.ContextConnectivity();
        return gmine::Status::OK();
      case OpKind::kRender: {
        ScopedSpan render(tracer, "core.views.render_svg", op_id);
        return gmine::core::HierarchyViewSvgString(
                   tree, nav.context(), nav.store()->connectivity())
            .status();
      }
      default:
        return gmine::Status::InvalidArgument("not a navigation op");
    }
  });
  if (++counters->nav_ops % 64 == 0) {
    counters->resident_peak = std::max(
        counters->resident_peak,
        gmine::storage::BufferPool::Global().stats().resident_bytes);
  }
  if (!st.ok() && bad->size() < 8) bad->push_back(op.line + ": " + st.ToString());
}

/// Navigators replay their streams concurrently, one leased session
/// each, like the gateway's connections.
template <typename Gen, typename MakeGen>
void ReplayNavigators(const Config& cfg, gmine::core::Catalog* catalog,
                      uint64_t salt, MakeGen make_gen, ReplayResult* out,
                      ReplayCounters* counters) {
  std::vector<Tracer> tracers(3, Tracer(true));
  std::vector<ReplayCounters> local(3);
  std::vector<std::vector<std::string>> bad(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      Tracer* tracer = &tracers[static_cast<size_t>(i)];
      const uint64_t op_base = (static_cast<uint64_t>(i) + 1) << 40;
      auto lease = catalog->AcquireSession("paper");
      if (!lease.ok()) {
        bad[static_cast<size_t>(i)].push_back(lease.status().ToString());
        return;
      }
      Gen gen = make_gen(ClientSeed(cfg, salt, i));
      for (size_t k = 0; k < cfg.scale.replay_nav_ops; ++k) {
        NavOpInProcess(gen.Next(), op_base + k, &lease.value(), tracer,
                       &local[static_cast<size_t>(i)],
                       &bad[static_cast<size_t>(i)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 3; ++i) {
    AppendSpans(&out->spans, tracers[static_cast<size_t>(i)].TakeSpans());
    const ReplayCounters& c = local[static_cast<size_t>(i)];
    counters->leaf_hit_us.insert(counters->leaf_hit_us.end(),
                                 c.leaf_hit_us.begin(), c.leaf_hit_us.end());
    counters->leaf_miss_us.insert(counters->leaf_miss_us.end(),
                                  c.leaf_miss_us.begin(),
                                  c.leaf_miss_us.end());
    counters->nav_ops += c.nav_ops;
    counters->resident_peak = std::max(counters->resident_peak,
                                       c.resident_peak);
    for (const std::string& b : bad[static_cast<size_t>(i)]) {
      out->problems.push_back(b);
    }
  }
}

/// The REST analyst's requests: a cold catalog lease per request, then
/// GQL parse / plan / execute (CSG: full-graph materialize + extract),
/// summary or render, then the last-lease release.
void ReplayRest(const Config& cfg, gmine::core::Catalog* catalog,
                const gt::GTreeStore& ref, uint64_t salt, Tracer* tracer,
                ReplayResult* out, ReplayCounters* counters) {
  const char* store_name = RestStoreName(cfg.workload);
  const int client = RestClientIndex(cfg.workload);
  std::string error;
  const std::vector<uint32_t> csg_authors = CsgAuthors(ref, &error);
  if (!error.empty()) {
    out->problems.push_back("csg authors: " + error);
    return;
  }
  RestMix mix(&ref.tree(), &ref.labels(), &csg_authors, store_name,
              ClientSeed(cfg, salt, client));
  const uint64_t op_base = (static_cast<uint64_t>(client) + 1) << 40;
  std::optional<gmine::graph::Graph> full;  // materialized once, reused
  size_t csg_done = 0, other_done = 0;
  for (uint64_t k = 0; csg_done < 1 || other_done < cfg.scale.replay_rest_ops;
       ++k) {
    const RestOp op = mix.Next();
    if (op.kind == RestKind::kCsg ? csg_done >= 1
                                  : other_done >= cfg.scale.replay_rest_ops) {
      continue;
    }
    (op.kind == RestKind::kCsg ? csg_done : other_done) += 1;
    const uint64_t op_id = op_base + k;
    const std::string cls = RestKindName(op.kind);
    gmine::Status st;
    {
      ScopedSpan root(tracer, "replay." + cls, op_id);
      RequestParse(tracer, op_id,
                   op.method + " " + op.target + " HTTP/1.1\r\nHost: x\r\n"
                   "Content-Length: " + std::to_string(op.body.size()) +
                   "\r\n\r\n" + op.body);
      gmine::Result<gmine::core::CatalogSession> lease =
          gmine::Status::Internal("unset");
      {
        ScopedSpan span(tracer, "core.catalog.acquire_cold", op_id);
        lease = catalog->AcquireSession(store_name);
      }
      if (!lease.ok()) {
        out->problems.push_back(lease.status().ToString());
        return;
      }
      gt::GTreeStore* store = lease.value().store();
      if (!op.body.empty()) {
        gmine::query::Executor exec(store);
        gmine::Result<gmine::query::ast::Statement> ast =
            gmine::Status::Internal("unset");
        {
          ScopedSpan span(tracer, "query.parse", op_id);
          ast = gmine::query::Parse(op.body);
        }
        if (!ast.ok()) {
          st = ast.status();
        } else {
          gmine::Result<gmine::query::Plan> plan =
              gmine::Status::Internal("unset");
          {
            ScopedSpan span(tracer, "query.plan", op_id);
            plan = gmine::query::PlanStatement(std::move(ast).value(),
                                               exec.plan_context());
          }
          if (!plan.ok()) {
            st = plan.status();
          } else if (op.kind == RestKind::kCsg) {
            {
              ScopedSpan span(tracer, "gtree.store.materialize", op_id);
              auto g = store->MaterializeFullGraph();
              if (g.ok()) full = std::move(g).value();
              st = g.status();
            }
            if (st.ok()) {
              ScopedSpan span(tracer, "csg.extract", op_id);
              gmine::csg::ExtractionOptions options;
              options.budget = plan.value().extract()->budget;
              st = gmine::csg::ExtractConnectionSubgraph(
                       *full, plan.value().extract()->sources, options)
                       .status();
            }
          } else {
            ScopedSpan span(tracer, "query.execute", op_id);
            auto result = exec.Execute(plan.value());
            st = result.status();
            if (result.ok()) {
              const auto& qs = result.value().stats;
              counters->pages_scanned += qs.pages_scanned;
              counters->pages_total += qs.pages_total;
              counters->rows_scanned += qs.rows_scanned;
              counters->rows_output += qs.rows_output;
            }
          }
        }
      } else {
        st = lease.value().With([&](gt::NavigationSession& nav) {
          const gt::TreeNodeId id = nav.store()->tree().FindByName(
              op.community);
          GMINE_RETURN_IF_ERROR(nav.FocusNode(id));
          if (op.kind != RestKind::kRenderGet) return gmine::Status::OK();
          ScopedSpan span(tracer, "core.views.render_svg", op_id);
          return gmine::core::HierarchyViewSvgString(
                     nav.store()->tree(), nav.context(),
                     nav.store()->connectivity())
              .status();
        });
      }
      ScopedSpan span(tracer, "core.catalog.release_last", op_id);
      lease.value().Release();
    }
    if (op.kind == RestKind::kCsg && st.ok() && full.has_value()) {
      // The per-source random walks, timed on their own: extraction runs
      // them internally, so this span sits beside the request, not in it.
      ScopedSpan span(tracer, "csg.rwr", op_id);
      std::vector<gmine::graph::NodeId> sources(op.sources.begin(),
                                                op.sources.end());
      (void)gmine::csg::ComputeSourceWalks(*full, sources);
    }
    if (!st.ok()) out->problems.push_back(op.body + ": " + st.ToString());
  }
}

// --------------------------------------------------------------- mining

struct MiningRun {
  double pagerank_ms = 0, degrees_ms = 0, components_ms = 0, cpu_util = 0;
  int iterations = 0;
  uint32_t pages = 0;
  std::string top;
  std::string error;
};

std::string FormatTop(const std::vector<double>& score) {
  const std::vector<gmine::graph::NodeId> ids =
      gmine::mining::TopKByScore(score, 10);
  std::string top = "\"top\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) top += ",";
    top += StrFormat("{\"id\":%u,\"score\":%.12g}", ids[i], score[ids[i]]);
  }
  return top + "]";
}

MiningRun Mine(const std::string& path, uint64_t budget_mb, bool all,
               Tracer* tracer) {
  MiningRun run;
  gmine::storage::BufferPool::Global().SetBudgetBytes(budget_mb << 20);
  auto store = gt::GTreeStore::Open(path);
  if (!store.ok()) {
    run.error = store.status().ToString();
    return run;
  }
  run.pages = store.value()->tree().num_leaves();
  {
    const double cpu0 = ThreadCpuS();
    const int64_t t0 = NowNs();
    ScopedSpan span(tracer, "mining.pagerank", 1);
    auto scan = store.value()->NewPageScan();
    auto pr = gmine::mining::PageRankOverPages(*scan);
    const int64_t t1 = NowNs();
    run.pagerank_ms = Ms(t0, t1);
    run.cpu_util = (ThreadCpuS() - cpu0) / (run.pagerank_ms / 1e3);
    if (!pr.ok()) {
      run.error = pr.status().ToString();
      return run;
    }
    run.iterations = pr.value().iterations;
    run.top = FormatTop(pr.value().score);
  }
  if (!all) return run;
  {
    const int64_t t0 = NowNs();
    ScopedSpan span(tracer, "mining.degrees", 2);
    auto scan = store.value()->NewPageScan();
    auto d = gmine::mining::DegreeDistributionOverPages(*scan);
    run.degrees_ms = Ms(t0, NowNs());
    if (!d.ok()) run.error = d.status().ToString();
  }
  {
    const int64_t t0 = NowNs();
    ScopedSpan span(tracer, "mining.components", 3);
    auto scan = store.value()->NewPageScan();
    auto c = gmine::mining::WeakComponentsOverPages(*scan);
    run.components_ms = Ms(t0, NowNs());
    if (!c.ok()) run.error = c.status().ToString();
  }
  return run;
}

// ----------------------------------------------------------------- edits

/// Rebuilds the GraphEdit a batch's `edit ...` lines describe.
gmine::graph::GraphEdit EditFromBatch(const EditBatch& batch, uint32_t tip) {
  gmine::graph::GraphEdit edit(tip);
  for (const std::string& line : batch.lines) {
    unsigned u = 0, v = 0;
    if (line.rfind("edit add-node", 0) == 0) {
      edit.AddNode();
    } else if (std::sscanf(line.c_str(), "edit add-edge %u %u", &u, &v) == 2) {
      edit.AddEdge(u, v);
    } else if (std::sscanf(line.c_str(), "edit remove-edge %u %u", &u, &v) ==
               2) {
      edit.RemoveEdge(u, v);
    }
  }
  return edit;
}

void ReplayEdits(const Config& cfg, const Setup& setup, uint64_t salt,
                 ReplayResult* out) {
  gmine::core::EngineOptions options;
  options.wal.enabled = true;
  options.mem_budget_bytes = BudgetMb(cfg.workload) << 20;
  auto engine = gmine::core::GMineEngine::Open(setup.replay_store, options);
  if (!engine.ok()) {
    out->problems.push_back(engine.status().ToString());
    return;
  }
  gmine::core::GMineEngine* eng = engine.value().get();
  auto full = eng->full_graph();
  if (!full.ok()) {
    out->problems.push_back(full.status().ToString());
    return;
  }
  const uint32_t base = full.value()->num_nodes();
  // Copies: an edit that compacts replaces the engine's store, and with
  // it the tree and labels the engine hands out.
  const gmine::graph::LabelStore labels = eng->labels();
  const gt::GTree tree = eng->tree();
  // The writer's stream from the first phase, batch for batch.
  EditStream stream(&tree, base, ClientSeed(cfg, 1, 3));
  std::atomic<bool> writing{true};

  // Readers run beside the writer, so the session gate's wait includes
  // the epoch bumps edits publish.
  std::vector<Tracer> tracers(4, Tracer(true));
  std::vector<std::vector<std::string>> bad(4);
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&, i] {
      Tracer* tracer = &tracers[static_cast<size_t>(i)];
      auto session = eng->sessions().OpenSession();
      if (!session.ok()) return;
      ReaderOps ops(&tree, &labels, ClientSeed(cfg, salt, i));
      const uint64_t op_base = (static_cast<uint64_t>(i) + 1) << 40;
      for (uint64_t k = 0; writing.load() && k < cfg.scale.replay_nav_ops;
           ++k) {
        const NavOp op = ops.Next();
        const std::string cls = OpKindName(op.kind);
        ScopedSpan root(tracer, "replay." + cls, op_base + k);
        const int64_t call = NowNs();
        gmine::Status st = eng->sessions().WithSession(
            session.value(), [&](gt::NavigationSession& nav) {
              tracer->Add("core.session.wait", op_base + k, call, NowNs());
              if (op.kind == OpKind::kLocate) {
                ScopedSpan span(tracer, "gtree.navigation.locate",
                                op_base + k);
                return nav.LocateByLabel(op.line.substr(7)).status();
              }
              gmine::query::Executor exec(nav.store());
              const std::string text = op.line.substr(6);
              gmine::Result<gmine::query::ast::Statement> ast =
                  gmine::Status::Internal("unset");
              {
                ScopedSpan span(tracer, "query.parse", op_base + k);
                ast = gmine::query::Parse(text);
              }
              if (!ast.ok()) return ast.status();
              gmine::Result<gmine::query::Plan> plan =
                  gmine::Status::Internal("unset");
              {
                ScopedSpan span(tracer, "query.plan", op_base + k);
                plan = gmine::query::PlanStatement(std::move(ast).value(),
                                                   exec.plan_context());
              }
              if (!plan.ok()) return plan.status();
              ScopedSpan span(tracer, "query.execute", op_base + k);
              return exec.Execute(plan.value()).status();
            });
        if (!st.ok() && bad[static_cast<size_t>(i)].size() < 8) {
          bad[static_cast<size_t>(i)].push_back(op.line + ": " +
                                                st.ToString());
        }
      }
      (void)eng->sessions().CloseSession(session.value());
    });
  }

  Tracer* tracer = &tracers[3];
  gmine::storage::Wal* wal = eng->wal();
  const gmine::storage::WalStats wal0 = wal->stats();
  double ops = 0, invalidated = 0, compactions = 0;
  std::vector<double> compaction_ms;
  const uint64_t op_base = uint64_t{4} << 40;
  for (size_t k = 0; k < cfg.scale.replay_edits; ++k) {
    const uint32_t tip = stream.tip();
    const EditBatch batch = stream.Next();
    gmine::graph::GraphEdit edit = EditFromBatch(batch, tip);
    const uint64_t op_id = op_base + k;
    ScopedSpan root(tracer, "replay.edit_apply", op_id);
    gmine::Result<uint64_t> lsn = gmine::Status::Internal("unset");
    {
      ScopedSpan span(tracer, "storage.wal.append", op_id);
      lsn = wal->Append(edit, batch.added_labels);
    }
    gmine::Status st = lsn.status();
    if (st.ok()) {
      ScopedSpan span(tracer, "storage.wal.sync", op_id);
      st = wal->Sync();
    }
    gmine::core::EditStats stats;
    if (st.ok()) {
      const int64_t t0 = NowNs();
      st = eng->ApplyEdit(edit, batch.added_labels, &stats, lsn.value());
      const int64_t t1 = NowNs();
      const auto& cls = stats.classification;
      const char* name = cls.added_vertices > 0      ? "core.engine.apply.add_node"
                         : cls.cross_leaf_edge_ops > 0 ? "core.engine.apply.cross_leaf"
                                                       : "core.engine.apply.intra_leaf";
      tracer->Add(name, op_id, t0, t1);
      if (stats.compacted) {
        compactions += 1;
        compaction_ms.push_back(Ms(t0, t1));
      }
    }
    if (!st.ok()) {
      out->problems.push_back("edit replay: " + st.ToString());
      break;
    }
    ops += static_cast<double>(batch.lines.size());
    invalidated += stats.pages_invalidated;
  }
  writing.store(false);
  for (std::thread& t : readers) t.join();
  const gmine::storage::WalStats wal1 = wal->stats();
  const double batches = static_cast<double>(cfg.scale.replay_edits);
  out->metrics["storage.wal.syncs_per_ack"] =
      static_cast<double>(wal1.syncs - wal0.syncs) / batches;
  out->metrics["storage.wal.bytes_per_edit_op"] =
      ops > 0 ? static_cast<double>(wal1.bytes_appended - wal0.bytes_appended) / ops
              : 0;
  out->metrics["gtree.store.compactions_per_1k_edits"] =
      ops > 0 ? compactions * 1000.0 / ops : 0;
  double sum = 0;
  for (double ms : compaction_ms) sum += ms;
  out->metrics["gtree.store.compaction_ms"] =
      compaction_ms.empty() ? 0 : sum / static_cast<double>(compaction_ms.size());
  out->metrics["gtree.edit_repair.pages_invalidated_per_group"] =
      invalidated / batches;
  for (size_t i = 0; i < tracers.size(); ++i) {
    AppendSpans(&out->spans, tracers[i].TakeSpans());
    for (const std::string& b : bad[i]) out->problems.push_back(b);
  }
}

double MeanUs(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

std::string PageRankTop(const std::string& store_path, uint64_t budget_mb,
                        std::string* error) {
  Tracer tracer(false);
  MiningRun run = Mine(store_path, budget_mb, false, &tracer);
  *error = run.error;
  return run.top;
}

ReplayResult RunReplay(const Config& cfg, const Setup& setup,
                       uint64_t stream_salt) {
  ReplayResult out;
  ReplayCounters counters;
  Tracer tracer(true);
  const uint64_t budget_mb = BudgetMb(cfg.workload);
  auto& pool = gmine::storage::BufferPool::Global();
  pool.SetBudgetBytes(budget_mb << 20);

  // The store open the catalog pays on a cold lease, timed directly.
  {
    ScopedSpan span(&tracer, "gtree.store.open", 0);
    auto store = gt::GTreeStore::Open(setup.nav_store);
    if (!store.ok()) out.problems.push_back(store.status().ToString());
  }

  gmine::storage::BufferPoolStats pool0, pool1;
  if (cfg.workload == Workload::kEdit) {
    ReplayEdits(cfg, setup, stream_salt, &out);
  } else {
    gmine::core::CatalogOptions copts;
    copts.mem_budget_bytes = budget_mb << 20;
    auto catalog = gmine::core::Catalog::OpenDirectory(setup.store_dir, copts);
    if (!catalog.ok()) {
      out.problems.push_back(catalog.status().ToString());
      return out;
    }
    auto ref = gt::GTreeStore::Open(setup.nav_store);
    if (!ref.ok()) {
      out.problems.push_back(ref.status().ToString());
      return out;
    }
    const gt::GTree* tree = &ref.value()->tree();
    const gmine::graph::LabelStore* labels = &ref.value()->labels();
    const bool navigators = cfg.workload != Workload::kRest;
    // The WebSocket upgrades each navigator sent.
    for (int i = 0; navigators && i < 3; ++i) {
      RequestParse(&tracer, 0,
                   "GET /api/v1/stores/paper/ws HTTP/1.1\r\nHost: x\r\n"
                   "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                   "Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                   "Sec-WebSocket-Version: 13\r\n\r\n");
    }
    // Cold lease and last-lease release on the navigators' store.
    {
      gmine::Result<gmine::core::CatalogSession> lease =
          gmine::Status::Internal("unset");
      {
        ScopedSpan span(&tracer, "core.catalog.acquire_cold", 0);
        lease = catalog.value()->AcquireSession("paper");
      }
      if (lease.ok()) {
        ScopedSpan span(&tracer, "core.catalog.release_last", 0);
        lease.value().Release();
      }
    }
    auto replay_navigators = [&](ReplayResult* result,
                                 ReplayCounters* replay_counters) {
      if (cfg.workload == Workload::kOutOfCore) {
        ReplayNavigators<AuthorCycle>(
            cfg, catalog.value().get(), stream_salt,
            [&](uint64_t seed) { return AuthorCycle(tree, labels, seed); },
            result, replay_counters);
      } else {
        ReplayNavigators<NavWalk>(
            cfg, catalog.value().get(), stream_salt,
            [&](uint64_t seed) { return NavWalk(tree, labels, seed); },
            result, replay_counters);
      }
    };
    if (navigators) {
      // A lease held across the navigators' replay keeps the store
      // registered, so its pool counters survive until they are read.
      auto keeper = catalog.value()->AcquireSession("paper");
      // The same streams once untimed first, so the pool figures describe
      // the served pool's steady state rather than its compulsory misses.
      ReplayResult warm;
      ReplayCounters warm_counters;
      replay_navigators(&warm, &warm_counters);
      for (const std::string& p : warm.problems) out.problems.push_back(p);
      pool0 = pool.stats();
      replay_navigators(&out, &counters);
      pool1 = pool.stats();
      if (keeper.ok()) keeper.value().Release();
    }
    if (cfg.workload == Workload::kMixed || cfg.workload == Workload::kRest) {
      ReplayRest(cfg, catalog.value().get(), *ref.value(), stream_salt,
                 &tracer, &out, &counters);
    }
  }
  counters.resident_peak = std::max(counters.resident_peak,
                                    pool1.resident_bytes);

  if (cfg.workload == Workload::kOutOfCore) {
    MiningRun run = Mine(setup.nav_store, budget_mb, true, &tracer);
    if (!run.error.empty()) out.problems.push_back(run.error);
    out.pagerank_top = run.top;
    out.metrics["mining.pagerank_iterations"] = run.iterations;
    out.metrics["mining.pages_per_s"] =
        run.pagerank_ms > 0 ? static_cast<double>(run.iterations) * run.pages /
                                  (run.pagerank_ms / 1e3)
                            : 0;
    out.metrics["mining.cpu_util"] = run.cpu_util;
    counters.resident_peak =
        std::max(counters.resident_peak, pool.stats().resident_bytes);
  }

  AppendSpans(&out.spans, tracer.TakeSpans());
  const auto layers = SelfTimes(out.spans);
  auto mean_self = [&](const std::string& name, double unit_ns) {
    auto it = layers.find(name);
    if (it == layers.end() || it->second.count == 0) return 0.0;
    return it->second.self_ns / static_cast<double>(it->second.count) / unit_ns;
  };
  auto mean_total = [&](const std::string& name, double unit_ns) {
    auto it = layers.find(name);
    if (it == layers.end() || it->second.count == 0) return 0.0;
    return it->second.total_ns / static_cast<double>(it->second.count) /
           unit_ns;
  };
  auto& m = out.metrics;
  m["http.frame_codec_ns"] = mean_self("http.frame_codec", 1);
  m["http.request_parse_ns"] = mean_self("http.request_parse", 1);
  m["core.catalog.acquire_cold_ms"] =
      mean_total("core.catalog.acquire_cold", 1e6);
  m["core.catalog.release_last_ms"] =
      mean_total("core.catalog.release_last", 1e6);
  {
    auto it = layers.find("core.session.wait");
    std::vector<double> us;
    if (it != layers.end()) {
      for (double ns : it->second.self_samples_ns) us.push_back(ns / 1e3);
    }
    m["core.session.wait_us.p50"] = SelectPercentile(us, 50).value;
    m["core.session.wait_us.p99"] = SelectPercentile(us, 99).value;
  }
  m["core.views.render_svg_us"] = mean_self("core.views.render_svg", 1e3);
  for (const char* op : {"child", "parent", "root", "locate", "load",
                         "summary", "connectivity"}) {
    m[std::string("gtree.navigation.op_us.") + op] =
        mean_self(std::string("gtree.navigation.") + op, 1e3);
  }
  m["gtree.store.open_ms"] = mean_total("gtree.store.open", 1e6);
  m["gtree.store.materialize_ms"] =
      mean_total("gtree.store.materialize", 1e6);
  m["gtree.store.leaf_hit_us"] = MeanUs(counters.leaf_hit_us);
  m["gtree.store.leaf_miss_us"] = MeanUs(counters.leaf_miss_us);
  for (const char* cls : {"intra_leaf", "cross_leaf", "add_node"}) {
    m[std::string("core.engine.apply_ms.") + cls] =
        mean_total(std::string("core.engine.apply.") + cls, 1e6);
  }
  m["storage.wal.sync_ms"] = mean_total("storage.wal.sync", 1e6);
  m["query.parse_us"] = mean_total("query.parse", 1e3);
  m["query.plan_us"] = mean_total("query.plan", 1e3);
  m["query.execute_us"] = mean_total("query.execute", 1e3);
  m["query.pages_scanned_ratio"] =
      counters.pages_total > 0
          ? static_cast<double>(counters.pages_scanned) /
                static_cast<double>(counters.pages_total)
          : 0;
  m["query.rows_scanned_per_output"] =
      counters.rows_output > 0
          ? static_cast<double>(counters.rows_scanned) /
                static_cast<double>(counters.rows_output)
          : 0;
  m["csg.extract_ms"] = mean_total("csg.extract", 1e6);
  m["csg.rwr_ms"] = mean_total("csg.rwr", 1e6);
  m["mining.pagerank_ms"] = mean_total("mining.pagerank", 1e6);
  m["mining.degrees_ms"] = mean_total("mining.degrees", 1e6);
  m["mining.components_ms"] = mean_total("mining.components", 1e6);

  const double lookups =
      static_cast<double>((pool1.hits - pool0.hits) + (pool1.misses - pool0.misses));
  const double ops = static_cast<double>(std::max<uint64_t>(1, counters.nav_ops));
  m["storage.buffer_pool.hit_rate"] =
      lookups > 0 ? static_cast<double>(pool1.hits - pool0.hits) / lookups : 0;
  m["storage.buffer_pool.misses_per_op"] =
      static_cast<double>(pool1.misses - pool0.misses) / ops;
  m["storage.buffer_pool.evictions_per_op"] =
      static_cast<double>(pool1.evictions - pool0.evictions) / ops;
  m["storage.buffer_pool.bypasses"] =
      static_cast<double>(pool1.bypasses - pool0.bypasses);
  m["storage.buffer_pool.backpressure"] =
      static_cast<double>(pool1.backpressure - pool0.backpressure);
  m["storage.buffer_pool.resident_peak_bytes"] =
      static_cast<double>(counters.resident_peak);

  for (const auto& [name, layer] : layers) {
    if (name.rfind("replay.", 0) == 0 && layer.count > 0) {
      out.class_ms[name.substr(7)] =
          layer.total_ns / static_cast<double>(layer.count) / 1e6;
    }
  }
  return out;
}

}  // namespace perfbench
