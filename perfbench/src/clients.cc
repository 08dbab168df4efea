// The load: closed-loop clients with zero think time, at most four
// connections, each timing its own round trips. Replies are checked as
// they arrive where that is cheap; heavier checks (GQL rows against an
// in-process executor, PageRank top-k) are sampled here and verified by
// main.cc after the phase so they never sit on the measured path.

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "driver.h"
#include "http/client.h"
#include "net/client.h"
#include "util/string_util.h"

namespace perfbench {

using gmine::StrFormat;

namespace {

constexpr int kReplyTimeoutMs = 20000;
constexpr int kPollIntervalMs = 10;

struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Records one finished op: outcome always; latency only when it
/// started inside the window.
void Record(ClientResult* r, const Window& w, Outcome outcome,
            const char* cls, int64_t t0, int64_t t1,
            Samples* latencies, double unit_ns, uint64_t op_id,
            Tracer* tracer) {
  r->tally.Add(outcome);
  if (t0 < w.start_ns) return;
  if (t1 <= w.end_ns) r->done_ns.push_back(t1);
  if (outcome != Outcome::kOk) return;
  const double ms = static_cast<double>(t1 - t0) / 1e6;
  if (latencies != nullptr) {
    latencies->Add(static_cast<double>(t1 - t0) / unit_ns, t1);
  }
  auto& cls_sum = r->by_class[cls];
  cls_sum.first += ms;
  cls_sum.second += 1;
  tracer->Add(std::string("client.") + cls, op_id, t0, t1);
}

void Problem(ClientResult* r, const std::string& what) {
  if (r->problems.size() < 8) r->problems.push_back(what);
}

/// `"key":"value"` out of a flat JSON reply (values carry no quotes in
/// the fields checked here).
std::string JsonField(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + needle.size();
  size_t end = begin;
  while (end < json.size() && json[end] != '"') {
    end += json[end] == '\\' ? 2 : 1;
  }
  return std::string(json.substr(begin, end - begin));
}

/// `key=value` token out of an op reply text.
std::string TextField(std::string_view text, std::string_view key) {
  const std::string needle = std::string(key) + "=";
  size_t at = 0;
  while ((at = text.find(needle, at)) != std::string_view::npos) {
    if (at == 0 || text[at - 1] == ' ') break;
    at += needle.size();
  }
  if (at == std::string_view::npos) return {};
  const size_t begin = at + needle.size();
  const size_t end = text.find(' ', begin);
  return std::string(text.substr(
      begin, end == std::string_view::npos ? std::string_view::npos
                                           : end - begin));
}

/// Checks one navigation/reader reply against the op's expectation;
/// returns an empty string when it matches. `focus_checked` is false
/// where edits may have re-split leaves (edit_navigate).
std::string CheckNavReply(const NavOp& op, std::string_view text,
                          bool has_svg_body,
                          const gmine::gtree::GTree& tree,
                          bool focus_checked) {
  auto focus_name = [&] { return tree.node(op.focus).name; };
  switch (op.kind) {
    case OpKind::kChild:
    case OpKind::kParent:
    case OpKind::kBack:
    case OpKind::kRoot:
      if (TextField(text, "focus") != focus_name()) return "focus";
      return {};
    case OpKind::kLocate: {
      const std::string want = StrFormat("node %u ", op.node);
      if (text.substr(0, want.size()) != want) return "locate node";
      if (focus_checked && TextField(text, "focus") != focus_name()) {
        return "locate focus";
      }
      return {};
    }
    case OpKind::kLoad:
      if (TextField(text, "leaf") != focus_name()) return "load leaf";
      if (TextField(text, "n") !=
          std::to_string(tree.node(op.focus).members.size())) {
        return "load size";
      }
      return {};
    case OpKind::kSummary:
      if (TextField(text, "focus") != focus_name()) return "summary focus";
      if (TextField(text, "depth") !=
          std::to_string(tree.node(op.focus).depth)) {
        return "summary depth";
      }
      return {};
    case OpKind::kConnectivity:
      if (TextField(text, "edges").empty()) return "connectivity";
      return {};
    case OpKind::kRender:
      if (!has_svg_body || text != "svg " + focus_name()) return "render";
      return {};
    case OpKind::kQuerySummarize: {
      const std::string rows = TextField(text, "rows");
      if (rows.empty() || std::atoll(rows.c_str()) < 1) return "query rows";
      return {};
    }
    case OpKind::kQueryNeighbors:
      // The origin itself is not a row, so a node without neighbours in
      // its leaf legitimately answers zero rows.
      if (TextField(text, "rows").empty()) return "query rows";
      return {};
    default:
      return "unknown op";
  }
}

// ------------------------------------------------------------ navigators

template <typename Gen>
void WsNavigator(const Setup& setup, const std::string& store,
                 const gmine::gtree::GTree& tree, Gen gen, const Window& w,
                 bool traced, uint64_t op_base, ClientResult* r) {
  Tracer tracer(traced);
  gmine::http::GatewayClient client;
  gmine::Status st = client.Connect("127.0.0.1", setup.port);
  if (st.ok()) st = client.UpgradeWebSocket("/api/v1/stores/" + store + "/ws");
  if (!st.ok()) {
    r->tally.Add(ClassifyError(st.ToString()));
    Problem(r, "ws connect: " + st.ToString());
    return;
  }
  uint64_t op_id = op_base;
  while (NowNs() < w.end_ns) {
    const NavOp op = gen.Next();
    const int64_t t0 = NowNs();
    auto reply = client.Roundtrip(op.line, kReplyTimeoutMs);
    const int64_t t1 = NowNs();
    Outcome outcome = Outcome::kOk;
    if (!reply.ok()) {
      outcome = ClassifyError(reply.status().ToString());
      Problem(r, op.line + ": " + reply.status().ToString());
    } else if (reply.value().rfind("{\"ok\":true", 0) != 0) {
      outcome = Outcome::kError;
      Problem(r, op.line + ": " + reply.value().substr(0, 200));
    } else {
      const std::string text = JsonField(reply.value(), "text");
      const bool svg =
          reply.value().find(",\"body\":\"<") != std::string::npos;
      const std::string bad = CheckNavReply(op, text, svg, tree, true);
      if (!bad.empty()) {
        outcome = Outcome::kWrong;
        Problem(r, op.line + " -> " + text + " (" + bad + ")");
      }
    }
    Record(r, w, outcome, OpKindName(op.kind), t0, t1, &r->nav_ms, 1e6,
           op_id++, &tracer);
    if (op.kind == OpKind::kRender && outcome == Outcome::kOk &&
        t0 >= w.start_ns) {
      r->render_ms.Add(static_cast<double>(t1 - t0) / 1e6, t1);
    }
    if (!reply.ok()) break;  // the connection is gone
  }
  (void)client.SendClose(1000);
  client.Close();
  r->spans = tracer.TakeSpans();
}

template <typename Gen>
void NetClient(const Setup& setup, const gmine::gtree::GTree& tree, Gen gen,
               const Window& w, bool traced, uint64_t op_base,
               ClientResult* r) {
  Tracer tracer(traced);
  gmine::net::Client client;
  gmine::Status st = client.Connect("127.0.0.1", setup.port, kReplyTimeoutMs);
  if (!st.ok()) {
    r->tally.Add(ClassifyError(st.ToString()));
    Problem(r, "connect: " + st.ToString());
    return;
  }
  uint64_t op_id = op_base;
  while (NowNs() < w.end_ns) {
    const NavOp op = gen.Next();
    const int64_t t0 = NowNs();
    auto reply = client.Roundtrip(op.line);
    const int64_t t1 = NowNs();
    Outcome outcome = Outcome::kOk;
    if (!reply.ok()) {
      outcome = ClassifyError(reply.status().ToString());
      Problem(r, op.line + ": " + reply.status().ToString());
    } else if (!reply.value().ok) {
      outcome = ClassifyError(reply.value().text);
      if (outcome == Outcome::kTimeout) outcome = Outcome::kError;
      Problem(r, op.line + ": " + reply.value().text);
    } else {
      const std::string bad =
          CheckNavReply(op, reply.value().text, false, tree, false);
      if (!bad.empty()) {
        outcome = Outcome::kWrong;
        Problem(r, op.line + " -> " + reply.value().text + " (" + bad + ")");
      }
    }
    Record(r, w, outcome, OpKindName(op.kind), t0, t1, &r->nav_ms, 1e6,
           op_id++, &tracer);
    if (!reply.ok()) break;
  }
  (void)client.Roundtrip("close");
  client.Close();
  r->spans = tracer.TakeSpans();
}

// ------------------------------------------------------------ REST client

std::string CheckRest(const RestOp& op,
                      const gmine::http::HttpClientResponse& resp) {
  if (resp.status != 200) return StrFormat("status %d", resp.status);
  switch (op.kind) {
    case RestKind::kSummaryGet:
      if (JsonField(resp.body, "focus") != op.community) return "focus";
      return {};
    case RestKind::kRenderGet:
      if (resp.Header("content-type") != "image/svg+xml" ||
          resp.body.find("<svg") == std::string::npos) {
        return "svg";
      }
      return {};
    case RestKind::kCsg: {
      Json doc;
      if (!ParseJson(resp.body, &doc)) return "csg json";
      const Json* rows = doc.Get("rows");
      if (rows == nullptr || rows->array() == nullptr) return "csg rows";
      for (uint32_t source : op.sources) {
        bool found = false;
        for (const Json& row : *rows->array()) {
          const Json::Array* cells = row.array();
          if (cells != nullptr && !cells->empty() &&
              (*cells)[0].String() == std::to_string(source)) {
            found = true;
            break;
          }
        }
        if (!found) return StrFormat("csg misses source %u", source);
      }
      return {};
    }
    default: {
      Json doc;
      if (!ParseJson(resp.body, &doc) || doc.Get("rows") == nullptr) {
        return "gql json";
      }
      return {};
    }
  }
}

void RestClient(const Setup& setup, RestMix mix, const Window& w,
                bool traced, uint64_t op_base, ClientResult* r) {
  Tracer tracer(traced);
  gmine::http::GatewayClient client;
  gmine::Status st = client.Connect("127.0.0.1", setup.port);
  if (!st.ok()) {
    r->tally.Add(ClassifyError(st.ToString()));
    Problem(r, "rest connect: " + st.ToString());
    return;
  }
  uint64_t op_id = op_base;
  uint64_t gql = 0;
  while (NowNs() < w.end_ns) {
    const RestOp op = mix.Next();
    const int64_t t0 = NowNs();
    auto resp = client.Request(op.method, op.target, "", op.body);
    const int64_t t1 = NowNs();
    Outcome outcome = Outcome::kOk;
    if (!resp.ok()) {
      outcome = ClassifyError(resp.status().ToString());
      Problem(r, op.target + ": " + resp.status().ToString());
    } else {
      const std::string bad = CheckRest(op, resp.value());
      if (!bad.empty()) {
        outcome = resp.value().status == 200 ? Outcome::kWrong
                  : resp.value().status == 429 || resp.value().status == 503
                      ? Outcome::kRefused
                      : Outcome::kError;
        Problem(r, op.body + " " + op.target + " (" + bad + "): " +
                       resp.value().body.substr(0, 200));
      } else if (!op.body.empty() && op.kind != RestKind::kCsg &&
                 gql++ % 2 == 0) {
        r->gql_samples.emplace_back(op.body, resp.value().body);
      }
    }
    Record(r, w, outcome, RestKindName(op.kind), t0, t1,
           op.kind == RestKind::kCsg ? &r->csg_ms : &r->query_ms, 1e6,
           op_id++, &tracer);
    if (!resp.ok()) break;
  }
  client.Close();
  r->spans = tracer.TakeSpans();
}

// ------------------------------------------------------------- job client

void JobClient(const Setup& setup, const Window& w, bool traced,
               uint64_t op_base, ClientResult* r) {
  Tracer tracer(traced);
  gmine::http::GatewayClient client;
  gmine::Status st = client.Connect("127.0.0.1", setup.port);
  if (!st.ok()) {
    r->tally.Add(ClassifyError(st.ToString()));
    Problem(r, "job connect: " + st.ToString());
    return;
  }
  // Jobs start with the window, so every run times the same job mix
  // from a warm server.
  while (NowNs() < w.start_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  static const char* kKernels[] = {"pagerank", "degrees", "components"};
  uint64_t op_id = op_base;
  for (int k = 0; NowNs() < w.end_ns; ++k) {
    const std::string kernel = kKernels[k % 3];
    const int64_t t0 = NowNs();
    auto submit = client.Request(
        "POST", "/api/v1/stores/paper/mine?kernel=" + kernel + "&top=10");
    if (!submit.ok() || submit.value().status != 202) {
      r->tally.Add(submit.ok() ? Outcome::kError
                               : ClassifyError(submit.status().ToString()));
      Problem(r, "mine submit " + kernel);
      if (!submit.ok()) break;
      continue;
    }
    Json doc;
    ParseJson(submit.value().body, &doc);
    const std::string job_path =
        StrFormat("/api/v1/jobs/%.0f", doc.Path("job"));
    int64_t first_running = -1;
    std::string state, body;
    bool cancelled = false;
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollIntervalMs));
      auto poll = client.Request("GET", job_path);
      if (!poll.ok() || poll.value().status != 200) {
        state = "poll-failed";
        break;
      }
      body = poll.value().body;
      state = JsonField(body, "state");
      if (state == "running" && first_running < 0) first_running = NowNs();
      if (state != "running") break;
      if (NowNs() >= w.end_ns && !cancelled) {
        // Out of time: cancel and wait for the worker to wind down. A
        // cancelled job is not an attempted op. A 200 means the job had
        // just finished and its record is gone, so there is nothing to
        // poll.
        auto cancel = client.Request("DELETE", job_path);
        cancelled = true;
        if (cancel.ok() && cancel.value().status == 200) {
          state = "cancelled";
          break;
        }
      }
    }
    const int64_t t1 = NowNs();
    if (cancelled && state == "cancelled") break;
    Outcome outcome = Outcome::kOk;
    if (state != "done") {
      outcome = Outcome::kError;
      Problem(r, kernel + " job ended " + state + ": " + body.substr(0, 200));
    } else if (kernel == "pagerank") {
      const size_t at = body.find("\"top\":");
      if (at == std::string::npos) {
        outcome = Outcome::kWrong;
        Problem(r, "pagerank job without top list");
      } else {
        const size_t end = body.find(']', at);
        r->pagerank_results.push_back(body.substr(at, end - at + 1));
      }
    } else if (body.find("\"kernel\":\"" + kernel + "\"") ==
               std::string::npos) {
      outcome = Outcome::kWrong;
      Problem(r, kernel + " job result missing");
    }
    if (first_running >= 0 && t0 >= w.start_ns) {
      r->queue_wait_ms.Add(static_cast<double>(first_running - t0) / 1e6,
                           first_running);
    }
    Record(r, w, outcome, kernel == "pagerank" ? "pagerank_job" : "scan_job",
           t0, t1, kernel == "pagerank" ? &r->pagerank_s : &r->scan_ms,
           kernel == "pagerank" ? 1e9 : 1e6, op_id++, &tracer);
    if (cancelled) break;
  }
  client.Close();
  r->spans = tracer.TakeSpans();
}

// ----------------------------------------------------------------- writer

void Writer(const Setup& setup, EditStream* stream, const Window& w,
            bool traced, uint64_t op_base, ClientResult* r) {
  Tracer tracer(traced);
  gmine::net::Client client;
  gmine::Status st = client.Connect("127.0.0.1", setup.port, kReplyTimeoutMs);
  if (!st.ok()) {
    r->tally.Add(ClassifyError(st.ToString()));
    Problem(r, "writer connect: " + st.ToString());
    return;
  }
  uint64_t op_id = op_base;
  bool alive = true;
  while (alive && NowNs() < w.end_ns) {
    const EditBatch batch = stream->Next();
    bool queued = true;
    size_t added = 0;
    for (const std::string& line : batch.lines) {
      const int64_t t0 = NowNs();
      auto reply = client.Roundtrip(line);
      const int64_t t1 = NowNs();
      Outcome outcome = Outcome::kOk;
      if (!reply.ok() || !reply.value().ok) {
        outcome = reply.ok() ? Outcome::kError
                             : ClassifyError(reply.status().ToString());
        Problem(r, line + ": " +
                       (reply.ok() ? reply.value().text
                                   : reply.status().ToString()));
        alive = reply.ok();
      } else if (line.rfind("edit add-node", 0) == 0 &&
                 TextField(reply.value().text, "id") !=
                     std::to_string(batch.added_ids[added++])) {
        outcome = Outcome::kWrong;
        Problem(r, line + " -> " + reply.value().text);
      }
      Record(r, w, outcome, "edit_queue_op", t0, t1, nullptr, 1e6, op_id++,
             &tracer);
      if (outcome != Outcome::kOk) {
        queued = false;
        break;
      }
    }
    if (!queued) {
      if (alive) (void)client.Roundtrip("edit abort");
      continue;
    }
    const int64_t t0 = NowNs();
    auto ack = client.Roundtrip("edit apply");
    const int64_t t1 = NowNs();
    Outcome outcome = Outcome::kOk;
    if (!ack.ok() || !ack.value().ok) {
      outcome = ack.ok() ? Outcome::kError
                         : ClassifyError(ack.status().ToString());
      Problem(r, "edit apply: " + (ack.ok() ? ack.value().text
                                            : ack.status().ToString()));
      alive = ack.ok();
    } else if (TextField(ack.value().text, "ops") !=
               std::to_string(batch.lines.size())) {
      outcome = Outcome::kWrong;
      Problem(r, "edit apply -> " + ack.value().text);
    } else {
      r->acked.push_back(batch);
      r->edit_ops += batch.lines.size();
      r->edit_script_bytes += batch.script_bytes;
      const double group =
          std::atof(TextField(ack.value().text, "group").c_str());
      r->edit_groups += group > 0 ? 1.0 / group : 1.0;
    }
    Record(r, w, outcome, "edit_apply", t0, t1, &r->edit_ack_ms, 1e6,
           op_id++, &tracer);
  }
  if (alive) (void)client.Roundtrip("close");
  client.Close();
  r->spans = tracer.TakeSpans();
}

// --------------------------------------------------------------- counters

Counters Scrape(const Config& cfg, const Setup& setup) {
  Counters c;
  c.at_ns = NowNs();
  if (cfg.workload == Workload::kEdit) {
    gmine::net::Client client;
    if (client.Connect("127.0.0.1", setup.port, kReplyTimeoutMs).ok()) {
      auto reply = client.Roundtrip("stats");
      if (reply.ok() && reply.value().ok) {
        c.net = ParseNetStats(reply.value().text);
      }
      (void)client.Roundtrip("close");
    }
    c.store_bytes = FileSize(setup.nav_store);
    c.wal_bytes = FileSize(setup.nav_store + ".wal");
  } else {
    gmine::http::GatewayClient client;
    if (client.Connect("127.0.0.1", setup.port).ok()) {
      auto reply = client.Request("GET", "/stats");
      if (reply.ok()) ParseJson(reply.value().body, &c.gateway);
    }
  }
  c.server = ReadProc(setup.server.pid());
  c.driver = ReadProc(getpid());
  c.host = ReadHostCpu();
  return c;
}

}  // namespace

std::vector<uint32_t> CsgAuthors(const gmine::gtree::GTreeStore& store,
                                 std::string* error) {
  auto g = store.MaterializeFullGraph();
  if (!g.ok()) {
    *error = g.status().ToString();
    return {};
  }
  std::vector<uint32_t> authors =
      ConnectedAuthors(g.value(), store.tree(), store.labels());
  if (authors.size() < 3) {
    *error = StrFormat("%zu connected authors, CSG needs three",
                       authors.size());
  }
  return authors;
}

uint64_t ClientSeed(const Config& cfg, uint64_t salt, int client) {
  return StreamSeed(cfg.seed, salt * 16 + static_cast<uint64_t>(client) + 1);
}

PhaseResult RunPhase(const Config& cfg, Setup& setup,
                     const gmine::gtree::GTreeStore& ref,
                     const std::vector<uint32_t>& csg_authors, double seconds,
                     bool traced, uint64_t stream_salt, EditStream* writer) {
  PhaseResult out;
  const gmine::gtree::GTree& tree = ref.tree();
  const gmine::graph::LabelStore& labels = ref.labels();
  Window w;
  w.start_ns = NowNs() + static_cast<int64_t>(cfg.scale.warmup_s * 1e9);
  w.end_ns = w.start_ns + static_cast<int64_t>(seconds * 1e9);
  out.window_s = seconds;
  out.window_start_ns = w.start_ns;
  out.window_end_ns = w.end_ns;

  const int clients = cfg.workload == Workload::kNavigate ? 3
                      : cfg.workload == Workload::kRest   ? 1
                                                          : 4;
  out.clients.resize(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) {
    ClientResult* r = &out.clients[static_cast<size_t>(i)];
    const uint64_t seed = ClientSeed(cfg, stream_salt, i);
    const uint64_t op_base = (static_cast<uint64_t>(i) + 1) << 40;
    const bool fourth = i == 3;
    threads.emplace_back([&, r, seed, op_base, fourth] {
      switch (cfg.workload) {
        case Workload::kNavigate:
          WsNavigator(setup, "paper", tree, NavWalk(&tree, &labels, seed), w,
                      traced, op_base, r);
          break;
        case Workload::kMixed:
          if (fourth) {
            RestClient(setup,
                       RestMix(&tree, &labels, &csg_authors,
                               RestStoreName(cfg.workload), seed),
                       w, traced, op_base, r);
          } else {
            WsNavigator(setup, "paper", tree, NavWalk(&tree, &labels, seed),
                        w, traced, op_base, r);
          }
          break;
        case Workload::kRest:
          RestClient(setup,
                     RestMix(&tree, &labels, &csg_authors,
                             RestStoreName(cfg.workload), seed),
                     w, traced, op_base, r);
          break;
        case Workload::kOutOfCore:
          if (fourth) {
            JobClient(setup, w, traced, op_base, r);
          } else {
            WsNavigator(setup, "paper", tree,
                        AuthorCycle(&tree, &labels, seed), w, traced,
                        op_base, r);
          }
          break;
        case Workload::kEdit:
          if (fourth) {
            Writer(setup, writer, w, traced, op_base, r);
          } else {
            NetClient(setup, tree, ReaderOps(&tree, &labels, seed), w,
                      traced, op_base, r);
          }
          break;
      }
    });
  }
  auto sleep_until = [](int64_t ns) {
    const int64_t now = NowNs();
    if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
  };
  sleep_until(w.start_ns);
  out.begin = Scrape(cfg, setup);
  sleep_until(w.end_ns);
  out.end = Scrape(cfg, setup);
  for (std::thread& t : threads) t.join();
  return out;
}

}  // namespace perfbench
