// One op script, three front ends: `gmine serve`, a net::Server client
// and a gateway WebSocket run the same navigation + query script on the
// same store, and every op must answer with the same text on all three
// (net/ops is the one implementation behind them). Transport framing is
// stripped first: serve's "[s0] <op> -> ", the line protocol's "OK "
// head and the WebSocket reply's JSON object.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "core/catalog.h"
#include "core/session_manager.h"
#include "gen/dblp.h"
#include "graph/graph_io.h"
#include "gtree/builder.h"
#include "gtree/store.h"
#include "http/client.h"
#include "http/gateway.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/buffer_pool.h"
#include "util/json.h"
#include "util/string_util.h"

namespace gmine {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kScript = {
    "root",
    "child 0",
    "focus s002",
    "parent",
    "back",
    "locate Jiawei Han",
    "load",
    "summary",
    "connectivity",
    "render svg",
    "query MATCH NODES WHERE id < 3 ORDER BY id ASC",
};

/// What one front end answered to one op, framing stripped.
struct Reply {
  std::string text;
  std::string body;  // empty where the front end drops bodies (serve)
};

void BuildStore(const std::string& path) {
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 17;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  gtree::GTreeBuildOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  gtree::GTree tree = std::move(gtree::BuildGTree(dblp.graph, opts)).value();
  auto conn = gtree::ConnectivityIndex::Build(dblp.graph, tree);
  ASSERT_TRUE(
      gtree::GTreeStore::Create(path, dblp.graph, tree, conn, dblp.labels)
          .ok());
}

/// `gmine serve` with one session: "[s0] <op> -> <text>" per line.
std::vector<Reply> RunServe(const std::string& store,
                            const std::string& script_path) {
  std::string script;
  for (const std::string& op : kScript) script += "0 " + op + "\n";
  EXPECT_TRUE(graph::WriteStringToFile(script, script_path).ok());
  std::string out;
  Status st = cli::RunCli(
      {"serve", store, "--sessions", "1", "--script", script_path}, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<Reply> replies;
  for (const std::string& line : SplitString(out, "\n")) {
    if (!StartsWith(line, "[s0] ")) continue;
    const size_t arrow = line.find(" -> ");
    EXPECT_NE(arrow, std::string::npos) << line;
    if (arrow == std::string::npos) continue;
    replies.push_back({line.substr(arrow + 4), ""});
  }
  return replies;
}

/// A net::Server connection: the OK head's text and the framed body.
std::vector<Reply> RunLineProtocol(const std::string& store_path) {
  auto store = std::move(gtree::GTreeStore::Open(store_path)).value();
  core::SessionManager pool(store.get());
  net::Server server(&pool);
  EXPECT_TRUE(server.Start().ok());
  net::Client client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<Reply> replies;
  for (const std::string& op : kScript) {
    auto r = client.Roundtrip(op);
    EXPECT_TRUE(r.ok()) << op;
    if (!r.ok()) break;
    EXPECT_TRUE(r.value().ok) << op << ": " << r.value().text;
    replies.push_back({r.value().text, r.value().body});
  }
  client.Close();
  server.Stop();
  return replies;
}

/// A gateway WebSocket: the JSON reply's "text" and "body" fields.
std::vector<Reply> RunWebSocket(const std::string& dir) {
  storage::BufferPool buffer_pool;
  core::CatalogOptions copts;
  copts.store.buffer_pool = &buffer_pool;
  auto catalog = std::move(core::Catalog::OpenDirectory(dir, copts)).value();
  http::GatewayOptions gopts;
  gopts.buffer_pool = &buffer_pool;
  http::Gateway gateway(catalog.get(), gopts);
  EXPECT_TRUE(gateway.Start().ok());
  http::GatewayClient ws;
  EXPECT_TRUE(ws.Connect("127.0.0.1", gateway.port()).ok());
  EXPECT_TRUE(ws.UpgradeWebSocket("/api/v1/stores/s0/ws").ok());
  std::vector<Reply> replies;
  for (const std::string& op : kScript) {
    auto frame = ws.Roundtrip(op);
    EXPECT_TRUE(frame.ok()) << op;
    if (!frame.ok()) break;
    // {"ok":true,"text":"...","body":"..."}: drop the one non-string
    // field, then the rest is a flat string object.
    const std::string head = "{\"ok\":true,";
    EXPECT_TRUE(StartsWith(frame.value(), head)) << op << ": "
                                                 << frame.value();
    if (!StartsWith(frame.value(), head)) continue;
    auto fields =
        ParseJsonStringObject("{" + frame.value().substr(head.size()));
    EXPECT_TRUE(fields.ok()) << frame.value();
    if (!fields.ok()) continue;
    Reply reply;
    for (const auto& [key, value] : fields.value()) {
      if (key == "text") reply.text = value;
      if (key == "body") reply.body = value;
    }
    replies.push_back(std::move(reply));
  }
  ws.Close();
  gateway.Stop();
  return replies;
}

TEST(FrontendAgreementTest, EveryOpAnswersTheSameTextOnAllThreeFrontEnds) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/frontend_agreement";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store = dir + "/s0.gtree";
  BuildStore(store);

  const std::vector<Reply> serve = RunServe(store, dir + ".script");
  const std::vector<Reply> line = RunLineProtocol(store);
  const std::vector<Reply> ws = RunWebSocket(dir);
  ASSERT_EQ(serve.size(), kScript.size());
  ASSERT_EQ(line.size(), kScript.size());
  ASSERT_EQ(ws.size(), kScript.size());
  for (size_t i = 0; i < kScript.size(); ++i) {
    EXPECT_EQ(serve[i].text, line[i].text) << kScript[i];
    EXPECT_EQ(line[i].text, ws[i].text) << kScript[i];
    // Both wire transports carry the same body (SVG document, JSON
    // result); serve prints text only.
    EXPECT_EQ(line[i].body, ws[i].body) << kScript[i];
  }
  // The script really exercised the bodies and the leaf load.
  EXPECT_TRUE(StartsWith(line[6].text, "leaf=")) << line[6].text;
  EXPECT_TRUE(StartsWith(line[9].body, "<svg")) << line[9].body.substr(0, 40);
  EXPECT_NE(line[10].body.find("\"rows\":"), std::string::npos);
  fs::remove_all(dir);
  fs::remove(dir + ".script");
}

}  // namespace
}  // namespace gmine
