// The benchmark driver's shared state: workload identity, the set-up it
// produced, what one measured phase collected, and the traced replay's
// per-layer output. main.cc sequences set-up, phases, checks and the
// report; clients.cc runs the load; replay.cc runs the traced replay.

#ifndef GMINE_PERFBENCH_DRIVER_H_
#define GMINE_PERFBENCH_DRIVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "gtree/store.h"
#include "ops.h"

namespace perfbench {

enum class Workload : uint8_t { kNavigate, kMixed, kOutOfCore, kEdit, kRest };
const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

/// Graph size: `paper` is the 315,625-node DBLP surrogate; `smoke` is
/// the reduced scale the self-test runs.
struct Scale {
  uint32_t levels = 5, fanout = 5, leaf = 101;
  double warmup_s = 1.0;
  /// Traced replay caps (ops per navigator, REST ops, edit batches).
  size_t replay_nav_ops = 3000, replay_rest_ops = 8, replay_edits = 40;
};

struct Config {
  Workload workload = Workload::kNavigate;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string gmine;  // path of the gmine CLI binary
  std::string work;   // scratch directory for this run
  Scale scale;
};

/// Pool budget each workload's server runs with.
uint64_t BudgetMb(Workload w);

/// Catalog entry the REST client queries: mixed_analyst's copy that no
/// navigator leases, or rest_analyst's only store.
inline const char* RestStoreName(Workload w) {
  return w == Workload::kRest ? "paper" : "paper_rest";
}

/// Client index (and so stream seed) of the REST client: the fourth
/// client beside navigators, or the only one.
inline int RestClientIndex(Workload w) { return w == Workload::kRest ? 0 : 3; }

/// What set-up built and started.
struct Setup {
  std::string store_dir;    // gateway catalog directory
  std::string nav_store;    // store the navigators use ("paper")
  std::string rest_store;   // store file the REST client queries
  std::string replay_store; // edit_navigate (traced): pristine copy
  double setup_s = 0, generate_s = 0, build_s = 0, stream_build_s = 0;
  double spilled_bytes = 0;
  Child server;
  uint16_t port = 0;
};

/// Latencies of one op class, each with its completion time.
struct Samples {
  std::vector<double> value;
  std::vector<int64_t> end_ns;
  void Add(double v, int64_t end) {
    value.push_back(v);
    end_ns.push_back(end);
  }
};

/// Samples collected by one client thread during one phase.
struct ClientResult {
  Tally tally;
  std::vector<int64_t> done_ns;  // completion times of in-window ops
  Samples nav_ms, render_ms, query_ms, csg_ms, pagerank_s, scan_ms,
      queue_wait_ms, edit_ack_ms;
  /// Client round trip per op class (sum ms, count): the base of the
  /// unattributed-share figure.
  std::map<std::string, std::pair<double, uint64_t>> by_class;
  std::vector<Span> spans;
  std::vector<std::string> problems;  // first few check failures
  // Replies to verify after the phase:
  std::vector<std::pair<std::string, std::string>> gql_samples;
  std::vector<std::string> pagerank_results;
  // Writer bookkeeping:
  std::vector<EditBatch> acked;
  uint64_t edit_ops = 0, edit_script_bytes = 0;
  double edit_groups = 0;  // sum of 1/group_size over acks
};

/// Counters scraped from the server and /proc at a phase boundary.
struct Counters {
  Json gateway;                        // /stats (gateway workloads)
  std::map<std::string, double> net;   // `stats` op (edit_navigate)
  ProcSample server, driver;
  HostCpu host;
  uint64_t store_bytes = 0, wal_bytes = 0;
  int64_t at_ns = 0;
};

/// Everything one measured phase produced.
struct PhaseResult {
  double window_s = 0;
  int64_t window_start_ns = 0, window_end_ns = 0;
  std::vector<ClientResult> clients;
  Counters begin, end;
};

/// ConnectedAuthors of the store's materialized graph. Sets `error`
/// when the graph cannot be read or holds fewer than three of them.
std::vector<uint32_t> CsgAuthors(const gmine::gtree::GTreeStore& store,
                                 std::string* error);

/// Runs the workload's clients against the running server for
/// `seconds` after the warm-up; `stream_salt` picks fresh op streams
/// per phase; `csg_authors` are the REST client's CSG sources
/// (ConnectedAuthors); `writer` carries the edit stream across phases.
PhaseResult RunPhase(const Config& cfg, Setup& setup,
                     const gmine::gtree::GTreeStore& ref,
                     const std::vector<uint32_t>& csg_authors, double seconds,
                     bool traced, uint64_t stream_salt, EditStream* writer);

/// Per-layer metric name -> value, plus span dump of the replay.
struct ReplayResult {
  std::map<std::string, double> metrics;
  std::vector<Span> spans;
  /// Replay mean (ms) per op class, for the unattributed share.
  std::map<std::string, double> class_ms;
  std::vector<std::string> problems;
  std::string pagerank_top;  // formatted top-10, when mining ran
};

/// Replays the workload's seeded ops in-process against the layer
/// functions, with a span around each call.
ReplayResult RunReplay(const Config& cfg, const Setup& setup,
                       uint64_t stream_salt);

/// PageRankOverPages top-10 on `store_path` under the workload budget,
/// formatted as the gateway's job result formats it.
std::string PageRankTop(const std::string& store_path, uint64_t budget_mb,
                        std::string* error);

/// Client stream seeds.
uint64_t ClientSeed(const Config& cfg, uint64_t salt, int client);

}  // namespace perfbench

#endif  // GMINE_PERFBENCH_DRIVER_H_
