// Building blocks of the GMine analyst benchmark (perfbench/README.md):
// seeded randomness, latency percentiles with the 10-samples-beyond
// rule, failure accounting, in-memory span tracing with self times,
// parsers for the servers' counter surfaces (/stats JSON, the line
// protocol's `stats` reply, /proc), and child-process control.
//
// Everything here is benchmark code: it calls the program only through
// its public headers and never changes what the program does.

#ifndef GMINE_PERFBENCH_COMMON_H_
#define GMINE_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ time

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------- rng

/// SplitMix64: tiny, seedable, identical on every platform, so one seed
/// always yields one op stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n must be > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the workload seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// ------------------------------------------------------------ percentiles

/// A percentile picked under the rule "at least 10 samples beyond it".
struct Percentile {
  double value = 0.0;
  double percentile = 0.0;  // the percentile actually reported
  size_t samples = 0;
  /// False when not even the median had 10 samples beyond it; `value`
  /// is then the median of what there is.
  bool qualified = false;
};

/// Nearest-rank percentile `want` (0 < want < 100) of `samples`. When
/// fewer than 10 samples lie beyond a tail percentile (want > 50), it
/// reports the highest percentile that has 10 beyond it instead (one
/// decimal place), but never one below the median.
Percentile SelectPercentile(std::vector<double> samples, double want);

// ------------------------------------------------------ failure accounting

enum class Outcome : uint8_t {
  kOk,
  kError,    // the server answered with an error
  kRefused,  // connection refused / 429 / 503
  kTimeout,  // no reply within the client deadline
  kWrong,    // a reply that failed its output check
};

/// Maps a client-side error message to its outcome class.
Outcome ClassifyError(std::string_view message);

/// Attempted/failed counts by outcome. Every op that is not kOk counts
/// as failed — a refused or timed-out op never "meets" a latency limit.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t by_outcome[5] = {0, 0, 0, 0, 0};

  void Add(Outcome outcome);
  void Merge(const Tally& other);
  double ErrorRate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// ---------------------------------------------------------------- tracing

/// One timed call at a layer boundary. Spans of one request share
/// `op_id`; `parent` is the index of the enclosing span (or -1).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t op_id = 0;
};

/// Per-thread span recorder. Spans stay in memory until written out.
/// Disabled tracers record nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open one; returns its index.
  int32_t Begin(std::string_view name, uint64_t op_id);
  void End(int32_t index);
  /// Records an already-measured interval as a child of the innermost
  /// open span.
  void Add(std::string_view name, uint64_t op_id, int64_t start_ns,
           int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint64_t op_id)
      : tracer_(tracer),
        index_(tracer->enabled() ? tracer->Begin(name, op_id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Appends one tracer's spans to a merged list, rebasing their parent
/// indices onto it.
void AppendSpans(std::vector<Span>* out, std::vector<Span> more);

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (overlapping children count once).
struct LayerTime {
  double self_ns = 0.0;
  double total_ns = 0.0;
  uint64_t count = 0;
  std::vector<double> self_samples_ns;
};
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans);

/// Tab-separated dump: name, op_id, parent, start_ns, end_ns.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// ------------------------------------------------------------------- json

/// A parsed JSON value (enough of RFC 8259 for the gateway's replies).
struct Json {
  using Object = std::map<std::string, Json>;
  using Array = std::vector<Json>;
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<Array>, std::shared_ptr<Object>>
      v = nullptr;

  const Json* Get(std::string_view key) const;
  const Array* array() const;
  double Number(double fallback = 0.0) const;
  std::string String() const;
  /// Dotted path lookup ("gateway.requests"); 0 when absent.
  double Path(std::string_view dotted) const;
};

/// Parses `text`; false on malformed input.
bool ParseJson(std::string_view text, Json* out);

/// /stats endpoint counters by endpoint name (count, total_micros,
/// max_micros, errors).
struct EndpointCounters {
  double count = 0, errors = 0, total_micros = 0, max_micros = 0;
};
std::map<std::string, EndpointCounters> StatsEndpoints(const Json& stats);

// ------------------------------------------------------- line-protocol stats

/// Parses the line protocol's `stats` reply: " | "-separated sections
/// whose first word names the section, then key=value pairs. Keys come
/// back as "section.key" (e.g. "server.requests", "wal.size").
std::map<std::string, double> ParseNetStats(std::string_view text);

// ------------------------------------------------------------------- proc

struct ProcSample {
  double cpu_s = 0.0;    // utime + stime
  double peak_rss_mb = 0.0;  // VmHWM
  bool ok = false;
};
ProcSample ReadProc(pid_t pid);

/// Host-wide CPU time from /proc/stat, in clock ticks: steal is the time
/// the hypervisor ran something else while a virtual CPU wanted to run.
struct HostCpu {
  double steal = 0.0, total = 0.0;
};
HostCpu ReadHostCpu();

// ---------------------------------------------------------------- process

/// A child process with its stdout+stderr sent to a log file. The child
/// dies with the driver (PR_SET_PDEATHSIG); the destructor kills and
/// reaps it if it is still running.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Start(const std::vector<std::string>& argv, const std::string& log);
  pid_t pid() const { return pid_; }
  /// Waits up to `timeout_ms`; returns the exit status or -1.
  int Wait(int timeout_ms);
  /// Sends `sig`, then reaps.
  void Kill(int sig);

 private:
  pid_t pid_ = -1;
};

/// Runs a command to completion with its output in `log`; returns its
/// exit code (or -1) and, when `output` is set, the log's contents.
int RunCommand(const std::vector<std::string>& argv, const std::string& log,
               std::string* output, int timeout_ms);

// -------------------------------------------------------------------- fs

bool ReadFile(const std::string& path, std::string* out);
uint64_t FileSize(const std::string& path);

}  // namespace perfbench

#endif  // GMINE_PERFBENCH_COMMON_H_
