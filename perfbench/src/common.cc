#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

// ------------------------------------------------------------------- rng

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001b3ull + stream * 0x9e3779b97f4a7c15ull + 1);
  return rng.Next();
}

// ------------------------------------------------------------ percentiles

namespace {

// Nearest rank: the smallest index whose cumulative share reaches p.
size_t RankIndex(double p, size_t n) {
  double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  size_t idx = r < 1.0 ? 1 : static_cast<size_t>(r);
  if (idx > n) idx = n;
  return idx - 1;
}

}  // namespace

Percentile SelectPercentile(std::vector<double> samples, double want) {
  Percentile out;
  out.samples = samples.size();
  out.percentile = want;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  auto beyond = [&](double p) { return n - 1 - RankIndex(p, n); };
  if (beyond(want) >= 10 || want <= 50.0) {
    out.value = samples[RankIndex(want, n)];
    out.qualified = beyond(want) >= 10;
    return out;
  }
  // A tail percentile falls back to the highest percentile (one decimal)
  // with >= 10 samples beyond it, but never below the median.
  int64_t tenths = n > 10 ? static_cast<int64_t>(1000 * (n - 10) / n) : 0;
  while (tenths > 500 && beyond(static_cast<double>(tenths) / 10.0) < 10) {
    --tenths;
  }
  const double p = static_cast<double>(tenths) / 10.0;
  out.qualified = tenths >= 500 && beyond(p) >= 10;
  out.percentile = out.qualified ? p : 50.0;
  out.value = samples[RankIndex(out.percentile, n)];
  return out;
}

// ------------------------------------------------------ failure accounting

Outcome ClassifyError(std::string_view message) {
  auto has = [&](std::string_view needle) {
    return message.find(needle) != std::string_view::npos;
  };
  if (has("timed out") || has("timeout") || has("Timeout")) {
    return Outcome::kTimeout;
  }
  if (has("refused") || has("503") || has("429") || has("at capacity") ||
      has("quota")) {
    return Outcome::kRefused;
  }
  return Outcome::kError;
}

void Tally::Add(Outcome outcome) {
  ++attempted;
  ++by_outcome[static_cast<int>(outcome)];
  if (outcome != Outcome::kOk) ++failed;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (int i = 0; i < 5; ++i) by_outcome[i] += other.by_outcome[i];
}

// ---------------------------------------------------------------- tracing

int32_t Tracer::Begin(std::string_view name, uint64_t op_id) {
  Span span;
  span.name = std::string(name);
  span.op_id = op_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Add(std::string_view name, uint64_t op_id, int64_t start_ns,
                 int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = std::string(name);
  span.op_id = op_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

void AppendSpans(std::vector<Span>* out, std::vector<Span> more) {
  const int32_t offset = static_cast<int32_t>(out->size());
  for (Span& s : more) {
    if (s.parent >= 0) s.parent += offset;
    out->push_back(std::move(s));
  }
}

std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t duration = std::max<int64_t>(0, s.end_ns - s.start_ns);
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    LayerTime& layer = out[s.name];
    const double self = static_cast<double>(duration - covered);
    layer.self_ns += self;
    layer.total_ns += static_cast<double>(duration);
    layer.count += 1;
    layer.self_samples_ns.push_back(self);
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name\top_id\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.op_id << '\t' << s.parent << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------------- json

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool Parse(Json* out) {
    if (!Value(out, 0)) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Str(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xc0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out->push_back(static_cast<char>(0xe0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default: out->push_back(e); break;
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > 64) return false;
    Skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      auto obj = std::make_shared<Json::Object>();
      Skip();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        out->v = obj;
        return true;
      }
      while (true) {
        Skip();
        std::string key;
        if (!Str(&key)) return false;
        Skip();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        Json value;
        if (!Value(&value, depth + 1)) return false;
        (*obj)[key] = std::move(value);
        Skip();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          break;
        }
        return false;
      }
      out->v = obj;
      return true;
    }
    if (c == '[') {
      ++pos_;
      auto arr = std::make_shared<Json::Array>();
      Skip();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        out->v = arr;
        return true;
      }
      while (true) {
        Json value;
        if (!Value(&value, depth + 1)) return false;
        arr->push_back(std::move(value));
        Skip();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          break;
        }
        return false;
      }
      out->v = arr;
      return true;
    }
    if (c == '"') {
      std::string str;
      if (!Str(&str)) return false;
      out->v = std::move(str);
      return true;
    }
    if (Literal("true")) {
      out->v = true;
      return true;
    }
    if (Literal("false")) {
      out->v = false;
      return true;
    }
    if (Literal("null")) {
      out->v = nullptr;
      return true;
    }
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::strchr("+-0123456789.eE", s_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return false;
    out->v = d;
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Get(std::string_view key) const {
  const auto* obj = std::get_if<std::shared_ptr<Object>>(&v);
  if (obj == nullptr || *obj == nullptr) return nullptr;
  auto it = (*obj)->find(std::string(key));
  return it == (*obj)->end() ? nullptr : &it->second;
}

const Json::Array* Json::array() const {
  const auto* arr = std::get_if<std::shared_ptr<Array>>(&v);
  return arr == nullptr ? nullptr : arr->get();
}

double Json::Number(double fallback) const {
  const auto* d = std::get_if<double>(&v);
  return d == nullptr ? fallback : *d;
}

std::string Json::String() const {
  const auto* s = std::get_if<std::string>(&v);
  return s == nullptr ? std::string() : *s;
}

double Json::Path(std::string_view dotted) const {
  const Json* cur = this;
  while (cur != nullptr && !dotted.empty()) {
    const size_t dot = dotted.find('.');
    cur = cur->Get(dotted.substr(0, dot));
    dotted = dot == std::string_view::npos ? std::string_view()
                                           : dotted.substr(dot + 1);
  }
  return cur == nullptr ? 0.0 : cur->Number();
}

bool ParseJson(std::string_view text, Json* out) {
  JsonParser parser(text);
  return parser.Parse(out);
}

std::map<std::string, EndpointCounters> StatsEndpoints(const Json& stats) {
  std::map<std::string, EndpointCounters> out;
  const Json* eps = stats.Get("endpoints");
  if (eps == nullptr || eps->array() == nullptr) return out;
  for (const Json& ep : *eps->array()) {
    const Json* name = ep.Get("endpoint");
    if (name == nullptr) continue;
    EndpointCounters c;
    c.count = ep.Path("count");
    c.errors = ep.Path("errors");
    c.total_micros = ep.Path("total_micros");
    c.max_micros = ep.Path("max_micros");
    out[name->String()] = c;
  }
  return out;
}

// ------------------------------------------------------- line-protocol stats

std::map<std::string, double> ParseNetStats(std::string_view text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t bar = text.find(" | ", pos);
    std::string_view section = text.substr(
        pos, bar == std::string_view::npos ? std::string_view::npos
                                           : bar - pos);
    std::istringstream words{std::string(section)};
    std::string word, name;
    while (words >> word) {
      const size_t eq = word.find('=');
      if (eq == std::string::npos) {
        if (name.empty()) name = word;
        continue;
      }
      if (name.empty()) name.push_back('?');  // a section with no name
      char* end = nullptr;
      const std::string value = word.substr(eq + 1);
      const double d = std::strtod(value.c_str(), &end);
      if (end != value.c_str()) {
        std::string key = name;
        key.append(".").append(word, 0, eq);
        out[key] = d;
      }
    }
    if (bar == std::string_view::npos) break;
    pos = bar + 3;
  }
  return out;
}

// ------------------------------------------------------------------- proc

HostCpu ReadHostCpu() {
  HostCpu out;
  std::string stat;
  if (!ReadFile("/proc/stat", &stat) || stat.rfind("cpu ", 0) != 0) {
    return out;
  }
  // cpu user nice system idle iowait irq softirq steal ...
  std::istringstream line(stat.substr(4, stat.find('\n') - 4));
  double value = 0;
  for (int i = 0; i < 8 && (line >> value); ++i) {
    out.total += value;
    if (i == 7) out.steal = value;
  }
  return out;
}

ProcSample ReadProc(pid_t pid) {
  ProcSample out;
  std::string base = "/proc/";
  base += std::to_string(pid);
  std::string stat;
  if (!ReadFile(base + "/stat", &stat)) return out;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 (1-based) of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return out;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  out.cpu_s = (utime + stime) / hz;
  std::string status;
  if (ReadFile(base + "/status", &status)) {
    const size_t at = status.find("VmHWM:");
    if (at != std::string::npos) {
      out.peak_rss_mb =
          std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
    }
  }
  out.ok = true;
  return out;
}

// ---------------------------------------------------------------- process

namespace {

pid_t Spawn(const std::vector<std::string>& argv, int out_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: die with the driver, write into the log, run the program.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (out_fd >= 0) {
    dup2(out_fd, STDOUT_FILENO);
    dup2(out_fd, STDERR_FILENO);
  }
  execv(args[0], args.data());
  _exit(127);
}

int WaitPid(pid_t pid, int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (true) {
    int status = 0;
    const pid_t got = waitpid(pid, &status, WNOHANG);
    if (got == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    }
    if (got < 0) return -1;
    if (NowNs() > deadline) return -2;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

Child::~Child() {
  if (pid_ > 0) Kill(SIGKILL);
}

bool Child::Start(const std::vector<std::string>& argv,
                  const std::string& log) {
  const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_ = Spawn(argv, fd);
  if (fd >= 0) close(fd);
  return pid_ > 0;
}

int Child::Wait(int timeout_ms) {
  if (pid_ <= 0) return -1;
  const int rc = WaitPid(pid_, timeout_ms);
  if (rc != -2) pid_ = -1;
  return rc;
}

void Child::Kill(int sig) {
  if (pid_ <= 0) return;
  kill(pid_, sig);
  if (WaitPid(pid_, 10000) == -2) {
    kill(pid_, SIGKILL);
    WaitPid(pid_, 10000);
  }
  pid_ = -1;
}

int RunCommand(const std::vector<std::string>& argv, const std::string& log,
               std::string* output, int timeout_ms) {
  // Output goes to a log file so a chatty child never blocks on a pipe.
  const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const pid_t pid = Spawn(argv, fd);
  if (fd >= 0) close(fd);
  if (pid <= 0) return -1;
  int rc = WaitPid(pid, timeout_ms);
  if (rc == -2) {
    kill(pid, SIGKILL);
    WaitPid(pid, 10000);
    rc = -1;
  }
  if (output != nullptr) ReadFile(log, output);
  return rc;
}

// -------------------------------------------------------------------- fs

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<uint64_t>(in.tellg());
}

}  // namespace perfbench
