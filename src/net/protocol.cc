#include "net/protocol.h"

#include <algorithm>
#include <cctype>

#include "util/json.h"
#include "util/string_util.h"

namespace gmine::net {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Newlines inside a one-line payload would desynchronize the stream.
std::string CollapseNewlines(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

struct OpEntry {
  RequestOp op;
  const char* name;
};

constexpr OpEntry kOps[] = {
    {RequestOp::kHelp, "help"},
    {RequestOp::kOpen, "open"},
    {RequestOp::kRoot, "root"},
    {RequestOp::kFocus, "focus"},
    {RequestOp::kChild, "child"},
    {RequestOp::kParent, "parent"},
    {RequestOp::kBack, "back"},
    {RequestOp::kLocate, "locate"},
    {RequestOp::kLoad, "load"},
    {RequestOp::kSummary, "summary"},
    {RequestOp::kConnectivity, "connectivity"},
    {RequestOp::kRender, "render"},
    {RequestOp::kQuery, "query"},
    {RequestOp::kEdit, "edit"},
    {RequestOp::kStats, "stats"},
    {RequestOp::kPing, "ping"},
    {RequestOp::kClose, "close"},
    {RequestOp::kShutdown, "shutdown"},
};

gmine::Result<RequestOp> OpFromName(std::string_view name) {
  const std::string lower = ToLower(name);
  for (const OpEntry& e : kOps) {
    if (lower == e.name) return e.op;
  }
  return Status::InvalidArgument(
      StrFormat("unknown op '%s' (try 'help')", lower.c_str()));
}

}  // namespace

Status LineReader::Feed(std::string_view bytes) {
  if (poisoned_) {
    return Status::InvalidArgument("line exceeds the protocol cap");
  }
  // Reclaim the consumed prefix before growing, so a long-lived
  // connection does not accumulate every line it ever received.
  if (consumed_ > 0 && consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > kMaxLineBytes) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
  // Enforce the cap per line, terminated or not — a peer that ships a
  // megabyte and a late newline is just as malformed as one that never
  // terminates.
  for (char c : bytes) {
    if (c == '\n') {
      line_len_ = 0;
    } else if (++line_len_ > max_) {
      poisoned_ = true;
      return Status::InvalidArgument("line exceeds the protocol cap");
    }
  }
  return Status::OK();
}

bool LineReader::NextLine(std::string* line) {
  size_t nl = buf_.find('\n', consumed_);
  if (nl == std::string::npos) return false;
  size_t end = nl;
  if (end > consumed_ && buf_[end - 1] == '\r') --end;
  line->assign(buf_, consumed_, end - consumed_);
  consumed_ = nl + 1;
  if (consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  }
  return true;
}

size_t LineReader::TakeRaw(size_t n, std::string* out) {
  size_t take = std::min(n, buf_.size() - consumed_);
  out->append(buf_, consumed_, take);
  consumed_ += take;
  if (consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  }
  return take;
}

const char* RequestOpName(RequestOp op) {
  for (const OpEntry& e : kOps) {
    if (e.op == op) return e.name;
  }
  return "?";
}

gmine::Result<Request> ParseRequest(std::string_view line) {
  std::string_view trimmed = TrimWhitespace(line);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  Request req;
  if (trimmed.front() == '{') {
    req.json = true;
    GMINE_ASSIGN_OR_RETURN(auto fields, ParseJsonStringObject(trimmed));
    std::string op_name;
    for (const auto& [key, value] : fields) {
      if (key == "op") {
        op_name = value;
      } else if (key == "arg") {
        req.arg = value;
      } else {
        return Status::InvalidArgument(
            StrFormat("unknown request field '%s' (want op, arg)",
                      key.c_str()));
      }
    }
    if (op_name.empty()) {
      return Status::InvalidArgument("json request needs an \"op\" field");
    }
    GMINE_ASSIGN_OR_RETURN(req.op, OpFromName(op_name));
    return req;
  }
  size_t sp = trimmed.find(' ');
  if (sp == std::string_view::npos) {
    GMINE_ASSIGN_OR_RETURN(req.op, OpFromName(trimmed));
  } else {
    GMINE_ASSIGN_OR_RETURN(req.op, OpFromName(trimmed.substr(0, sp)));
    req.arg.assign(TrimWhitespace(trimmed.substr(sp + 1)));
  }
  return req;
}

std::string EncodeResponse(const Response& response, bool json) {
  if (json) {
    if (!response.status.ok()) {
      return StrFormat("{\"ok\":false,\"code\":\"%s\",\"error\":\"%s\"}\n",
                       StatusCodeName(response.status.code()),
                       JsonEscape(response.status.message()).c_str());
    }
    std::string out = StrFormat("{\"ok\":true,\"text\":\"%s\"",
                                JsonEscape(response.text).c_str());
    if (response.has_body) {
      out += StrFormat(",\"body\":\"%s\"", JsonEscape(response.body).c_str());
    }
    out += "}\n";
    return out;
  }
  if (!response.status.ok()) {
    return StrFormat("ERR %s %s\n", StatusCodeName(response.status.code()),
                     CollapseNewlines(response.status.message()).c_str());
  }
  std::string text = CollapseNewlines(response.text);
  if (response.has_body) {
    return StrFormat("OK BODY %zu %s\n", response.body.size(),
                     text.c_str()) +
           response.body + "\n";
  }
  return StrFormat("OK %s\n", text.c_str());
}

gmine::Result<ResponseHead> ParseResponseHead(std::string_view line) {
  ResponseHead head;
  std::string_view trimmed = TrimWhitespace(line);
  if (!trimmed.empty() && trimmed.front() == '{') {
    // JSON frames pass through whole; the "ok" field is still surfaced
    // so scripted clients can branch on failures.
    head.json = true;
    head.ok = trimmed.find("\"ok\":true") != std::string_view::npos;
    head.code = head.ok ? "OK" : "ERR";
    head.text.assign(trimmed);
    return head;
  }
  if (StartsWith(trimmed, "OK")) {
    head.ok = true;
    head.code = "OK";
    std::string_view rest = TrimWhitespace(trimmed.substr(2));
    if (StartsWith(rest, "BODY ")) {
      rest = TrimWhitespace(rest.substr(5));
      size_t sp = rest.find(' ');
      std::string_view count =
          sp == std::string_view::npos ? rest : rest.substr(0, sp);
      uint64_t n = 0;
      if (!ParseUint64(count, &n)) {
        return Status::Corruption("bad BODY byte count in response head");
      }
      head.body_bytes = static_cast<int64_t>(n);
      head.text.assign(sp == std::string_view::npos
                           ? std::string_view()
                           : TrimWhitespace(rest.substr(sp + 1)));
    } else {
      head.text.assign(rest);
    }
    return head;
  }
  if (StartsWith(trimmed, "ERR ")) {
    std::string_view rest = TrimWhitespace(trimmed.substr(4));
    size_t sp = rest.find(' ');
    if (sp == std::string_view::npos) {
      head.code.assign(rest);
    } else {
      head.code.assign(rest.substr(0, sp));
      head.text.assign(TrimWhitespace(rest.substr(sp + 1)));
    }
    return head;
  }
  return Status::Corruption(
      StrFormat("response line matches neither OK/ERR nor JSON: '%s'",
                std::string(trimmed).c_str()));
}

std::string ProtocolHelpText() {
  return
      "ops:\n"
      "  help                   this text\n"
      "  open                   this connection's session id and focus\n"
      "  root                   focus the root community\n"
      "  focus <community>      focus a community by name\n"
      "  child <index>          descend to the index-th child\n"
      "  parent                 ascend to the parent\n"
      "  back                   return to the previous focus\n"
      "  locate <label>         focus the leaf holding a labeled node\n"
      "  load                   load the focused leaf's subgraph\n"
      "  summary                focus, path, children, display size\n"
      "  connectivity           context connectivity edge count\n"
      "  render svg             hierarchy view SVG (framed as a body)\n"
      "  query <statement>      run a GQL statement (docs/QUERY.md); the\n"
      "                         JSON result is framed as a body\n"
      "  edit <sub-op>          mutate the store (writable servers only):\n"
      "                         add-node [LABEL] / add-edge U V [W] /\n"
      "                         remove-edge U V / remove-node V queue ops;\n"
      "                         apply commits the batch (ack carries\n"
      "                         lsn/epoch); abort drops it\n"
      "  stats                  connection, server, pool and store stats\n"
      "  ping                   liveness probe\n"
      "  close                  close this connection\n"
      "  shutdown               stop the server\n"
      "json framing: {\"op\":\"focus\",\"arg\":\"s003\"} on one line";
}

}  // namespace gmine::net
