// Wire protocol of the GMine network front end (docs/SERVER.md).
//
// Requests are newline-delimited. Two framings share the connection and
// are detected per line:
//
//   text:  <OP> [arg...]\n          e.g. "FOCUS s003", "child 2"
//   json:  {"op":"focus","arg":"s003"}\n   (single line, flat strings)
//
// Op keywords are case-insensitive; everything after the first space is
// the single argument (labels may contain spaces). A request framed as
// JSON gets its response framed as JSON too.
//
// Text responses are one line, except when a raw body follows:
//
//   OK <text>\n
//   OK BODY <nbytes> <text>\n<nbytes raw bytes>\n
//   ERR <CodeName> <message>\n
//
// "BODY" is a reserved token: no op's response text begins with it.
// JSON responses are always a single line — bodies are embedded
// escaped: {"ok":true,"text":"...","body":"..."} or
// {"ok":false,"code":"NotFound","error":"..."}.
//
// This header is shared by the server, the client and the protocol
// tests; it performs no IO.

#ifndef GMINE_NET_PROTOCOL_H_
#define GMINE_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gmine::net {

/// Hard cap on one *request* line (also the text response-head line,
/// whose raw body is length-framed and exempt). A connection that
/// exceeds it is malformed and gets dropped. JSON-framed responses
/// embed their body escaped in the single response line, so clients
/// must read responses with the larger kMaxResponseLineBytes.
inline constexpr size_t kMaxLineBytes = 64 * 1024;

/// Cap a client applies to one response line: generous because a JSON
/// `render svg` response carries the whole escaped document inline.
inline constexpr size_t kMaxResponseLineBytes = 16 * 1024 * 1024;

/// Splits a raw byte stream into newline-delimited lines, tolerating
/// partial reads: Feed() any number of fragments, then drain complete
/// lines with NextLine(). CRLF is normalized to LF. Once the buffered
/// partial line exceeds the cap, Feed() fails and the reader stays
/// poisoned — the connection should be closed.
class LineReader {
 public:
  explicit LineReader(size_t max_line_bytes = kMaxLineBytes)
      : max_(max_line_bytes) {}

  /// Appends raw bytes. InvalidArgument once a single line exceeds the
  /// cap (repeat calls keep failing).
  Status Feed(std::string_view bytes);

  /// Pops the next complete line, without its newline and with a
  /// trailing CR stripped. False when no complete line is buffered.
  bool NextLine(std::string* line);

  /// Appends up to `n` raw buffered bytes to `out`, bypassing line
  /// framing — clients switch to this after a response head announces
  /// a BODY, then read the remainder straight off the socket. Returns
  /// the number of bytes taken.
  size_t TakeRaw(size_t n, std::string* out);

  /// Bytes buffered beyond the last complete line.
  size_t buffered() const { return buf_.size() - consumed_; }

 private:
  std::string buf_;
  size_t consumed_ = 0;   // prefix already returned through NextLine
  size_t line_len_ = 0;   // length of the line currently being fed
  size_t max_;
  bool poisoned_ = false;
};

/// Everything a remote client can ask for.
enum class RequestOp : uint8_t {
  kHelp,
  kOpen,          // report this connection's session id + focus
  kRoot,
  kFocus,         // arg: community name
  kChild,         // arg: child index
  kParent,
  kBack,
  kLocate,        // arg: exact node label
  kLoad,
  kSummary,       // focus, path, children, display size
  kConnectivity,
  kRender,        // arg: "svg"; response carries the document as body
  kQuery,         // arg: GQL statement; JSON result framed as a body
  kEdit,          // arg: edit sub-op (writable servers only): add-node
                  // [LABEL] / add-edge U V [W] / remove-edge U V /
                  // remove-node V / abort / apply — apply acks with
                  // lsn/epoch like `gmine edit`
  kStats,
  kPing,
  kClose,         // close this connection
  kShutdown,      // stop the whole server
};

/// Keyword for an op ("focus", "child", ...).
const char* RequestOpName(RequestOp op);

/// One parsed request line.
struct Request {
  RequestOp op = RequestOp::kHelp;
  std::string arg;
  /// The request arrived JSON-framed; frame the response as JSON.
  bool json = false;
};

/// Parses one request line (either framing). InvalidArgument on empty
/// lines, unknown ops and malformed JSON.
gmine::Result<Request> ParseRequest(std::string_view line);

/// One response before encoding. A non-OK `status` encodes as ERR and
/// ignores `text`/`body`.
struct Response {
  Status status;
  std::string text;  // single line; newlines are collapsed to spaces
  std::string body;  // raw body (RENDER); framed per the grammar above
  bool has_body = false;
};

/// Serializes a response in the requested framing, including every
/// trailing newline the grammar requires.
std::string EncodeResponse(const Response& response, bool json);

/// Client-side view of a decoded text response head line.
struct ResponseHead {
  bool ok = false;
  std::string code;      // "OK" or the ERR code name
  std::string text;      // payload text / error message; raw line for JSON
  int64_t body_bytes = -1;  // >= 0 when a raw body follows
  bool json = false;     // line was a JSON frame (passed through in text)
};

/// Parses a response head line (text or JSON framing). Corruption on
/// lines that match neither grammar.
gmine::Result<ResponseHead> ParseResponseHead(std::string_view line);

/// Multi-line usage text listing every op (HELP's payload, one line on
/// the wire after newline collapsing; also used by docs and tests).
std::string ProtocolHelpText();

}  // namespace gmine::net

#endif  // GMINE_NET_PROTOCOL_H_
