// The navigation grammar's one implementation (docs/SERVER.md). Every
// front end — `gmine serve`, the line-protocol net::Server and the
// gateway's WebSocket — parses a request with ParseRequest and hands
// the session and query ops to these functions, so an op answers with
// the same text whichever transport carried it.
//
// The functions take no lock and open no session: each front end calls
// them inside its own session lock (WithSession / CatalogSession::With)
// or epoch gate, and keeps its transport-level ops (help, ping, stats,
// edit, close, shutdown) to itself.

#ifndef GMINE_NET_OPS_H_
#define GMINE_NET_OPS_H_

#include <string_view>

#include "net/protocol.h"

namespace gmine::gtree {
class NavigationSession;
}  // namespace gmine::gtree

namespace gmine::query {
class Executor;
struct QueryStats;
}  // namespace gmine::query

namespace gmine::net {

/// True for the session ops that move the focus (root focus child
/// parent back locate).
bool MovesFocus(RequestOp op);

/// Runs one session op against `nav`: open root focus child parent back
/// locate load summary connectivity render. For `open` the text is only
/// the focus ("focus=s000 display=4"); the front end prefixes its own
/// session identity. `render svg` carries the document as the body.
/// Any other op answers InvalidArgument.
Response RunSessionOp(const Request& request, gtree::NavigationSession& nav);

/// Runs one GQL statement: text "rows=R pages_scanned=S/T pruned=P",
/// the JSON result (query::ResultToJson) as the body. On success the
/// run's counters are copied to `*stats` when it is non-null.
Response RunQueryOp(const query::Executor& executor,
                    std::string_view statement,
                    query::QueryStats* stats = nullptr);

}  // namespace gmine::net

#endif  // GMINE_NET_OPS_H_
