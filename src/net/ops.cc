#include "net/ops.h"

#include <string>
#include <utility>
#include <vector>

#include "core/views.h"
#include "gtree/navigation.h"
#include "query/executor.h"
#include "util/string_util.h"

namespace gmine::net {

namespace {

/// The focus line every focus-moving op answers with.
std::string FocusText(const gtree::NavigationSession& nav) {
  return StrFormat("focus=%s display=%zu",
                   nav.store()->tree().node(nav.focus()).name.c_str(),
                   nav.context().DisplaySize());
}

Status Run(const Request& request, gtree::NavigationSession& nav,
           Response* response) {
  const gtree::GTree& tree = nav.store()->tree();
  switch (request.op) {
    case RequestOp::kOpen:
      break;
    case RequestOp::kRoot:
      GMINE_RETURN_IF_ERROR(nav.FocusRoot());
      break;
    case RequestOp::kFocus: {
      const gtree::TreeNodeId id = tree.FindByName(request.arg);
      if (id == gtree::kInvalidTreeNode) {
        return Status::NotFound(
            StrFormat("community '%s' not found", request.arg.c_str()));
      }
      GMINE_RETURN_IF_ERROR(nav.FocusNode(id));
      break;
    }
    case RequestOp::kChild: {
      uint64_t index = 0;
      if (!ParseUint64(request.arg, &index)) {
        return Status::InvalidArgument("child expects an index");
      }
      GMINE_RETURN_IF_ERROR(nav.FocusChild(index));
      break;
    }
    case RequestOp::kParent:
      GMINE_RETURN_IF_ERROR(nav.FocusParent());
      break;
    case RequestOp::kBack:
      GMINE_RETURN_IF_ERROR(nav.Back());
      break;
    case RequestOp::kLocate: {
      auto v = nav.LocateByLabel(request.arg);
      if (!v.ok()) return v.status();
      response->text =
          StrFormat("node %u %s", v.value(), FocusText(nav).c_str());
      return Status::OK();
    }
    case RequestOp::kLoad: {
      auto payload = nav.LoadFocusSubgraph();
      if (!payload.ok()) return payload.status();
      const graph::Graph& g = payload.value()->subgraph.graph;
      response->text = StrFormat(
          "leaf=%s n=%u e=%llu", tree.node(nav.focus()).name.c_str(),
          g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
      return Status::OK();
    }
    case RequestOp::kSummary: {
      const gtree::TreeNode& focus = tree.node(nav.focus());
      std::vector<std::string> path;
      for (gtree::TreeNodeId id : tree.PathFromRoot(nav.focus())) {
        path.push_back(tree.node(id).name);
      }
      response->text = StrFormat(
          "focus=%s depth=%u children=%zu display=%zu path=%s",
          focus.name.c_str(), focus.depth, focus.children.size(),
          nav.context().DisplaySize(), JoinStrings(path, "/").c_str());
      return Status::OK();
    }
    case RequestOp::kConnectivity:
      response->text =
          StrFormat("edges=%zu", nav.ContextConnectivity().size());
      return Status::OK();
    case RequestOp::kRender: {
      if (request.arg != "svg") {
        return Status::InvalidArgument(
            "render supports exactly one format: 'render svg'");
      }
      auto svg = core::HierarchyViewSvgString(tree, nav.context(),
                                              nav.store()->connectivity());
      if (!svg.ok()) return svg.status();
      response->body = std::move(svg).value();
      response->has_body = true;
      response->text =
          StrFormat("svg %s", tree.node(nav.focus()).name.c_str());
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(StrFormat(
          "'%s' is not a session op", RequestOpName(request.op)));
  }
  // Shared tail of `open` and the plain focus-moving ops.
  response->text = FocusText(nav);
  return Status::OK();
}

}  // namespace

bool MovesFocus(RequestOp op) {
  switch (op) {
    case RequestOp::kRoot:
    case RequestOp::kFocus:
    case RequestOp::kChild:
    case RequestOp::kParent:
    case RequestOp::kBack:
    case RequestOp::kLocate:
      return true;
    default:
      return false;
  }
}

Response RunSessionOp(const Request& request,
                      gtree::NavigationSession& nav) {
  Response response;
  response.status = Run(request, nav, &response);
  return response;
}

Response RunQueryOp(const query::Executor& executor,
                    std::string_view statement, query::QueryStats* stats) {
  Response response;
  if (statement.empty()) {
    response.status =
        Status::InvalidArgument("query expects a GQL statement");
    return response;
  }
  auto result = executor.ExecuteText(statement);
  if (!result.ok()) {
    response.status = result.status();
    return response;
  }
  const query::QueryStats& qs = result.value().stats;
  if (stats != nullptr) *stats = qs;
  response.text = StrFormat("rows=%llu pages_scanned=%llu/%llu pruned=%llu",
                            static_cast<unsigned long long>(qs.rows_output),
                            static_cast<unsigned long long>(qs.pages_scanned),
                            static_cast<unsigned long long>(qs.pages_total),
                            static_cast<unsigned long long>(qs.pages_pruned));
  response.body = query::ResultToJson(result.value());
  response.has_body = true;
  return response;
}

}  // namespace gmine::net
