// Minimal JSON string helpers shared by the wire protocols (net/, http/)
// and the query layer's result serializer. Only what GMine emits and
// accepts: escaped string literals and single-line flat objects whose
// values are all strings.

#ifndef GMINE_UTIL_JSON_H_
#define GMINE_UTIL_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gmine {

/// Escapes a string for embedding in a JSON double-quoted literal.
std::string JsonEscape(std::string_view s);

/// Parses a single-line flat JSON object whose values are all strings,
/// e.g. {"op":"focus","arg":"s003"} -> [("op","focus"),("arg","s003")].
/// InvalidArgument on anything else (nested values, numbers, trailing
/// garbage).
gmine::Result<std::vector<std::pair<std::string, std::string>>>
ParseJsonStringObject(std::string_view line);

}  // namespace gmine

#endif  // GMINE_UTIL_JSON_H_
