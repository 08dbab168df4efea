#include "util/json.h"

#include <cctype>

#include "util/string_util.h"

namespace gmine {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

/// Parses a JSON string literal starting at s[*pos] == '"'; advances
/// *pos past the closing quote.
Status ParseJsonString(std::string_view s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') {
    return Status::InvalidArgument("expected '\"' in json request");
  }
  ++*pos;
  out->clear();
  while (*pos < s.size()) {
    char c = s[*pos];
    if (c == '"') {
      ++*pos;
      return Status::OK();
    }
    if (c == '\\') {
      if (*pos + 1 >= s.size()) break;
      char esc = s[*pos + 1];
      *pos += 2;
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (*pos + 4 > s.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          uint64_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s[*pos + static_cast<size_t>(i)];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<uint64_t>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<uint64_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<uint64_t>(h - 'A' + 10);
            else
              return Status::InvalidArgument("bad \\u escape digit");
          }
          *pos += 4;
          // Labels are ASCII; anything wider degrades to '?' instead of
          // dragging a UTF-8 encoder into the protocol.
          *out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default:
          return Status::InvalidArgument("unknown escape in json string");
      }
      continue;
    }
    *out += c;
    ++*pos;
  }
  return Status::InvalidArgument("unterminated json string");
}

void SkipSpace(std::string_view s, size_t* pos) {
  while (*pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[*pos]))) {
    ++*pos;
  }
}

}  // namespace

gmine::Result<std::vector<std::pair<std::string, std::string>>>
ParseJsonStringObject(std::string_view line) {
  std::vector<std::pair<std::string, std::string>> fields;
  size_t pos = 0;
  SkipSpace(line, &pos);
  if (pos >= line.size() || line[pos] != '{') {
    return Status::InvalidArgument("json request must start with '{'");
  }
  ++pos;
  SkipSpace(line, &pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
  } else {
    while (true) {
      SkipSpace(line, &pos);
      std::string key;
      GMINE_RETURN_IF_ERROR(ParseJsonString(line, &pos, &key));
      SkipSpace(line, &pos);
      if (pos >= line.size() || line[pos] != ':') {
        return Status::InvalidArgument("expected ':' in json request");
      }
      ++pos;
      SkipSpace(line, &pos);
      std::string value;
      if (pos < line.size() && line[pos] == '"') {
        GMINE_RETURN_IF_ERROR(ParseJsonString(line, &pos, &value));
      } else {
        return Status::InvalidArgument(
            "json request values must be strings");
      }
      fields.emplace_back(std::move(key), std::move(value));
      SkipSpace(line, &pos);
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < line.size() && line[pos] == '}') {
        ++pos;
        break;
      }
      return Status::InvalidArgument("expected ',' or '}' in json request");
    }
  }
  SkipSpace(line, &pos);
  if (pos != line.size()) {
    return Status::InvalidArgument("trailing bytes after json request");
  }
  return fields;
}

}  // namespace gmine
