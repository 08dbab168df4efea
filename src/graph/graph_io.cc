#include "graph/graph_io.h"

#include <cstdio>

#include "graph/graph_builder.h"
#include "util/coding.h"
#include "util/string_util.h"

namespace gmine::graph {

namespace {
constexpr uint32_t kGraphMagic = 0x474d4e47;  // "GMNG"
constexpr uint32_t kGraphVersion = 1;

// Iterates non-comment lines of `text`, invoking fn(line, lineno).
// fn returns a Status; iteration stops at first error.
template <typename Fn>
Status ForEachDataLine(std::string_view text, Fn fn) {
  size_t lineno = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    ++lineno;
    pos = eol + 1;
    line = TrimWhitespace(line);
    if (line.empty() || line[0] == '#' || line[0] == '%') {
      if (pos > text.size()) break;
      continue;
    }
    GMINE_RETURN_IF_ERROR(fn(line, lineno));
    if (pos > text.size()) break;
  }
  return Status::OK();
}
}  // namespace

Result<Graph> ParseEdgeList(std::string_view text, bool directed) {
  GraphBuilderOptions opts;
  opts.directed = directed;
  GraphBuilder builder(opts);
  Status st = ForEachDataLine(text, [&](std::string_view line, size_t lineno) {
    std::vector<std::string> tok = SplitString(line, " \t,");
    if (tok.size() < 2) {
      return Status::Corruption(
          StrFormat("edge list line %zu: expected 'src dst [w]'", lineno));
    }
    uint64_t src = 0;
    uint64_t dst = 0;
    if (!ParseUint64(tok[0], &src) || !ParseUint64(tok[1], &dst) ||
        src > kInvalidNode - 1 || dst > kInvalidNode - 1) {
      return Status::Corruption(
          StrFormat("edge list line %zu: bad node id", lineno));
    }
    double w = 1.0;
    if (tok.size() >= 3 && !ParseDouble(tok[2], &w)) {
      return Status::Corruption(
          StrFormat("edge list line %zu: bad weight", lineno));
    }
    builder.AddEdge(static_cast<NodeId>(src), static_cast<NodeId>(dst),
                    static_cast<float>(w));
    return Status::OK();
  });
  if (!st.ok()) return st;
  return builder.Build();
}

Result<Graph> ReadEdgeListFile(const std::string& path, bool directed) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseEdgeList(text.value(), directed);
}

Status WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::string out;
  out.reserve(g.num_edges() * 16);
  for (const Edge& e : g.CollectEdges()) {
    out += StrFormat("%u %u %.6g\n", e.src, e.dst,
                     static_cast<double>(e.weight));
  }
  return WriteStringToFile(out, path);
}

Result<Graph> ParseMetisGraph(std::string_view text) {
  bool header_seen = false;
  uint64_t n = 0;
  uint64_t m = 0;
  bool has_edge_weights = false;
  bool has_node_weights = false;
  GraphBuilder builder;
  NodeId current = 0;

  Status st = ForEachDataLine(text, [&](std::string_view line, size_t lineno) {
    std::vector<std::string> tok = SplitString(line, " \t");
    if (!header_seen) {
      if (tok.size() < 2) {
        return Status::Corruption("metis: header needs 'n m [fmt]'");
      }
      if (!ParseUint64(tok[0], &n) || !ParseUint64(tok[1], &m)) {
        return Status::Corruption("metis: bad header numbers");
      }
      if (tok.size() >= 3) {
        // fmt is a 3-digit flag string: <vtx sizes><vtx weights><edge w>.
        const std::string& fmt = tok[2];
        has_edge_weights = !fmt.empty() && fmt.back() == '1';
        has_node_weights = fmt.size() >= 2 && fmt[fmt.size() - 2] == '1';
      }
      builder.ReserveNodes(static_cast<uint32_t>(n));
      header_seen = true;
      return Status::OK();
    }
    if (current >= n) {
      return Status::Corruption(
          StrFormat("metis line %zu: more node lines than n=%llu", lineno,
                    static_cast<unsigned long long>(n)));
    }
    size_t idx = 0;
    if (has_node_weights) {
      if (tok.empty()) {
        return Status::Corruption("metis: missing node weight");
      }
      uint64_t w = 0;
      if (!ParseUint64(tok[0], &w)) {
        return Status::Corruption("metis: bad node weight");
      }
      builder.SetNodeWeight(current, static_cast<float>(w));
      idx = 1;
    }
    while (idx < tok.size()) {
      uint64_t nb = 0;
      if (!ParseUint64(tok[idx], &nb) || nb == 0 || nb > n) {
        return Status::Corruption(
            StrFormat("metis line %zu: bad neighbor id", lineno));
      }
      ++idx;
      double w = 1.0;
      if (has_edge_weights) {
        if (idx >= tok.size() || !ParseDouble(tok[idx], &w)) {
          return Status::Corruption(
              StrFormat("metis line %zu: missing edge weight", lineno));
        }
        ++idx;
      }
      NodeId dst = static_cast<NodeId>(nb - 1);  // 1-based -> 0-based
      if (current < dst) {  // each undirected edge listed from both sides
        builder.AddEdge(current, dst, static_cast<float>(w));
      }
    }
    ++current;
    return Status::OK();
  });
  if (!st.ok()) return st;
  if (!header_seen) return Status::Corruption("metis: empty input");
  auto built = builder.Build();
  if (!built.ok()) return built.status();
  const Graph& g = built.value();
  if (g.num_edges() != m) {
    return Status::Corruption(
        StrFormat("metis: header claims %llu edges, parsed %llu",
                  static_cast<unsigned long long>(m),
                  static_cast<unsigned long long>(g.num_edges())));
  }
  return built;
}

std::string FormatMetisGraph(const Graph& g) {
  bool weighted = false;
  for (const Neighbor& nb : g.arcs()) {
    if (nb.weight != 1.0f) {
      weighted = true;
      break;
    }
  }
  std::string out = StrFormat("%u %llu%s\n", g.num_nodes(),
                              static_cast<unsigned long long>(g.num_edges()),
                              weighted ? " 001" : "");
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::string line;
    for (const Neighbor& nb : g.Neighbors(u)) {
      if (!line.empty()) line += ' ';
      line += StrFormat("%u", nb.id + 1);
      if (weighted) {
        line += StrFormat(" %.6g", static_cast<double>(nb.weight));
      }
    }
    out += line;
    out += '\n';
  }
  return out;
}

std::string SerializeGraph(const Graph& g) {
  // Layout: magic, version, flags, n, num_arcs, offsets (delta-varint),
  // arcs (id varint + weight), node weights (present flag + floats),
  // fixed64 FNV checksum of everything before it.
  std::string blob;
  PutFixed32(&blob, kGraphMagic);
  PutFixed32(&blob, kGraphVersion);
  PutFixed32(&blob, g.directed() ? 1 : 0);
  PutVarint32(&blob, g.num_nodes());
  PutVarint64(&blob, g.num_arcs());
  uint64_t prev = 0;
  for (uint32_t u = 1; u <= g.num_nodes(); ++u) {
    uint64_t off = g.offsets()[u];
    PutVarint64(&blob, off - prev);
    prev = off;
  }
  for (const Neighbor& nb : g.arcs()) {
    PutVarint32(&blob, nb.id);
    PutFloat(&blob, nb.weight);
  }
  PutFixed32(&blob, g.node_weights().empty() ? 0 : 1);
  for (float w : g.node_weights()) PutFloat(&blob, w);
  PutFixed64(&blob, Hash64(blob));
  return blob;
}

Status ParseGraphBlob(std::string_view blob, GraphBlobParts* out) {
  if (blob.size() < 12 + 8) return Status::Corruption("graph blob too short");
  std::string_view body = blob.substr(0, blob.size() - 8);
  std::string_view tail = blob.substr(blob.size() - 8);
  uint64_t want_sum = 0;
  GetFixed64(&tail, &want_sum);
  if (Hash64(body) != want_sum) {
    return Status::Corruption("graph blob checksum mismatch");
  }
  std::string_view in = body;
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t flags = 0;
  if (!GetFixed32(&in, &magic) || magic != kGraphMagic) {
    return Status::Corruption("graph blob bad magic");
  }
  if (!GetFixed32(&in, &version) || version != kGraphVersion) {
    return Status::Corruption("graph blob unsupported version");
  }
  if (!GetFixed32(&in, &flags)) return Status::Corruption("graph blob flags");
  out->directed = flags & 1;
  uint32_t n = 0;
  uint64_t arcs = 0;
  if (!GetVarint32(&in, &n) || !GetVarint64(&in, &arcs)) {
    return Status::Corruption("graph blob counts");
  }
  // Every offset delta takes at least one byte, and every arc at least
  // five: a corrupt count must not size a huge allocation.
  if (n > in.size() || arcs > in.size() / 5) {
    return Status::Corruption("graph blob counts exceed the blob");
  }
  // The arrays are filled in locals that take over out's buffers and
  // hand them back at the end: written through `out`, the vectors'
  // ends would be reloaded after every out-of-line varint call. On
  // error the arrays of *out are left empty.
  std::vector<uint64_t> offsets = std::move(out->offsets);
  ResizeExact(offsets, n + 1);
  offsets[0] = 0;
  uint64_t acc = 0;
  for (uint32_t u = 1; u <= n; ++u) {
    uint64_t delta = 0;
    if (!GetVarint64(&in, &delta)) {
      return Status::Corruption("graph blob offsets");
    }
    acc += delta;
    offsets[u] = acc;
  }
  if (acc != arcs) return Status::Corruption("graph blob arc count mismatch");
  // Appended rather than resized: a full graph's arcs are tens of MB,
  // not worth zero-filling first.
  std::vector<Neighbor> neighbors = std::move(out->arcs);
  neighbors.clear();
  if (arcs > neighbors.capacity()) {
    std::vector<Neighbor>().swap(neighbors);
    neighbors.reserve(arcs);
  }
  for (uint64_t i = 0; i < arcs; ++i) {
    uint32_t id = 0;
    float w = 0.0f;
    if (!GetVarint32(&in, &id) || !GetFloat(&in, &w)) {
      return Status::Corruption("graph blob arcs");
    }
    if (id >= n) return Status::Corruption("graph blob arc id out of range");
    neighbors.push_back(Neighbor{id, w});
  }
  uint32_t has_weights = 0;
  if (!GetFixed32(&in, &has_weights)) {
    return Status::Corruption("graph blob node-weight flag");
  }
  std::vector<float> node_weights = std::move(out->node_weights);
  node_weights.clear();
  if (has_weights) {
    ResizeExact(node_weights, n);
    for (uint32_t u = 0; u < n; ++u) {
      if (!GetFloat(&in, &node_weights[u])) {
        return Status::Corruption("graph blob node weights");
      }
    }
  }
  out->offsets = std::move(offsets);
  out->arcs = std::move(neighbors);
  out->node_weights = std::move(node_weights);
  return Status::OK();
}

Result<Graph> DeserializeGraph(std::string_view blob) {
  GraphBlobParts parts;
  GMINE_RETURN_IF_ERROR(ParseGraphBlob(blob, &parts));
  return Graph(std::move(parts.offsets), std::move(parts.arcs),
               std::move(parts.node_weights), parts.directed);
}

Status WriteGraphFile(const Graph& g, const std::string& path) {
  return WriteStringToFile(SerializeGraph(g), path);
}

Result<Graph> ReadGraphFile(const std::string& path) {
  auto blob = ReadFileToString(path);
  if (!blob.ok()) return blob.status();
  return DeserializeGraph(blob.value());
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  }
  std::string out;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, got);
  }
  bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return Status::IOError(StrFormat("read error on %s", path.c_str()));
  return out;
}

Status WriteStringToFile(std::string_view data, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError(StrFormat("cannot create %s", path.c_str()));
  }
  size_t put = std::fwrite(data.data(), 1, data.size(), f);
  bool err = put != data.size();
  if (std::fclose(f) != 0) err = true;
  if (err) {
    return Status::IOError(StrFormat("write error on %s", path.c_str()));
  }
  return Status::OK();
}

}  // namespace gmine::graph
