// Graph (de)serialization: whitespace edge lists, the METIS text format,
// and GMine's own binary CSR format (magic + checksummed sections).

#ifndef GMINE_GRAPH_GRAPH_IO_H_
#define GMINE_GRAPH_GRAPH_IO_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace gmine::graph {

/// Parses an edge-list: one "src dst [weight]" per line; '#' or '%'
/// comments; undirected unless `directed`.
Result<Graph> ParseEdgeList(std::string_view text, bool directed = false);

/// Reads an edge-list file (see ParseEdgeList).
Result<Graph> ReadEdgeListFile(const std::string& path,
                               bool directed = false);

/// Writes "src dst weight" lines, one undirected edge (or directed arc)
/// per line.
Status WriteEdgeListFile(const Graph& g, const std::string& path);

/// Parses the METIS .graph format: header "n m [fmt [ncon]]", then one
/// line per node listing 1-based neighbor ids (optionally with weights,
/// fmt=1 or 11). Undirected by definition.
Result<Graph> ParseMetisGraph(std::string_view text);

/// Writes the METIS .graph format (fmt=001: edge weights when any weight
/// differs from 1).
std::string FormatMetisGraph(const Graph& g);

/// Serializes the graph into GMine's binary format (see graph_io.cc for
/// the layout); the blob embeds a checksum.
std::string SerializeGraph(const Graph& g);

/// Resizes `v` to `n` elements, allocating exactly `n` when it has to
/// grow: a buffer reused across blobs then holds its largest blob, not
/// up to twice that.
template <typename T>
void ResizeExact(std::vector<T>& v, size_t n) {
  if (n > v.capacity()) {
    std::vector<T>().swap(v);
    v.reserve(n);
  }
  v.resize(n);
}

/// The decoded arrays of a SerializeGraph blob, in caller-owned storage
/// so a reader that parses many blobs (the page scan) reuses capacity
/// instead of allocating a Graph per blob.
struct GraphBlobParts {
  bool directed = false;
  std::vector<uint64_t> offsets;  // num_nodes + 1 entries
  std::vector<Neighbor> arcs;
  std::vector<float> node_weights;  // empty = all ones
};

/// Parses and verifies a blob produced by SerializeGraph into `out`:
/// the FNV-1a checksum, magic, version, the offsets' sum against the arc
/// count, every arc id < num_nodes and the node-weight section. The one
/// parser of the graph blob format (DeserializeGraph wraps it). On error
/// the arrays of `*out` are unspecified (possibly emptied).
Status ParseGraphBlob(std::string_view blob, GraphBlobParts* out);

/// Parses a blob produced by SerializeGraph, verifying the checksum.
Result<Graph> DeserializeGraph(std::string_view blob);

/// Writes the binary format to `path`.
Status WriteGraphFile(const Graph& g, const std::string& path);

/// Reads the binary format from `path`.
Result<Graph> ReadGraphFile(const std::string& path);

/// Reads an entire file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes a string to a file (truncating).
Status WriteStringToFile(std::string_view data, const std::string& path);

}  // namespace gmine::graph

#endif  // GMINE_GRAPH_GRAPH_IO_H_
