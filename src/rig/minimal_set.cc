#include "rig/minimal_set.h"

#include <algorithm>
#include <functional>

#include "graph/algorithms.h"
#include "graph/maxflow.h"
#include "util/stringutil.h"

namespace regal {

namespace {

// Reachability from `from` that (a) never expands through blocked nodes,
// and (b) skips the direct edge from -> to (a directly-included region is a
// legitimate witness; only paths with interior names need hitting).
bool ReachesThroughInterior(const Digraph& g, Digraph::NodeId from,
                            Digraph::NodeId to,
                            const std::vector<bool>& blocked) {
  // Walk semantics: a chain of regions named from -> n1 -> ... -> to where
  // every ni (including repeat occurrences of the endpoint names) is an
  // *interior* occurrence. The single-edge walk from -> to is exempt (a
  // direct inclusion is a legitimate witness). True iff some walk of >= 2
  // edges reaches `to` with no blocked interior occurrence.
  std::vector<bool> seen(static_cast<size_t>(g.NumNodes()), false);
  std::vector<Digraph::NodeId> stack;
  // Step-1 occurrences: every out-neighbor of `from` — including a
  // `to`-named one, which may continue as an interior occurrence (only the
  // immediate arrival is exempt).
  for (Digraph::NodeId w : g.OutNeighbors(from)) {
    if (!seen[static_cast<size_t>(w)]) {
      seen[static_cast<size_t>(w)] = true;
      stack.push_back(w);
    }
  }
  while (!stack.empty()) {
    Digraph::NodeId v = stack.back();
    stack.pop_back();
    if (blocked[static_cast<size_t>(v)]) continue;  // Interior hit.
    for (Digraph::NodeId w : g.OutNeighbors(v)) {
      if (w == to) return true;  // Arrival at step >= 2.
      if (!seen[static_cast<size_t>(w)]) {
        seen[static_cast<size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  return false;
}

std::vector<bool> MarkNames(const Digraph& rig,
                            const std::vector<std::string>& names) {
  std::vector<bool> marked(static_cast<size_t>(rig.NumNodes()), false);
  for (const std::string& name : names) {
    auto id = rig.FindNode(name);
    if (id.ok()) marked[static_cast<size_t>(*id)] = true;
  }
  return marked;
}

}  // namespace

bool IsValidSeparatorSet(const Digraph& rig,
                         const std::vector<std::string>& chain,
                         const std::vector<std::string>& candidate) {
  // Note: the *source occurrence* of chain[i] and the *first arrival* at
  // chain[i+1] are path endpoints and never count as hits, but interior
  // occurrences of the very same names do (e.g. the middle P of
  // P -> P -> M can be hit by putting P into the set). The DFS below gets
  // this right because the source's out-edges are always expanded and the
  // target check precedes the blocked check.
  std::vector<bool> blocked = MarkNames(rig, candidate);
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    auto a = rig.FindNode(chain[i]);
    auto b = rig.FindNode(chain[i + 1]);
    if (!a.ok() || !b.ok()) continue;  // Absent names have no paths.
    if (ReachesThroughInterior(rig, *a, *b, blocked)) return false;
  }
  return true;
}

Result<std::vector<std::string>> MinimalSetExact(
    const Digraph& rig, const std::vector<std::string>& chain, int max_k) {
  if (chain.size() < 2) {
    return Status::InvalidArgument("chain needs at least two names");
  }
  const int n = rig.NumNodes();
  std::vector<std::string> labels = rig.Labels();
  int limit = (max_k >= 0) ? std::min(max_k, n) : n;

  std::vector<std::string> current;
  // Combinations of size k in lexicographic index order.
  std::function<bool(int, int)> search = [&](int start, int remaining) {
    if (remaining == 0) return IsValidSeparatorSet(rig, chain, current);
    for (int i = start; i <= n - remaining; ++i) {
      current.push_back(labels[static_cast<size_t>(i)]);
      if (search(i + 1, remaining - 1)) return true;
      current.pop_back();
    }
    return false;
  };

  for (int k = 0; k <= limit; ++k) {
    current.clear();
    if (search(0, k)) return current;
  }
  return Status::ResourceExhausted(
      "no separator set of size <= " + std::to_string(limit) + " exists");
}

Result<std::vector<std::string>> MinimalSetSingleOp(const Digraph& rig,
                                                    const std::string& from,
                                                    const std::string& to) {
  REGAL_ASSIGN_OR_RETURN(Digraph::NodeId a, rig.FindNode(from));
  REGAL_ASSIGN_OR_RETURN(Digraph::NodeId b, rig.FindNode(to));
  // Occurrence graph: the *source occurrence* of `from` and the *first
  // arrival* at `to` get their own nodes (they are endpoints and cannot be
  // hit), while the original nodes keep playing interior roles — a path
  // P -> P -> M must be cuttable at the interior P. The direct edge
  // from -> to contributes no src -> sink edge (single-hop paths are
  // exempt), but still feeds interior occurrences.
  Digraph g;
  for (const std::string& label : rig.Labels()) g.AddNode(label);
  Digraph::NodeId src = g.AddNode("__source_occurrence__");
  Digraph::NodeId sink = g.AddNode("__sink_occurrence__");
  for (Digraph::NodeId v = 0; v < rig.NumNodes(); ++v) {
    for (Digraph::NodeId w : rig.OutNeighbors(v)) {
      g.AddEdge(v, w);
      if (v == a && w != b) g.AddEdge(src, w);
      if (w == b && v != a) g.AddEdge(v, sink);
      if (v == a && w == b) {
        // The edge may still start or end an interior-bearing path.
        g.AddEdge(v, sink);  // ... -> from(interior) -> to.
        g.AddEdge(src, w);   // src -> to(interior) -> ... (to can recur).
      }
    }
  }
  if (!Reachable(g, src)[static_cast<size_t>(sink)]) {
    return std::vector<std::string>{};  // Nothing to separate.
  }
  REGAL_ASSIGN_OR_RETURN(std::vector<Digraph::NodeId> cut,
                         MinVertexCut(g, src, sink));
  std::vector<std::string> out;
  for (Digraph::NodeId v : cut) out.push_back(g.Label(v));
  return out;
}

Result<std::vector<std::string>> MinimalSetPairwiseCuts(
    const Digraph& rig, const std::vector<std::string>& chain) {
  if (chain.size() < 2) {
    return Status::InvalidArgument("chain needs at least two names");
  }
  std::vector<std::string> out;
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    REGAL_ASSIGN_OR_RETURN(std::vector<std::string> cut,
                           MinimalSetSingleOp(rig, chain[i], chain[i + 1]));
    for (std::string& name : cut) {
      if (std::find(out.begin(), out.end(), name) == out.end()) {
        out.push_back(std::move(name));
      }
    }
  }
  return out;
}

std::pair<Digraph, std::vector<std::string>> VertexCoverToMinimalSet(
    int num_vertices, const std::vector<std::pair<int, int>>& edges) {
  Digraph rig;
  auto vertex = [](int v) { return StrCat({"v", std::to_string(v)}); };
  for (int v = 0; v < num_vertices; ++v) rig.AddNode(vertex(v));
  std::vector<std::string> chain;
  for (size_t i = 0; i < edges.size(); ++i) {
    std::string a = StrCat({"A", std::to_string(i)});
    std::string b = StrCat({"B", std::to_string(i)});
    // The endpoints are wired in SERIES: every walk A_i ~> B_i passes
    // through both u and w, so hitting it needs u OR w in the set —
    // exactly the vertex cover constraint. (Parallel paths would demand
    // both.) Extra vertex-vertex edges from other pairs only lengthen
    // walks, which then still contain u and w. The interleaving pairs
    // (B_i, A_{i+1}) are vacuous since B_i is a sink.
    rig.AddEdge(a, vertex(edges[i].first));
    rig.AddEdge(vertex(edges[i].first), vertex(edges[i].second));
    rig.AddEdge(vertex(edges[i].second), b);
    chain.push_back(a);
    chain.push_back(b);
  }
  return {std::move(rig), std::move(chain)};
}

int MinVertexCoverSize(int num_vertices,
                       const std::vector<std::pair<int, int>>& edges) {
  for (int k = 0; k <= num_vertices; ++k) {
    // All subsets of size k.
    std::vector<int> pick;
    std::function<bool(int, int)> search = [&](int start, int remaining) {
      if (remaining == 0) {
        for (const auto& [u, w] : edges) {
          bool covered = false;
          for (int v : pick) {
            if (v == u || v == w) {
              covered = true;
              break;
            }
          }
          if (!covered) return false;
        }
        return true;
      }
      for (int i = start; i <= num_vertices - remaining; ++i) {
        pick.push_back(i);
        if (search(i + 1, remaining - 1)) return true;
        pick.pop_back();
      }
      return false;
    };
    if (search(0, k)) return k;
  }
  return num_vertices;
}

}  // namespace regal
