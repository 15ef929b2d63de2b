// Expression graphs (Section 5.2) and strong expression graphs (Section 6).
//
// Nodes are the 1-way expressions of a VDAG: Comp(Vj, {Vi}) per VDAG edge
// and Inst(Vi) per view.  Edges encode "must follow" dependencies from the
// correctness conditions (C3, C4, C5, C8) plus the dependencies a given
// view ordering imposes.  A topological sort of an acyclic (strong)
// expression graph yields a 1-way VDAG strategy (strongly) consistent with
// the ordering (Theorem 5.3 / Lemma A.1).
#ifndef WUW_CORE_EXPRESSION_GRAPH_H_
#define WUW_CORE_EXPRESSION_GRAPH_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "graph/digraph.h"
#include "graph/vdag.h"

namespace wuw {

/// A dependency edge: `node` must follow `prerequisite` (Digraph::AddEdge).
struct DependencyEdge {
  size_t node;
  size_t prerequisite;
};

/// What every (strong) expression graph of a VDAG shares, whatever the
/// ordering: the nodes, the edges no ordering can change (C3, C5, C8) and
/// the edges one "a precedes b" decision adds.  ConstructEG/ConstructSEG
/// assemble whole graphs from it; Prune adds the precedence edges one
/// placed view at a time.
class ExpressionSkeleton {
 public:
  explicit ExpressionSkeleton(const Vdag& vdag);

  /// Comps grouped per derived view (bottom-up, in source order), then one
  /// Inst per view in registration order.
  const std::vector<Expression>& nodes() const { return nodes_; }

  /// C3: Inst(Vi) follows Comp(V, {Vi}).  C5: Inst(V) follows
  /// Comp(V, {Vi}).  C8: Comp(V, {Vi}) follows every Comp(Vi, ...).
  const std::vector<DependencyEdge>& base_edges() const {
    return base_edges_;
  }

  /// Appends the edges view `a` preceding view `b` adds: for every derived
  /// V over both, Comp(V, {b}) follows Comp(V, {a}) and Inst(a) (C4).  With
  /// `strong`, Inst(b) also follows Inst(a).
  void AppendPrecedenceEdges(const std::string& a, const std::string& b,
                             bool strong,
                             std::vector<DependencyEdge>* out) const;

 private:
  size_t InstNode(const std::string& view) const;

  std::vector<Expression> nodes_;
  std::vector<DependencyEdge> base_edges_;
  std::unordered_map<std::string, size_t> inst_node_;
  /// Per view Vi: (V, Comp(V, {Vi})) for each derived V over Vi.
  std::unordered_map<std::string, std::vector<std::pair<std::string, size_t>>>
      comps_over_;
};

/// An expression graph over a VDAG, with the dependency edges of
/// ConstructEG (Algorithm A.1) or ConstructSEG.
class ExpressionGraph {
 public:
  /// ConstructEG(G, ordering): ordering-consistency edges bind only Comps
  /// of the same derived view.
  static ExpressionGraph ConstructEG(const Vdag& vdag,
                                     const std::vector<std::string>& ordering);

  /// ConstructSEG(G, ordering): additionally forces the Inst sequence to
  /// follow `ordering` (Inst(Vj) after Inst(Vi) when Vi precedes Vj), so a
  /// topological sort is *strongly* consistent with the ordering.  Views
  /// absent from `ordering` are unconstrained — Prune exploits this for its
  /// m! optimization over views that have parents.
  static ExpressionGraph ConstructSEG(const Vdag& vdag,
                                      const std::vector<std::string>& ordering);

  bool IsAcyclic() const { return graph_.TopologicalSort().has_value(); }

  /// The 1-way VDAG strategy from a deterministic topological sort, or
  /// nullopt if the graph is cyclic.
  std::optional<Strategy> TopologicalStrategy() const;

  const std::vector<Expression>& nodes() const { return nodes_; }

  /// Dependency edges (node -> prerequisites), for rendering/analysis.
  const Digraph& graph() const { return graph_; }

  /// Expressions forming one cycle (diagnostics); empty if acyclic.
  std::vector<Expression> FindCycle() const;

 private:
  ExpressionGraph(const Vdag& vdag, const std::vector<std::string>& ordering,
                  bool strong);

  std::vector<Expression> nodes_;
  Digraph graph_{0};
};

}  // namespace wuw

#endif  // WUW_CORE_EXPRESSION_GRAPH_H_
