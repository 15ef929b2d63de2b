#include "core/expression_graph.h"

#include "common/check.h"

namespace wuw {

ExpressionSkeleton::ExpressionSkeleton(const Vdag& vdag) {
  // Nodes: Comps grouped per derived view (bottom-up), then all Insts.
  std::unordered_map<std::string, std::vector<size_t>> comps_of;  // by view
  for (const std::string& view : vdag.DerivedViewsBottomUp()) {
    for (const std::string& src : vdag.sources(view)) {
      comps_of[view].push_back(nodes_.size());
      comps_over_[src].emplace_back(view, nodes_.size());
      nodes_.push_back(Expression::Comp(view, {src}));
    }
  }
  for (const std::string& view : vdag.view_names()) {
    inst_node_[view] = nodes_.size();
    nodes_.push_back(Expression::Inst(view));
  }

  for (const std::string& view : vdag.DerivedViewsBottomUp()) {
    const auto& comp_ids = comps_of[view];
    const auto& sources = vdag.sources(view);
    for (size_t a = 0; a < sources.size(); ++a) {
      // C3: Inst(Vi) follows Comp(V, {Vi}).
      base_edges_.push_back({inst_node_[sources[a]], comp_ids[a]});
      // C5: Inst(V) follows Comp(V, {Vi}).
      base_edges_.push_back({inst_node_[view], comp_ids[a]});
      // C8: Comp(V, {Vi}) follows every Comp(Vi, ...).
      for (size_t down : comps_of[sources[a]]) {
        base_edges_.push_back({comp_ids[a], down});
      }
    }
  }
}

size_t ExpressionSkeleton::InstNode(const std::string& view) const {
  auto it = inst_node_.find(view);
  WUW_CHECK(it != inst_node_.end(),
            ("ordering names an unknown view: " + view).c_str());
  return it->second;
}

void ExpressionSkeleton::AppendPrecedenceEdges(
    const std::string& a, const std::string& b, bool strong,
    std::vector<DependencyEdge>* out) const {
  auto a_uses = comps_over_.find(a), b_uses = comps_over_.find(b);
  if (a_uses != comps_over_.end() && b_uses != comps_over_.end()) {
    for (const auto& [view, comp_a] : a_uses->second) {
      for (const auto& [view_b, comp_b] : b_uses->second) {
        if (view_b != view) continue;
        // Vi=a precedes Vj=b: Comp(V,{Vj}) follows Comp(V,{Vi}) and
        // follows Inst(Vi) (C4).
        out->push_back({comp_b, comp_a});
        out->push_back({comp_b, InstNode(a)});
      }
    }
  }
  if (strong) out->push_back({InstNode(b), InstNode(a)});
}

ExpressionGraph::ExpressionGraph(const Vdag& vdag,
                                 const std::vector<std::string>& ordering,
                                 bool strong) {
  ExpressionSkeleton skeleton(vdag);
  nodes_ = skeleton.nodes();
  graph_ = Digraph(nodes_.size());
  std::vector<DependencyEdge> edges = skeleton.base_edges();
  // Views absent from the ordering are unconstrained.  A strong graph gets
  // Inst(Vj) after Inst(Vi) for every pair, not just consecutive ranks:
  // the extra edges are implied by the chain, so they change neither
  // acyclicity nor the topological sort.
  for (size_t i = 0; i < ordering.size(); ++i) {
    for (size_t j = i + 1; j < ordering.size(); ++j) {
      skeleton.AppendPrecedenceEdges(ordering[i], ordering[j], strong, &edges);
    }
  }
  for (const DependencyEdge& e : edges) {
    graph_.AddEdge(e.node, e.prerequisite);
  }
}

ExpressionGraph ExpressionGraph::ConstructEG(
    const Vdag& vdag, const std::vector<std::string>& ordering) {
  return ExpressionGraph(vdag, ordering, /*strong=*/false);
}

ExpressionGraph ExpressionGraph::ConstructSEG(
    const Vdag& vdag, const std::vector<std::string>& ordering) {
  return ExpressionGraph(vdag, ordering, /*strong=*/true);
}

std::optional<Strategy> ExpressionGraph::TopologicalStrategy() const {
  auto order = graph_.TopologicalSort();
  if (!order.has_value()) return std::nullopt;
  Strategy s;
  for (size_t id : *order) s.Append(nodes_[id]);
  return s;
}

std::vector<Expression> ExpressionGraph::FindCycle() const {
  std::vector<Expression> out;
  for (size_t id : graph_.FindCycle()) out.push_back(nodes_[id]);
  return out;
}

}  // namespace wuw
