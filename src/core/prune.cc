#include "core/prune.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "core/expression_graph.h"

namespace wuw {

namespace {

// Factorials up to 20! fit in int64; the search counts skipped subtrees
// as (m - k)! orderings.
constexpr size_t kMaxPermutable = 20;

/// Prune's search over the m! orderings of the permutable views, run as
/// one depth-first search over ordering prefixes in lexicographic order.
///
/// Placing view x after a prefix fixes "x precedes y" for every view y not
/// yet placed, so the precedence edges of those pairs are in the strong
/// expression graph of every completion.  The search keeps the transitive
/// prerequisites of each node per depth; when a placement closes a cycle,
/// all (m - k)! completions are infeasible and the subtree is skipped.  A
/// full prefix carries the precedence edges of every pair, which implies
/// the same reachability as ConstructSEG's graph, so a leaf is feasible
/// exactly when its SEG is acyclic.
///
/// Costing follows Theorem 6.1.  In a 1-way strategy strongly consistent
/// with the ordering, Comp(V, {s}) reads |δs| plus the extent of every
/// other source t of V, and t's extent is post-install exactly when t
/// precedes s (C4 installs it before; otherwise C3 holds its Inst until
/// after Comp(V, {t}), which the ordering puts after Comp(V, {s})).  Work is
/// therefore c * (const + Σ_{t before s} W[t][s]) + i * Σ|δV| with
/// W[t][s] = Σ_{V over t and s} (|t'| - |t|), so orderings rank by the
/// int64 sum, added one placed view at a time.  Aux-aware costing depends
/// on more than the ordering's pairs, so with promoted aux views each
/// feasible leaf is replayed through EstimateStrategyWork instead.
class PrefixSearch {
 public:
  PrefixSearch(const Vdag& vdag, std::vector<std::string> views,
               const SizeMap& sizes, const PruneOptions& options)
      : vdag_(vdag),
        views_(std::move(views)),
        sizes_(sizes),
        options_(options),
        m_(views_.size()) {
    WUW_CHECK(m_ <= kMaxPermutable,
              "Prune supports at most 20 permutable views (int64 counts)");
    ExpressionSkeleton skeleton(vdag);
    n_ = skeleton.nodes().size();
    words_ = (n_ + 63) / 64;
    reach_.assign((m_ + 1) * n_ * words_, 0);

    fact_.assign(m_ + 1, 1);
    for (size_t k = 1; k <= m_; ++k) {
      fact_[k] = fact_[k - 1] * static_cast<int64_t>(k);
    }

    std::unordered_map<std::string, size_t> id;
    for (size_t x = 0; x < m_; ++x) id[views_[x]] = x;
    pair_edges_.resize(m_ * m_);
    for (size_t x = 0; x < m_; ++x) {
      for (size_t y = 0; y < m_; ++y) {
        if (x == y) continue;
        skeleton.AppendPrecedenceEdges(views_[x], views_[y], /*strong=*/true,
                                       &pair_edges_[x * m_ + y]);
      }
    }

    pair_rows_.assign(m_ * m_, 0);
    for (const std::string& view : vdag.DerivedViewsBottomUp()) {
      const auto& sources = vdag.sources(view);
      for (const std::string& t : sources) {
        for (const std::string& s : sources) {
          if (t == s) continue;
          auto it = id.find(t), is = id.find(s);
          WUW_CHECK(it != id.end() && is != id.end(),
                    "every source view must be permuted");
          pair_rows_[it->second * m_ + is->second] += sizes.NetChange(t);
        }
      }
    }

    for (const DependencyEdge& e : skeleton.base_edges()) {
      feasible_root_ = feasible_root_ && AddEdge(Reach(0), e);
    }
    // Work is c * rows + a constant: ranking by sign(c) * rows keeps the
    // replay's order even for c = 0, where every ordering ties.
    const double c = options.work_params.comp_per_row;
    rows_sign_ = (c > 0) - (c < 0);
    aux_costed_ = options.aux != nullptr && !options.aux->empty();
  }

  PruneResult Run() {
    order_.assign(m_, 0);
    rows_.assign(m_ + 1, 0);
    if (feasible_root_) Extend(0, 0);
    WUW_CHECK(found_, "Prune found no feasible ordering (identity ordering "
                      "is always feasible for a valid VDAG)");

    for (size_t x : best_order_) result_.ordering.push_back(views_[x]);
    auto strategy = ExpressionGraph::ConstructSEG(vdag_, result_.ordering)
                        .TopologicalStrategy();
    WUW_CHECK(strategy.has_value(), "the winning ordering has a cyclic SEG");
    result_.work = EstimateStrategyWork(vdag_, *strategy, sizes_,
                                        options_.work_params, options_.aux)
                       .total;
    result_.strategy = std::move(*strategy);
    return std::move(result_);
  }

 private:
  uint64_t* Reach(size_t depth) { return &reach_[depth * n_ * words_]; }

  static bool Test(const uint64_t* row, size_t bit) {
    return (row[bit / 64] >> (bit % 64) & 1) != 0;
  }

  /// Adds `e` to the closure `reach`; false if it closes a cycle.
  bool AddEdge(uint64_t* reach, const DependencyEdge& e) const {
    const uint64_t* pre = reach + e.prerequisite * words_;
    if (e.node == e.prerequisite || Test(pre, e.node)) return false;
    if (Test(reach + e.node * words_, e.prerequisite)) return true;
    for (size_t w = 0; w < n_; ++w) {
      uint64_t* row = reach + w * words_;
      if (w != e.node && !Test(row, e.node)) continue;
      for (size_t k = 0; k < words_; ++k) row[k] |= pre[k];
      row[e.prerequisite / 64] |= uint64_t{1} << (e.prerequisite % 64);
    }
    return true;
  }

  /// Counts the (m - depth)! orderings below an infeasible prefix.
  void Skip(size_t depth) {
    result_.orderings_examined += fact_[m_ - depth];
    result_.orderings_infeasible += fact_[m_ - depth];
  }

  /// Tries every unplaced view at position `depth` in ascending order.
  void Extend(size_t depth, uint32_t placed) {
    if (depth == m_) {
      Leaf();
      return;
    }
    for (size_t x = 0; x < m_; ++x) {
      if (placed >> x & 1) continue;
      uint64_t* next = Reach(depth + 1);
      std::copy_n(Reach(depth), n_ * words_, next);
      bool feasible = true;
      for (size_t y = 0; y < m_ && feasible; ++y) {
        if (y == x || (placed >> y & 1)) continue;
        for (const DependencyEdge& e : pair_edges_[x * m_ + y]) {
          if (!AddEdge(next, e)) {
            feasible = false;
            break;
          }
        }
      }
      if (!feasible) {
        Skip(depth + 1);
        continue;
      }
      int64_t rows = rows_[depth];
      for (size_t k = 0; k < depth; ++k) {
        rows += pair_rows_[order_[k] * m_ + x];
      }
      rows_[depth + 1] = rows;
      order_[depth] = x;
      Extend(depth + 1, placed | uint32_t{1} << x);
    }
  }

  /// A feasible full ordering: keep it if strictly cheaper, so ties go to
  /// the lexicographically first ordering.
  void Leaf() {
    ++result_.orderings_examined;
    if (aux_costed_) {
      std::vector<std::string> ordering;
      for (size_t x : order_) ordering.push_back(views_[x]);
      auto strategy =
          ExpressionGraph::ConstructSEG(vdag_, ordering).TopologicalStrategy();
      WUW_CHECK(strategy.has_value(), "feasible prefix has a cyclic SEG");
      double work = EstimateStrategyWork(vdag_, *strategy, sizes_,
                                         options_.work_params, options_.aux)
                        .total;
      if (!found_ || work < best_work_) {
        best_work_ = work;
        Keep();
      }
      return;
    }
    int64_t key = rows_sign_ * rows_[m_];
    if (!found_ || key < best_key_) {
      best_key_ = key;
      Keep();
    }
  }

  void Keep() {
    found_ = true;
    best_order_ = order_;
  }

  const Vdag& vdag_;
  const std::vector<std::string> views_;
  const SizeMap& sizes_;
  const PruneOptions& options_;
  const size_t m_;
  size_t n_ = 0;      // expression-graph nodes
  size_t words_ = 0;  // 64-bit words per closure row
  /// Per depth, per node: the nodes it transitively follows.
  std::vector<uint64_t> reach_;
  /// pair_edges_[x * m + y]: what "x precedes y" adds to the SEG.
  std::vector<std::vector<DependencyEdge>> pair_edges_;
  /// pair_rows_[t * m + s]: W[t][s], the rows Comps of s gain when t
  /// installs first.
  std::vector<int64_t> pair_rows_;
  std::vector<int64_t> fact_;
  bool feasible_root_ = true;
  int64_t rows_sign_ = 1;
  bool aux_costed_ = false;

  std::vector<size_t> order_;  // the current prefix
  std::vector<int64_t> rows_;  // Σ W over the pairs of each prefix
  bool found_ = false;
  int64_t best_key_ = 0;
  double best_work_ = 0;
  std::vector<size_t> best_order_;
  PruneResult result_;
};

}  // namespace

PruneResult Prune(const Vdag& vdag, const SizeMap& sizes,
                  const PruneOptions& options) {
  std::vector<std::string> permutable =
      options.permute_only_views_with_parents
          ? vdag.ViewsWithParents()
          : vdag.view_names();
  std::sort(permutable.begin(), permutable.end());
  return PrefixSearch(vdag, std::move(permutable), sizes, options).Run();
}

}  // namespace wuw
