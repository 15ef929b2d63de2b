// Algorithm 6.1 — Prune: the optimal 1-way VDAG strategy for any VDAG.
//
// Prune partitions the 1-way VDAG strategies by the unique view ordering
// each is strongly consistent with (Lemma 6.1); all strategies in a
// partition incur equal work (Theorem 6.1), so examining one topological
// sort of each ordering's strong expression graph covers the whole space.
// The m! optimization permutes only views that have parents — the install
// position of a view nothing is defined over never affects work.
//
// The orderings are searched as prefixes in lexicographic order: a prefix
// whose fixed precedences already make the SEG cyclic is skipped with all
// its completions, and a feasible ordering's work is summed in closed form
// from the pairs it orders (prune.cc).  Only the winner is materialized as
// ConstructSEG(...).TopologicalStrategy() and costed by
// EstimateStrategyWork.
#ifndef WUW_CORE_PRUNE_H_
#define WUW_CORE_PRUNE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "core/work_metric.h"
#include "graph/vdag.h"

namespace wuw {

struct PruneOptions {
  /// Permute only views with parents (Section 6's m! optimization).  When
  /// false, all n! orderings of all views are searched — only useful to
  /// validate the optimization in tests.
  bool permute_only_views_with_parents = true;
  WorkParams work_params;
  /// Promoted auxiliary views the costing may substitute
  /// (AuxViewRegistry::BuildCostInfo).  With aux-aware costing, orderings
  /// that delay installing covered prefix sources keep the cheap aux-scan
  /// alternative alive for more Comps — so the *chosen* strategy changes,
  /// not just its estimated work.  Null = the plain linear metric.
  const AuxCostInfo* aux = nullptr;
};

struct PruneResult {
  Strategy strategy;
  double work = 0;
  /// The view ordering the winning strategy is strongly consistent with.
  std::vector<std::string> ordering;
  /// Orderings examined / rejected because their SEG was cyclic; an
  /// infeasible prefix counts all of its completions.
  int64_t orderings_examined = 0;
  int64_t orderings_infeasible = 0;
};

/// Runs Prune.  The VDAG must have at least one derived view and at most
/// 20 permutable views.
PruneResult Prune(const Vdag& vdag, const SizeMap& sizes,
                  const PruneOptions& options = {});

}  // namespace wuw

#endif  // WUW_CORE_PRUNE_H_
