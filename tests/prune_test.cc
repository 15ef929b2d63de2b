#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/correctness.h"
#include "core/exhaustive.h"
#include "core/expression_graph.h"
#include "core/min_work.h"
#include "core/prune.h"
#include "test_util.h"
#include "tpcd/tpcd_generator.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

SizeMap RandomSizes(const Vdag& vdag, uint64_t seed) {
  tpcd::Rng rng(seed);
  SizeMap sizes;
  for (const std::string& name : vdag.view_names()) {
    int64_t size = rng.Range(50, 500);
    int64_t minus = rng.Range(0, size / 3);
    int64_t plus = rng.Range(0, size / 3);
    sizes.Set(name, {size, plus + minus, plus - minus});
  }
  return sizes;
}

/// Every view the same size, delta and net change: all pair weights are
/// zero, so every feasible ordering ties and only the tie-break decides.
SizeMap EqualSizes(const Vdag& vdag) {
  SizeMap sizes;
  for (const std::string& name : vdag.view_names()) {
    sizes.Set(name, {100, 10, 0});
  }
  return sizes;
}

/// Prune as Algorithm 6.1 states it: every ordering in next_permutation
/// order, each costed by a topological sort of its SEG.  The prefix search
/// must reproduce it exactly.
PruneResult ReferencePrune(const Vdag& vdag, const SizeMap& sizes,
                           const PruneOptions& options) {
  std::vector<std::string> ordering =
      options.permute_only_views_with_parents ? vdag.ViewsWithParents()
                                              : vdag.view_names();
  std::sort(ordering.begin(), ordering.end());
  PruneResult best;
  bool found = false;
  do {
    ++best.orderings_examined;
    auto strategy =
        ExpressionGraph::ConstructSEG(vdag, ordering).TopologicalStrategy();
    if (!strategy.has_value()) {
      ++best.orderings_infeasible;
      continue;
    }
    WorkBreakdown work = EstimateStrategyWork(vdag, *strategy, sizes,
                                              options.work_params, options.aux);
    if (!found || work.total < best.work) {
      found = true;
      best.work = work.total;
      best.strategy = std::move(*strategy);
      best.ordering = ordering;
    }
  } while (std::next_permutation(ordering.begin(), ordering.end()));
  EXPECT_TRUE(found);
  return best;
}

PruneResult ExpectMatchesReference(const Vdag& vdag, const SizeMap& sizes,
                                   const PruneOptions& options = {}) {
  PruneResult got = Prune(vdag, sizes, options);
  PruneResult want = ReferencePrune(vdag, sizes, options);
  EXPECT_EQ(got.ordering, want.ordering);
  EXPECT_TRUE(got.strategy == want.strategy)
      << "got:  " << got.strategy.ToString()
      << "\nwant: " << want.strategy.ToString();
  EXPECT_EQ(got.work, want.work);
  EXPECT_EQ(got.orderings_examined, want.orderings_examined);
  EXPECT_EQ(got.orderings_infeasible, want.orderings_infeasible);
  return got;
}

TEST(PruneTest, ProducesCorrectStrategy) {
  Vdag vdag = testutil::MakeFig10Vdag();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    PruneResult r = Prune(vdag, RandomSizes(vdag, seed));
    EXPECT_TRUE(CheckVdagStrategy(vdag, r.strategy).ok)
        << r.strategy.ToString();
    EXPECT_GT(r.orderings_examined, 0);
  }
}

// Prune's winner equals the brute-force best over ALL correct 1-way VDAG
// strategies — its headline guarantee.
TEST(PruneTest, MatchesBruteForceBestOneWay) {
  Vdag vdag = testutil::MakeFig10Vdag();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SizeMap sizes = RandomSizes(vdag, seed);
    PruneResult r = Prune(vdag, sizes);
    auto one_way = EnumerateAllCorrectVdagStrategies(vdag, /*one_way_only=*/true,
                                                     /*limit=*/5000000);
    EvaluatedStrategy best = BestOf(vdag, one_way, sizes);
    EXPECT_NEAR(r.work, best.work, 1e-9)
        << "seed=" << seed << "\nPrune: " << r.strategy.ToString()
        << "\nBest:  " << best.strategy.ToString();
  }
}

// The m! optimization must not change the answer.
TEST(PruneTest, PermutingOnlyViewsWithParentsIsLossless) {
  Vdag vdag = testutil::MakeFig10Vdag();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SizeMap sizes = RandomSizes(vdag, seed);
    PruneOptions full;
    full.permute_only_views_with_parents = false;
    PruneResult with_opt = Prune(vdag, sizes);
    PruneResult without_opt = Prune(vdag, sizes, full);
    EXPECT_NEAR(with_opt.work, without_opt.work, 1e-9) << "seed=" << seed;
    EXPECT_LT(with_opt.orderings_examined, without_opt.orderings_examined);
  }
}

TEST(PruneTest, TpcdSearchSpaceIs720Not362880) {
  Vdag vdag = tpcd::BuildTpcdVdag();
  SizeMap sizes = RandomSizes(vdag, 1);
  PruneResult r = Prune(vdag, sizes);
  // m = 6 views with parents -> 6! orderings (Section 6); the VDAG is
  // uniform, so every SEG is acyclic.
  EXPECT_EQ(r.orderings_examined, 720);
  EXPECT_EQ(r.orderings_infeasible, 0);
}

// The two-level VDAG (EXPERIMENTS.md E6): m = 8, and most orderings put a
// top view's source before something it is defined over.
TEST(PruneTest, ExtendedTpcdSearchSpace) {
  Vdag vdag = tpcd::BuildExtendedTpcdVdag();
  PruneResult r = Prune(vdag, RandomSizes(vdag, 1));
  EXPECT_EQ(r.orderings_examined, 40320);
  EXPECT_EQ(r.orderings_infeasible, 30912);
}

// The prefix search against the plain m! loop: same ordering, strategy,
// work and counters, bit for bit.
TEST(PruneDifferentialTest, SmallVdags) {
  PruneOptions all_views;
  all_views.permute_only_views_with_parents = false;
  for (const Vdag& vdag :
       {testutil::MakeFig3Vdag(), testutil::MakeFig10Vdag()}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      ExpectMatchesReference(vdag, RandomSizes(vdag, seed));
      ExpectMatchesReference(vdag, RandomSizes(vdag, seed), all_views);
    }
    ExpectMatchesReference(vdag, EqualSizes(vdag));
    ExpectMatchesReference(vdag, EqualSizes(vdag), all_views);
  }
}

// The extended VDAG's reference replays 40,320 SEGs (about half a minute
// under ASan), so it gets one size map; ties are pinned on the others.
TEST(PruneDifferentialTest, TpcdVdags) {
  Vdag tpcd_vdag = tpcd::BuildTpcdVdag();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectMatchesReference(tpcd_vdag, RandomSizes(tpcd_vdag, seed));
  }
  ExpectMatchesReference(tpcd_vdag, EqualSizes(tpcd_vdag));

  Vdag extended = tpcd::BuildExtendedTpcdVdag();
  ExpectMatchesReference(extended, RandomSizes(extended, 7));
}

TEST(PruneDifferentialTest, RandomVdags) {
  PruneOptions all_views;
  all_views.permute_only_views_with_parents = false;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    tpcd::Rng rng(seed);
    Vdag vdag = testutil::RandomVdag(&rng, 2 + seed % 3, 2 + seed % 4);
    ExpectMatchesReference(vdag, RandomSizes(vdag, seed));
    ExpectMatchesReference(vdag, EqualSizes(vdag));
    if (vdag.num_views() <= 7) {
      ExpectMatchesReference(vdag, RandomSizes(vdag, seed), all_views);
    }
  }
}

TEST(PruneDifferentialTest, NonUnitWorkParams) {
  PruneOptions scaled;
  scaled.work_params.comp_per_row = 2.0;
  scaled.work_params.inst_per_row = 3.0;
  PruneOptions free_comps;
  free_comps.work_params.comp_per_row = 0.0;
  for (const Vdag& vdag :
       {testutil::MakeFig10Vdag(), tpcd::BuildTpcdVdag()}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      ExpectMatchesReference(vdag, RandomSizes(vdag, seed), scaled);
      ExpectMatchesReference(vdag, RandomSizes(vdag, seed), free_comps);
    }
  }
}

// Aux-aware costing: V's terms may scan the promoted prefix AB instead of
// A and B while neither has been installed, which the pair closed form
// cannot express, so each feasible leaf is replayed instead.
TEST(PruneDifferentialTest, AuxCostInfo) {
  Vdag vdag;
  for (const char* base : {"A", "B", "C", "D"}) {
    vdag.AddBaseView(base, testutil::TripleSchema(base));
  }
  vdag.AddDerivedView(testutil::SpjTripleView("AB", {"A", "B"}));
  vdag.AddDerivedView(testutil::SpjTripleView("V", {"A", "B", "C"}));
  vdag.AddDerivedView(testutil::SpjTripleView("U", {"B", "C", "D"}));
  AuxCostInfo info;
  info.alternatives.push_back({"V", "AB", 2, {"A", "B"}});
  PruneOptions aux;
  aux.aux = &info;
  PruneOptions aux_all_views = aux;
  aux_all_views.permute_only_views_with_parents = false;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SizeMap sizes = RandomSizes(vdag, seed);
    sizes.Set("AB", {20, 4, 2});
    PruneResult r = ExpectMatchesReference(vdag, sizes, aux);
    ExpectMatchesReference(vdag, sizes, aux_all_views);
    EXPECT_LT(r.work, EstimateStrategyWork(vdag, r.strategy, sizes, {}).total)
        << "the aux scan should be cheaper than its prefix";
  }
}

// On VDAGs where MinWork's desired-ordering EG is acyclic, Prune can do no
// better (both hit the 1-way optimum).
TEST(PruneTest, AgreesWithMinWorkOnUniformVdag) {
  Vdag vdag = tpcd::BuildTpcdVdag();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SizeMap sizes = RandomSizes(vdag, seed);
    MinWorkResult mw = MinWork(vdag, sizes);
    ASSERT_FALSE(mw.used_modified_ordering);
    double mw_work = EstimateStrategyWork(vdag, mw.strategy, sizes, {}).total;
    PruneResult pr = Prune(vdag, sizes);
    EXPECT_NEAR(mw_work, pr.work, 1e-9) << "seed=" << seed;
  }
}

// On the problem VDAG, Prune is at least as good as MinWork and sometimes
// strictly better (MinWork may fall back to a modified ordering).
TEST(PruneTest, NeverWorseThanMinWork) {
  Vdag vdag = testutil::MakeFig10Vdag();
  bool strictly_better_somewhere = false;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SizeMap sizes = RandomSizes(vdag, seed);
    MinWorkResult mw = MinWork(vdag, sizes);
    double mw_work = EstimateStrategyWork(vdag, mw.strategy, sizes, {}).total;
    PruneResult pr = Prune(vdag, sizes);
    EXPECT_LE(pr.work, mw_work + 1e-9) << "seed=" << seed;
    if (pr.work < mw_work - 1e-9) strictly_better_somewhere = true;
  }
  (void)strictly_better_somewhere;  // informational; not guaranteed per-seed
}

// Lemma 6.1 / Theorem 6.1: every 1-way strategy is strongly consistent
// with exactly one ordering, and same-partition strategies cost the same.
TEST(PruneTest, StrategiesInSamePartitionIncurEqualWork) {
  Vdag vdag = testutil::MakeFig3Vdag();
  SizeMap sizes = RandomSizes(vdag, 5);
  auto one_way = EnumerateAllCorrectVdagStrategies(vdag, /*one_way_only=*/true,
                                                   /*limit=*/5000000);
  std::map<std::vector<std::string>, double> partition_work;
  for (const Strategy& s : one_way) {
    std::vector<std::string> ordering = s.InstOrder();  // Lemma 6.1
    double work = EstimateStrategyWork(vdag, s, sizes, {}).total;
    auto [it, inserted] = partition_work.emplace(ordering, work);
    if (!inserted) {
      EXPECT_NEAR(it->second, work, 1e-9)
          << "partition " << s.ToString();
    }
  }
  EXPECT_GT(partition_work.size(), 1u);
}

}  // namespace
}  // namespace wuw
