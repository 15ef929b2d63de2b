// The observability determinism contract, property-tested end to end
// (ISSUE: counter snapshots must be bit-identical at every WUW_THREADS
// value and cache budget; only wall time may vary):
//
//   * kWork counters are identical for a given (state, strategy, executor)
//     across pool sizes {1, 2, 8} x cache budgets {none, 0, 256MB};
//   * kWork|kEngine counters (the WUW_METRICS dump CI diffs) are identical
//     across pool sizes at a fixed cache configuration under the
//     sequential executor;
//   * kTime gauges are excluded from both masks by construction.
//
// VDAG shapes cover the canonical fixtures plus RandomVdag draws; both the
// sequential Executor and the stage-parallel ParallelExecutor run under
// MinWork and Prune strategies.  Honors WUW_SEED (testutil::PropertySeed);
// failures print the effective seed so one command reproduces:
//     WUW_SEED=<seed> ./obs_invariance_property_test
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/min_work.h"
#include "core/prune.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "exec/parallel_executor.h"
#include "obs/metrics.h"
#include "parallel/parallel_strategy.h"
#include "parallel/read_driver.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"
#include "test_util.h"

namespace wuw {
namespace {

using obs::MetricClass;
using obs::MetricsSnapshot;

/// Cache-budget axis: no cache at all, a zero budget (admits nothing), and
/// the default 256MB budget (everything in these workloads fits).
enum class Budget { kNone, kZero, kDefault };

const Budget kBudgets[] = {Budget::kNone, Budget::kZero, Budget::kDefault};
const int kPoolSizes[] = {1, 2, 8};

std::string BudgetName(Budget b) {
  switch (b) {
    case Budget::kNone:
      return "none";
    case Budget::kZero:
      return "0";
    case Budget::kDefault:
      return "256MB";
  }
  return "?";
}

std::unique_ptr<SubplanCache> MakeCache(Budget b) {
  switch (b) {
    case Budget::kNone:
      return nullptr;
    case Budget::kZero:
      return std::make_unique<SubplanCache>(SubplanCacheOptions{0});
    case Budget::kDefault:
      return std::make_unique<SubplanCache>();
  }
  return nullptr;
}

/// Executes `s` on a clone of `w` under one (executor, pool size, budget)
/// configuration and returns the snapshot of `mask`-classed counters for
/// exactly that run.  A fresh cache per run keeps the budget axis clean
/// (cross-run cache reuse is the audit suite's subject, not this one's).
MetricsSnapshot RunAndSnapshot(const Warehouse& w, const Strategy& s,
                               bool stage_parallel, int pool_size,
                               Budget budget, obs::MetricMask mask) {
  obs::ResetMetrics();
  Warehouse clone = w.Clone();
  ThreadPool pool(pool_size);
  std::unique_ptr<SubplanCache> cache = MakeCache(budget);
  if (stage_parallel) {
    ParallelStrategy stages = ParallelizeStrategy(w.vdag(), s);
    ParallelExecutorOptions options;
    options.workers = pool_size;
    options.term_workers = pool_size;
    options.pool = &pool;
    options.subplan_cache = cache.get();
    ParallelExecutor(&clone, options).Execute(stages);
  } else {
    ExecutorOptions options;
    options.pool = &pool;
    options.subplan_cache = cache.get();
    Executor(&clone, options).Execute(s);
  }
  return obs::SnapshotMetrics(mask);
}

/// One fully-loaded scenario: warehouse with pending changes plus the
/// MinWork and Prune strategies for it.
struct Scenario {
  std::string name;
  Warehouse warehouse;
  std::vector<std::pair<std::string, Strategy>> strategies;
};

Scenario MakeScenario(std::string name, Vdag vdag, int64_t base_rows,
                      double delete_fraction, int64_t insert_rows,
                      uint64_t seed) {
  Warehouse w = testutil::MakeLoadedWarehouse(std::move(vdag), base_rows,
                                              seed);
  testutil::ApplyTripleChanges(&w, delete_fraction, insert_rows, seed + 9);
  SizeMap sizes = w.EstimatedSizes();
  std::vector<std::pair<std::string, Strategy>> strategies;
  strategies.emplace_back("MinWork", MinWork(w.vdag(), sizes).strategy);
  strategies.emplace_back("Prune", Prune(w.vdag(), sizes).strategy);
  return Scenario{std::move(name), std::move(w), std::move(strategies)};
}

std::vector<Scenario> MakeScenarios(uint64_t seed) {
  std::vector<Scenario> out;
  out.push_back(MakeScenario("fig3", testutil::MakeFig3Vdag(), 50, 0.2, 8,
                             seed + 1));
  out.push_back(MakeScenario("star_agg",
                             testutil::MakeStarVdag("V", 3, true), 50, 0.15,
                             10, seed + 2));
  tpcd::Rng rng(seed + 3);
  out.push_back(MakeScenario("random", testutil::RandomVdag(&rng, 3, 2), 40,
                             0.25, 6, seed + 4));
  return out;
}

/// A three-source star over base extents of 3x to 6.75x kMinParallelRows
/// live rows, so at pool sizes > 1 every scan, kernel and join over them
/// crosses the morsel gate — the 40-50-row scenarios above never do.
/// Three sources make successive Comps scan the not-yet-installed sources
/// in the same state, which is where a scan that drops the table's cached
/// columnar image shows: each rescan rebuilds it.
Scenario MakeMorselScenario(uint64_t seed) {
  // FillTriple skips every 7th key: 7/2 x kMinParallelRows keys leave
  // 3 x kMinParallelRows rows in the smallest extent.
  const int64_t base_rows = static_cast<int64_t>(kMinParallelRows) * 7 / 2;
  return MakeScenario("star_agg_morsel", testutil::MakeStarVdag("V", 3, true),
                      base_rows, 0.05, 64, seed);
}

class ObsInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_were_armed_ = obs::MetricsArmed();
    obs::ArmMetrics();
  }
  void TearDown() override {
    obs::ResetMetrics();
    if (!metrics_were_armed_) obs::DisarmMetrics();
  }
  bool metrics_were_armed_ = false;
};

// kWork: one baseline per (scenario, strategy, executor), compared against
// every pool-size x budget combination.  18 runs per baseline cell.
TEST_F(ObsInvarianceTest, WorkCountersInvariantAcrossThreadsAndBudgets) {
  const uint64_t seed = testutil::PropertySeed(71);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  for (Scenario& sc : MakeScenarios(seed)) {
    for (const auto& [strategy_name, strategy] : sc.strategies) {
      for (bool stage_parallel : {false, true}) {
        MetricsSnapshot baseline =
            RunAndSnapshot(sc.warehouse, strategy, stage_parallel,
                           /*pool_size=*/1, Budget::kNone,
                           obs::Mask(MetricClass::kWork));
        EXPECT_FALSE(baseline.counters.empty());
        for (int pool_size : kPoolSizes) {
          for (Budget budget : kBudgets) {
            MetricsSnapshot snap =
                RunAndSnapshot(sc.warehouse, strategy, stage_parallel,
                               pool_size, budget,
                               obs::Mask(MetricClass::kWork));
            EXPECT_EQ(snap, baseline)
                << "kWork snapshot diverged: scenario=" << sc.name
                << " strategy=" << strategy_name << " executor="
                << (stage_parallel ? "parallel" : "sequential")
                << " WUW_THREADS=" << pool_size
                << " budget=" << BudgetName(budget)
                << "\nrepro: WUW_SEED=" << seed
                << " ./obs_invariance_property_test"
                << "\nbaseline:\n" << baseline.ToString()
                << "got:\n" << snap.ToString();
          }
        }
      }
    }
  }
}

// kWork|kEngine (the deterministic mask WUW_METRICS dumps): identical
// across pool sizes at each fixed cache configuration under the
// sequential executor.  This is the exact guarantee CI's armed double-run
// diff relies on.  The morsel scenario holds the parallel kernel branches
// to it: each must hand downstream the same columnar image as its
// sequential twin, or engine.vec.conversions grows with the pool.
TEST_F(ObsInvarianceTest, DeterministicMaskThreadInvariantAtFixedBudget) {
  const uint64_t seed = testutil::PropertySeed(73);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  std::vector<Scenario> scenarios = MakeScenarios(seed);
  scenarios.push_back(MakeMorselScenario(seed + 5));
  for (Scenario& sc : scenarios) {
    for (const auto& [strategy_name, strategy] : sc.strategies) {
      for (Budget budget : kBudgets) {
        MetricsSnapshot baseline =
            RunAndSnapshot(sc.warehouse, strategy, /*stage_parallel=*/false,
                           /*pool_size=*/1, budget, obs::kDeterministicMask);
        for (int pool_size : {2, 8}) {
          MetricsSnapshot snap = RunAndSnapshot(
              sc.warehouse, strategy, /*stage_parallel=*/false, pool_size,
              budget, obs::kDeterministicMask);
          EXPECT_EQ(snap, baseline)
              << "deterministic snapshot diverged: scenario=" << sc.name
              << " strategy=" << strategy_name
              << " WUW_THREADS=" << pool_size
              << " budget=" << BudgetName(budget)
              << "\nrepro: WUW_SEED=" << seed
              << " ./obs_invariance_property_test"
              << "\nbaseline:\n" << baseline.ToString()
              << "got:\n" << snap.ToString();
        }
      }
    }
  }
}

// Same-configuration reruns are bit-identical too (no hidden run-to-run
// state in the registry), and the deterministic mask really excludes the
// wall-time gauges the executors always record.
TEST_F(ObsInvarianceTest, RerunsAreIdenticalAndTimeGaugesAreExcluded) {
  const uint64_t seed = testutil::PropertySeed(79);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Scenario sc = MakeScenario("fig3", testutil::MakeFig3Vdag(), 50, 0.2, 8,
                             seed + 1);
  const Strategy& s = sc.strategies[0].second;

  MetricsSnapshot first = RunAndSnapshot(sc.warehouse, s, false, 2,
                                         Budget::kDefault,
                                         obs::kDeterministicMask);
  MetricsSnapshot second = RunAndSnapshot(sc.warehouse, s, false, 2,
                                          Budget::kDefault,
                                          obs::kDeterministicMask);
  EXPECT_EQ(first, second);

  for (const auto& [name, value] : first.counters) {
    EXPECT_EQ(name.find("_us"), std::string::npos)
        << "wall-time gauge leaked into the deterministic mask: " << name;
  }
  // The executor did record time gauges — they are only filtered, and
  // visible under the full mask.
  MetricsSnapshot all = obs::SnapshotMetrics(obs::kAllMetricsMask);
  bool saw_time_gauge = false;
  for (const auto& [name, value] : all.counters) {
    if (name.find("_us") != std::string::npos) saw_time_gauge = true;
  }
  EXPECT_TRUE(saw_time_gauge);
}

// The readers-on dimension (zero-downtime reads): attaching a concurrent
// ReadDriver to an ARMED warehouse must leave the deterministic
// kWork|kEngine snapshot bit-identical to the armed readers-off baseline.
// Two mechanisms carry this: reader-session bodies run under
// obs::ServeScope (non-kServe counters are dropped on those threads, and
// reader threads never populate shared columnar caches), and COW detaches
// are eager — one per mutated view per publish, never refcount-driven, so
// reader pins cannot change the maintenance run's counter stream.
TEST_F(ObsInvarianceTest, DeterministicMaskUnperturbedByConcurrentReaders) {
  const uint64_t seed = testutil::PropertySeed(83);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Scenario sc = MakeScenario("fig3", testutil::MakeFig3Vdag(), 50, 0.2, 8,
                             seed + 1);

  auto run_armed = [&](const Strategy& s, bool readers) {
    obs::ResetMetrics();
    Warehouse clone = sc.warehouse.Clone();
    clone.EnableSnapshotReads();
    ReadDriver driver;
    if (readers) {
      ReadSessionOptions options;
      options.sessions = 16;
      options.scans_per_session = 2;
      options.queries = {"SELECT A_k, A_v FROM A",
                         "SELECT V4_k, V4_v FROM V4",
                         "SELECT V5_k, V5_v FROM V5"};
      driver.Start(clone, options);
    }
    Executor(&clone).Execute(s);
    if (readers) {
      ReadSessionReport report = driver.Stop();
      EXPECT_TRUE(report.ok())
          << report.torn_reads << " torn, " << report.epoch_regressions
          << " regressions, " << report.query_errors << " errors";
    }
    return obs::SnapshotMetrics(obs::kDeterministicMask);
  };

  for (const auto& [strategy_name, strategy] : sc.strategies) {
    MetricsSnapshot off = run_armed(strategy, /*readers=*/false);
    EXPECT_FALSE(off.counters.empty());
    // Several passes: reader scheduling varies run to run; the
    // deterministic mask must not.
    for (int pass = 0; pass < 3; ++pass) {
      MetricsSnapshot on = run_armed(strategy, /*readers=*/true);
      EXPECT_EQ(on, off)
          << "readers perturbed the deterministic snapshot: strategy="
          << strategy_name << " pass=" << pass
          << "\nrepro: WUW_SEED=" << seed
          << " ./obs_invariance_property_test"
          << "\nreaders-off:\n" << off.ToString()
          << "readers-on:\n" << on.ToString();
    }
    // kServe counters DID fire during the readers-on passes — the reader
    // telemetry is redirected, not lost.
    MetricsSnapshot serve =
        obs::SnapshotMetrics(obs::Mask(MetricClass::kServe));
    EXPECT_FALSE(serve.counters.empty())
        << "reader sessions should have produced serve.* counters";
  }
}

// Arming snapshot reads (without any readers) only adds the deterministic
// COW-detach counter to kWork — the rest of the deterministic snapshot is
// unchanged from the disarmed engine, and the detach count itself is
// pool/cache-invariant like every kWork counter.
TEST_F(ObsInvarianceTest, ArmedSnapshotCountersAreDeterministic) {
  if (EnvReaders() > 0) {
    GTEST_SKIP() << "WUW_READERS arms every warehouse; no disarmed baseline";
  }
  const uint64_t seed = testutil::PropertySeed(89);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Scenario sc = MakeScenario("fig3", testutil::MakeFig3Vdag(), 50, 0.2, 8,
                             seed + 1);
  const Strategy& s = sc.strategies[0].second;

  auto run = [&](bool armed, int pool_size) {
    obs::ResetMetrics();
    Warehouse clone = sc.warehouse.Clone();
    if (armed) clone.EnableSnapshotReads();
    ThreadPool pool(pool_size);
    ExecutorOptions options;
    options.pool = &pool;
    Executor(&clone, options).Execute(s);
    return obs::SnapshotMetrics(obs::Mask(MetricClass::kWork));
  };

  MetricsSnapshot disarmed = run(/*armed=*/false, 1);
  MetricsSnapshot armed = run(/*armed=*/true, 1);
  // Armed minus the COW-detach counter == disarmed.
  MetricsSnapshot armed_filtered;
  int64_t detaches = 0;
  for (const auto& [name, value] : armed.counters) {
    if (name == "warehouse.cow_detaches") {
      detaches = value;
    } else {
      armed_filtered.counters.emplace_back(name, value);
    }
  }
  EXPECT_GT(detaches, 0) << "the window mutated views; detaches must fire";
  EXPECT_EQ(armed_filtered, disarmed);
  // And the armed snapshot (detaches included) is pool-invariant.
  for (int pool_size : {2, 8}) {
    EXPECT_EQ(run(/*armed=*/true, pool_size), armed)
        << "armed kWork snapshot diverged at WUW_THREADS=" << pool_size;
  }
}

// SubplanCache telemetry lands in the kEngine class of the registry: a
// budgeted run over a shared-prefix strategy produces cache.hits > 0 and
// cache.cost_saved > 0 (the advisor's benefit signal), the counters agree
// with the cache's own SubplanCacheStats, and — like every counter in the
// deterministic mask — they are pool-invariant at a fixed budget.  They
// must NOT appear under kWork: hits depend on the byte budget, and kWork
// counters are budget-invariant by contract.
TEST_F(ObsInvarianceTest, CacheCountersLandInEngineClassWithCostSaved) {
  const uint64_t seed = testutil::PropertySeed(97);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeStarVdag("V", 4),
                                              50, seed + 1);
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 9);
  const Strategy s = MakeDualStageVdagStrategy(w.vdag());

  // Two clones sharing one cache: the second run replays the first run's
  // fingerprints, so hits (and cost_saved) are guaranteed.
  auto run = [&](int pool_size) {
    obs::ResetMetrics();
    ThreadPool pool(pool_size);
    SubplanCache cache;
    for (int pass = 0; pass < 2; ++pass) {
      Warehouse clone = w.Clone();
      ExecutorOptions options;
      options.pool = &pool;
      options.subplan_cache = &cache;
      Executor(&clone, options).Execute(s);
    }
    return std::make_pair(obs::SnapshotMetrics(obs::Mask(MetricClass::kEngine)),
                          cache.stats());
  };

  auto [engine, stats] = run(1);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.cost_saved, 0);
  auto counter = [&](const MetricsSnapshot& snap, const std::string& name) {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return int64_t{-1};
  };
  EXPECT_EQ(counter(engine, "cache.hits"), stats.hits);
  EXPECT_EQ(counter(engine, "cache.misses"), stats.misses);
  EXPECT_EQ(counter(engine, "cache.cost_saved"),
            static_cast<int64_t>(stats.cost_saved));
  // Budget-dependent telemetry stays out of the budget-invariant class.
  MetricsSnapshot work = obs::SnapshotMetrics(obs::Mask(MetricClass::kWork));
  EXPECT_EQ(counter(work, "cache.hits"), -1);
  EXPECT_EQ(counter(work, "cache.cost_saved"), -1);
  for (int pool_size : {2, 8}) {
    auto [snap, rerun_stats] = run(pool_size);
    EXPECT_EQ(snap, engine)
        << "cache kEngine snapshot diverged at WUW_THREADS=" << pool_size;
    EXPECT_EQ(rerun_stats.hits, stats.hits);
  }
}

}  // namespace
}  // namespace wuw
