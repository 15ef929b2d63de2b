// The tentpole property suite: for random VDAGs and every optimizer
// strategy, kill the update window at EVERY fault point and (sampled) hit
// index, restore the pre-window state, ResumeStrategy — and the warehouse
// must land bit-identically on the recompute ground truth.  Swept under
// the sequential and the stage-parallel executor, with and without a
// SubplanCache attached.
//
// Each sweep is two passes: a count-only run enumerates the (point, hits)
// pairs the execution actually reaches, then each sampled (point, k)
// becomes a hit-count trigger on a fresh clone.  Sequential executions are
// deterministic, so the trigger must fire; parallel scheduling can shift
// per-point hit totals between runs, so there a non-firing trigger just
// asserts the completed run converged.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/min_work.h"
#include "core/min_work_single.h"
#include "core/prune.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "exec/parallel_executor.h"
#include "exec/recovery.h"
#include "exec/window_budget.h"
#include "fault/fault_injection.h"
#include "plan/subplan_cache.h"
#include "storage/paged_store.h"
#include "test_util.h"

namespace wuw {
namespace {

using fault::FaultInjectedError;
using fault::FaultPlan;
using fault::HitCounts;
using fault::ScopedFaultPlan;
using fault::Trigger;

constexpr int64_t kNoCache = -2;     // sentinel: run eager, no cache
constexpr int64_t kTightCache = 16 << 10;  // eviction churn under faults

/// Caps the per-point kill sweep: high-count points (plan.eval fires per
/// plan node, install.row per row) are stride-sampled down to at most this
/// many hit indices, always including the first and last.
constexpr int64_t kMaxKillsPerPoint = 5;

std::vector<int64_t> SampleHits(int64_t total) {
  std::vector<int64_t> hits;
  if (total <= 0) return hits;
  int64_t stride = std::max<int64_t>(1, total / kMaxKillsPerPoint);
  for (int64_t k = 1; k <= total; k += stride) hits.push_back(k);
  if (hits.back() != total) hits.push_back(total);
  return hits;
}

struct Workbench {
  Vdag vdag;
  Warehouse warehouse;
  Catalog truth;
};

Workbench MakeWorkbench(uint64_t seed, size_t bases, size_t derived) {
  tpcd::Rng rng(seed);
  Vdag vdag = testutil::RandomVdag(&rng, bases, derived);
  Warehouse w = testutil::MakeLoadedWarehouse(vdag, 40, seed * 31 + 1);
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed * 17 + 3);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  return Workbench{std::move(vdag), std::move(w), std::move(truth)};
}

std::unique_ptr<SubplanCache> MakeCache(int64_t budget) {
  if (budget == kNoCache) return nullptr;
  return std::make_unique<SubplanCache>(SubplanCacheOptions{budget});
}

/// One full kill sweep of `s` under the sequential executor.  Every run
/// (count pass, victim, resume) gets a fresh cache of the same budget so
/// per-run hit counts are deterministic; the resume shares the victim's
/// cache, which is sound for clone-restore (versions line up).
void SweepSequential(const Workbench& wb, const Strategy& s, int64_t budget) {
  auto run = [&](Warehouse* target, SubplanCache* cache) {
    ExecutorOptions options;
    options.journal = true;
    options.subplan_cache = cache;
    Executor executor(target, options);
    executor.Execute(s);
  };

  std::vector<std::pair<std::string, int64_t>> counts;
  {
    FaultPlan count;
    count.count_only = true;
    ScopedFaultPlan scoped(count);
    Warehouse clone = wb.warehouse.Clone();
    auto cache = MakeCache(budget);
    run(&clone, cache.get());
    // Capture BEFORE the convergence check: with paging armed,
    // ContentsEqual itself faults hibernated extents back in, and those
    // paged.io.read hits are not part of the run being swept.
    counts = HitCounts();
    ASSERT_TRUE(clone.catalog().ContentsEqual(wb.truth))
        << "count pass diverged";
  }
  ASSERT_FALSE(counts.empty()) << "no fault points reached?";

  for (const auto& [point, total] : counts) {
    for (int64_t k : SampleHits(total)) {
      SCOPED_TRACE(point + " hit " + std::to_string(k));
      Warehouse victim = wb.warehouse.Clone();
      auto cache = MakeCache(budget);
      bool died = false;
      {
        FaultPlan plan;
        plan.triggers.push_back(Trigger{point, k, 1.0});
        ScopedFaultPlan scoped(plan);
        try {
          run(&victim, cache.get());
        } catch (const FaultInjectedError&) {
          died = true;
        }
      }
      // Sequential execution is deterministic: the count pass proved hit k
      // exists, so the trigger must fire.
      ASSERT_TRUE(died);

      Warehouse restored = wb.warehouse.Clone();
      ExecutorOptions resume_options;
      resume_options.subplan_cache = cache.get();
      ResumeReport report =
          ResumeStrategy(victim.journal(), &restored, resume_options);
      EXPECT_EQ(report.steps_replayed + report.steps_executed,
                static_cast<int64_t>(s.size()));
      ASSERT_TRUE(restored.catalog().ContentsEqual(wb.truth));
    }
  }
}

/// Kill sweep under the stage-parallel executor.  Worker scheduling can
/// shift per-point hit totals between runs, so a non-firing trigger is
/// tolerated — the run then completed and must have converged.
void SweepParallel(const Workbench& wb, const Strategy& s, int64_t budget) {
  ParallelStrategy staged = ParallelizeStrategy(wb.vdag, s);
  auto run = [&](Warehouse* target, SubplanCache* cache) {
    ParallelExecutorOptions options;
    options.workers = 3;
    options.term_workers = 2;
    options.journal = true;
    options.subplan_cache = cache;
    ParallelExecutor executor(target, options);
    executor.Execute(staged);
  };

  std::vector<std::pair<std::string, int64_t>> counts;
  {
    FaultPlan count;
    count.count_only = true;
    ScopedFaultPlan scoped(count);
    Warehouse clone = wb.warehouse.Clone();
    auto cache = MakeCache(budget);
    run(&clone, cache.get());
    counts = HitCounts();  // before ContentsEqual — see SweepSequential
    ASSERT_TRUE(clone.catalog().ContentsEqual(wb.truth))
        << "count pass diverged";
  }

  for (const auto& [point, total] : counts) {
    for (int64_t k : SampleHits(total)) {
      SCOPED_TRACE(point + " hit " + std::to_string(k));
      Warehouse victim = wb.warehouse.Clone();
      auto cache = MakeCache(budget);
      bool died = false;
      {
        FaultPlan plan;
        plan.triggers.push_back(Trigger{point, k, 1.0});
        ScopedFaultPlan scoped(plan);
        try {
          run(&victim, cache.get());
        } catch (const FaultInjectedError&) {
          died = true;
        }
      }
      if (!died) {
        ASSERT_TRUE(victim.catalog().ContentsEqual(wb.truth));
        continue;
      }
      Warehouse restored = wb.warehouse.Clone();
      ExecutorOptions resume_options;
      resume_options.subplan_cache = cache.get();
      ResumeReport report =
          ResumeStrategy(victim.journal(), &restored, resume_options);
      EXPECT_EQ(report.steps_replayed + report.steps_executed,
                static_cast<int64_t>(staged.num_expressions()));
      ASSERT_TRUE(restored.catalog().ContentsEqual(wb.truth));
    }
  }
}

/// The paused-window dimension: budget-pause the run halfway, then kill
/// the continue-in-place resume at every reached fault point.  The journal
/// at death holds the paused prefix plus whatever the resume completed;
/// recovery must still replay it onto the restored pre-window state and
/// land on the ground truth — a crash during a carryover window is no
/// worse than a crash during a plain one.
void SweepPausedResume(const Workbench& wb, const Strategy& s,
                       int64_t budget) {
  // Work budget that pauses after the first half of the steps (analytic,
  // so the same split holds under every cache budget).
  int64_t pause_work = 0;
  size_t n = 0;
  {
    Warehouse clone = wb.warehouse.Clone();
    ExecutionReport full = Executor(&clone).Execute(s);
    n = full.per_expression.size();
    if (n < 2) return;  // nothing to pause between
    for (size_t i = 0; i < n / 2; ++i) {
      pause_work += full.per_expression[i].linear_work;
    }
  }

  auto pause = [&](Warehouse* target, SubplanCache* cache) {
    WindowBudget window_budget(WindowBudgetOptions{pause_work});
    ExecutorOptions options;
    options.subplan_cache = cache;
    options.budget = &window_budget;
    ExecutionReport r = Executor(target, options).Execute(s);
    ASSERT_EQ(r.window_result, WindowResult::kPaused);
    // Zero-work steps can move the boundary up by a step or two; all that
    // matters is a genuine mid-run pause.
    ASSERT_LT(r.steps_completed, static_cast<int64_t>(n));
  };
  auto resume_in_place = [&](Warehouse* target, SubplanCache* cache) {
    ExecutorOptions options;
    options.subplan_cache = cache;
    ResumeStrategy(target->journal(), target, options,
                   ResumeMode::kContinueInPlace);
  };

  // Count pass: faults armed only around the resume, so the sweep covers
  // exactly the carryover window's fault points.
  std::vector<std::pair<std::string, int64_t>> counts;
  {
    Warehouse clone = wb.warehouse.Clone();
    auto cache = MakeCache(budget);
    pause(&clone, cache.get());
    if (::testing::Test::HasFatalFailure()) return;
    FaultPlan count;
    count.count_only = true;
    ScopedFaultPlan scoped(count);
    resume_in_place(&clone, cache.get());
    counts = HitCounts();  // before ContentsEqual — see SweepSequential
    ASSERT_TRUE(clone.catalog().ContentsEqual(wb.truth))
        << "count pass diverged";
  }
  ASSERT_FALSE(counts.empty()) << "no fault points reached in resume?";

  for (const auto& [point, total] : counts) {
    for (int64_t k : SampleHits(total)) {
      SCOPED_TRACE(point + " hit " + std::to_string(k));
      Warehouse victim = wb.warehouse.Clone();
      auto cache = MakeCache(budget);
      pause(&victim, cache.get());
      if (::testing::Test::HasFatalFailure()) return;
      bool died = false;
      {
        FaultPlan plan;
        plan.triggers.push_back(Trigger{point, k, 1.0});
        ScopedFaultPlan scoped(plan);
        try {
          resume_in_place(&victim, cache.get());
        } catch (const FaultInjectedError&) {
          died = true;
        }
      }
      ASSERT_TRUE(died);

      Warehouse restored = wb.warehouse.Clone();
      ExecutorOptions resume_options;
      resume_options.subplan_cache = cache.get();
      ResumeReport report =
          ResumeStrategy(victim.journal(), &restored, resume_options);
      EXPECT_EQ(report.steps_replayed + report.steps_executed,
                static_cast<int64_t>(s.size()));
      ASSERT_TRUE(restored.catalog().ContentsEqual(wb.truth));
    }
  }
}

struct SweepParam {
  uint64_t seed;
  size_t bases;
  size_t derived;
};

class FaultRecoveryPropertyTest : public ::testing::TestWithParam<SweepParam> {
};

TEST_P(FaultRecoveryPropertyTest, SequentialKillAtEveryPointConverges) {
  const SweepParam& p = GetParam();
  const uint64_t seed = p.seed + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Workbench wb = MakeWorkbench(seed, p.bases, p.derived);

  SizeMap sizes = wb.warehouse.EstimatedSizes();
  const Strategy strategies[] = {MinWork(wb.vdag, sizes).strategy,
                                 Prune(wb.vdag, sizes).strategy,
                                 MakeDualStageVdagStrategy(wb.vdag)};
  for (const Strategy& s : strategies) {
    for (int64_t budget : {kNoCache, kTightCache}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " strategy " +
                   s.ToString());
      SweepSequential(wb, s, budget);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(FaultRecoveryPropertyTest, ParallelKillAtEveryPointConverges) {
  const SweepParam& p = GetParam();
  const uint64_t seed = p.seed + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Workbench wb = MakeWorkbench(seed, p.bases, p.derived);

  SizeMap sizes = wb.warehouse.EstimatedSizes();
  const Strategy strategies[] = {MinWork(wb.vdag, sizes).strategy,
                                 MakeDualStageVdagStrategy(wb.vdag)};
  for (const Strategy& s : strategies) {
    for (int64_t budget : {kNoCache, kTightCache}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " strategy " +
                   s.ToString());
      SweepParallel(wb, s, budget);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(FaultRecoveryPropertyTest, KillDuringPausedWindowResumeConverges) {
  const SweepParam& p = GetParam();
  const uint64_t seed = p.seed + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Workbench wb = MakeWorkbench(seed, p.bases, p.derived);

  SizeMap sizes = wb.warehouse.EstimatedSizes();
  const Strategy s = MinWork(wb.vdag, sizes).strategy;
  for (int64_t budget : {kNoCache, kTightCache}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    SweepPausedResume(wb, s, budget);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultRecoveryPropertyTest,
                         ::testing::Values(SweepParam{101, 3, 2},
                                           SweepParam{102, 2, 3}),
                         [](const ::testing::TestParamInfo<SweepParam>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// The WUW_MEM_MB dimension: the same kill-anywhere sweep with the extent
// pager armed at a tiny budget (everything evictable hibernates at every
// touch) and the operator grace paths forced on.  The count pass then
// reaches the pager's `paged.io.read` / `paged.io.write` sites alongside
// the engine's, so the sweep kills mid-image-write and mid-fault-in (the
// grace paths partition in memory and do no I/O) — and every resume must
// still land bit-identically on the resident recompute ground truth
// (clones inherit the arming, so victim and restored warehouse page
// alike).
TEST(FaultRecoveryPropertyTest, PagedKillAtEveryPointConverges) {
  const uint64_t seed = testutil::PropertySeed(113);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Workbench wb = MakeWorkbench(seed, 3, 2);

  paged::PagedOptions paged_options;
  paged_options.budget_bytes = 1;
  paged_options.page_bytes = 512;
  paged_options.partitions = 4;
  paged_options.spill_bytes = 64;
  wb.warehouse.EnablePaging(paged_options);
  paged::ScopedOperatorSpill spill(paged_options);

  SizeMap sizes = wb.warehouse.EstimatedSizes();
  const Strategy s = MinWork(wb.vdag, sizes).strategy;

  // Prove the paged I/O sites are genuinely part of this sweep's surface.
  {
    FaultPlan count;
    count.count_only = true;
    ScopedFaultPlan scoped(count);
    Warehouse clone = wb.warehouse.Clone();
    ExecutorOptions options;
    options.journal = true;
    Executor(&clone, options).Execute(s);
    ASSERT_TRUE(clone.catalog().ContentsEqual(wb.truth));
    bool saw_read = false, saw_write = false;
    for (const auto& [point, total] : HitCounts()) {
      saw_read = saw_read || point == "paged.io.read";
      saw_write = saw_write || point == "paged.io.write";
    }
    ASSERT_TRUE(saw_write) << "tiny budget never wrote a page";
    ASSERT_TRUE(saw_read) << "tiny budget never read a page back";
  }

  SweepSequential(wb, s, kNoCache);
  if (::testing::Test::HasFatalFailure()) return;
  SweepParallel(wb, MakeDualStageVdagStrategy(wb.vdag), kNoCache);
}

// MinWorkSingle (Algorithm 4.1) on its home turf — a single derived view
// over n bases — swept sequentially at every point.
TEST(FaultRecoveryPropertyTest, MinWorkSingleStarVdagKillSweep) {
  const uint64_t seed = testutil::PropertySeed(111);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Vdag vdag = testutil::MakeStarVdag("V", 3);
  Warehouse w = testutil::MakeLoadedWarehouse(vdag, 40, seed);
  testutil::ApplyTripleChanges(&w, 0.25, 10, seed + 6);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Workbench wb{std::move(vdag), std::move(w), std::move(truth)};

  Strategy s =
      MinWorkSingle(wb.vdag, "V", wb.warehouse.EstimatedSizes());
  for (int64_t budget : {kNoCache, kTightCache}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    SweepSequential(wb, s, budget);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace wuw
