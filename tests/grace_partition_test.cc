// The join and aggregation grace paths (WUW_MEM_MB operator spills,
// algebra/hash_partition.h) partition row ids in memory and do no file
// I/O: under a fault env whose every write fails, with a spill directory
// that does not exist and a threshold every input crosses, they still
// return the resident kernels' rows, row order, OperatorStats and
// engine counters, count their non-empty partitions, and never create the
// directory or attempt a write.
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/aggregate.h"
#include "algebra/hash_join.h"
#include "algebra/vectorized.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "storage/page.h"
#include "storage/paged_store.h"
#include "test_util.h"

namespace wuw {
namespace {

/// Random signed multiset (<p>_k INT, <p>_v INT, <p>_d DOUBLE) with
/// multiplicities in [-3, 3] \ {0}.
Rows RandomRows(const std::string& p, size_t n, int64_t key_range,
                tpcd::Rng* rng) {
  Rows out(Schema({{p + "_k", TypeId::kInt64},
                   {p + "_v", TypeId::kInt64},
                   {p + "_d", TypeId::kDouble}}));
  for (size_t i = 0; i < n; ++i) {
    int64_t mult = rng->Range(1, 3) * (rng->Below(4) == 0 ? -1 : 1);
    out.Add(Tuple({Value::Int64(rng->Range(1, key_range)),
                   Value::Int64(rng->Range(-50, 99)),
                   Value::Double(static_cast<double>(rng->Range(-999, 999)) /
                                 7.0)}),
            mult);
  }
  return out;
}

void ExpectRowsIdentical(const Rows& expect, const Rows& got) {
  ASSERT_EQ(expect.rows.size(), got.rows.size());
  for (size_t i = 0; i < expect.rows.size(); ++i) {
    ASSERT_EQ(expect.rows[i].second, got.rows[i].second) << "row " << i;
    ASSERT_TRUE(expect.rows[i].first == got.rows[i].first) << "row " << i;
  }
}

/// Deterministic counters minus the paged tier's own.
obs::MetricsSnapshot EngineCounters() {
  obs::MetricsSnapshot all = obs::SnapshotMetrics();
  obs::MetricsSnapshot out;
  for (auto& [name, value] : all.counters) {
    if (name.rfind("paged.", 0) != 0) out.counters.emplace_back(name, value);
  }
  return out;
}

struct KernelRun {
  Rows join;
  OperatorStats join_stats;
  Rows agg;
  OperatorStats agg_stats;
  obs::MetricsSnapshot counters;
};

KernelRun RunKernels(const Rows& left, const Rows& right, ThreadPool* pool) {
  const std::vector<AggSpec> aggs = {
      {AggFn::kSum, ScalarExpr::Column("l_v"), "sv"},
      {AggFn::kSum, ScalarExpr::Column("l_d"), "sd"},
      {AggFn::kCount, nullptr, "n"}};
  KernelRun out;
  obs::ResetMetrics();
  out.join = HashJoin(left, right, JoinKeys{{"l_k"}, {"r_k"}},
                      &out.join_stats, pool);
  out.agg = AggregateSigned(left, {"l_k"}, aggs, &out.agg_stats, pool);
  out.counters = EngineCounters();
  return out;
}

class GracePartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(GracePartitionTest, GracePathsDoNoFileIo) {
  const int threads = GetParam();
  const uint64_t seed = testutil::PropertySeed(71);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  // Above kMinParallelRows together, so the pooled run scatters on the
  // pool; key ranges give both empty-match probes and multi-row chains.
  Rows left = RandomRows("l", 6000, 1500, &rng);
  Rows right = RandomRows("r", 4000, 1500, &rng);
  ThreadPool pool(static_cast<size_t>(threads));
  ThreadPool* kernel_pool = threads > 1 ? &pool : nullptr;

  obs::ArmMetrics();
  // The resident kernels: the columnar default for rows and stats, the
  // row kernels (which the grace paths mirror) for the engine counters.
  KernelRun resident = RunKernels(left, right, kernel_pool);
  vec::TestOnlySetEnabled(0);
  KernelRun row_resident = RunKernels(left, right, kernel_pool);
  vec::TestOnlySetEnabled(-1);

  const std::string dir =
      ::testing::TempDir() + "wuw_grace_no_io_" + std::to_string(threads);
  std::filesystem::remove_all(dir);
  paged::PagedOptions options;
  options.budget_bytes = 1;
  options.page_bytes = 512;
  options.partitions = 4;
  options.spill_bytes = 64;  // both inputs are far above this
  options.dir = dir;
  io::IoFaultOptions faults;
  faults.enospc_bytes = 0;  // every write fails
  faults.p_write = 1.0;
  io::FaultEnv fenv(faults, io::Env::Default());

  const int64_t spilled_before = paged::GlobalPagedStats().spilled_partitions;
  KernelRun grace;
  {
    io::ScopedEnv scoped_env(&fenv);
    paged::ScopedOperatorSpill spill(options);
    grace = RunKernels(left, right, kernel_pool);
  }
  obs::DisarmMetrics();

  ExpectRowsIdentical(resident.join, grace.join);
  EXPECT_EQ(resident.join_stats, grace.join_stats);
  ExpectRowsIdentical(resident.agg, grace.agg);
  EXPECT_EQ(resident.agg_stats, grace.agg_stats);
  EXPECT_EQ(row_resident.counters, grace.counters)
      << "row kernels:\n" << row_resident.counters.ToString()
      << "grace paths:\n" << grace.counters.ToString();
  // Join: build + probe partitions; aggregation: its own.  With ~1500
  // keys over 4 partitions every partition is non-empty.
  EXPECT_EQ(paged::GlobalPagedStats().spilled_partitions - spilled_before,
            3 * 4);
  EXPECT_FALSE(std::filesystem::exists(dir)) << "grace path touched " << dir;
  EXPECT_TRUE(fenv.Trace().empty()) << "grace path attempted a write";
}

INSTANTIATE_TEST_SUITE_P(Threads, GracePartitionTest, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "pool" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace wuw
