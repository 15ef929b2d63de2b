// Unit tests for the physical-plan layer: DAG interning / CSE, cache-key
// versioning, SubplanCache budget + eviction policy, and PlanExecutor
// result reuse.
#include <gtest/gtest.h>

#include "parallel/thread_pool.h"
#include "plan/plan_executor.h"
#include "plan/plan_node.h"
#include "plan/subplan_cache.h"
#include "stats/plan_cardinality.h"
#include "storage/column_table.h"
#include "test_util.h"
#include "view/join_pipeline.h"

namespace wuw {
namespace {

using testutil::FillTriple;
using testutil::TripleSchema;

Table MakeTriple(const std::string& name, int64_t rows, uint64_t seed) {
  Table t(TripleSchema(name));
  FillTriple(&t, rows, seed);
  return t;
}

Rows MakeRowsBatch(const std::string& name, int64_t rows, uint64_t seed) {
  Table t = MakeTriple(name, rows, seed);
  return Rows::FromTable(t);
}

Table ToTable(const Rows& rows) {
  Table out(rows.schema);
  for (const auto& [tuple, count] : rows.rows) out.Add(tuple, count);
  return out;
}

ScalarExpr::Ptr ValueAbove(const std::string& column, int64_t threshold) {
  return ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column(column),
                             ScalarExpr::Literal(Value::Int64(threshold)));
}

TEST(PlanDagTest, InternUnifiesIdenticalSubplans) {
  Table a = MakeTriple("A", 20, 1);
  Table b = MakeTriple("B", 20, 2);
  PlanDag dag;

  // Two "terms" sharing the scan of A and the filtered scan of B.
  PlanNodeId scan_a1 = dag.InternTableScan("A", a, 3, 9);
  PlanNodeId scan_b1 = dag.InternTableScan("B", b, 1, 9);
  PlanNodeId filt_b1 = dag.InternFilter(scan_b1, ValueAbove("B_v", 10));
  PlanNodeId join1 = dag.InternHashJoin(scan_a1, filt_b1,
                                        JoinKeys{{"A_k"}, {"B_k"}});

  PlanNodeId scan_a2 = dag.InternTableScan("A", a, 3, 9);
  PlanNodeId filt_b2 = dag.InternFilter(dag.InternTableScan("B", b, 1, 9),
                                        ValueAbove("B_v", 10));
  PlanNodeId join2 = dag.InternHashJoin(scan_a2, filt_b2,
                                        JoinKeys{{"A_k"}, {"B_k"}});

  EXPECT_EQ(scan_a1, scan_a2);
  EXPECT_EQ(filt_b1, filt_b2);
  EXPECT_EQ(join1, join2);
  // scan A, scan B, filter, join — nothing duplicated.
  EXPECT_EQ(dag.size(), 4u);
}

TEST(PlanDagTest, VersionAndEpochSplitScanIdentity) {
  Table a = MakeTriple("A", 10, 1);
  PlanDag dag;
  PlanNodeId v1 = dag.InternTableScan("A", a, 1, 5);
  PlanNodeId v2 = dag.InternTableScan("A", a, 2, 5);  // extent rewritten
  PlanNodeId e2 = dag.InternTableScan("A", a, 1, 6);  // new batch epoch
  EXPECT_NE(v1, v2);
  EXPECT_NE(v1, e2);
  EXPECT_NE(v2, e2);
}

TEST(PlanDagTest, NumUsesCountsParentEdges) {
  Table a = MakeTriple("A", 10, 1);
  Table b = MakeTriple("B", 10, 2);
  PlanDag dag;
  PlanNodeId scan_a = dag.InternTableScan("A", a, 0, 0);
  PlanNodeId scan_b = dag.InternTableScan("B", b, 0, 0);
  dag.InternHashJoin(scan_a, scan_b, JoinKeys{{"A_k"}, {"B_k"}});
  dag.InternFilter(scan_a, ValueAbove("A_v", 3));
  EXPECT_EQ(dag.node(scan_a).num_uses, 2);
  EXPECT_EQ(dag.node(scan_b).num_uses, 1);
}

TEST(PlanDagTest, RowsLeafPoisonsCacheability) {
  Rows batch = MakeRowsBatch("A", 10, 1);
  Table b = MakeTriple("B", 10, 2);
  PlanDag dag;
  PlanNodeId rows_leaf = dag.InternRowsScan(batch);
  PlanNodeId table_leaf = dag.InternTableScan("B", b, 0, 0);
  PlanNodeId join = dag.InternHashJoin(rows_leaf, table_leaf,
                                       JoinKeys{{"A_k"}, {"B_k"}});
  EXPECT_FALSE(dag.node(rows_leaf).cacheable);
  EXPECT_TRUE(dag.node(table_leaf).cacheable);
  EXPECT_FALSE(dag.node(join).cacheable);
}

TEST(SubplanCacheTest, ZeroBudgetAdmitsNothing) {
  SubplanCache cache(SubplanCacheOptions{/*byte_budget=*/0});
  auto rows = std::make_shared<const Rows>(MakeRowsBatch("A", 5, 1));
  cache.Insert("k", rows, 100.0);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.bytes_in_use, 0);
}

TEST(SubplanCacheTest, NegativeBudgetIsUnbounded) {
  SubplanCache cache(SubplanCacheOptions{/*byte_budget=*/-1});
  for (int i = 0; i < 50; ++i) {
    cache.Insert("k" + std::to_string(i),
                 std::make_shared<const Rows>(MakeRowsBatch("A", 20, i)), 1.0);
  }
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 50);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(SubplanCacheTest, EvictsCheapestToRecomputeFirst) {
  auto cheap = std::make_shared<const Rows>(MakeRowsBatch("A", 10, 1));
  auto costly = std::make_shared<const Rows>(MakeRowsBatch("B", 10, 2));
  int64_t each = ApproxRowsBytes(*cheap);
  // Room for two entries of this size, not three.
  SubplanCache cache(SubplanCacheOptions{2 * each + each / 2});
  cache.Insert("cheap", cheap, /*recompute_cost=*/10.0);
  cache.Insert("costly", costly, /*recompute_cost=*/1e6);
  cache.Insert("new", std::make_shared<const Rows>(MakeRowsBatch("C", 10, 3)),
               /*recompute_cost=*/500.0);
  EXPECT_EQ(cache.Lookup("cheap"), nullptr);   // evicted: lowest cost/byte
  EXPECT_NE(cache.Lookup("costly"), nullptr);  // survived pressure
  EXPECT_NE(cache.Lookup("new"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(SubplanCacheTest, LruBreaksCostTies) {
  auto mk = [](int seed) {
    return std::make_shared<const Rows>(MakeRowsBatch("A", 10, seed));
  };
  int64_t each = ApproxRowsBytes(*mk(1));
  SubplanCache cache(SubplanCacheOptions{2 * each + each / 2});
  cache.Insert("first", mk(1), 1.0);
  cache.Insert("second", mk(2), 1.0);
  ASSERT_NE(cache.Lookup("first"), nullptr);  // refresh: "second" is now LRU
  cache.Insert("third", mk(3), 1.0);
  EXPECT_NE(cache.Lookup("first"), nullptr);
  EXPECT_EQ(cache.Lookup("second"), nullptr);
  EXPECT_NE(cache.Lookup("third"), nullptr);
}

TEST(SubplanCacheTest, HitAndMissCountersTrack) {
  SubplanCache cache;
  EXPECT_EQ(cache.Lookup("absent"), nullptr);
  cache.Insert("k", std::make_shared<const Rows>(MakeRowsBatch("A", 5, 1)),
               1.0);
  EXPECT_NE(cache.Lookup("k"), nullptr);
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

// The executor over a plan must produce exactly what the eager operators
// produce, and charge the same operator stats when no cache is attached.
TEST(PlanExecutorTest, MatchesEagerOperatorsWithoutCache) {
  Table a = MakeTriple("A", 30, 1);
  Table b = MakeTriple("B", 40, 2);
  ScalarExpr::Ptr pred = ValueAbove("B_v", 20);
  JoinKeys keys{{"A_k"}, {"B_k"}};

  OperatorStats eager_stats;
  Rows eager = HashJoin(Rows::FromTable(a),
                        Filter(Rows::FromTable(b), pred, &eager_stats), keys,
                        &eager_stats);

  PlanDag dag;
  PlanNodeId root = dag.InternHashJoin(
      dag.InternTableScan("A", a, 0, 0),
      dag.InternFilter(dag.InternTableScan("B", b, 0, 0), pred), keys);
  OperatorStats plan_stats;
  PlanExecutor exec(dag, /*cache=*/nullptr);
  std::shared_ptr<const Rows> out = exec.Execute(root, &plan_stats);

  EXPECT_TRUE(ToTable(eager).ContentsEqual(ToTable(*out)));
  EXPECT_EQ(eager_stats, plan_stats);
}

// A table scan big enough for the morsel gate still hands downstream the
// table's own columnar snapshot and cardinalities: a scan that dropped them
// made every vectorized consumer rebuild the columns (a pool-size-dependent
// engine.vec.conversions count and a slower multi-thread window).
TEST(PlanExecutorTest, LargeTableScanKeepsColumnarSnapshotOnPool) {
  Table a = MakeTriple("A", static_cast<int64_t>(2 * kMinParallelRows), 1);
  ASSERT_GE(a.distinct_size(), kMinParallelRows);
  std::shared_ptr<const ColumnTable> snapshot = a.ColumnarSnapshot();
  ASSERT_NE(snapshot, nullptr);

  PlanDag dag;
  PlanNodeId root = dag.InternTableScan("A", a, 0, 0);
  ThreadPool pool(2);
  PlanExecutor exec(dag, /*cache=*/nullptr, &pool);
  std::shared_ptr<const Rows> out = exec.Execute(root, nullptr);

  // Read the cache slots before any accessor could fill them lazily.
  EXPECT_EQ(out->signed_card_.load(), a.cardinality());
  EXPECT_EQ(out->abs_card_.load(), a.cardinality());
  EXPECT_EQ(out->Columnar().get(), snapshot.get());
}

TEST(PlanExecutorTest, CacheHitSkipsRecomputation) {
  Table a = MakeTriple("A", 30, 1);
  Table b = MakeTriple("B", 40, 2);
  JoinKeys keys{{"A_k"}, {"B_k"}};
  SubplanCache cache;

  auto run = [&](OperatorStats* stats) {
    PlanDag dag;
    PlanNodeId root = dag.InternHashJoin(dag.InternTableScan("A", a, 0, 0),
                                         dag.InternTableScan("B", b, 0, 0),
                                         keys);
    AnnotatePlanCardinality(&dag);
    PlanExecutor exec(dag, &cache);
    return *exec.Execute(root, stats);
  };

  OperatorStats cold, warm;
  Rows first = run(&cold);
  Rows second = run(&warm);  // a fresh DAG, same fingerprints

  EXPECT_TRUE(ToTable(first).ContentsEqual(ToTable(second)));
  EXPECT_GT(cold.subplan_cache_misses, 0);
  EXPECT_EQ(cold.subplan_cache_hits, 0);
  EXPECT_EQ(warm.subplan_cache_hits, 1);  // root served whole
  EXPECT_EQ(warm.rows_scanned, 0);        // nothing re-joined
}

TEST(PlanExecutorTest, PrepareSharedMaterializesSharedNodesOnce) {
  Table a = MakeTriple("A", 30, 1);
  Table b = MakeTriple("B", 40, 2);
  Table c = MakeTriple("C", 20, 3);
  JoinKeys ab{{"A_k"}, {"B_k"}};
  JoinKeys ac{{"A_k"}, {"C_k"}};

  // Two roots sharing the A⋈B prefix... no: sharing the scan of A and the
  // join A⋈B as a whole via a filter variant.
  PlanDag dag;
  PlanNodeId join_ab = dag.InternHashJoin(dag.InternTableScan("A", a, 0, 0),
                                          dag.InternTableScan("B", b, 0, 0),
                                          ab);
  PlanNodeId root1 = dag.InternFilter(join_ab, ValueAbove("A_v", 10));
  PlanNodeId root2 = dag.InternHashJoin(join_ab,
                                        dag.InternTableScan("C", c, 0, 0), ac);
  ASSERT_EQ(dag.node(join_ab).num_uses, 2);
  AnnotatePlanCardinality(&dag);

  SubplanCache cache;
  PlanExecutor exec(dag, &cache);
  OperatorStats prep, s1, s2;
  exec.PrepareShared({root1, root2}, &prep);
  Rows r1 = *exec.Execute(root1, &s1);
  Rows r2 = *exec.Execute(root2, &s2);

  // The shared join ran once, during the pre-pass; the roots only paid for
  // their own operator over the memoized input.
  EXPECT_GT(prep.rows_scanned, 0);
  OperatorStats eager1, eager2;
  Rows expect1 = Filter(HashJoin(Rows::FromTable(a), Rows::FromTable(b), ab,
                                 &eager1),
                        ValueAbove("A_v", 10), &eager1);
  Rows expect2 = HashJoin(HashJoin(Rows::FromTable(a), Rows::FromTable(b), ab,
                                   &eager2),
                          Rows::FromTable(c), ac, &eager2);
  EXPECT_TRUE(ToTable(expect1).ContentsEqual(ToTable(r1)));
  EXPECT_TRUE(ToTable(expect2).ContentsEqual(ToTable(r2)));
  EXPECT_LT(s1.rows_scanned + s2.rows_scanned,
            eager1.rows_scanned + eager2.rows_scanned);
}

// Lowering a view definition must still emit the historical operator
// sequence: BuildJoinPlan + execute == EvalJoinPipeline.
TEST(PlanPipelineTest, BuildJoinPlanMatchesEvalJoinPipeline) {
  auto def = testutil::SpjTripleView("V", {"A", "B"}, /*with_filter=*/true);
  Table a = MakeTriple("A", 25, 4);
  Table b = MakeTriple("B", 35, 5);

  OperatorStats eager_stats;
  std::vector<Rows> inputs;
  inputs.push_back(Rows::FromTable(a));
  inputs.push_back(Rows::FromTable(b));
  Rows eager = EvalJoinPipeline(*def, std::move(inputs), &eager_stats);

  PlanDag dag;
  std::vector<PlanNodeId> leaves = {dag.InternTableScan("A", a, 0, 0),
                                    dag.InternTableScan("B", b, 0, 0)};
  PlanNodeId root = BuildJoinPlan(*def, leaves, &dag);
  OperatorStats plan_stats;
  PlanExecutor exec(dag, nullptr);
  Rows from_plan = *exec.Execute(root, &plan_stats);

  EXPECT_TRUE(ToTable(eager).ContentsEqual(ToTable(from_plan)));
  EXPECT_EQ(eager_stats, plan_stats);
}

TEST(PlanCardinalityTest, AnnotationsAreMonotoneUpTheDag) {
  Table a = MakeTriple("A", 100, 6);
  Table b = MakeTriple("B", 50, 7);
  PlanDag dag;
  PlanNodeId scan_a = dag.InternTableScan("A", a, 0, 0);
  PlanNodeId filt = dag.InternFilter(scan_a, ValueAbove("A_v", 50));
  PlanNodeId join = dag.InternHashJoin(filt, dag.InternTableScan("B", b, 0, 0),
                                       JoinKeys{{"A_k"}, {"B_k"}});
  AnnotatePlanCardinality(&dag);

  EXPECT_EQ(dag.node(scan_a).est_output_rows, a.cardinality());
  EXPECT_LT(dag.node(filt).est_output_rows, dag.node(scan_a).est_output_rows);
  EXPECT_GT(dag.node(filt).est_output_rows, 0);
  // Recompute cost accumulates: rebuilding the join costs more than
  // rebuilding either input subtree.
  EXPECT_GT(dag.node(join).est_recompute_cost,
            dag.node(filt).est_recompute_cost);
}

}  // namespace
}  // namespace wuw
