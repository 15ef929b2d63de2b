#include "algebra/aggregate.h"

#include <cstdlib>
#include <queue>

#include "algebra/hash_partition.h"
#include "algebra/key_util.h"
#include "algebra/vectorized.h"
#include "common/check.h"
#include "expr/evaluator.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace wuw {

namespace {

/// Per-group accumulator.  Integer sums accumulate exactly in int64 so
/// that different evaluation orders (different strategies) agree bitwise.
/// Grouping hashes key columns in place (no per-row key allocation); the
/// key tuple of each group points at its first input row.
struct Acc {
  Tuple exemplar;  // a row whose key columns identify this group
  std::vector<int64_t> int_sums;
  std::vector<double> dbl_sums;
  int64_t count = 0;
};

/// Partition bits of the parallel path (algebra/hash_partition.h).
constexpr size_t kAggPartitionBits = 5;

/// One partition's aggregation state.  Groups record the global index of
/// their first input row: within a partition groups are created in
/// ascending first_row order, so a k-way merge on first_row reproduces the
/// sequential path's global creation order exactly.
struct AggPartition {
  std::vector<Acc> groups;
  std::vector<uint32_t> first_row;
};

}  // namespace

Rows AggregateKernel::Run(const std::vector<const Rows*>& inputs,
                          OperatorStats* stats, ThreadPool* pool,
                          const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 1, "AggregateKernel takes exactly one input");
  return AggregateSigned(*inputs[0], group_by, aggs, stats, pool, cancel);
}

Rows AggregateSigned(const Rows& input, const std::vector<std::string>& group_by,
                     const std::vector<AggSpec>& aggs, OperatorStats* stats,
                     ThreadPool* pool, const CancelToken* cancel) {
  // WUW_MEM_MB: an oversized input takes the grace-partition path
  // below.  Decided before the vectorized attempt so a paged run bounds
  // its operator memory wherever the input is big; rows, row order, and
  // OperatorStats are bit-identical on every path.  Disarmed: one relaxed
  // atomic load.
  const std::optional<size_t> grace_bits = GraceBits(input);

  if (!grace_bits && vec::Enabled()) {
    Rows vec_out;
    if (vec::TryAggregate(input, group_by, aggs, stats, pool, cancel,
                          &vec_out)) {
      return vec_out;
    }
  }
  std::vector<size_t> key_idx;
  std::vector<Column> out_cols;
  for (const std::string& name : group_by) {
    size_t i = input.schema.MustIndexOf(name);
    key_idx.push_back(i);
    out_cols.push_back(input.schema.column(i));
  }

  std::vector<BoundExpr> args;
  std::vector<bool> sum_is_int;
  for (const AggSpec& spec : aggs) {
    if (spec.fn == AggFn::kSum) {
      WUW_CHECK(spec.arg != nullptr, "SUM requires an argument expression");
      args.push_back(BoundExpr::Bind(spec.arg, input.schema));
      bool is_int = args.back().result_type() == TypeId::kInt64;
      sum_is_int.push_back(is_int);
      out_cols.push_back(
          Column{spec.name, is_int ? TypeId::kInt64 : TypeId::kDouble});
    } else {
      args.emplace_back();  // placeholder, unused
      sum_is_int.push_back(true);
      out_cols.push_back(Column{spec.name, TypeId::kInt64});
    }
  }
  out_cols.push_back(Column{kGroupCountColumn, TypeId::kInt64});

  // COUNT(arg) is really COUNT(*) here: the maintainable language has no
  // NULL-filtering COUNT(col).
  auto accumulate = [&](Acc* acc, const Tuple& tuple, int64_t mult) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn == AggFn::kCount) {
        acc->int_sums[a] += mult;
      } else if (sum_is_int[a]) {
        Value v = args[a].Eval(tuple);
        if (!v.is_null()) acc->int_sums[a] += mult * v.AsInt64();
      } else {
        Value v = args[a].Eval(tuple);
        if (!v.is_null()) {
          acc->dbl_sums[a] += static_cast<double>(mult) * v.NumericValue();
        }
      }
    }
    acc->count += mult;
  };

  auto emit = [&](Rows* out, const Acc& acc, OperatorStats* emit_stats) {
    bool all_zero = acc.count == 0;
    if (all_zero) {
      for (size_t a = 0; a < aggs.size() && all_zero; ++a) {
        if (sum_is_int[a] ? acc.int_sums[a] != 0 : acc.dbl_sums[a] != 0.0) {
          all_zero = false;
        }
      }
    }
    if (all_zero) return;
    Tuple row = acc.exemplar.Project(key_idx);
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.Append(sum_is_int[a] ? Value::Int64(acc.int_sums[a])
                               : Value::Double(acc.dbl_sums[a]));
    }
    row.Append(Value::Int64(acc.count));
    out->Add(std::move(row), 1);
    if (emit_stats != nullptr) emit_stats->rows_produced += 1;
  };

  const size_t n = input.rows.size();
  // KeyHash touches every key column of every row, and each SUM argument
  // evaluates its bound tree once per row, on either path below.
  size_t num_sums = 0;
  for (const AggSpec& spec : aggs) {
    if (spec.fn == AggFn::kSum) ++num_sums;
  }
  WUW_METRIC_ADD("engine.row.value_hashes", obs::MetricClass::kEngine,
                 static_cast<int64_t>(n * key_idx.size()));
  WUW_METRIC_ADD("engine.row.expr_evals", obs::MetricClass::kEngine,
                 static_cast<int64_t>(n * num_sums));

  // Partitioned aggregation, on the pool (morsel-parallel) or one
  // partition at a time (WUW_MEM_MB grace path, where at most one
  // partition's hash table is live and no tuple is copied).  Row ids
  // partition by key hash (algebra/hash_partition.h): a group's rows all
  // share one hash, hence one partition, so each group is accumulated by
  // exactly one task IN INPUT ORDER — which keeps double SUMs
  // bit-identical to the sequential accumulation.  Groups record their
  // first input row, so the k-way merge on first_row reproduces the
  // sequential creation order — and therefore the emitted row order —
  // byte for byte.
  const bool parallel = ShouldParallelize(pool, n);
  if (grace_bits || parallel) {
    HashPartitions hp =
        PartitionRowIds(input, key_idx, grace_bits.value_or(kAggPartitionBits),
                        parallel ? pool : nullptr, cancel);
    if (grace_bits) NoteGracePartitions(hp.NonEmpty());

    std::vector<AggPartition> parts(hp.ids.size());
    auto accumulate_partition = [&](size_t p) {
      AggPartition& part = parts[p];
      const std::vector<uint32_t>& ids = hp.ids[p];
      if (ids.empty()) return;
      size_t nbuckets = 16;
      while (nbuckets < ids.size() + 16) nbuckets <<= 1;
      const size_t pmask = nbuckets - 1;
      std::vector<int32_t> heads(nbuckets, -1);
      std::vector<int32_t> chain;
      std::vector<size_t> ghashes;
      int64_t key_cmps = 0;
      for (uint32_t i : ids) {
        const auto& [tuple, mult] = input.rows[i];
        size_t hash = hp.hashes[i];
        Acc* acc = nullptr;
        for (int32_t g = heads[hash & pmask]; g >= 0; g = chain[g]) {
          if (ghashes[g] != hash) continue;
          ++key_cmps;
          if (KeysEqual(tuple, key_idx, part.groups[g].exemplar, key_idx)) {
            acc = &part.groups[g];
            break;
          }
        }
        if (acc == nullptr) {
          int32_t id = static_cast<int32_t>(part.groups.size());
          part.groups.push_back(Acc{tuple,
                                    std::vector<int64_t>(aggs.size(), 0),
                                    std::vector<double>(aggs.size(), 0.0), 0});
          part.first_row.push_back(i);
          ghashes.push_back(hash);
          chain.push_back(heads[hash & pmask]);
          heads[hash & pmask] = id;
          acc = &part.groups.back();
        }
        accumulate(acc, tuple, mult);
      }
      // A group's rows share one hash, hence one partition: candidate
      // walks match the sequential chain's, so this total is
      // pool-invariant.
      WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                     key_cmps);
    };
    if (grace_bits) {
      for (size_t p = 0; p < parts.size(); ++p) accumulate_partition(p);
    } else {
      pool->ParallelTasks(parts.size(), /*max_workers=*/0,
                          accumulate_partition, cancel);
    }

    // Deterministic merge: k-way by ascending first input row.
    Rows out((Schema(std::move(out_cols))));
    size_t total_groups = 0;
    for (const AggPartition& part : parts) total_groups += part.groups.size();
    out.rows.reserve(total_groups);
    using HeapItem = std::pair<uint32_t, uint32_t>;  // (first_row, partition)
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    std::vector<size_t> cursor(parts.size(), 0);
    for (size_t p = 0; p < parts.size(); ++p) {
      if (!parts[p].groups.empty()) {
        heap.emplace(parts[p].first_row[0], static_cast<uint32_t>(p));
      }
    }
    while (!heap.empty()) {
      auto [first, p] = heap.top();
      heap.pop();
      emit(&out, parts[p].groups[cursor[p]], stats);
      if (++cursor[p] < parts[p].groups.size()) {
        heap.emplace(parts[p].first_row[cursor[p]], p);
      }
    }
    if (stats != nullptr) stats->rows_scanned += input.AbsCardinality();
    return out;
  }

  std::vector<Acc> groups;
  // Flat chained hash over groups (no per-bucket allocation).
  size_t nbuckets = 16;
  while (nbuckets < n + 16) nbuckets <<= 1;
  const size_t mask = nbuckets - 1;
  std::vector<int32_t> heads(nbuckets, -1);
  std::vector<int32_t> chain;
  std::vector<size_t> hashes;

  int64_t key_cmps = 0;
  for (const auto& [tuple, mult] : input.rows) {
    if (stats != nullptr) stats->rows_scanned += std::llabs(mult);
    size_t hash = KeyHash(tuple, key_idx);
    Acc* acc = nullptr;
    for (int32_t g = heads[hash & mask]; g >= 0; g = chain[g]) {
      if (hashes[g] != hash) continue;
      ++key_cmps;
      if (KeysEqual(tuple, key_idx, groups[g].exemplar, key_idx)) {
        acc = &groups[g];
        break;
      }
    }
    if (acc == nullptr) {
      int32_t id = static_cast<int32_t>(groups.size());
      groups.push_back(Acc{tuple,
                           std::vector<int64_t>(aggs.size(), 0),
                           std::vector<double>(aggs.size(), 0.0), 0});
      hashes.push_back(hash);
      chain.push_back(heads[hash & mask]);
      heads[hash & mask] = id;
      acc = &groups.back();
    }
    accumulate(acc, tuple, mult);
  }
  WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                 key_cmps);

  Rows out((Schema(std::move(out_cols))));
  out.rows.reserve(groups.size());
  for (const Acc& acc : groups) emit(&out, acc, stats);
  return out;
}

}  // namespace wuw
