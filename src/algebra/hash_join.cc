#include "algebra/hash_join.h"

#include <cstdlib>

#include "algebra/hash_partition.h"
#include "algebra/key_util.h"
#include "algebra/vectorized.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace wuw {

namespace {

/// Radix partitions for the parallel build (algebra/hash_partition.h).
constexpr size_t kJoinPartitionBits = 6;

/// One partition's flat chained hash table.  `ids[j]` maps the local slot j
/// back to the global build-row index; chains link local slots.
struct JoinPartition {
  std::vector<uint32_t> ids;
  std::vector<int32_t> heads;
  std::vector<int32_t> chain;
  size_t mask = 0;

  /// Chains `part_ids` (ascending) by head insertion, so a probe walks
  /// matching rows in DESCENDING global index — exactly the order the
  /// sequential single-table chain yields for the same key (rows of one
  /// key share one full hash, hence one partition and one bucket in both
  /// layouts, and both probes skip non-matching hashes).
  void Build(std::vector<uint32_t> part_ids,
             const std::vector<size_t>& hashes) {
    ids = std::move(part_ids);
    const size_t m = ids.size();
    if (m == 0) return;
    size_t nbuckets = 16;
    while (nbuckets < m * 2) nbuckets <<= 1;
    mask = nbuckets - 1;
    heads.assign(nbuckets, -1);
    chain.resize(m);
    for (size_t j = 0; j < m; ++j) {
      size_t h = hashes[ids[j]];
      chain[j] = heads[h & mask];
      heads[h & mask] = static_cast<int32_t>(j);
    }
  }
};

/// The operands every probe reads: both inputs, their key columns, and the
/// build side's stored key hashes.
struct JoinInputs {
  const Rows& left;
  const Rows& right;
  const std::vector<size_t>& left_idx;
  const std::vector<size_t>& right_idx;
  const std::vector<size_t>& right_hashes;
};

/// Appends the matches of probe row `i` (key hash `h`) in `part` to `out`,
/// in descending build order.  Adds |produced multiplicity| to
/// `rows_produced` and every hash-equal candidate to `key_cmps`.
void ProbeRow(const JoinInputs& in, size_t i, size_t h,
              const JoinPartition& part,
              std::vector<std::pair<Tuple, int64_t>>* out,
              int64_t* rows_produced, int64_t* key_cmps) {
  if (part.heads.empty()) return;
  const auto& [ltuple, lcount] = in.left.rows[i];
  for (int32_t j = part.heads[h & part.mask]; j >= 0; j = part.chain[j]) {
    uint32_t r = part.ids[j];
    if (in.right_hashes[r] != h) continue;
    ++*key_cmps;
    const auto& [rtuple, rcount] = in.right.rows[r];
    if (!KeysEqual(ltuple, in.left_idx, rtuple, in.right_idx)) continue;
    if (lcount * rcount != 0) {
      out->emplace_back(Tuple::Concat(ltuple, rtuple), lcount * rcount);
    }
    *rows_produced += std::llabs(lcount * rcount);
  }
}

/// Scan and probe totals both partitioned paths charge up front; they
/// equal the sequential kernel's per-row sums.
void ChargeInputs(const Rows& left, const Rows& right, OperatorStats* stats) {
  if (stats == nullptr) return;
  stats->rows_scanned += right.AbsCardinality() + left.AbsCardinality();
  stats->hash_build_rows += static_cast<int64_t>(right.rows.size());
  stats->hash_probes += static_cast<int64_t>(left.rows.size());
}

/// Morsel-parallel join.  Determinism argument, step by step:
///  - every partition's build ids ascend in global row order
///    (hash_partition.h), so each chain reproduces the sequential chain's
///    match order (JoinPartition::Build);
///  - probe morsels buffer output locally and merge in morsel order, which
///    reproduces the sequential probe's row order byte for byte.
Rows ParallelHashJoin(const Rows& left, const Rows& right,
                      const std::vector<size_t>& left_idx,
                      const std::vector<size_t>& right_idx,
                      OperatorStats* stats, ThreadPool* pool,
                      const CancelToken* cancel) {
  HashPartitions build =
      PartitionRowIds(right, right_idx, kJoinPartitionBits, pool, cancel);
  // Per-partition build: no writes escape the partition.
  std::vector<JoinPartition> parts(build.ids.size());
  pool->ParallelTasks(parts.size(), /*max_workers=*/0, [&](size_t p) {
    parts[p].Build(std::move(build.ids[p]), build.hashes);
  }, cancel);

  // Morsel-parallel probe with per-morsel buffers.
  const JoinInputs in{left, right, left_idx, right_idx, build.hashes};
  const size_t ln = left.rows.size();
  const size_t probe_morsels = (ln + kMorselRows - 1) / kMorselRows;
  std::vector<std::vector<std::pair<Tuple, int64_t>>> buffers(probe_morsels);
  std::vector<int64_t> produced(probe_morsels, 0);
  pool->ParallelFor(ln, kMorselRows, [&](size_t begin, size_t end) {
    size_t m = begin / kMorselRows;
    buffers[m].reserve(end - begin);
    int64_t key_cmps = 0;
    for (size_t i = begin; i < end; ++i) {
      size_t h = KeyHash(left.rows[i].first, left_idx);
      ProbeRow(in, i, h, parts[build.PartitionOf(h)], &buffers[m],
               &produced[m], &key_cmps);
    }
    // Candidate sets are hash-equal pairs, identical in the sequential
    // layout, so this total is pool-invariant.
    WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                   key_cmps);
  }, cancel);

  Rows out(Schema::Concat(left.schema, right.schema));
  size_t total = 0;
  for (const auto& buf : buffers) total += buf.size();
  out.rows.reserve(total);
  for (auto& buf : buffers) {
    out.rows.insert(out.rows.end(), std::make_move_iterator(buf.begin()),
                    std::make_move_iterator(buf.end()));
  }
  ChargeInputs(left, right, stats);
  if (stats != nullptr) {
    for (int64_t p : produced) stats->rows_produced += p;
  }
  return out;
}

/// WUW_MEM_MB grace join: both sides' row ids partition by the TOP hash
/// bits (algebra/hash_partition.h), then each partition builds and probes
/// on its own — one partition's hash table is live at a time instead of
/// the whole build side's, and no tuple is copied.  Determinism argument:
/// a probe row's matches all live in its own partition (equal keys share a
/// full hash, hence a partition) and its chain walks them in the
/// sequential kernel's order (JoinPartition::Build).  Within a partition
/// probe rows run in ascending order, so each partition's output is one
/// run per probe row in probe order; replaying the runs in global probe
/// order reproduces the sequential row order byte for byte.
Rows GraceHashJoin(const Rows& left, const Rows& right,
                   const std::vector<size_t>& left_idx,
                   const std::vector<size_t>& right_idx, OperatorStats* stats,
                   size_t bits, ThreadPool* pool, const CancelToken* cancel) {
  // Same per-row hashing totals as the resident row kernel.
  WUW_METRIC_ADD(
      "engine.row.value_hashes", obs::MetricClass::kEngine,
      static_cast<int64_t>((left.rows.size() + right.rows.size()) *
                           left_idx.size()));
  ThreadPool* scatter_pool =
      ShouldParallelize(pool, left.rows.size() + right.rows.size()) ? pool
                                                                   : nullptr;
  HashPartitions build =
      PartitionRowIds(right, right_idx, bits, scatter_pool, cancel);
  HashPartitions probe =
      PartitionRowIds(left, left_idx, bits, scatter_pool, cancel);
  NoteGracePartitions(build.NonEmpty() + probe.NonEmpty());

  const JoinInputs in{left, right, left_idx, right_idx, build.hashes};
  const size_t nparts = build.ids.size();
  std::vector<std::vector<std::pair<Tuple, int64_t>>> produced(nparts);
  std::vector<uint32_t> run(left.rows.size(), 0);  // output rows per probe
  int64_t rows_produced = 0;
  int64_t key_cmps = 0;
  for (size_t p = 0; p < nparts; ++p) {
    if (probe.ids[p].empty()) continue;
    JoinPartition part;
    part.Build(std::move(build.ids[p]), build.hashes);
    for (uint32_t i : probe.ids[p]) {
      const size_t before = produced[p].size();
      ProbeRow(in, i, probe.hashes[i], part, &produced[p], &rows_produced,
               &key_cmps);
      run[i] = static_cast<uint32_t>(produced[p].size() - before);
    }
  }
  // Candidate sets are hash-equal pairs, identical to the sequential
  // single-table chain.
  WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                 key_cmps);

  Rows out(Schema::Concat(left.schema, right.schema));
  size_t total = 0;
  for (const auto& rows : produced) total += rows.size();
  out.rows.reserve(total);
  std::vector<size_t> cursor(nparts, 0);
  for (size_t i = 0; i < run.size(); ++i) {
    if (run[i] == 0) continue;
    const size_t p = probe.PartitionOf(probe.hashes[i]);
    auto first = produced[p].begin() + static_cast<ptrdiff_t>(cursor[p]);
    out.rows.insert(out.rows.end(), std::make_move_iterator(first),
                    std::make_move_iterator(first + run[i]));
    cursor[p] += run[i];
  }
  ChargeInputs(left, right, stats);
  if (stats != nullptr) stats->rows_produced += rows_produced;
  return out;
}

}  // namespace

Rows HashJoinKernel::Run(const std::vector<const Rows*>& inputs,
                         OperatorStats* stats, ThreadPool* pool,
                         const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 2, "HashJoinKernel takes exactly two inputs");
  return HashJoin(*inputs[0], *inputs[1], keys, stats, pool, cancel);
}

Rows HashJoin(const Rows& left, const Rows& right, const JoinKeys& keys,
              OperatorStats* stats, ThreadPool* pool,
              const CancelToken* cancel) {
  WUW_CHECK(keys.left_columns.size() == keys.right_columns.size(),
            "join key arity mismatch");
  std::vector<size_t> left_idx, right_idx;
  for (const std::string& c : keys.left_columns) {
    left_idx.push_back(left.schema.MustIndexOf(c));
  }
  for (const std::string& c : keys.right_columns) {
    right_idx.push_back(right.schema.MustIndexOf(c));
  }

  // WUW_MEM_MB: an oversized build side takes the grace-partition path.
  // Checked before the vectorized attempt so a paged run bounds its
  // operator memory wherever the build side is big; rows, row order, and
  // OperatorStats are bit-identical on every path (the vec and parallel
  // kernels already prove parity with the sequential layout this path
  // mirrors partition by partition).  Disarmed: one relaxed atomic load.
  if (const std::optional<size_t> bits = GraceBits(right)) {
    return GraceHashJoin(left, right, left_idx, right_idx, stats, *bits,
                         pool, cancel);
  }

  if (vec::Enabled()) {
    Rows vec_out;
    if (vec::TryHashJoin(left, right, left_idx, right_idx, stats, pool,
                         cancel, &vec_out)) {
      return vec_out;
    }
  }
  // KeyHash touches every key column of every build and probe row, on
  // either path below.
  WUW_METRIC_ADD(
      "engine.row.value_hashes", obs::MetricClass::kEngine,
      static_cast<int64_t>((left.rows.size() + right.rows.size()) *
                           left_idx.size()));

  if (ShouldParallelize(pool, left.rows.size() + right.rows.size())) {
    return ParallelHashJoin(left, right, left_idx, right_idx, stats, pool,
                            cancel);
  }

  // Build side: right input.  Flat chained hash table (two arrays, no
  // per-key allocation); keys hash in place and collisions resolve by
  // column-wise comparison at probe time.
  const size_t n = right.rows.size();
  size_t nbuckets = 16;
  while (nbuckets < n * 2) nbuckets <<= 1;
  const size_t mask = nbuckets - 1;
  std::vector<int32_t> heads(nbuckets, -1);
  std::vector<int32_t> chain(n);
  std::vector<size_t> hashes(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& [tuple, count] = right.rows[i];
    if (stats != nullptr) {
      stats->rows_scanned += std::llabs(count);
      stats->hash_build_rows += 1;
    }
    size_t h = KeyHash(tuple, right_idx);
    hashes[i] = h;
    chain[i] = heads[h & mask];
    heads[h & mask] = static_cast<int32_t>(i);
  }

  Rows out(Schema::Concat(left.schema, right.schema));
  out.rows.reserve(left.rows.size());
  int64_t key_cmps = 0;
  for (const auto& [ltuple, lcount] : left.rows) {
    if (stats != nullptr) {
      stats->rows_scanned += std::llabs(lcount);
      stats->hash_probes += 1;
    }
    size_t h = KeyHash(ltuple, left_idx);
    for (int32_t i = heads[h & mask]; i >= 0; i = chain[i]) {
      if (hashes[i] != h) continue;
      ++key_cmps;
      const auto& [rtuple, rcount] = right.rows[i];
      if (!KeysEqual(ltuple, left_idx, rtuple, right_idx)) continue;
      out.Add(Tuple::Concat(ltuple, rtuple), lcount * rcount);
      if (stats != nullptr) {
        stats->rows_produced += std::llabs(lcount * rcount);
      }
    }
  }
  WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                 key_cmps);
  return out;
}

}  // namespace wuw
