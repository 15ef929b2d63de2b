// Hash partitioning of row ids, shared by the join and aggregation
// kernels' morsel-parallel and grace paths.
//
// Each row's key hash is computed once and stored; row ids (uint32) are
// scattered into 2^bits partitions by the TOP hash bits (bucket chains
// inside a partition use the bottom bits, so the two never alias).  Equal
// keys hash equally and therefore land in one partition, and every
// partition's id list ascends in input order — the two facts the kernels'
// determinism arguments rest on.
//
// The grace paths (WUW_MEM_MB, paged::OperatorSpill) work over the
// resident input one partition at a time: at most one partition's hash
// table is live, and nothing is copied or written anywhere — the ids index
// the caller's rows, which stay resident for the whole call anyway.
#ifndef WUW_ALGEBRA_HASH_PARTITION_H_
#define WUW_ALGEBRA_HASH_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "algebra/rows.h"

namespace wuw {

class ThreadPool;
class CancelToken;

/// Row ids of one input, partitioned by key hash.
struct HashPartitions {
  /// Key hash of every input row, indexed by row id.
  std::vector<size_t> hashes;
  /// Per partition, the ids of its rows in ascending order.
  std::vector<std::vector<uint32_t>> ids;
  /// Bits of the top-hash-bit partition index (0 = one partition).
  size_t bits = 0;

  size_t PartitionOf(size_t hash) const {
    return bits == 0 ? 0 : hash >> (sizeof(size_t) * 8 - bits);
  }
  /// Partitions holding at least one row.
  int64_t NonEmpty() const;
};

/// Hashes the key columns `key_idx` of every row and scatters the row ids
/// into 2^bits partitions.  A non-null `pool` runs both passes
/// morsel-parallel (checking `cancel` between morsels); the result is the
/// same either way.
HashPartitions PartitionRowIds(const Rows& rows,
                               const std::vector<size_t>& key_idx,
                               size_t bits, ThreadPool* pool,
                               const CancelToken* cancel);

/// The kernels' grace-path gate: when operator spills are armed and
/// `input` is larger than their threshold (analytic bytes, storage/page.h
/// size model), the partition bits of the grace fan-out
/// (ceil(log2(partitions))); nullopt otherwise.  Disarmed it is one
/// relaxed atomic load.
std::optional<size_t> GraceBits(const Rows& input);

/// Counts `partitions` non-empty grace partitions into
/// GlobalPagedStats().spilled_partitions and `paged.spilled_partitions`.
void NoteGracePartitions(int64_t partitions);

}  // namespace wuw

#endif  // WUW_ALGEBRA_HASH_PARTITION_H_
