#include "algebra/hash_partition.h"

#include <algorithm>
#include <functional>

#include "algebra/key_util.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "storage/page.h"
#include "storage/paged_store.h"

namespace wuw {

int64_t HashPartitions::NonEmpty() const {
  return std::count_if(ids.begin(), ids.end(), [](const auto& partition) {
    return !partition.empty();
  });
}

HashPartitions PartitionRowIds(const Rows& rows,
                               const std::vector<size_t>& key_idx,
                               size_t bits, ThreadPool* pool,
                               const CancelToken* cancel) {
  HashPartitions out;
  out.bits = bits;
  const size_t nparts = size_t{1} << bits;
  const size_t n = rows.rows.size();
  const size_t nmorsels = (n + kMorselRows - 1) / kMorselRows;
  // Morsel loops run on the pool when given one, else inline in morsel
  // order; either way every morsel writes only its own slots.
  auto for_morsels = [&](const std::function<void(size_t, size_t)>& body) {
    if (pool != nullptr) {
      pool->ParallelFor(n, kMorselRows, body, cancel);
      return;
    }
    for (size_t begin = 0; begin < n; begin += kMorselRows) {
      body(begin, std::min(n, begin + kMorselRows));
    }
  };

  // Pass 1: hash every row, count per-(morsel, partition).
  out.hashes.resize(n);
  std::vector<uint32_t> counts(nmorsels * nparts, 0);
  for_morsels([&](size_t begin, size_t end) {
    uint32_t* cnt = &counts[(begin / kMorselRows) * nparts];
    for (size_t i = begin; i < end; ++i) {
      size_t h = KeyHash(rows.rows[i].first, key_idx);
      out.hashes[i] = h;
      ++cnt[out.PartitionOf(h)];
    }
  });

  // Exclusive prefix over morsels, per partition: each morsel's scatter
  // window into its partition.  Concatenating windows in morsel order keeps
  // every partition's ids ascending in input order.
  std::vector<uint32_t> offsets(nmorsels * nparts);
  out.ids.resize(nparts);
  for (size_t p = 0; p < nparts; ++p) {
    uint32_t run = 0;
    for (size_t m = 0; m < nmorsels; ++m) {
      offsets[m * nparts + p] = run;
      run += counts[m * nparts + p];
    }
    out.ids[p].resize(run);
  }
  for_morsels([&](size_t begin, size_t end) {
    uint32_t* cursor = &offsets[(begin / kMorselRows) * nparts];
    for (size_t i = begin; i < end; ++i) {
      size_t p = out.PartitionOf(out.hashes[i]);
      out.ids[p][cursor[p]++] = static_cast<uint32_t>(i);
    }
  });
  return out;
}

std::optional<size_t> GraceBits(const Rows& input) {
  const paged::PagedOptions* options = paged::OperatorSpill();
  if (options == nullptr) return std::nullopt;
  const int64_t threshold = paged::ResolvedSpillBytes(*options);
  int64_t bytes = 0;
  for (const auto& [tuple, count] : input.rows) {
    (void)count;
    bytes += paged::ApproxTupleBytes(tuple) + 8;
    if (bytes > threshold) {
      size_t bits = 0;
      while ((size_t{1} << bits) < options->partitions) ++bits;
      return bits;
    }
  }
  return std::nullopt;
}

void NoteGracePartitions(int64_t partitions) {
  paged::internal::g_spilled_partitions.fetch_add(partitions,
                                                  std::memory_order_relaxed);
  WUW_METRIC_ADD("paged.spilled_partitions", obs::MetricClass::kEngine,
                 partitions);
}

}  // namespace wuw
