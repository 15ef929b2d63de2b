// Micro-benchmarks for the optimizer algorithms themselves:
// MinWorkSingle O(n log n) (Theorem 4.3), MinWork O(n^3) (Section 5.4),
// Prune O(m!) leaves at worst (Section 6), fewer where prefixes are
// infeasible.
#include <benchmark/benchmark.h>

#include "core/min_work.h"
#include "core/min_work_single.h"
#include "core/prune.h"
#include "graph/vdag.h"
#include "storage/schema.h"
#include "tpcd/tpcd_generator.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

Schema TripleSchema(const std::string& name) {
  return Schema({{name + "_k", TypeId::kInt64},
                 {name + "_v", TypeId::kInt64},
                 {name + "_g", TypeId::kInt64}});
}

/// A star VDAG: one derived view over n bases.
Vdag StarVdag(size_t n) {
  Vdag vdag;
  ViewDefinitionBuilder b("V");
  std::vector<std::string> bases;
  for (size_t i = 0; i < n; ++i) {
    std::string base = "B" + std::to_string(i);
    vdag.AddBaseView(base, TripleSchema(base));
    b.From(base);
    bases.push_back(base);
  }
  for (size_t i = 1; i < n; ++i) b.JoinOn(bases[0] + "_k", bases[i] + "_k");
  b.SelectColumn(bases[0] + "_k", "V_k");
  vdag.AddDerivedView(b.Build());
  return vdag;
}

/// A layered VDAG: `layers` levels of `width` views, each view over two
/// views of the previous level.
Vdag LayeredVdag(size_t layers, size_t width) {
  Vdag vdag;
  std::vector<std::string> prev;
  for (size_t i = 0; i < width; ++i) {
    std::string base = "L0_" + std::to_string(i);
    vdag.AddBaseView(base, TripleSchema(base));
    prev.push_back(base);
  }
  for (size_t l = 1; l <= layers; ++l) {
    std::vector<std::string> cur;
    for (size_t i = 0; i < width; ++i) {
      std::string name = "L" + std::to_string(l) + "_" + std::to_string(i);
      std::string s0 = prev[i], s1 = prev[(i + 1) % width];
      vdag.AddDerivedView(ViewDefinitionBuilder(name)
                              .From(s0)
                              .From(s1)
                              .JoinOn(s0 + "_k", s1 + "_k")
                              .SelectColumn(s0 + "_k", name + "_k")
                              .SelectColumn(s0 + "_v", name + "_v")
                              .SelectColumn(s0 + "_g", name + "_g")
                              .Build());
      cur.push_back(name);
    }
    prev = cur;
  }
  return vdag;
}

SizeMap RandomSizes(const Vdag& vdag, uint64_t seed) {
  tpcd::Rng rng(seed);
  SizeMap sizes;
  for (const std::string& name : vdag.view_names()) {
    int64_t size = rng.Range(100, 10000);
    int64_t minus = rng.Range(0, size / 5);
    int64_t plus = rng.Range(0, size / 5);
    sizes.Set(name, {size, plus + minus, plus - minus});
  }
  return sizes;
}

void BM_MinWorkSingle(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Vdag vdag = StarVdag(n);
  SizeMap sizes = RandomSizes(vdag, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinWorkSingle(vdag, "V", sizes));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_MinWorkSingle)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_MinWorkLayered(benchmark::State& state) {
  size_t layers = static_cast<size_t>(state.range(0));
  Vdag vdag = LayeredVdag(layers, 4);
  SizeMap sizes = RandomSizes(vdag, layers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinWork(vdag, sizes));
  }
  state.SetComplexityN(static_cast<int64_t>(vdag.num_views()));
}
BENCHMARK(BM_MinWorkLayered)->DenseRange(1, 6)->Complexity();

void BM_PruneStar(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Vdag vdag = StarVdag(n);
  SizeMap sizes = RandomSizes(vdag, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Prune(vdag, sizes));
  }
}
BENCHMARK(BM_PruneStar)->DenseRange(2, 7);

void BM_PruneLayered(benchmark::State& state) {
  size_t width = static_cast<size_t>(state.range(0));
  Vdag vdag = LayeredVdag(1, width);  // m = width base views
  SizeMap sizes = RandomSizes(vdag, width);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Prune(vdag, sizes));
  }
}
BENCHMARK(BM_PruneLayered)->DenseRange(2, 6);

// The two-level TPC-D VDAG perfbench's rollups_prune plans: 12 views,
// m = 8, 30,912 of the 40,320 orderings infeasible.
void BM_PruneExtendedTpcd(benchmark::State& state) {
  Vdag vdag = tpcd::BuildExtendedTpcdVdag();
  SizeMap sizes = RandomSizes(vdag, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Prune(vdag, sizes));
  }
}
BENCHMARK(BM_PruneExtendedTpcd)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wuw

BENCHMARK_MAIN();
