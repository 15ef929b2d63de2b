// Ablation (Section 6): Prune's search-space reduction.
//
// For the TPC-D VDAG, permuting only the m=6 views with parents examines
// 720 orderings instead of 9! = 362880 — with identical results.  This
// bench verifies the equivalence on a smaller VDAG where the full search
// is feasible, and times Prune's m! search on TPC-D.  It exits non-zero if
// the two searches disagree or TPC-D's search space is not 720 orderings,
// so ctest runs it as a shape check.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/prune.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_generator.h"
#include "tpcd/tpcd_views.h"

namespace {

double Seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  using namespace wuw;
  bench::BenchEnv env = bench::FromEnv();
  bench::PrintHeader("Ablation: Prune search-space optimization (m! vs n!)",
                     "");
  bool ok = true;

  // Part 1: equivalence on a reduced VDAG (Q3 only: n=7, m=3).
  {
    tpcd::GeneratorOptions options;
    options.scale_factor = 0.002;
    options.seed = env.seed;
    Warehouse w = tpcd::MakeTpcdWarehouse(options, {"Q3"});
    tpcd::ApplyPaperChangeWorkload(&w, 0.10, 0.0, env.seed);
    SizeMap sizes = w.EstimatedSizes();

    PruneOptions full;
    full.permute_only_views_with_parents = false;
    double t0 = Seconds();
    PruneResult opt = Prune(w.vdag(), sizes);
    double t1 = Seconds();
    PruneResult brute = Prune(w.vdag(), sizes, full);
    double t2 = Seconds();

    std::printf("  Q3-only VDAG (4 views, m=%zu):\n",
                w.vdag().ViewsWithParents().size());
    std::printf("    m! search: %6lld orderings, best work %.0f (%.4fs)\n",
                (long long)opt.orderings_examined, opt.work, t1 - t0);
    std::printf("    n! search: %6lld orderings, best work %.0f (%.4fs)\n",
                (long long)brute.orderings_examined, brute.work, t2 - t1);
    std::printf("    identical result: %s\n",
                opt.work == brute.work ? "yes" : "NO (BUG)");
    ok = ok && opt.work == brute.work;
  }

  // Part 2: the full TPC-D VDAG — m! = 720 (the paper's number).
  {
    tpcd::GeneratorOptions options;
    options.scale_factor = 0.002;
    options.seed = env.seed;
    Warehouse w = tpcd::MakeTpcdWarehouse(options, {"Q3", "Q5", "Q10"});
    tpcd::ApplyPaperChangeWorkload(&w, 0.10, 0.0, env.seed);
    double t0 = Seconds();
    PruneResult r = Prune(w.vdag(), w.EstimatedSizes());
    double t1 = Seconds();
    std::printf("\n  TPC-D VDAG (9 views, m=6):\n");
    std::printf("    Prune examined %lld orderings in %.2fms "
                "(vs 362880 without the optimization)\n",
                (long long)r.orderings_examined, (t1 - t0) * 1e3);
    std::printf("    infeasible orderings (cyclic SEG): %lld\n",
                (long long)r.orderings_infeasible);
    std::printf("    winning ordering:");
    for (const std::string& v : r.ordering) std::printf(" %s", v.c_str());
    std::printf("\n");
    if (r.orderings_examined != 720) {
      std::printf("    expected 720 orderings (6!): BUG\n");
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
