// Tests of the benchmark's own statistics and of its correctness oracle.
//
//   python3 perfbench/run.py --selftest
//
// The oracle is checked on a tiny TPC-D warehouse whose answers are worked
// out by hand below, and against the library's own materialization of the
// same warehouse (which also pins the (keys..., SUM, __count) layout the
// comparisons assume).  Exits 1 on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/warehouse.h"
#include "oracle.h"
#include "stats.h"
#include "tpcd/tpcd_schema.h"
#include "tpcd/tpcd_views.h"

namespace perfbench {
namespace {

using wuw::Tuple;
using wuw::Value;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED %s\n", what.c_str());
    ++g_failures;
  }
}

void TestStats() {
  Expect(Median({}) == 0, "median of nothing");
  Expect(Median({7}) == 7, "median of one");
  Expect(Median({5, 1, 4, 2, 3}) == 3, "median of odd count");
  Expect(Median({4, 1, 3, 2}) == 2.5, "median of even count");
  std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  Expect(Percentile(ten, 90) == 9, "p90 of 1..10 is the 9th value");
  Expect(Percentile(ten, 91) == 10, "p91 of 1..10 rounds the rank up");
  Expect(Percentile(ten, 100) == 10, "p100 is the maximum");
  Expect(Percentile(ten, 1) == 1, "p1 of 1..10 is the minimum");
  Expect(Percentile({}, 90) == 0, "percentile of nothing");
  Expect(CountAbove(ten, Percentile(ten, 90)) == 1, "one sample beyond p90");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Percentile(hundred, 90) == 90, "p90 of 1..100");
  Expect(CountAbove(hundred, Percentile(hundred, 90)) == 10,
         "ten samples beyond p90 of 1..100");
  std::vector<double> ties = {1, 2, 2, 2, 2, 2, 2, 2, 2, 2};
  Expect(CountAbove(ties, Percentile(ties, 90)) == 0,
         "ties at the percentile are not beyond it");
}

Value I(int64_t v) { return Value::Int64(v); }
Value S(const char* v) { return Value::String(v); }
Value D(int64_t v) { return Value::Date(v); }

/// Two regions, two nations, two suppliers, two customers, three orders
/// and four distinct line items, one of them stored twice.
wuw::Catalog TinySources() {
  using namespace wuw::tpcd;
  wuw::Catalog c;
  wuw::Table* region = c.CreateTable(kRegion, RegionSchema());
  region->Add(Tuple({I(0), S("AFRICA")}), 1);
  region->Add(Tuple({I(2), S("ASIA")}), 1);
  wuw::Table* nation = c.CreateTable(kNation, NationSchema());
  nation->Add(Tuple({I(5), S("INDIA"), I(2)}), 1);
  nation->Add(Tuple({I(7), S("KENYA"), I(0)}), 1);
  wuw::Table* supplier = c.CreateTable(kSupplier, SupplierSchema());
  supplier->Add(Tuple({I(1), S("S1"), I(5), I(100)}), 1);
  supplier->Add(Tuple({I(2), S("S2"), I(7), I(100)}), 1);
  wuw::Table* customer = c.CreateTable(kCustomer, CustomerSchema());
  customer->Add(Tuple({I(10), S("C10"), I(5), S("BUILDING"), I(500), S("A10"),
                       S("P10")}),
                1);
  customer->Add(Tuple({I(11), S("C11"), I(7), S("MACHINERY"), I(600),
                       S("A11"), S("P11")}),
                1);
  wuw::Table* orders = c.CreateTable(kOrders, OrdersSchema());
  orders->Add(Tuple({I(100), I(10), D(19940215), I(1), S("F")}), 1);
  orders->Add(Tuple({I(101), I(11), D(19931115), I(0), S("O")}), 1);
  orders->Add(Tuple({I(102), I(10), D(19931201), I(0), S("O")}), 1);
  wuw::Table* lineitem = c.CreateTable(kLineitem, LineitemSchema());
  // Q3 and Q5 (ASIA customer and supplier, 1994 order); not returned.
  lineitem->Add(Tuple({I(100), I(1), I(1), I(1000), I(100), D(19950401),
                       S("N")}),
                1);
  // Shipped too early for Q3, supplier nation differs for Q5, order not in
  // 1993-Q4 for Q10: in no view.
  lineitem->Add(Tuple({I(100), I(2), I(2), I(2000), I(0), D(19950101),
                       S("R")}),
                1);
  // Q10 only (MACHINERY customer, 1993 order).
  lineitem->Add(Tuple({I(101), I(1), I(2), I(3000), I(1000), D(19940101),
                       S("R")}),
                1);
  // Q3 and Q10, stored twice.
  lineitem->Add(Tuple({I(102), I(1), I(1), I(500), I(0), D(19950320),
                       S("R")}),
                2);
  return c;
}

bool Has(const Answer& a, const Tuple& key, __int128 sum, int64_t count) {
  auto it = a.find(key);
  return it != a.end() && it->second.sum == sum && it->second.count == count;
}

void TestOracleByHand() {
  wuw::Catalog sources = TinySources();
  OracleAnswers a = ComputeOracle(sources);
  // 1000 * (10000 - 100) = 9,900,000; 2 * 500 * 10000 = 10,000,000;
  // 3000 * (10000 - 1000) = 27,000,000.
  Expect(a.q3.size() == 2 && Has(a.q3, Tuple({I(100), D(19940215), I(1)}),
                                 9900000, 1) &&
             Has(a.q3, Tuple({I(102), D(19931201), I(0)}), 10000000, 2),
         "Q3 by hand");
  Expect(a.q5.size() == 1 && Has(a.q5, Tuple({S("INDIA")}), 9900000, 1),
         "Q5 by hand");
  Tuple c10({I(10), S("C10"), I(500), S("INDIA"), S("A10"), S("P10")});
  Tuple c11({I(11), S("C11"), I(600), S("KENYA"), S("A11"), S("P11")});
  Expect(a.q10.size() == 2 && Has(a.q10, c10, 10000000, 2) &&
             Has(a.q10, c11, 27000000, 1),
         "Q10 by hand");
  Expect(a.q3_by_priority.size() == 2 &&
             Has(a.q3_by_priority, Tuple({I(1)}), 9900000, 1) &&
             Has(a.q3_by_priority, Tuple({I(0)}), 10000000, 1),
         "Q3_BY_PRIORITY by hand");
  Expect(a.q10_by_nation.size() == 2 &&
             Has(a.q10_by_nation, Tuple({S("INDIA")}), 10000000, 1) &&
             Has(a.q10_by_nation, Tuple({S("KENYA")}), 27000000, 1),
         "Q10_BY_NATION by hand");
  // C11's one order is open; C10 has one finished and one open order.
  Expect(a.q10_order_status.size() == 2 &&
             Has(a.q10_order_status, Tuple({S("O")}), 37000000, 2) &&
             Has(a.q10_order_status, Tuple({S("F")}), 10000000, 1),
         "Q10_ORDER_STATUS by hand");
  Expect(a.lineitem_by_flag.size() == 2 &&
             Has(a.lineitem_by_flag, Tuple({S("N")}), 1000, 1) &&
             Has(a.lineitem_by_flag, Tuple({S("R")}), 6000, 4),
         "LINEITEM by flag by hand");
}

void TestOracleAgainstLibrary() {
  wuw::Catalog sources = TinySources();
  wuw::Warehouse w(wuw::tpcd::BuildExtendedTpcdVdag());
  for (const std::string& name : w.vdag().BaseViews()) {
    *w.base_table(name) = *sources.MustGetTable(name);
  }
  w.RecomputeDerived();
  OracleAnswers a = ComputeOracle(sources);
  for (const std::string& view : w.vdag().DerivedViewsBottomUp()) {
    const Answer* expected = AnswerFor(a, view);
    Expect(expected != nullptr, "oracle answers " + view);
    if (expected == nullptr) continue;
    std::string why = CompareAggregate(
        w.catalog().MustGetTable(view)->dense_rows(), *expected);
    Expect(why.empty(), "materialized " + view + " matches: " + why);
  }
  for (const std::string& name : w.vdag().BaseViews()) {
    Expect(CompareBase(*w.catalog().MustGetTable(name),
                       *sources.MustGetTable(name))
               .empty(),
           "base " + name + " matches its source");
  }

  // Each kind of difference is caught.
  RowList q5 = w.catalog().MustGetTable("Q5")->dense_rows();
  RowList wrong_sum = q5;
  wrong_sum[0].first.mutable_value(1) = I(9900001);
  Expect(!CompareAggregate(wrong_sum, a.q5).empty(), "wrong SUM caught");
  RowList wrong_count = q5;
  wrong_count[0].first.mutable_value(2) = I(2);
  Expect(!CompareAggregate(wrong_count, a.q5).empty(), "wrong __count caught");
  RowList twice = q5;
  twice[0].second = 2;
  Expect(!CompareAggregate(twice, a.q5).empty(), "duplicate group caught");
  Expect(!CompareAggregate({}, a.q5).empty(), "missing group caught");
  wuw::Table orders = *sources.MustGetTable(wuw::tpcd::kOrders);
  orders.Add(Tuple({I(103), I(11), D(19940101), I(0), S("F")}), 1);
  Expect(!CompareBase(orders, *sources.MustGetTable(wuw::tpcd::kOrders))
              .empty(),
         "extra base row caught");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestStats();
  perfbench::TestOracleByHand();
  perfbench::TestOracleAgainstLibrary();
  if (perfbench::g_failures > 0) return 1;
  std::printf("selftest: all passed\n");
  return 0;
}
