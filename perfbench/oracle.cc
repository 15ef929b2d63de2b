#include "oracle.h"

#include <string>

#include "storage/value.h"

namespace perfbench {

using wuw::Table;
using wuw::Tuple;
using wuw::TypeId;
using wuw::Value;

namespace {

/// Integer payload of an INT64 or DATE cell.
int64_t Num(const Value& v) {
  return v.type() == TypeId::kDate ? v.AsDate() : v.AsInt64();
}

/// Column positions of one source table, looked up by name.
struct Columns {
  explicit Columns(const Table& table) : schema(table.schema()) {}
  size_t operator[](const char* name) const { return schema.MustIndexOf(name); }
  const wuw::Schema& schema;
};

template <typename V>
using ByKey = std::unordered_map<int64_t, std::vector<V>>;

void Accumulate(Answer* out, std::vector<Value> key, __int128 measure,
                int64_t multiplicity) {
  Agg& agg = (*out)[Tuple(std::move(key))];
  agg.sum += measure * multiplicity;
  agg.count += multiplicity;
}

__int128 Revenue(const Tuple& l, size_t price, size_t discount) {
  return static_cast<__int128>(Num(l.value(price))) *
         (10000 - Num(l.value(discount)));
}

}  // namespace

const ReadQuery kReadMix[3] = {
    {"q3_by_priority",
     "SELECT o_shippriority, SUM(revenue) AS priority_revenue FROM Q3 "
     "GROUP BY o_shippriority",
     &OracleAnswers::q3_by_priority},
    {"q10_order_status",
     "SELECT o_orderstatus, SUM(revenue) AS status_revenue FROM Q10, ORDERS "
     "WHERE c_custkey = o_custkey GROUP BY o_orderstatus",
     &OracleAnswers::q10_order_status},
    {"lineitem_by_flag",
     "SELECT l_returnflag, SUM(l_extendedprice) AS price FROM LINEITEM "
     "GROUP BY l_returnflag",
     &OracleAnswers::lineitem_by_flag},
};

OracleAnswers ComputeOracle(const wuw::Catalog& source) {
  const Table& region = *source.MustGetTable("REGION");
  const Table& nation = *source.MustGetTable("NATION");
  const Table& supplier = *source.MustGetTable("SUPPLIER");
  const Table& customer = *source.MustGetTable("CUSTOMER");
  const Table& orders = *source.MustGetTable("ORDERS");
  const Table& lineitem = *source.MustGetTable("LINEITEM");
  Columns r(region), n(nation), s(supplier), c(customer), o(orders),
      l(lineitem);
  const size_t l_orderkey = l["l_orderkey"], l_suppkey = l["l_suppkey"],
               l_price = l["l_extendedprice"], l_discount = l["l_discount"],
               l_shipdate = l["l_shipdate"], l_flag = l["l_returnflag"];
  OracleAnswers out;

  // Q3: BUILDING customers' orders before 1995-03-15 with lines shipped
  // after it, grouped by (l_orderkey, o_orderdate, o_shippriority).
  {
    std::unordered_map<int64_t, int64_t> building;
    for (const auto& [t, m] : customer.dense_rows()) {
      if (t.value(c["c_mktsegment"]).AsString() == "BUILDING") {
        building[Num(t.value(c["c_custkey"]))] += m;
      }
    }
    ByKey<std::pair<const Tuple*, int64_t>> q3_orders;
    for (const auto& [t, m] : orders.dense_rows()) {
      if (Num(t.value(o["o_orderdate"])) >= 19950315) continue;
      auto it = building.find(Num(t.value(o["o_custkey"])));
      if (it == building.end()) continue;
      q3_orders[Num(t.value(o["o_orderkey"]))].push_back({&t, m * it->second});
    }
    for (const auto& [t, m] : lineitem.dense_rows()) {
      if (Num(t.value(l_shipdate)) <= 19950315) continue;
      auto it = q3_orders.find(Num(t.value(l_orderkey)));
      if (it == q3_orders.end()) continue;
      for (const auto& [order, om] : it->second) {
        Accumulate(&out.q3,
                   {t.value(l_orderkey), order->value(o["o_orderdate"]),
                    order->value(o["o_shippriority"])},
                   Revenue(t, l_price, l_discount), m * om);
      }
    }
  }

  // Nation key -> (n_name, multiplicity), and the subset in ASIA.
  ByKey<std::pair<Value, int64_t>> nations, asia_nations;
  {
    std::unordered_map<int64_t, int64_t> asia;
    for (const auto& [t, m] : region.dense_rows()) {
      if (t.value(r["r_name"]).AsString() == "ASIA") {
        asia[Num(t.value(r["r_regionkey"]))] += m;
      }
    }
    for (const auto& [t, m] : nation.dense_rows()) {
      int64_t key = Num(t.value(n["n_nationkey"]));
      nations[key].push_back({t.value(n["n_name"]), m});
      auto it = asia.find(Num(t.value(n["n_regionkey"])));
      if (it != asia.end()) {
        asia_nations[key].push_back({t.value(n["n_name"]), m * it->second});
      }
    }
  }

  // Q5: revenue of 1994 orders whose customer and supplier share an ASIA
  // nation, grouped by n_name.
  {
    ByKey<std::pair<int64_t, int64_t>> suppliers, customers, q5_orders;
    for (const auto& [t, m] : supplier.dense_rows()) {
      suppliers[Num(t.value(s["s_suppkey"]))].push_back(
          {Num(t.value(s["s_nationkey"])), m});
    }
    for (const auto& [t, m] : customer.dense_rows()) {
      customers[Num(t.value(c["c_custkey"]))].push_back(
          {Num(t.value(c["c_nationkey"])), m});
    }
    for (const auto& [t, m] : orders.dense_rows()) {
      int64_t date = Num(t.value(o["o_orderdate"]));
      if (date < 19940101 || date >= 19950101) continue;
      q5_orders[Num(t.value(o["o_orderkey"]))].push_back(
          {Num(t.value(o["o_custkey"])), m});
    }
    for (const auto& [t, m] : lineitem.dense_rows()) {
      auto ord = q5_orders.find(Num(t.value(l_orderkey)));
      if (ord == q5_orders.end()) continue;
      auto sup = suppliers.find(Num(t.value(l_suppkey)));
      if (sup == suppliers.end()) continue;
      for (const auto& [custkey, om] : ord->second) {
        auto cust = customers.find(custkey);
        if (cust == customers.end()) continue;
        for (const auto& [c_nation, cm] : cust->second) {
          for (const auto& [s_nation, sm] : sup->second) {
            if (s_nation != c_nation) continue;
            auto nat = asia_nations.find(s_nation);
            if (nat == asia_nations.end()) continue;
            for (const auto& [name, nm] : nat->second) {
              Accumulate(&out.q5, {name}, Revenue(t, l_price, l_discount),
                         m * om * cm * sm * nm);
            }
          }
        }
      }
    }
  }

  // Q10: returned items of orders placed in 1993-Q4, grouped by customer.
  {
    ByKey<std::pair<const Tuple*, int64_t>> customers;
    ByKey<std::pair<int64_t, int64_t>> q10_orders;
    for (const auto& [t, m] : customer.dense_rows()) {
      customers[Num(t.value(c["c_custkey"]))].push_back({&t, m});
    }
    for (const auto& [t, m] : orders.dense_rows()) {
      int64_t date = Num(t.value(o["o_orderdate"]));
      if (date < 19931001 || date >= 19940101) continue;
      q10_orders[Num(t.value(o["o_orderkey"]))].push_back(
          {Num(t.value(o["o_custkey"])), m});
    }
    for (const auto& [t, m] : lineitem.dense_rows()) {
      if (t.value(l_flag).AsString() != "R") continue;
      auto ord = q10_orders.find(Num(t.value(l_orderkey)));
      if (ord == q10_orders.end()) continue;
      for (const auto& [custkey, om] : ord->second) {
        auto cust = customers.find(custkey);
        if (cust == customers.end()) continue;
        for (const auto& [ct, cm] : cust->second) {
          auto nat = nations.find(Num(ct->value(c["c_nationkey"])));
          if (nat == nations.end()) continue;
          for (const auto& [name, nm] : nat->second) {
            Accumulate(&out.q10,
                       {ct->value(c["c_custkey"]), ct->value(c["c_name"]),
                        ct->value(c["c_acctbal"]), name,
                        ct->value(c["c_address"]), ct->value(c["c_phone"])},
                       Revenue(t, l_price, l_discount), m * om * cm * nm);
          }
        }
      }
    }
  }

  // Rollups: each group of a summary view is one source row of its rollup.
  for (const auto& [key, agg] : out.q3) {
    Accumulate(&out.q3_by_priority, {key.value(2)}, agg.sum, 1);
  }
  for (const auto& [key, agg] : out.q10) {
    Accumulate(&out.q10_by_nation, {key.value(3)}, agg.sum, 1);
  }
  {
    ByKey<std::pair<Value, int64_t>> status_by_customer;
    for (const auto& [t, m] : orders.dense_rows()) {
      status_by_customer[Num(t.value(o["o_custkey"]))].push_back(
          {t.value(o["o_orderstatus"]), m});
    }
    for (const auto& [key, agg] : out.q10) {
      auto it = status_by_customer.find(Num(key.value(0)));
      if (it == status_by_customer.end()) continue;
      for (const auto& [status, om] : it->second) {
        Accumulate(&out.q10_order_status, {status}, agg.sum, om);
      }
    }
  }

  for (const auto& [t, m] : lineitem.dense_rows()) {
    Accumulate(&out.lineitem_by_flag, {t.value(l_flag)},
               Num(t.value(l_price)), m);
  }
  return out;
}

const Answer* AnswerFor(const OracleAnswers& answers,
                        const std::string& view) {
  if (view == "Q3") return &answers.q3;
  if (view == "Q5") return &answers.q5;
  if (view == "Q10") return &answers.q10;
  if (view == "Q3_BY_PRIORITY") return &answers.q3_by_priority;
  if (view == "Q10_BY_NATION") return &answers.q10_by_nation;
  if (view == "Q10_ORDER_STATUS") return &answers.q10_order_status;
  return nullptr;
}

std::string CompareAggregate(const RowList& rows, const Answer& expected) {
  if (rows.size() != expected.size()) {
    return std::to_string(rows.size()) + " groups, oracle has " +
           std::to_string(expected.size());
  }
  for (const auto& [t, m] : rows) {
    if (m != 1) return "group stored " + std::to_string(m) + " times: " +
                       t.ToString();
    size_t width = t.size();
    if (width < 2 || t.value(width - 2).type() != TypeId::kInt64 ||
        t.value(width - 1).type() != TypeId::kInt64) {
      return "row is not (keys..., SUM, __count): " + t.ToString();
    }
    std::vector<Value> key(t.values().begin(), t.values().end() - 2);
    auto it = expected.find(Tuple(std::move(key)));
    if (it == expected.end()) return "group absent from oracle: " + t.ToString();
    if (it->second.sum != t.value(width - 2).AsInt64() ||
        it->second.count != t.value(width - 1).AsInt64()) {
      return "group differs from oracle: " + t.ToString();
    }
  }
  return "";
}

std::string CompareBase(const Table& extent, const Table& mirror) {
  std::unordered_map<Tuple, int64_t, wuw::TupleHash> counts;
  for (const auto& [t, m] : extent.dense_rows()) counts[t] += m;
  if (counts.size() != mirror.dense_rows().size()) {
    return std::to_string(counts.size()) + " distinct rows, source has " +
           std::to_string(mirror.dense_rows().size());
  }
  for (const auto& [t, m] : mirror.dense_rows()) {
    auto it = counts.find(t);
    if (it == counts.end() || it->second != m) {
      return "row differs from source: " + t.ToString();
    }
  }
  return "";
}

}  // namespace perfbench
