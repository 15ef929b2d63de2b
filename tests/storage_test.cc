#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/column_table.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace wuw {
namespace {

TEST(ValueTest, TypeAccessors) {
  EXPECT_EQ(Value::Int64(42).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Date(19950315).AsDate(), 19950315);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_FALSE(Value::Int64(0).is_null());
}

TEST(ValueTest, DateFactoryFromComponents) {
  EXPECT_EQ(Value::Date(1995, 3, 15).AsDate(), 19950315);
  EXPECT_EQ(Value::Date(1992, 1, 1).AsDate(), 19920101);
}

TEST(ValueTest, NumericValueWidens) {
  EXPECT_DOUBLE_EQ(Value::Int64(7).NumericValue(), 7.0);
  EXPECT_DOUBLE_EQ(Value::Date(19950315).NumericValue(), 19950315.0);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).NumericValue(), 1.5);
}

TEST(ValueTest, EqualityAcrossNumericRepresentations) {
  EXPECT_EQ(Value::Int64(3), Value::Double(3.0));
  EXPECT_NE(Value::Int64(3), Value::Double(3.5));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int64(0));
  EXPECT_NE(Value::String("3"), Value::Int64(3));
}

TEST(ValueTest, TotalOrder) {
  EXPECT_LT(Value::Null(), Value::Int64(-100));
  EXPECT_LT(Value::Int64(1), Value::Int64(2));
  EXPECT_LT(Value::Int64(5), Value::String(""));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_LT(Value::Date(19940101), Value::Date(19950101));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::Date(19950315).ToString(), "1995-03-15");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(SchemaTest, LookupByName) {
  Schema s({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.IndexOf("a"), 0);
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("c"), -1);
  EXPECT_EQ(s.MustIndexOf("b"), 1u);
  EXPECT_TRUE(s.HasColumn("a"));
  EXPECT_FALSE(s.HasColumn("z"));
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", TypeId::kInt64}});
  Schema b({{"y", TypeId::kDouble}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_columns(), 2u);
  EXPECT_EQ(c.column(1).name, "y");
}

TEST(SchemaTest, Equality) {
  Schema a({{"x", TypeId::kInt64}});
  Schema b({{"x", TypeId::kInt64}});
  Schema c({{"x", TypeId::kDouble}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(TupleTest, ProjectAndConcat) {
  Tuple t({Value::Int64(1), Value::String("a"), Value::Int64(3)});
  Tuple p = t.Project({2, 0});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.value(0).AsInt64(), 3);
  EXPECT_EQ(p.value(1).AsInt64(), 1);

  Tuple c = Tuple::Concat(t, p);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.value(4).AsInt64(), 1);
}

TEST(TupleTest, OrderAndEquality) {
  Tuple a({Value::Int64(1), Value::Int64(2)});
  Tuple b({Value::Int64(1), Value::Int64(3)});
  Tuple c({Value::Int64(1), Value::Int64(2)});
  EXPECT_LT(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.Hash(), c.Hash());
  Tuple shorter({Value::Int64(1)});
  EXPECT_LT(shorter, a);
}

TEST(TableTest, MultisetAddAndRemove) {
  Table t(Schema({{"x", TypeId::kInt64}}));
  Tuple row({Value::Int64(7)});
  EXPECT_EQ(t.Add(row, 3), 3);
  EXPECT_EQ(t.cardinality(), 3);
  EXPECT_EQ(t.distinct_size(), 1u);
  EXPECT_EQ(t.Add(row, -1), 2);
  EXPECT_EQ(t.cardinality(), 2);
  EXPECT_EQ(t.Add(row, -2), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TableTest, NegativeCountClampsToZero) {
  Table t(Schema({{"x", TypeId::kInt64}}));
  Tuple row({Value::Int64(1)});
  EXPECT_EQ(t.Add(row, -5), 0);
  EXPECT_EQ(t.cardinality(), 0);
  t.Add(row, 2);
  EXPECT_EQ(t.Add(row, -5), 0);  // over-delete clamps
  EXPECT_EQ(t.cardinality(), 0);
}

// Deleting an absent tuple changes nothing: the columnar cache survives,
// mutation_count() (the pager's image-staleness check) stays put, and the
// clamp is counted instead of silently absorbed.
TEST(TableTest, ClampedDeleteOfAbsentTupleIsCountedNotAMutation) {
  const bool was_armed = obs::MetricsArmed();
  obs::ArmMetrics();
  obs::Counter* clamped =
      obs::GetCounter("table.clamped_deletes", obs::MetricClass::kWork);

  Table t(Schema({{"x", TypeId::kInt64}}));
  t.Add(Tuple({Value::Int64(1)}), 2);
  std::shared_ptr<const ColumnTable> before = t.ColumnarSnapshot();
  ASSERT_NE(before, nullptr);
  const int64_t mutations = t.mutation_count();
  const int64_t clamps = clamped->value();

  EXPECT_EQ(t.Add(Tuple({Value::Int64(9)}), -3), 0);
  EXPECT_EQ(t.mutation_count(), mutations);
  EXPECT_EQ(t.ColumnarSnapshot(), before);
  EXPECT_EQ(t.cardinality(), 2);
  EXPECT_EQ(clamped->value(), clamps + 1);

  // An over-delete of a present tuple is a real removal that also clamps.
  EXPECT_EQ(t.Add(Tuple({Value::Int64(1)}), -5), 0);
  EXPECT_EQ(t.mutation_count(), mutations + 1);
  EXPECT_NE(t.ColumnarSnapshot(), before);
  EXPECT_EQ(clamped->value(), clamps + 2);

  if (!was_armed) obs::DisarmMetrics();
}

TEST(TableTest, ContentsEqualIgnoresInsertionOrder) {
  Schema s({{"x", TypeId::kInt64}});
  Table a(s), b(s);
  a.Add(Tuple({Value::Int64(1)}), 1);
  a.Add(Tuple({Value::Int64(2)}), 2);
  b.Add(Tuple({Value::Int64(2)}), 2);
  b.Add(Tuple({Value::Int64(1)}), 1);
  EXPECT_TRUE(a.ContentsEqual(b));
  b.Add(Tuple({Value::Int64(1)}), 1);
  EXPECT_FALSE(a.ContentsEqual(b));
}

TEST(TableTest, SortedRowsDeterministic) {
  Table t(Schema({{"x", TypeId::kInt64}}));
  t.Add(Tuple({Value::Int64(5)}), 1);
  t.Add(Tuple({Value::Int64(1)}), 1);
  t.Add(Tuple({Value::Int64(3)}), 1);
  auto rows = t.SortedRows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first.value(0).AsInt64(), 1);
  EXPECT_EQ(rows[2].first.value(0).AsInt64(), 5);
}

TEST(CatalogTest, CreateAndLookup) {
  Catalog c;
  Table* t = c.CreateTable("T", Schema({{"x", TypeId::kInt64}}));
  EXPECT_NE(t, nullptr);
  EXPECT_EQ(c.GetTable("T"), t);
  EXPECT_EQ(c.GetTable("U"), nullptr);
  EXPECT_TRUE(c.HasTable("T"));
  EXPECT_EQ(c.table_names().size(), 1u);
}

TEST(CatalogTest, CloneIsDeep) {
  Catalog c;
  Table* t = c.CreateTable("T", Schema({{"x", TypeId::kInt64}}));
  t->Add(Tuple({Value::Int64(1)}), 1);
  Catalog clone = c.Clone();
  clone.MustGetTable("T")->Add(Tuple({Value::Int64(2)}), 1);
  EXPECT_EQ(c.MustGetTable("T")->cardinality(), 1);
  EXPECT_EQ(clone.MustGetTable("T")->cardinality(), 2);
  EXPECT_FALSE(c.ContentsEqual(clone));
}

TEST(CatalogTest, ContentsEqual) {
  Catalog a, b;
  a.CreateTable("T", Schema({{"x", TypeId::kInt64}}));
  b.CreateTable("T", Schema({{"x", TypeId::kInt64}}));
  EXPECT_TRUE(a.ContentsEqual(b));
  a.MustGetTable("T")->Add(Tuple({Value::Int64(1)}), 1);
  EXPECT_FALSE(a.ContentsEqual(b));
}

}  // namespace
}  // namespace wuw
