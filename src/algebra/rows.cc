#include "algebra/rows.h"

#include <mutex>

#include "common/check.h"
#include "obs/metrics.h"
#include "storage/column_table.h"

namespace wuw {

/// Lazily-filled columnar mirror, shared between copies of a Rows value.
/// The mutex serializes the one-time build; readers that arrive later take
/// it briefly and return the shared table.
struct Rows::ColumnarSlot {
  std::mutex mu;
  std::shared_ptr<const ColumnTable> table;
  /// Set when conversion failed (type-violating cell): don't retry.
  bool failed = false;
};

Rows::Rows() : columnar_(std::make_shared<ColumnarSlot>()) {}

Rows::Rows(Schema s)
    : schema(std::move(s)), columnar_(std::make_shared<ColumnarSlot>()) {}

Rows::~Rows() = default;

Rows::Rows(const Rows& other)
    : schema(other.schema),
      rows(other.rows),
      columnar_(other.columnar_),
      columnar_stale_(other.columnar_stale_),
      signed_card_(other.signed_card_.load(std::memory_order_relaxed)),
      abs_card_(other.abs_card_.load(std::memory_order_relaxed)) {}

Rows::Rows(Rows&& other) noexcept
    : schema(std::move(other.schema)),
      rows(std::move(other.rows)),
      columnar_(std::move(other.columnar_)),
      columnar_stale_(other.columnar_stale_),
      signed_card_(other.signed_card_.load(std::memory_order_relaxed)),
      abs_card_(other.abs_card_.load(std::memory_order_relaxed)) {
  other.columnar_ = std::make_shared<ColumnarSlot>();
  other.columnar_stale_ = false;
  other.signed_card_.store(kCardUnset, std::memory_order_relaxed);
  other.abs_card_.store(kCardUnset, std::memory_order_relaxed);
}

Rows& Rows::operator=(const Rows& other) {
  if (this == &other) return *this;
  schema = other.schema;
  rows = other.rows;
  columnar_ = other.columnar_;
  columnar_stale_ = other.columnar_stale_;
  signed_card_.store(other.signed_card_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  abs_card_.store(other.abs_card_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  return *this;
}

Rows& Rows::operator=(Rows&& other) noexcept {
  if (this == &other) return *this;
  schema = std::move(other.schema);
  rows = std::move(other.rows);
  columnar_ = std::move(other.columnar_);
  columnar_stale_ = other.columnar_stale_;
  signed_card_.store(other.signed_card_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  abs_card_.store(other.abs_card_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  other.columnar_ = std::make_shared<ColumnarSlot>();
  other.columnar_stale_ = false;
  other.signed_card_.store(kCardUnset, std::memory_order_relaxed);
  other.abs_card_.store(kCardUnset, std::memory_order_relaxed);
  return *this;
}

namespace {

int64_t RecomputeSigned(const std::vector<std::pair<Tuple, int64_t>>& rows) {
  int64_t n = 0;
  for (const auto& [t, c] : rows) n += c;
  return n;
}

int64_t RecomputeAbs(const std::vector<std::pair<Tuple, int64_t>>& rows) {
  int64_t n = 0;
  for (const auto& [t, c] : rows) n += std::llabs(c);
  return n;
}

}  // namespace

int64_t Rows::SignedCardinality() const {
  int64_t cached = signed_card_.load(std::memory_order_relaxed);
  if (cached == kCardUnset) {
    cached = RecomputeSigned(rows);
    signed_card_.store(cached, std::memory_order_relaxed);
  }
#ifndef NDEBUG
  WUW_CHECK(cached == RecomputeSigned(rows),
            "Rows signed cardinality cache is stale "
            "(rows mutated behind Add/SetCachedCardinalities?)");
#endif
  return cached;
}

int64_t Rows::AbsCardinality() const {
  int64_t cached = abs_card_.load(std::memory_order_relaxed);
  if (cached == kCardUnset) {
    cached = RecomputeAbs(rows);
    abs_card_.store(cached, std::memory_order_relaxed);
  }
#ifndef NDEBUG
  WUW_CHECK(cached == RecomputeAbs(rows),
            "Rows abs cardinality cache is stale "
            "(rows mutated behind Add/SetCachedCardinalities?)");
#endif
  return cached;
}

void Rows::SetCachedCardinalities(int64_t signed_card, int64_t abs_card) const {
  signed_card_.store(signed_card, std::memory_order_relaxed);
  abs_card_.store(abs_card, std::memory_order_relaxed);
#ifndef NDEBUG
  WUW_CHECK(signed_card == RecomputeSigned(rows),
            "SetCachedCardinalities: wrong signed cardinality");
  WUW_CHECK(abs_card == RecomputeAbs(rows),
            "SetCachedCardinalities: wrong abs cardinality");
#endif
}

Rows Rows::FromTable(const Table& table) {
  Rows out(table.schema());
  out.rows = table.dense_rows();  // one vector copy; COW tuples only bump refs
  // Table multiplicities are strictly positive, so both cardinalities equal
  // |V| — and the table's cached columnar snapshot transfers as-is.
  out.SetCachedCardinalities(table.cardinality(), table.cardinality());
  std::shared_ptr<const ColumnTable> snapshot = table.ColumnarSnapshot();
  if (snapshot != nullptr) out.AttachColumnar(std::move(snapshot));
  return out;
}

std::shared_ptr<Rows::ColumnarSlot> Rows::FreshSlot() const {
  // Resolve staleness into a fresh slot so copies sharing the old one keep
  // their (still valid for them) cached table; the swap is guarded so
  // concurrent callers on a shared batch agree on one slot.
  std::lock_guard<std::mutex> swap_lock(columnar_mu_);
  if (columnar_stale_) {
    columnar_ = std::make_shared<ColumnarSlot>();
    columnar_stale_ = false;
  }
  return columnar_;
}

std::shared_ptr<const ColumnTable> Rows::Columnar() const {
  std::shared_ptr<ColumnarSlot> slot = FreshSlot();
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->table != nullptr && slot->table->num_rows() == rows.size()) {
    return slot->table;
  }
  if (slot->failed && slot->table == nullptr) return nullptr;
  slot->table = ColumnTable::FromRows(schema, rows);
  slot->failed = slot->table == nullptr;
  return slot->table;
}

void Rows::AttachColumnar(std::shared_ptr<const ColumnTable> table) const {
  if (table != nullptr) {
    WUW_CHECK(table->num_rows() == rows.size(),
              "attached columnar mirror disagrees with row count");
  }
  std::shared_ptr<ColumnarSlot> slot = FreshSlot();
  std::lock_guard<std::mutex> lock(slot->mu);
  slot->table = std::move(table);
  slot->failed = false;
}

}  // namespace wuw
