#include "exec/warehouse.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "fault/fault_injection.h"
#include "obs/metrics.h"
#include "stats/delta_estimator.h"
#include "view/join_pipeline.h"
#include "view/recompute.h"

namespace wuw {

/// Snapshot-read state, allocated only when arming (EnableSnapshotReads /
/// WUW_READERS): the publish slot readers pin, the per-view copy-on-write
/// bookkeeping, and the version-bump audit baseline.
struct Warehouse::SnapshotPublisher {
  /// Guards `published` only; held for exactly one shared_ptr copy on
  /// either side.  A mutex, not std::atomic<shared_ptr>: libstdc++'s
  /// _Sp_atomic is itself a lock-bit spinlock (same cost class) whose
  /// relaxed internal unlock TSan correctly flags as a formal data race,
  /// and the TSan-green guarantee is part of this layer's contract.
  mutable std::mutex publish_mu;
  /// The last committed state; readers copy the pointer under publish_mu,
  /// commits overwrite it there.  Readers never hold the mutex while
  /// scanning — the pinned shared_ptr outlives any later publish.
  std::shared_ptr<const SnapshotState> published;
  /// Monotone commit counter (SnapshotState::commit_seq source).
  int64_t commit_seq = 0;
  /// Per-view: true while the published state shares the live Table
  /// object, so the first post-publish mutation must detach a copy.
  /// Pre-populated like extent_versions_ — a stage's parallel installs
  /// write disjoint slots without rehashing.
  std::unordered_map<std::string, bool> clean;
  /// (mutation_count, extent_version) per view at the last publish; the
  /// audit cross-checks them at the next one.
  std::unordered_map<std::string, std::pair<int64_t, int64_t>> baseline;
};

Warehouse::~Warehouse() = default;

Warehouse::Warehouse(Warehouse&& other) noexcept {
  *this = std::move(other);
}

Warehouse& Warehouse::operator=(Warehouse&& other) noexcept {
  if (this == &other) return *this;
  // The pager moves WITH the warehouse (unique_ptr — stable address), so
  // detach the source catalog before the member move: Catalog's move ops
  // fault-in-and-detach, a discipline meant for catalogs that ESCAPE their
  // warehouse, and pointless I/O here.  Re-attach below.
  other.catalog_.SetPager(nullptr);
  vdag_ = std::move(other.vdag_);
  catalog_ = std::move(other.catalog_);
  base_deltas_ = std::move(other.base_deltas_);
  accumulators_ = std::move(other.accumulators_);
  join_rows_ = std::move(other.join_rows_);
  extent_versions_ = std::move(other.extent_versions_);
  batch_epoch_ = other.batch_epoch_;
  empty_deltas_ = std::move(other.empty_deltas_);
  journal_ = std::move(other.journal_);
  snapshots_ = std::move(other.snapshots_);
  aux_ = std::move(other.aux_);
  paged_ = std::move(other.paged_);
  if (paged_ != nullptr) catalog_.SetPager(paged_.get());
  return *this;
}

Warehouse::Warehouse(Vdag vdag) : vdag_(std::move(vdag)) {
  for (const std::string& name : vdag_.view_names()) {
    catalog_.CreateTable(name, vdag_.OutputSchema(name));
    // Pre-populated so NoteExtentChanged never inserts: a stage's parallel
    // installs then bump disjoint map slots without rehashing.
    extent_versions_.emplace(name, 0);
    if (vdag_.IsBaseView(name)) {
      empty_deltas_.emplace(name, DeltaRelation(vdag_.OutputSchema(name)));
    }
    if (vdag_.IsDerivedView(name)) {
      auto resolver = [this](const std::string& src) -> const Schema& {
        return vdag_.OutputSchema(src);
      };
      const auto& def = vdag_.definition(name);
      accumulators_.emplace(
          name, std::make_unique<DeltaAccumulator>(
                    def, RawSchema(*def, resolver), vdag_.OutputSchema(name)));
    }
  }
  // WUW_READERS arms snapshot reads on every warehouse in the process —
  // the env-knob twin of EnableSnapshotReads(), same discipline as
  // WUW_WINDOW_BUDGET / WUW_METRICS.
  if (EnvReaders() > 0) EnableSnapshotReads();
  if (const AuxViewOptions* aux = EnvAuxViews()) EnableAuxViews(*aux);
  if (const paged::PagedOptions* p = paged::EnvPaged()) EnablePaging(*p);
}

Table* Warehouse::base_table(const std::string& name) {
  WUW_CHECK(vdag_.IsBaseView(name), ("not a base view: " + name).c_str());
  // Mutable access: assume the caller writes (initial loading does).
  NoteExtentChanged(name);
  return MutableExtent(name);
}

void Warehouse::RecomputeDerived() {
  for (const std::string& name : vdag_.DerivedViewsBottomUp()) {
    int64_t join_rows = 0;
    Table fresh = RecomputeView(*vdag_.definition(name), catalog_,
                                /*stats=*/nullptr, &join_rows);
    Table* table = MutableExtent(name);
    table->Clear();
    fresh.ForEach([&](const Tuple& t, int64_t c) { table->Add(t, c); });
    join_rows_[name] = join_rows;
    NoteExtentChanged(name);
  }
  // A full rematerialization is a committed state readers may serve.
  PublishSnapshot();
}

void Warehouse::EnableSnapshotReads() {
  // Idempotent, but always (re)publishes: arming pins the *current*
  // committed state even when WUW_READERS already armed at construction.
  if (snapshots_ == nullptr) {
    snapshots_ = std::make_unique<SnapshotPublisher>();
    for (const std::string& name : vdag_.view_names()) {
      snapshots_->clean.emplace(name, false);
    }
  }
  PublishSnapshot();
}

ReadSnapshot Warehouse::OpenSnapshot() const {
  WUW_METRIC_ADD("serve.snapshots_opened", obs::MetricClass::kServe, 1);
  if (snapshots_ == nullptr) return ReadSnapshot(&catalog_, batch_epoch_);
  std::shared_ptr<const SnapshotState> pinned;
  {
    std::lock_guard<std::mutex> lock(snapshots_->publish_mu);
    pinned = snapshots_->published;
  }
  return ReadSnapshot(std::move(pinned));
}

void Warehouse::PublishSnapshot() {
  if (snapshots_ == nullptr) return;
#ifndef NDEBUG
  {
    std::vector<std::string> unbumped = SnapshotAuditViolations();
    WUW_CHECK(unbumped.empty(),
              ("extent mutated without NoteExtentChanged before publish: " +
               unbumped.front())
                  .c_str());
  }
#endif
  auto state = std::make_shared<SnapshotState>();
  state->commit_seq = ++snapshots_->commit_seq;
  state->batch_epoch = batch_epoch_;
  state->names = catalog_.table_names();
  for (const std::string& name : state->names) {
    std::shared_ptr<const Table> shared = catalog_.SharedTable(name);
    snapshots_->baseline[name] = {shared->mutation_count(),
                                  extent_version(name)};
    state->tables.emplace(name, std::move(shared));
    snapshots_->clean[name] = true;
  }
  {
    std::lock_guard<std::mutex> lock(snapshots_->publish_mu);
    snapshots_->published = std::move(state);
  }
  WUW_METRIC_ADD("serve.publishes", obs::MetricClass::kServe, 1);
}

Table* Warehouse::MutableExtent(const std::string& name) {
  if (snapshots_ == nullptr) return catalog_.MustGetTable(name);
  auto it = snapshots_->clean.find(name);
  WUW_CHECK(it != snapshots_->clean.end(),
            ("unknown view in MutableExtent: " + name).c_str());
  if (it->second) {
    // First mutation since the publish: detach a private copy so the
    // published version stays frozen for its readers.  Eager-on-first-write
    // (not refcount-probing) because a reader may pin the published state
    // at any instant — only never-mutate-published is race-free.
    catalog_.ReplaceTable(
        name, std::make_shared<Table>(*catalog_.MustGetTable(name)));
    it->second = false;
    // kWork, not kServe: the detach is maintenance-side work, and it is
    // deterministic (one per mutated view per publish, reader-independent
    // because detach is eager, never refcount-driven).
    WUW_METRIC_ADD("warehouse.cow_detaches", obs::MetricClass::kWork, 1);
  }
  return catalog_.MustGetTable(name);
}

std::vector<std::string> Warehouse::SnapshotAuditViolations() const {
  std::vector<std::string> out;
  if (snapshots_ == nullptr) return out;
  for (const std::string& name : catalog_.table_names()) {
    auto base = snapshots_->baseline.find(name);
    if (base == snapshots_->baseline.end()) continue;
    const Table* table = catalog_.GetTable(name);
    const bool mutated = table->mutation_count() != base->second.first;
    const bool bumped = extent_version(name) != base->second.second;
    if (mutated && !bumped) out.push_back(name);
  }
  return out;
}

void Warehouse::EnableAuxViews(AuxViewOptions options) {
  if (aux_ == nullptr) {
    aux_ = std::make_unique<AuxViewRegistry>(options);
  } else {
    aux_->set_options(options);
  }
}

std::vector<std::string> Warehouse::AuxAuditViolations() const {
  if (aux_ == nullptr) return {};
  auto version_of = [this](const std::string& n) { return extent_version(n); };
  return aux_->AuditViolations(version_of, catalog_);
}

void Warehouse::EnablePaging(const paged::PagedOptions& options) {
  if (paged_ == nullptr || !(paged_->options() == options)) {
    if (paged_ != nullptr) {
      // Re-arming with other options: fault every extent back in under the
      // old pager before its images go with it.
      catalog_.SetPager(paged_.get());
      for (const std::string& name : catalog_.table_names()) {
        catalog_.GetTable(name);
      }
    }
    paged_ = std::make_unique<paged::PagedStore>(options);
    for (const std::string& name : catalog_.table_names()) {
      paged_->Register(name);
    }
  }
  catalog_.SetPager(paged_.get());
}

void Warehouse::PagedTouchExpression(const Expression& e, bool evict) {
  if (paged_ == nullptr) return;
  if (e.is_inst()) {
    paged_->Touch({e.view}, &catalog_, evict);
  } else {
    paged_->Touch(vdag_.sources(e.view), &catalog_, evict);
  }
}

void Warehouse::PagedTouchStage(const std::vector<Expression>& stage) {
  if (paged_ == nullptr) return;
  std::vector<std::string> names;
  auto add = [&](const std::string& n) {
    if (std::find(names.begin(), names.end(), n) == names.end()) {
      names.push_back(n);
    }
  };
  for (const Expression& e : stage) {
    if (e.is_inst()) {
      add(e.view);
    } else {
      for (const std::string& s : vdag_.sources(e.view)) add(s);
    }
  }
  paged_->Touch(names, &catalog_, /*evict=*/true);
}

void Warehouse::AuxCommit() {
  auto version_of = [this](const std::string& n) { return extent_version(n); };

  // 1. Refresh materializations whose prefix sources drifted this window
  // while the aux extent itself was not rewritten.
  for (const AuxViewRegistry::AuxRefresh& r : aux_->CollectStale(version_of)) {
    // A kill here models dying mid-refresh; recovery restores the
    // pre-window state and its final ResetBatch reruns this deterministic
    // commit, redoing the refresh.
    WUW_FAULT_POINT("aux.refresh.step");
    int64_t jr = 0;
    Table fresh = RecomputeView(*r.def, catalog_, /*stats=*/nullptr, &jr);
    Table* table = MutableExtent(r.aux_view);
    table->Clear();
    fresh.ForEach([&](const Tuple& t, int64_t c) { table->Add(t, c); });
    join_rows_[r.aux_view] = jr;
    NoteExtentChanged(r.aux_view);
    WUW_METRIC_ADD("aux.refreshes", obs::MetricClass::kWork, 1);
  }

#ifndef NDEBUG
  {
    std::vector<std::string> unbumped = AuxAuditViolations();
    WUW_CHECK(unbumped.empty(),
              ("aux extent mutated without NoteExtentChanged before commit: " +
               unbumped.front())
                  .c_str());
  }
#endif

  // 2. Close the advisor window; materialize the promotions that survive
  // the measured accept test.
  for (const AuxViewRegistry::AuxPromotion& p :
       aux_->CloseWindow(vdag_, catalog_)) {
    // A same-window sibling sharing this recipe may have been rejected by
    // the accept test below, leaving the shared extent unmaterialized —
    // the parent re-proposes (with its own accept test) in a later window.
    if (p.already_materialized && !catalog_.HasTable(p.aux_view)) continue;
    if (!p.already_materialized) {
      int64_t jr = 0;
      Table fresh = RecomputeView(*p.def, catalog_, /*stats=*/nullptr, &jr);
      const int64_t rows = fresh.cardinality();
      // Accept iff the aux scan is strictly cheaper than the prefix scans
      // it replaces AND last window's substitutions would have saved more
      // linear work than the view's own upkeep (the prefix_len-1 extra
      // Comp terms of roughly prefix-sized inputs a maintenance window
      // pays for one more derived view).
      const int64_t saved = p.window_uses * (p.prefix_extent_rows - rows);
      const int64_t upkeep =
          static_cast<int64_t>(p.prefix_len - 1) * p.prefix_extent_rows;
      if (rows >= p.prefix_extent_rows || saved <= upkeep) {
        aux_->MarkRejected(p.parent, p.prefix_len);
        continue;
      }
      vdag_.AddDerivedView(p.def);
      catalog_.CreateTable(p.aux_view, vdag_.OutputSchema(p.aux_view));
      if (paged_ != nullptr) paged_->Register(p.aux_view);
      extent_versions_.emplace(p.aux_view, 0);
      auto resolver = [this](const std::string& src) -> const Schema& {
        return vdag_.OutputSchema(src);
      };
      accumulators_.emplace(
          p.aux_view, std::make_unique<DeltaAccumulator>(
                          p.def, RawSchema(*p.def, resolver),
                          vdag_.OutputSchema(p.aux_view)));
      if (snapshots_ != nullptr) snapshots_->clean.emplace(p.aux_view, false);
      // A kill here models dying between VDAG registration and the extent
      // fill; the half-installed state dies with the killed process and
      // the restored clone's rerun re-registers from scratch.
      WUW_FAULT_POINT("aux.promote.install");
      Table* table = MutableExtent(p.aux_view);
      fresh.ForEach([&](const Tuple& t, int64_t c) { table->Add(t, c); });
      join_rows_[p.aux_view] = jr;
      NoteExtentChanged(p.aux_view);
      WUW_METRIC_ADD("aux.promotions", obs::MetricClass::kWork, 1);
    }
    aux_->Bind(p);
  }

  // 3. Stamp every binding against the post-commit state — the freshness
  // baseline next window's substitutions validate against.
  aux_->Restamp(version_of, catalog_);
}

void Warehouse::SetBaseDelta(const std::string& name, DeltaRelation delta) {
  WUW_CHECK(vdag_.IsBaseView(name),
            ("deltas arrive only for base views: " + name).c_str());
  base_deltas_[name] = std::move(delta);
  ++batch_epoch_;
}

void Warehouse::MergeBaseDelta(const std::string& name,
                               const DeltaRelation& delta) {
  WUW_CHECK(vdag_.IsBaseView(name),
            ("deltas arrive only for base views: " + name).c_str());
  auto it = base_deltas_.find(name);
  if (it == base_deltas_.end()) {
    base_deltas_.emplace(name, DeltaRelation(vdag_.OutputSchema(name)));
    it = base_deltas_.find(name);
  }
  it->second.Merge(delta);
  ++batch_epoch_;
}

const DeltaRelation& Warehouse::base_delta(const std::string& name) const {
  auto it = base_deltas_.find(name);
  if (it != base_deltas_.end()) return it->second;
  auto empty = empty_deltas_.find(name);
  WUW_CHECK(empty != empty_deltas_.end(),
            ("not a base view: " + name).c_str());
  return empty->second;
}

DeltaAccumulator* Warehouse::accumulator(const std::string& name) {
  auto it = accumulators_.find(name);
  WUW_CHECK(it != accumulators_.end(),
            ("no accumulator (not a derived view?): " + name).c_str());
  return it->second.get();
}

void Warehouse::ResetBatch() {
  base_deltas_.clear();
  for (auto& [name, acc] : accumulators_) acc->Reset();
  ++batch_epoch_;
  // The aux-view commit hook runs before the publish so readers only ever
  // see fresh materializations alongside the window's installs.
  if (aux_ != nullptr) AuxCommit();
  // Executors call ResetBatch exactly when a strategy run completes — the
  // window's installs become visible to readers here, atomically.  Paused
  // windows never reach this, so readers keep the pre-window snapshot.
  PublishSnapshot();
}

SizeMap Warehouse::EstimatedSizes() const {
  EstimatorInputs inputs;
  for (const std::string& name : vdag_.view_names()) {
    // Hook-free: cardinality survives hibernation, so strategy selection
    // never faults extents in (storage/catalog.h Cardinality).
    inputs.extent_sizes[name] = catalog_.Cardinality(name);
  }
  for (const auto& [name, delta] : base_deltas_) {
    inputs.base_deltas[name] =
        BaseDeltaStats{delta.plus_count(), delta.minus_count()};
  }
  inputs.join_rows = join_rows_;
  return EstimateSizes(vdag_, inputs);
}

SizeMap Warehouse::EstimatedSizesWithStats() const {
  StatsEstimatorInputs inputs;
  for (const std::string& name : vdag_.view_names()) {
    inputs.extent_stats.emplace(
        name, TableStats::Collect(*catalog_.MustGetTable(name)));
  }
  for (const auto& [name, delta] : base_deltas_) {
    inputs.base_delta_stats.emplace(name, TableStats::Collect(delta));
    inputs.base_delta_plus_minus.emplace(
        name, std::make_pair(delta.plus_count(), delta.minus_count()));
  }
  return EstimateSizesWithStats(vdag_, inputs);
}

SizeMap Warehouse::OracleSizes() const {
  Warehouse clone = Clone();
  ExecutorOptions options;
  options.validate = false;
  options.capture_delta_stats = true;
  Executor executor(&clone, options);
  ExecutionReport report =
      executor.Execute(MakeDualStageVdagStrategy(vdag_));

  SizeMap out;
  for (const std::string& name : vdag_.view_names()) {
    ViewSizes s;
    s.size = catalog_.MustGetTable(name)->cardinality();
    auto it = report.delta_stats.find(name);
    if (it != report.delta_stats.end()) {
      s.delta_abs = it->second.first;
      s.delta_net = it->second.second;
    }
    out.Set(name, s);
  }
  return out;
}

Warehouse Warehouse::Clone() const {
  Warehouse out(vdag_);
  out.catalog_ = catalog_.Clone();
  out.base_deltas_ = base_deltas_;
  out.join_rows_ = join_rows_;
  out.extent_versions_ = extent_versions_;
  out.batch_epoch_ = batch_epoch_;
  // Unconditional: the ctor may have armed a fresh registry from the env,
  // but a clone must tally/bind/promote exactly like the original (what
  // keeps kill/resume runs bit-identical to uninterrupted ones).
  out.aux_ = aux_ != nullptr ? aux_->Copy() : nullptr;
  if (snapshots_ != nullptr || out.snapshots_ != nullptr) {
    // Clones of an armed warehouse serve snapshots too — and the ctor may
    // have published the pre-Clone (empty) tables under WUW_READERS, so
    // re-publish the real copied state either way.
    out.EnableSnapshotReads();
    out.PublishSnapshot();
  }
  // Paging: the ctor's env arming attached out's pager to the ctor-time
  // catalog object, which the catalog assignment above replaced — re-attach
  // (the entry set is identical: same VDAG, same creation order).  An
  // in-process-armed original propagates its arming to the clone, which is
  // what keeps kill/resume runs bit-identical to uninterrupted ones.
  if (paged_ != nullptr) {
    out.EnablePaging(paged_->options());
  } else if (out.paged_ != nullptr) {
    out.catalog_.SetPager(out.paged_.get());
  }
  return out;
}

int64_t Warehouse::join_rows(const std::string& view) const {
  auto it = join_rows_.find(view);
  return it == join_rows_.end() ? 0 : it->second;
}

int64_t Warehouse::extent_version(const std::string& name) const {
  auto it = extent_versions_.find(name);
  return it == extent_versions_.end() ? 0 : it->second;
}

void Warehouse::NoteExtentChanged(const std::string& name) {
  // The extent bytes are already rewritten when this fires: a kill here
  // models dying between the write and its version bump / journal record.
  WUW_FAULT_POINT("warehouse.note_extent_changed");
  WUW_METRIC_ADD("warehouse.extent_bumps", obs::MetricClass::kWork, 1);
  auto it = extent_versions_.find(name);
  WUW_CHECK(it != extent_versions_.end(),
            ("unknown view in NoteExtentChanged: " + name).c_str());
  ++it->second;
}

}  // namespace wuw
