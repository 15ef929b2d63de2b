// perfbench: the update-window benchmark.
//
//   perfbench --workload <nightly_live|rollups_prune|beyond_ram>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--pool <threads>] [--no-reader]
//
// One run measures one workload against a Release build of the library.
// It runs update windows for --seconds, in epochs of kWindowsPerEpoch
// windows.  Each epoch is a forked child process that sets the warehouse up
// (timed: setup_s is the median over the run's epochs) and starts a fresh
// change stream with the run's seed, so every epoch applies the same
// batches from the same starting state and every window of a run does the
// same work whatever the run length.  Every window and every read is
// checked against the independent oracle (oracle.h) outside the timed
// regions.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, taken from every other epoch with spans and the library's
// counter registry armed (the epochs between them measure the untraced
// window, for obs.trace_overhead_s), and writes a per-layer JSON and a
// Chrome trace under .bench_build/out.  Page images and spill files go to
// .bench_build/spill.  Both paths are relative to the working directory,
// the repository root.  --pool and --no-reader exist for the README's
// reference figures; the benchmark's own runs use the defaults.
//
// The last line of stdout is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/min_work.h"
#include "core/prune.h"
#include "core/work_metric.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"
#include "query/ad_hoc.h"
#include "stats.h"
#include "storage/page.h"
#include "storage/paged_store.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_generator.h"
#include "tpcd/tpcd_schema.h"
#include "tpcd/tpcd_views.h"

namespace perfbench {
namespace {

using wuw::Warehouse;

// ---------------------------------------------------------------------------
// Fixed workload parameters (README.md gives the reasons).

constexpr double kScaleFactor = 0.01;
/// Each batch deletes this share of every changing source table and inserts
/// as many fresh rows, so the base views keep their size.
constexpr double kChangeShare = 0.05;
/// Allowed batch size around 2 * kChangeShare * (changing source rows).
constexpr double kBatchBand = 0.15;
constexpr int kPoolThreads = 2;
constexpr int kWindowsPerEpoch = 2;
/// Rounds of the read mix run after each commit by the workloads without a
/// live reader.
constexpr int kReadRoundsPerCommit = 8;
constexpr double kTailPercentile = 90;
constexpr int64_t kTailMinBeyond = 10;
constexpr int64_t kCacheBudgetBytes = int64_t{16} << 20;
/// beyond_ram's extent budget is the resident footprint over this.
constexpr int64_t kPagingDivisor = 8;
constexpr const char* kSpillDir = ".bench_build/spill";
constexpr const char* kOutDir = ".bench_build/out";

struct Workload {
  const char* name;
  bool rollups;      // the 12-view two-level VDAG
  bool prune;        // Prune picks the strategy (else MinWork)
  bool live_reader;  // snapshot reads + one reader during each window
  bool cache;        // SubplanCache attached
  bool paged;        // paged tier + operator spills
};

constexpr Workload kWorkloads[] = {
    {"nightly_live", false, false, true, false, false},
    {"rollups_prune", true, true, false, true, false},
    {"beyond_ram", false, false, false, false, true},
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Process probes: rusage, /proc/self/io, /proc/self/status.

/// Bytes this process read from /proc itself, subtracted from rchar so the
/// storage counters show only the program's I/O.
int64_t g_proc_bytes_read = 0;

std::string ReadProcFile(const char* path) {
  std::string out;
  int fd = open(path, O_RDONLY);
  if (fd < 0) return out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<size_t>(n));
    g_proc_bytes_read += n;
  }
  close(fd);
  return out;
}

int64_t ProcField(const std::string& text, const std::string& key) {
  size_t pos = text.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + key.size(), nullptr, 10);
}

struct ProcSample {
  double cpu_s = 0;
  int64_t minor_faults = 0;
  int64_t ctx_switches = 0;
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
};

ProcSample SampleProc(bool with_io) {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  s.minor_faults = ru.ru_minflt;
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  if (with_io) {
    std::string io = ReadProcFile("/proc/self/io");
    s.read_bytes = ProcField(io, "rchar:") - g_proc_bytes_read;
    s.write_bytes = ProcField(io, "wchar:");
  }
  return s;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

int64_t ProcessThreads() {
  return ProcField(ReadProcFile("/proc/self/status"), "Threads:");
}

int64_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return CPU_COUNT(&set);
}

// ---------------------------------------------------------------------------
// Spans: recorded from this file around each call into a layer, kept in
// memory, written as a Chrome trace at exit.

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int tid = 1;
  int window = -1;
};

class Tracer {
 public:
  bool on = false;
  int window = -1;

  int Begin(const char* name) {
    if (!on) return -1;
    spans_.push_back({name, Now(), 0, stack_.empty() ? -1 : stack_.back(), 1,
                      window});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[id].end = Now();
    stack_.pop_back();
  }
  /// Adds finished spans recorded on another thread under `parent`.
  void Adopt(const std::vector<Span>& spans, int parent) {
    for (Span s : spans) {
      s.parent = parent;
      spans_.push_back(std::move(s));
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time per span name: duration minus the part its children cover.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.tid == spans[s.parent].tid) {
      child[s.parent] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += spans[i].end - spans[i].start - child[i];
  }
  return self;
}

// ---------------------------------------------------------------------------
// Results.

struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Ops {
  OpCount windows, reads, checks;
  std::vector<std::string> failures;  // first few, for stderr

  void Check(bool ok, const std::string& what) {
    checks.Record(ok);
    Note(ok, what);
  }
  void Note(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
  }
  void Merge(const Ops& other) {
    for (auto [mine, theirs] : {std::pair{&windows, &other.windows},
                                {&reads, &other.reads},
                                {&checks, &other.checks}}) {
      mine->attempted += theirs->attempted;
      mine->failed += theirs->failed;
    }
    for (const std::string& f : other.failures) Note(false, f);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Set-up.

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int pool = kPoolThreads;
  bool reader = true;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  auto fail = [](const std::string& msg) {
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--no-reader") {
      args.reader = false;
      continue;
    }
    if (i + 1 >= argc) fail("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) fail("unknown workload " + value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') fail("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) fail("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") fail("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--pool") {
      args.pool = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args.pool < 1 || args.pool > UsableCpus()) {
        fail("bad --pool " + value);
      }
    } else {
      fail("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr) fail("--workload is required");
  return args;
}

// ---------------------------------------------------------------------------
// Reads.

struct ReadSample {
  int query = 0;
  double start = 0;
  double seconds = 0;
  int64_t commit_seq = 0;
  std::string error;
  RowList rows;
};

ReadSample RunRead(const Warehouse& warehouse, int query) {
  ReadSample sample;
  sample.query = query;
  sample.start = Now();
  wuw::ReadSnapshot snapshot = warehouse.OpenSnapshot();
  wuw::QueryResult result = wuw::ExecuteQuery(snapshot, kReadMix[query].sql);
  sample.seconds = Now() - sample.start;
  sample.commit_seq = snapshot.commit_seq();
  sample.error = result.error;
  sample.rows = std::move(result.rows.rows);
  return sample;
}

/// The closed-loop reader of nightly_live: runs the read mix against pinned
/// snapshots until stopped.  Reader work is kept out of the library's
/// maintenance counters by obs::ServeScope, as the library's own read
/// sessions do.
class LiveReader {
 public:
  LiveReader(const Warehouse* warehouse, bool traced)
      : warehouse_(warehouse), traced_(traced), thread_([this] { Loop(); }) {}
  ~LiveReader() { Stop(); }
  LiveReader(const LiveReader&) = delete;
  LiveReader& operator=(const LiveReader&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<ReadSample>& samples() { return samples_; }
  std::vector<Span>& spans() { return spans_; }
  double cpu_seconds() const { return cpu_; }
  double wall_seconds() const { return wall_; }

 private:
  void Loop() {
    wuw::obs::ServeScope serve;
    double cpu0 = ThreadCpuSeconds(), wall0 = Now();
    for (int i = 0; !stop_.load(); ++i) {
      samples_.push_back(RunRead(*warehouse_, i % 3));
      const ReadSample& s = samples_.back();
      if (traced_) {
        spans_.push_back({"query.read", s.start, s.start + s.seconds, -1, 2,
                          -1});
      }
    }
    cpu_ = ThreadCpuSeconds() - cpu0;
    wall_ = Now() - wall0;
  }

  const Warehouse* warehouse_;
  bool traced_;
  std::atomic<bool> stop_{false};
  std::vector<ReadSample> samples_;
  std::vector<Span> spans_;
  double cpu_ = 0;
  double wall_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

// ---------------------------------------------------------------------------
// Per-window measurements.

struct WindowStats {
  bool traced = false;
  double refresh = 0, window = 0, estimate = 0, plan = 0;
  double batch = 0, batch_rows = 0;
  double comp = 0, inst = 0, other = 0;
  double steps = 0, linear_work = 0, estimated_work = 0;
  double orderings_examined = 0, orderings_infeasible = 0;
  double minor_faults = 0, ctx_switches = 0, cpu_per_wall = 0;
  double rows_scanned = 0, rows_produced = 0, hash_probes = 0,
         hash_build_rows = 0;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double faults = 0, evictions = 0, spilled_partitions = 0;
  double read_bytes = 0, write_bytes = 0;
  double parallel_regions = 0, inline_regions = 0, pool_tasks = 0;
  double reads_in_window = 0, rows_read = 0;
  // Library counter registry deltas (traced windows only).
  double vec_conversions = 0, vec_key_cmps = 0, row_value_cmps = 0;
  double cache_bytes_inserted = 0, nodes_executed = 0, rows_installed = 0;
  double cow_detaches = 0, publishes = 0;
};

std::map<std::string, int64_t> CounterSnapshot() {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] :
       wuw::obs::SnapshotMetrics(wuw::obs::kAllMetricsMask).counters) {
    out[name] = value;
  }
  return out;
}

std::map<std::string, int64_t> CounterDelta(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

double Get(const std::map<std::string, int64_t>& m, const char* name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : static_cast<double>(it->second);
}

// ---------------------------------------------------------------------------
// One epoch, run in a child process.

/// What one epoch's process reports to the parent.
struct EpochResult {
  double setup_s = 0;
  double generate_s = 0;
  double peak_rss_mb = 0;
  std::vector<WindowStats> windows;
  std::vector<double> reads;  // read latencies, s
  std::vector<Span> spans;
  Ops ops;
};

/// Byte encoding of an EpochResult for the pipe from child to parent (the
/// same binary on both ends).
class Wire {
 public:
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void Put(const std::string& v) {
    Put<uint64_t>(v.size());
    bytes_ += v;
  }
  template <typename T>
  void PutAll(const std::vector<T>& v) {
    Put<uint64_t>(v.size());
    for (const T& x : v) Put(x);
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

class WireReader {
 public:
  explicit WireReader(const std::string& bytes) : bytes_(bytes) {}
  bool ok() const { return ok_ && pos_ == bytes_.size(); }

  template <typename T>
  void Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Has(sizeof *v)) return;
    std::memcpy(v, bytes_.data() + pos_, sizeof *v);
    pos_ += sizeof *v;
  }
  void Get(std::string* v) {
    uint64_t n = 0;
    Get(&n);
    if (!Has(n)) return;
    v->assign(bytes_, pos_, n);
    pos_ += n;
  }
  template <typename T>
  void GetAll(std::vector<T>* v) {
    uint64_t n = 0;
    Get(&n);
    for (uint64_t i = 0; i < n && ok_; ++i) {
      v->emplace_back();
      Get(&v->back());
    }
  }

 private:
  bool Has(uint64_t n) {
    if (bytes_.size() - pos_ < n) ok_ = false;
    return ok_;
  }
  const std::string& bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void PutSpan(Wire* w, const Span& s) {
  w->Put(s.name);
  w->Put(s.start);
  w->Put(s.end);
  w->Put(s.parent);
  w->Put(s.tid);
  w->Put(s.window);
}

std::string Encode(const EpochResult& r) {
  Wire w;
  w.Put(r.setup_s);
  w.Put(r.generate_s);
  w.Put(r.peak_rss_mb);
  w.PutAll(r.windows);
  w.PutAll(r.reads);
  w.Put<uint64_t>(r.spans.size());
  for (const Span& s : r.spans) PutSpan(&w, s);
  w.Put(r.ops.windows);
  w.Put(r.ops.reads);
  w.Put(r.ops.checks);
  w.PutAll(r.ops.failures);
  return w.bytes();
}

bool Decode(const std::string& bytes, EpochResult* r) {
  WireReader in(bytes);
  in.Get(&r->setup_s);
  in.Get(&r->generate_s);
  in.Get(&r->peak_rss_mb);
  in.GetAll(&r->windows);
  in.GetAll(&r->reads);
  uint64_t spans = 0;
  in.Get(&spans);
  for (uint64_t i = 0; i < spans && i < bytes.size(); ++i) {
    Span s;
    in.Get(&s.name);
    in.Get(&s.start);
    in.Get(&s.end);
    in.Get(&s.parent);
    in.Get(&s.tid);
    in.Get(&s.window);
    r->spans.push_back(std::move(s));
  }
  in.Get(&r->ops.windows);
  in.Get(&r->ops.reads);
  in.Get(&r->ops.checks);
  in.GetAll(&r->ops.failures);
  return in.ok();
}

/// Sets the warehouse up, applies kWindowsPerEpoch batches and checks each
/// window and read.  Runs in its own process, so every epoch starts from
/// the same fresh heap: with repeated set-ups in one process every later
/// window got slower (it more than doubled over a minute of epochs).
class Epoch {
 public:
  Epoch(const Args& args, int epoch, bool traced)
      : args_(args), wl_(*args.workload), epoch_(epoch), traced_(traced),
        pool_(args.pool) {
    gen_.scale_factor = kScaleFactor;
    gen_.seed = args.seed;
    paged_options_.dir = std::filesystem::absolute(kSpillDir).string();
    tracer_.on = traced;
  }

  EpochResult Run();

 private:
  /// Generates the sources, loads the base views, materializes the derived
  /// views and arms the workload's tier, recording the set-up time.
  Warehouse Setup();
  /// Returns false when the window failed and the epoch cannot go on.
  bool RunWindow(int k, Warehouse* w, wuw::tpcd::SourceChangeStream* stream,
                 OracleAnswers* before);
  void CheckWindow(Warehouse& w, const wuw::tpcd::SourceChangeStream& stream,
                   const OracleAnswers& after);
  void CheckReads(const std::vector<ReadSample>& samples,
                  const OracleAnswers& before, int64_t before_seq,
                  const OracleAnswers& after, int64_t after_seq);

  const Args& args_;
  const Workload& wl_;
  int epoch_;
  bool traced_;
  wuw::ThreadPool pool_;
  wuw::tpcd::GeneratorOptions gen_;
  wuw::paged::PagedOptions paged_options_;
  wuw::SubplanCache cache_{wuw::SubplanCacheOptions{kCacheBudgetBytes}};
  Tracer tracer_;
  int64_t expected_batch_rows_ = 0;
  int64_t cpus_ = UsableCpus();
  EpochResult result_;
};

EpochResult Epoch::Run() {
  if (traced_) wuw::obs::ArmMetrics();
  {
    Warehouse w = Setup();
    for (const std::string& name : w.vdag().BaseViews()) {
      if (name == wuw::tpcd::kNation || name == wuw::tpcd::kRegion) continue;
      expected_batch_rows_ += std::llround(
          2 * kChangeShare * w.catalog().MustGetTable(name)->cardinality());
    }
    // A fresh stream with the run's seed: every epoch applies the same
    // batches.
    wuw::tpcd::SourceChangeStream stream(w, gen_);
    OracleAnswers before = ComputeOracle(stream.source());
    std::optional<wuw::paged::ScopedOperatorSpill> spill;
    if (wl_.paged) spill.emplace(paged_options_);
    for (int k = 0; k < kWindowsPerEpoch; ++k) {
      if (!RunWindow(k, &w, &stream, &before)) break;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  result_.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  result_.spans = tracer_.spans();
  return std::move(result_);
}

Warehouse Epoch::Setup() {
  double t0 = Now();
  int setup_span = tracer_.Begin("setup");
  std::vector<std::pair<std::string, wuw::Table>> sources;
  {
    ScopedSpan span(&tracer_, "tpcd.generate");
    for (const std::string& name : wuw::tpcd::AllTables()) {
      wuw::Table table(wuw::tpcd::SchemaFor(name));
      wuw::tpcd::FillTable(name, &table, gen_);
      sources.emplace_back(name, std::move(table));
    }
  }
  double generated = Now();
  Warehouse w(wl_.rollups ? wuw::tpcd::BuildExtendedTpcdVdag()
                          : wuw::tpcd::BuildTpcdVdag());
  {
    ScopedSpan span(&tracer_, "view.load");
    for (auto& [name, table] : sources) *w.base_table(name) = std::move(table);
  }
  {
    ScopedSpan span(&tracer_, "view.materialize");
    w.RecomputeDerived();
  }
  {
    ScopedSpan span(&tracer_, "setup.arm");
    if (wl_.live_reader) w.EnableSnapshotReads();
    if (wl_.paged) {
      int64_t footprint = 0;
      for (const std::string& name : w.catalog().table_names()) {
        footprint +=
            wuw::paged::ApproxTableBytes(*w.catalog().MustGetTable(name));
      }
      paged_options_.budget_bytes =
          std::max<int64_t>(1, footprint / kPagingDivisor);
      w.EnablePaging(paged_options_);
    }
  }
  tracer_.End(setup_span);
  double done = Now();
  result_.setup_s = done - t0;
  result_.generate_s = generated - t0;
  return w;
}

bool Epoch::RunWindow(int k, Warehouse* w,
                      wuw::tpcd::SourceChangeStream* stream,
                      OracleAnswers* before) {
  WindowStats ws;
  ws.traced = traced_;
  int window_index = epoch_ * kWindowsPerEpoch + k;
  tracer_.window = window_index;
  int window_span = tracer_.Begin("window");

  double t = Now();
  std::unordered_map<std::string, wuw::DeltaRelation> batch;
  {
    ScopedSpan span(&tracer_, "tpcd.batch");
    batch = stream->NextBatch(kChangeShare, kChangeShare);
  }
  ws.batch = Now() - t;
  int64_t batch_rows = 0;
  for (auto& [name, delta] : batch) {
    delta.ForEach([&](const wuw::Tuple&, int64_t c) {
      batch_rows += c < 0 ? -c : c;
    });
  }
  ws.batch_rows = static_cast<double>(batch_rows);
  Ops& ops = result_.ops;
  ops.Check(std::abs(batch_rows - expected_batch_rows_) <=
                kBatchBand * expected_batch_rows_,
            "batch of " + std::to_string(batch_rows) +
                " change rows outside the band around " +
                std::to_string(expected_batch_rows_));

  OracleAnswers after;
  {
    ScopedSpan span(&tracer_, "oracle.compute");
    after = ComputeOracle(stream->source());
  }
  int64_t before_seq = w->OpenSnapshot().commit_seq();

  // Without the live reader the read mix runs after each commit instead.
  bool reader_on = wl_.live_reader && args_.reader;
  std::unique_ptr<LiveReader> reader;
  if (reader_on) reader = std::make_unique<LiveReader>(w, traced_);
  int64_t threads = ProcessThreads();
  int64_t busy = args_.pool + (reader ? 1 : 0);
  ops.Check(threads <= cpus_ && busy <= cpus_,
            std::to_string(threads) + " threads on " + std::to_string(cpus_) +
                " cpus");

  std::map<std::string, int64_t> counters_before;
  if (traced_) counters_before = CounterSnapshot();
  wuw::paged::PagedStatsSnapshot paged_before = wuw::paged::GlobalPagedStats();
  ProcSample io_before = SampleProc(traced_);

  wuw::ExecutorOptions options;
  options.pool = &pool_;
  options.subplan_cache = wl_.cache ? &cache_ : nullptr;
  wuw::SubplanCacheStats cache_before = cache_.stats();
  wuw::ThreadPoolStats pool_before = pool_.stats();

  // The refresh: batch handed over -> sizes estimated -> strategy chosen ->
  // strategy executed and committed.
  for (auto& [name, delta] : batch) w->SetBaseDelta(name, std::move(delta));
  wuw::ExecutionReport report;
  wuw::Strategy strategy;
  wuw::SizeMap sizes;
  ProcSample proc_before, proc_after;
  bool ok = true;
  std::string error;
  double refresh_start = Now();
  int refresh_span = tracer_.Begin("refresh");
  try {
    {
      ScopedSpan span(&tracer_, "stats.estimate");
      sizes = w->EstimatedSizes();
    }
    double plan_start = Now();
    ws.estimate = plan_start - refresh_start;
    {
      ScopedSpan span(&tracer_, "core.plan");
      if (wl_.prune) {
        wuw::PruneResult pruned = wuw::Prune(w->vdag(), sizes);
        strategy = std::move(pruned.strategy);
        ws.orderings_examined = static_cast<double>(pruned.orderings_examined);
        ws.orderings_infeasible =
            static_cast<double>(pruned.orderings_infeasible);
      } else {
        strategy = wuw::MinWork(w->vdag(), sizes).strategy;
      }
    }
    double exec_start = Now();
    ws.plan = exec_start - plan_start;
    proc_before = SampleProc(false);
    {
      ScopedSpan span(&tracer_, "exec.window");
      report = wuw::Executor(w, options).Execute(strategy);
    }
    double exec_end = Now();
    proc_after = SampleProc(false);
    ws.window = exec_end - exec_start;
    ok = report.window_result == wuw::WindowResult::kCompleted;
    if (!ok) error = "window paused";
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }
  tracer_.End(refresh_span);
  ws.refresh = Now() - refresh_start;

  std::vector<ReadSample> samples;
  double reader_cpu_share = 0;
  if (reader) {
    reader->Stop();
    samples = std::move(reader->samples());
    if (reader->wall_seconds() > 0) {
      reader_cpu_share = reader->cpu_seconds() *
                         std::min(1.0, ws.window / reader->wall_seconds());
    }
    tracer_.Adopt(reader->spans(), window_span);
    reader.reset();
  }
  ops.windows.Record(ok);
  ops.Note(ok, "window " + std::to_string(window_index) + ": " + error);
  if (!ok) {
    tracer_.End(window_span);
    return false;
  }
  int64_t after_seq = w->OpenSnapshot().commit_seq();

  for (const ReadSample& s : samples) {
    if (s.start < refresh_start + ws.refresh) ++ws.reads_in_window;
  }
  if (!reader_on) {
    wuw::obs::ServeScope serve;
    for (int round = 0; round < kReadRoundsPerCommit; ++round) {
      for (int q = 0; q < 3; ++q) {
        ScopedSpan span(&tracer_, "query.read");
        samples.push_back(RunRead(*w, q));
      }
    }
  }

  // Layer counters over the window and its reads.
  ProcSample io_after = SampleProc(traced_);
  wuw::paged::PagedStatsSnapshot paged_after = wuw::paged::GlobalPagedStats();
  if (traced_) {
    std::map<std::string, int64_t> c =
        CounterDelta(counters_before, CounterSnapshot());
    ws.vec_conversions = Get(c, "engine.vec.conversions");
    ws.vec_key_cmps = Get(c, "engine.vec.key_cmps");
    ws.row_value_cmps = Get(c, "engine.row.value_cmps");
    ws.cache_bytes_inserted = Get(c, "cache.bytes_inserted");
    ws.nodes_executed = Get(c, "plan.nodes_executed");
    ws.rows_installed = Get(c, "exec.rows_installed");
    ws.cow_detaches = Get(c, "warehouse.cow_detaches");
    ws.publishes = Get(c, "serve.publishes");
  }
  ws.faults = static_cast<double>(paged_after.faults - paged_before.faults);
  ws.evictions =
      static_cast<double>(paged_after.evictions - paged_before.evictions);
  ws.spilled_partitions = static_cast<double>(
      paged_after.spilled_partitions - paged_before.spilled_partitions);
  ws.read_bytes =
      static_cast<double>(io_after.read_bytes - io_before.read_bytes);
  ws.write_bytes =
      static_cast<double>(io_after.write_bytes - io_before.write_bytes);
  ws.minor_faults =
      static_cast<double>(proc_after.minor_faults - proc_before.minor_faults);
  ws.ctx_switches =
      static_cast<double>(proc_after.ctx_switches - proc_before.ctx_switches);
  ws.cpu_per_wall = ws.window > 0 ? (proc_after.cpu_s - proc_before.cpu_s -
                                     reader_cpu_share) / ws.window
                                  : 0;
  for (const wuw::ExpressionReport& e : report.per_expression) {
    (e.expression.is_comp() ? ws.comp : ws.inst) += e.seconds;
  }
  ws.other = ws.window - ws.comp - ws.inst;
  ws.steps = static_cast<double>(report.steps_completed);
  ws.linear_work = static_cast<double>(report.total_linear_work);
  ws.estimated_work =
      wuw::EstimateStrategyWork(w->vdag(), strategy, sizes, wuw::WorkParams{})
          .total;
  ws.rows_scanned = static_cast<double>(report.totals.rows_scanned);
  ws.rows_produced = static_cast<double>(report.totals.rows_produced);
  ws.hash_probes = static_cast<double>(report.totals.hash_probes);
  ws.hash_build_rows = static_cast<double>(report.totals.hash_build_rows);
  wuw::SubplanCacheStats cache_after = cache_.stats();
  ws.cache_hits = static_cast<double>(cache_after.hits - cache_before.hits);
  ws.cache_misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  ws.cache_evictions =
      static_cast<double>(cache_after.evictions - cache_before.evictions);
  wuw::ThreadPoolStats pool_after = pool_.stats();
  ws.parallel_regions = static_cast<double>(pool_after.parallel_regions -
                                            pool_before.parallel_regions);
  ws.inline_regions = static_cast<double>(pool_after.inline_regions -
                                          pool_before.inline_regions);
  ws.pool_tasks =
      static_cast<double>(pool_after.pool_tasks - pool_before.pool_tasks);

  {
    ScopedSpan span(&tracer_, "oracle.check");
    CheckReads(samples, *before, before_seq, after, after_seq);
    CheckWindow(*w, *stream, after);
  }
  if (traced_) {
    // The traced run's accounting must add up.
    double tolerance = std::max(5e-4, 0.01 * ws.refresh);
    ops.Check(std::abs(ws.refresh - (ws.estimate + ws.plan + ws.window)) <=
                  tolerance,
              "estimate + plan + window != refresh");
    ops.Check(ws.other >= -1e-6, "Comp + Inst time exceeds the window");
  }
  for (const ReadSample& s : samples) {
    result_.reads.push_back(s.seconds);
    for (const auto& [t, m] : s.rows) ws.rows_read += static_cast<double>(m);
  }
  std::fprintf(stderr,
               "window %d%s: refresh %.4f s, window %.4f s, %zu reads\n",
               window_index, traced_ ? " (traced)" : "", ws.refresh,
               ws.window, samples.size());
  result_.windows.push_back(ws);
  *before = std::move(after);
  tracer_.End(window_span);
  return true;
}

void Epoch::CheckReads(const std::vector<ReadSample>& samples,
                       const OracleAnswers& before, int64_t before_seq,
                       const OracleAnswers& after, int64_t after_seq) {
  int64_t last_seq = before_seq;
  for (const ReadSample& s : samples) {
    std::string why = s.error;
    if (why.empty() && s.commit_seq < last_seq) why = "snapshot went back";
    if (why.empty()) {
      const OracleAnswers* expected = s.commit_seq == after_seq ? &after
                                      : s.commit_seq == before_seq ? &before
                                                                   : nullptr;
      why = expected == nullptr
                ? "pinned commit " + std::to_string(s.commit_seq) +
                      " is neither before nor after the window"
                : CompareAggregate(s.rows,
                                   expected->*kReadMix[s.query].answer);
    }
    last_seq = s.commit_seq;
    result_.ops.reads.Record(why.empty());
    result_.ops.Note(why.empty(), std::string("read ") +
                                      kReadMix[s.query].name + ": " + why);
  }
}

void Epoch::CheckWindow(Warehouse& w,
                        const wuw::tpcd::SourceChangeStream& stream,
                        const OracleAnswers& after) {
  Ops& ops = result_.ops;
  const wuw::Catalog& catalog = w.catalog();
  for (const std::string& view : w.vdag().DerivedViewsBottomUp()) {
    const Answer* expected = AnswerFor(after, view);
    std::string why = expected == nullptr
                          ? "no oracle answer"
                          : CompareAggregate(
                                catalog.MustGetTable(view)->dense_rows(),
                                *expected);
    ops.Check(why.empty(), view + ": " + why);
  }
  for (const std::string& base : w.vdag().BaseViews()) {
    std::string why = CompareBase(*catalog.MustGetTable(base),
                                  *stream.source().MustGetTable(base));
    ops.Check(why.empty(), base + ": " + why);
  }
  if (wl_.rollups) {
    // A rollup's totals equal its source summary's totals, read from the
    // warehouse's own extents.
    auto totals = [&](const char* view) {
      Agg agg;
      for (const auto& [t, m] : catalog.MustGetTable(view)->dense_rows()) {
        agg.sum += static_cast<__int128>(t.value(t.size() - 2).AsInt64()) * m;
        agg.count += m;
      }
      return agg;
    };
    Agg q3 = totals("Q3"), q3p = totals("Q3_BY_PRIORITY");
    Agg q10 = totals("Q10"), q10n = totals("Q10_BY_NATION");
    ops.Check(q3.sum == q3p.sum, "Q3_BY_PRIORITY total != Q3 total");
    ops.Check(q10.sum == q10n.sum, "Q10_BY_NATION total != Q10 total");
    int64_t q3p_rows = 0;
    for (const auto& [t, m] :
         catalog.MustGetTable("Q3_BY_PRIORITY")->dense_rows()) {
      q3p_rows += t.value(t.size() - 1).AsInt64() * m;
    }
    ops.Check(q3p_rows == q3.count, "Q3_BY_PRIORITY counts != Q3 groups");
  }
}

/// Runs one epoch in a forked child and collects its result.  Returns
/// false (and records a failed window) when the child did not report.
bool RunEpochProcess(const Args& args, int epoch, bool traced,
                     EpochResult* result) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      std::string bytes = Encode(Epoch(args, epoch, traced).Run());
      for (size_t off = 0; off < bytes.size();) {
        ssize_t n = write(fds[1], bytes.data() + off, bytes.size() - off);
        if (n <= 0) {
          code = 3;
          break;
        }
        off += static_cast<size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: epoch %d: %s\n", epoch, e.what());
      code = 3;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         Decode(bytes, result);
}

// ---------------------------------------------------------------------------
// The run: epochs until --seconds have passed, then the metrics.

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args), wl_(*args.workload) {}
  int Run();

 private:
  std::vector<Metric> EndToEnd();
  std::vector<Metric> PerLayer();
  void WriteTraceFiles(const std::vector<Metric>& layers);

  Args args_;
  const Workload& wl_;
  Ops ops_;
  std::vector<double> setup_s_, generate_s_, rss_mb_;
  std::vector<WindowStats> windows_;
  std::vector<double> read_s_, traced_read_s_;
  std::vector<Span> spans_;
};

int Bench::Run() {
  std::error_code ec;
  std::filesystem::create_directories(kSpillDir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", kSpillDir,
                 ec.message().c_str());
    return 2;
  }

  double start = Now();
  for (int epoch = 0; epoch == 0 || Now() - start < args_.seconds; ++epoch) {
    // Traced runs alternate traced and untraced epochs; the untraced ones
    // give the baseline for obs.trace_overhead_s.
    bool traced = args_.trace && epoch % 2 == 0;
    EpochResult r;
    if (!RunEpochProcess(args_, epoch, traced, &r)) {
      ops_.windows.Record(false);
      ops_.Note(false, "epoch " + std::to_string(epoch) + " did not report");
      break;
    }
    setup_s_.push_back(r.setup_s);
    generate_s_.push_back(r.generate_s);
    rss_mb_.push_back(r.peak_rss_mb);
    windows_.insert(windows_.end(), r.windows.begin(), r.windows.end());
    std::vector<double>& reads = traced ? traced_read_s_ : read_s_;
    reads.insert(reads.end(), r.reads.begin(), r.reads.end());
    int offset = static_cast<int>(spans_.size());
    for (Span& s : r.spans) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(std::move(s));
    }
    ops_.Merge(r.ops);
  }

  // Self-checks of the run's own statistics.
  std::vector<double> tail_sample = read_s_;
  tail_sample.insert(tail_sample.end(), traced_read_s_.begin(),
                     traced_read_s_.end());
  double median = Median(tail_sample);
  double tail = Percentile(tail_sample, kTailPercentile);
  ops_.Check(tail >= median, "read tail below its median");
  ops_.Check(CountAbove(tail_sample, tail) >= kTailMinBeyond,
             "fewer than " + std::to_string(kTailMinBeyond) +
                 " reads beyond the tail percentile");
  bool spill_empty = std::filesystem::is_empty(kSpillDir, ec) && !ec;
  ops_.Check(spill_empty, "spill directory not empty at exit");
  if (spill_empty) std::filesystem::remove(kSpillDir, ec);

  std::vector<Metric> metrics = args_.trace ? PerLayer() : EndToEnd();
  if (args_.trace) WriteTraceFiles(metrics);

  int64_t attempted = ops_.windows.attempted + ops_.reads.attempted +
                      ops_.checks.attempted;
  int64_t failed =
      ops_.windows.failed + ops_.reads.failed + ops_.checks.failed;
  for (const std::string& f : ops_.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::fprintf(stderr, "perfbench: %s seed=%llu windows=%zu\n", wl_.name,
               static_cast<unsigned long long>(args_.seed), windows_.size());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf(
      "ops {\"windows\": [%lld, %lld], \"reads\": [%lld, %lld], "
      "\"checks\": [%lld, %lld]}\n",
      static_cast<long long>(ops_.windows.attempted),
      static_cast<long long>(ops_.windows.failed),
      static_cast<long long>(ops_.reads.attempted),
      static_cast<long long>(ops_.reads.failed),
      static_cast<long long>(ops_.checks.attempted),
      static_cast<long long>(ops_.checks.failed));
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

std::vector<Metric> Bench::EndToEnd() {
  std::vector<double> refresh, window;
  for (const WindowStats& ws : windows_) {
    refresh.push_back(ws.refresh);
    window.push_back(ws.window);
  }
  return {
      {"setup_s", Median(setup_s_), "s"},
      {"refresh_s", Median(refresh), "s"},
      {"window_s", Median(window), "s"},
      {"read_s", Median(read_s_), "s"},
      {"read_tail_s", Percentile(read_s_, kTailPercentile), "s"},
      {"peak_rss_mb", Median(rss_mb_), "MiB"},
  };
}

std::vector<Metric> Bench::PerLayer() {
  std::vector<const WindowStats*> traced, untraced;
  for (const WindowStats& ws : windows_) {
    (ws.traced ? traced : untraced).push_back(&ws);
  }
  auto median = [&](auto field) {
    std::vector<double> v;
    for (const WindowStats* ws : traced) v.push_back(field(*ws));
    return Median(v);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  double hits = 0, misses = 0;
  for (const WindowStats* ws : traced) {
    hits += ws->cache_hits;
    misses += ws->cache_misses;
  }
  std::vector<double> untraced_window;
  for (const WindowStats* ws : untraced) untraced_window.push_back(ws->window);
  double traced_window = median([](const WindowStats& ws) { return ws.window; });
  double overhead = untraced_window.empty()
                        ? 0
                        : traced_window - Median(untraced_window);
  // Tracing may cost at most a quarter of the untraced window.
  ops_.Check(untraced_window.empty() ||
                 overhead <= 0.25 * Median(untraced_window),
             "trace overhead above a quarter of the window");
  double traced_reads = static_cast<double>(traced_read_s_.size());

#define WS(field) median([](const WindowStats& ws) { return ws.field; })
  return {
      {"tpcd.generate_s", Median(generate_s_), "s"},
      {"tpcd.batch_s", WS(batch), "s"},
      {"tpcd.batch_rows", WS(batch_rows), "count"},
      {"stats.estimate_s", WS(estimate), "s"},
      {"core.plan_s", WS(plan), "s"},
      {"core.orderings_examined", WS(orderings_examined), "count"},
      {"core.orderings_infeasible", WS(orderings_infeasible), "count"},
      {"core.estimated_work", WS(estimated_work), "count"},
      {"core.work_ratio",
       median([&](const WindowStats& ws) {
         return ratio(ws.linear_work, ws.estimated_work);
       }),
       "ratio"},
      {"exec.comp_s", WS(comp), "s"},
      {"exec.inst_s", WS(inst), "s"},
      {"exec.other_s", WS(other), "s"},
      {"exec.steps", WS(steps), "count"},
      {"exec.linear_work", WS(linear_work), "count"},
      {"exec.minor_faults", WS(minor_faults), "count"},
      {"algebra.rows_scanned", WS(rows_scanned), "count"},
      {"algebra.rows_produced", WS(rows_produced), "count"},
      {"algebra.hash_probes", WS(hash_probes), "count"},
      {"algebra.hash_build_rows", WS(hash_build_rows), "count"},
      {"algebra.vec_conversions", WS(vec_conversions), "count"},
      {"algebra.vec_key_cmps", WS(vec_key_cmps), "count"},
      {"algebra.row_value_cmps", WS(row_value_cmps), "count"},
      {"algebra.rows_per_s",
       median([&](const WindowStats& ws) {
         return ratio(ws.rows_scanned, ws.comp);
       }),
       "1/s"},
      {"plan.cache_hits", WS(cache_hits), "count"},
      {"plan.cache_misses", WS(cache_misses), "count"},
      {"plan.cache_evictions", WS(cache_evictions), "count"},
      {"plan.cache_bytes_inserted", WS(cache_bytes_inserted), "B"},
      {"plan.nodes_executed", WS(nodes_executed), "count"},
      {"plan.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"delta.rows_installed", WS(rows_installed), "count"},
      {"delta.rows_per_s",
       median([&](const WindowStats& ws) {
         return ratio(ws.rows_installed, ws.inst);
       }),
       "1/s"},
      {"storage.faults", WS(faults), "count"},
      {"storage.evictions", WS(evictions), "count"},
      {"storage.spilled_partitions", WS(spilled_partitions), "count"},
      {"storage.read_bytes", WS(read_bytes), "B"},
      {"storage.write_bytes", WS(write_bytes), "B"},
      {"storage.cow_detaches", WS(cow_detaches), "count"},
      {"storage.publishes", WS(publishes), "count"},
      {"query.reads", traced_reads, "count"},
      {"query.reads_in_window", WS(reads_in_window), "count"},
      {"query.rows_read", WS(rows_read), "count"},
      {"parallel.cpu_per_wall", WS(cpu_per_wall), "ratio"},
      {"parallel.parallel_regions", WS(parallel_regions), "count"},
      {"parallel.inline_regions", WS(inline_regions), "count"},
      {"parallel.fanned_out_tasks", WS(pool_tasks), "count"},
      {"parallel.ctx_switches", WS(ctx_switches), "count"},
      {"obs.trace_overhead_s", overhead, "s"},
  };
#undef WS
}

void Bench::WriteTraceFiles(const std::vector<Metric>& layers) {
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  std::string stem = std::string(kOutDir) + "/" + wl_.name + "-seed" +
                     std::to_string(args_.seed);
  const std::vector<Span>& spans = spans_;
  double origin = spans.empty() ? 0 : spans.front().start;
  {
    std::ofstream out(stem + "-trace.json");
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
          << ", \"ts\": " << FormatNumber((s.start - origin) * 1e6)
          << ", \"dur\": " << FormatNumber((s.end - s.start) * 1e6)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"window\": " << s.window << "}}";
    }
    out << "\n]}\n";
  }
  {
    std::ofstream out(stem + "-layers.json");
    out << "{\"workload\": \"" << wl_.name << "\", \"seed\": " << args_.seed
        << ",\n \"metrics\": " << MetricsJson(layers)
        << ",\n \"self_s\": {";
    bool first = true;
    for (const auto& [name, seconds] : SelfTimes(spans)) {
      out << (first ? "" : ", ") << "\"" << name
          << "\": " << FormatNumber(seconds);
      first = false;
    }
    out << "}}\n";
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  perfbench::Bench bench(args);
  return bench.Run();
}
