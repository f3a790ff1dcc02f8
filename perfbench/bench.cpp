// The repository benchmark: one workload per process, driven through the
// library's public entry points, with every output checked.
//
//   wcs_perfbench --workload <sim-U|proxy-BR|topo-U-faults|ingest-BL>
//                 [--seed N] [--seconds S] [--trace 0|1] [--scale F]
//
// A run sets up its inputs several times (the median is setup_s), warms up
// untimed, then repeats timed passes for --seconds and reports throughput
// over all of them and latency percentiles averaged over passes. With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger, taken from traced passes
// interleaved with untraced ones. Spans are timed from outside each layer
// (around calls into its public functions), kept in memory and written to
// .bench_out/ when the run ends. README.md in this directory lists the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/keys.h"
#include "src/core/policy.h"
#include "src/core/sharded_cache.h"
#include "src/proxy/faults.h"
#include "src/proxy/sharded_proxy.h"
#include "src/proxy/topology.h"
#include "src/sim/chaos.h"
#include "src/sim/experiments.h"
#include "src/sim/loadgen.h"
#include "src/sim/runner.h"
#include "src/sim/simulator.h"
#include "src/sim/zoo_study.h"
#include "src/trace/clf.h"
#include "src/trace/log_source.h"
#include "src/trace/validate.h"
#include "src/util/memory.h"
#include "src/workload/generator.h"
#include "src/workload/spec.h"
#include "src/zoo/registry.h"

using namespace wcs;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) / 1e9; }

// ---- statistics -----------------------------------------------------------

/// Linear-interpolation quantile (the "type 7" rule); 0 for no samples.
template <typename T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(lo), values.end());
  const double lo_value = static_cast<double>(values[lo]);
  if (lo + 1 >= values.size()) return lo_value;
  const double hi_value = static_cast<double>(
      *std::min_element(values.begin() + static_cast<std::ptrdiff_t>(lo) + 1, values.end()));
  return lo_value + (pos - static_cast<double>(lo)) * (hi_value - lo_value);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// FNV-1a over result counters: the run's output digest, which must be
/// identical across passes, set-ups and thread counts.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

// ---- options --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 15.0;
  bool trace = false;
  double scale = 1.0;
  unsigned threads = 1;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

/// Workload seed: the paper preset's own seed unless --seed is given.
WorkloadSpec seeded(WorkloadSpec spec, const Options& options) {
  if (options.seed_given) spec.seed = options.seed;
  return options.scale == 1.0 ? spec : spec.scaled(options.scale);
}

/// Fault-plan seed: FaultSpec's default unless --seed is given.
std::uint64_t fault_seed(const Options& options) {
  return options.seed_given ? options.seed * 0x9e3779b97f4a7c15ULL + 0x5eed0f57ULL
                            : FaultSpec{}.seed;
}

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports: metrics in emission order plus the output
/// checks. A violated check counts its operations as failed.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  /// Count `wrong` failed operations (none when ok) under `what`.
  void check(bool ok, const std::string& what, std::uint64_t wrong = 1) {
    if (ok) return;
    failed += wrong;
    if (violations.size() < 20) violations.push_back(what);
  }
  /// A per-layer value; its unit comes from layer_catalog().
  void layer(std::string name, double value) { layers.push_back({std::move(name), value, ""}); }
};

/// One timed pass: operations completed, their service times and the
/// digest of what they produced.
struct Pass {
  double seconds = 0.0;
  std::uint64_t operations = 0;
  std::uint64_t requests = 0;  // client requests (simulated requests for sim-U)
  std::uint64_t wrong = 0;     // operations answered wrongly
  std::vector<float> service_ns;
  std::uint64_t digest = 0;
  bool traced = false;
  std::size_t input = 0;  // which of the workload's inputs the pass ran over
};

// ---- spans ----------------------------------------------------------------

/// A benchmark-side span: one call into a layer, timed from outside it.
/// Spans of one request share `request`; `parent` indexes the caller's span
/// in the same lane (-1 at the top).
struct Span {
  std::string name;
  std::uint64_t request = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
};

/// Deterministic request sampling by URL id (about 1 URL in 32).
bool sampled(UrlId url) { return ((static_cast<std::uint64_t>(url) * 0x9e3779b97f4a7c15ULL) >> 59) == 0; }

/// Self time of each span named `name`: its duration minus the part its
/// direct children cover.
std::vector<double> self_times(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child[static_cast<std::size_t>(span.parent)] += static_cast<double>(span.duration_ns);
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) {
      out.push_back(static_cast<double>(spans[i].duration_ns) - child[i]);
    }
  }
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) out.push_back(static_cast<double>(span.duration_ns));
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::filesystem::create_directories(std::filesystem::path{path}.parent_path());
  std::ofstream out{path};
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"duration_ns\":" << s.duration_ns << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// ---- core layer probe: a forwarding RemovalPolicy -------------------------

/// Call counts and sampled call times of one policy instance, on its own
/// cache lines: instances on different shards run on different threads.
struct alignas(64) PolicyTally {
  std::uint64_t victim_calls = 0;
  std::uint64_t victims = 0;
  std::uint64_t update_calls = 0;
  std::uint64_t timed_victim_calls = 0;
  std::uint64_t timed_update_calls = 0;
  std::int64_t victim_ns = 0;
  std::int64_t update_ns = 0;

  void absorb(const PolicyTally& other) {
    victim_calls += other.victim_calls;
    victims += other.victims;
    update_calls += other.update_calls;
    timed_victim_calls += other.timed_victim_calls;
    timed_update_calls += other.timed_update_calls;
    victim_ns += other.victim_ns;
    update_ns += other.update_ns;
  }
};

/// Owns one tally per policy instance, so shards on different threads never
/// share one; summed after the run's threads have joined.
class TallyBook {
 public:
  PolicyTally* add() {
    const std::lock_guard<std::mutex> lock{mutex_};
    return &tallies_.emplace_back();
  }
  [[nodiscard]] PolicyTally total() {
    const std::lock_guard<std::mutex> lock{mutex_};
    PolicyTally sum;
    for (const PolicyTally& tally : tallies_) sum.absorb(tally);
    return sum;
  }
  void clear() {
    const std::lock_guard<std::mutex> lock{mutex_};
    tallies_.clear();
  }

 private:
  std::mutex mutex_;
  std::deque<PolicyTally> tallies_;  // deque: pointers stay valid
};

/// Forwards every call to `inner`, timing one call in eight of each kind.
class TimedPolicy final : public RemovalPolicy {
 public:
  TimedPolicy(std::unique_ptr<RemovalPolicy> inner, PolicyTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  void attach(std::uint64_t capacity_bytes) override { inner_->attach(capacity_bytes); }
  void on_insert(const CacheEntry& entry) override {
    update([&] { inner_->on_insert(entry); });
  }
  void on_hit(const CacheEntry& entry) override {
    update([&] { inner_->on_hit(entry); });
  }
  void on_remove(const CacheEntry& entry) override {
    update([&] { inner_->on_remove(entry); });
  }
  [[nodiscard]] std::optional<UrlId> choose_victim(const EvictionContext& ctx) override {
    std::optional<UrlId> victim;
    if ((tally_->victim_calls++ & 7U) == 0) {
      const std::int64_t start = now_ns();
      victim = inner_->choose_victim(ctx);
      tally_->victim_ns += now_ns() - start;
      ++tally_->timed_victim_calls;
    } else {
      victim = inner_->choose_victim(ctx);
    }
    if (victim) ++tally_->victims;
    return victim;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::optional<RankTuple> rank_of(UrlId url) const override {
    return inner_->rank_of(url);
  }
  void audit_index(const EntryMap& entries, AuditReport& report) const override {
    inner_->audit_index(entries, report);
  }

 private:
  template <typename Fn>
  void update(Fn&& fn) {
    if ((tally_->update_calls++ & 7U) == 0) {
      const std::int64_t start = now_ns();
      fn();
      tally_->update_ns += now_ns() - start;
      ++tally_->timed_update_calls;
    } else {
      fn();
    }
  }

  std::unique_ptr<RemovalPolicy> inner_;
  PolicyTally* tally_;
};

TallyBook& tally_book() {
  static TallyBook book;
  return book;
}

/// SIZE wrapped in a TimedPolicy; resolvable by name for proxy tiers.
constexpr const char* kTimedSize = "perfbench-timed-size";

std::unique_ptr<RemovalPolicy> make_timed_size(std::uint64_t seed = 1) {
  return std::make_unique<TimedPolicy>(make_size(seed), tally_book().add());
}

void report_core_tally(Report& report, const PolicyTally& tally, std::uint64_t requests) {
  report.layer("core.victim_ns", ratio(static_cast<double>(tally.victim_ns),
                                       static_cast<double>(tally.timed_victim_calls)));
  report.layer("core.update_ns", ratio(static_cast<double>(tally.update_ns),
                                       static_cast<double>(tally.timed_update_calls)));
  report.layer("core.evictions_per_req",
               ratio(static_cast<double>(tally.victims), static_cast<double>(requests)));
}

/// ns per request to drain a fresh source (the trace layer alone).
double drain_ns_per_request(const std::function<std::unique_ptr<RequestSource>()>& open) {
  std::unique_ptr<RequestSource> source = open();
  Request request;
  std::uint64_t count = 0;
  const std::int64_t start = now_ns();
  while (source->next(request)) ++count;
  return ratio(static_cast<double>(now_ns() - start), static_cast<double>(count));
}

// ---- the workload interface -----------------------------------------------

/// The warm-up result: `reference` ran at another thread or job count than
/// `measured`, and their results must not differ (DESIGN.md §13). Running
/// `measured` also leaves the measured configuration warm.
Pass agree(Pass reference, const Pass& measured) {
  reference.wrong += measured.wrong + (reference.digest != measured.digest ? 1 : 0);
  return reference;
}

/// One workload. setup() builds every input (timed, repeated); pass() is
/// one timed unit of work over those inputs; warm_up() runs untimed passes
/// that leave the measured configuration warm and cross-check the digest
/// at another thread count where the workload has one.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds every input and returns their digest, which must be identical
  /// on every repetition.
  virtual std::uint64_t setup(const Options& options) = 0;
  virtual Pass pass(bool traced) = 0;
  /// One result per input (Pass::input); every timed pass over an input
  /// must reproduce its digest.
  virtual std::vector<Pass> warm_up() = 0;
  /// Per-layer metrics from the traced passes (and one-off layer probes).
  virtual void layers(Report& report) = 0;

  /// Median time the set-ups spent generating the workload.
  [[nodiscard]] double generate_s() const { return median(generate_s_); }
  /// Spans of the last traced pass.
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 protected:
  /// Generates and validates a preset, timing the generation for the ledger.
  GeneratedWorkload generate(const WorkloadSpec& spec) {
    const std::int64_t start = now_ns();
    GeneratedWorkload generated = WorkloadGenerator{spec}.generate();
    generate_s_.push_back(seconds_since(start));
    return generated;
  }

  std::vector<double> generate_s_;
  std::vector<Span> spans_;
};

/// The trace layer of a materialized workload: drain cost, interned URLs
/// and the share of raw log records the validator kept.
void report_trace_layer(Report& report, const Trace& trace, const ValidationStats& validation) {
  report.layer("trace.next_ns",
               drain_ns_per_request([&trace] { return std::make_unique<TraceSource>(trace); }));
  report.layer("trace.urls_interned", trace.url_count());
  report.layer("trace.valid_ratio",
               ratio(static_cast<double>(validation.kept), static_cast<double>(validation.input)));
}

/// The resilience layer's counters summed over proxies (shards or tiers).
void report_resilience(Report& report, const std::vector<ProxyCache::Stats>& proxies) {
  ProxyCache::Stats sum;
  for (const ProxyCache::Stats& s : proxies) {
    sum.retries += s.retries;
    sum.stale_served += s.stale_served;
    sum.negative_hits += s.negative_hits;
    sum.breaker_opens += s.breaker_opens;
    sum.failed_requests += s.failed_requests;
  }
  report.layer("resilience.retries", static_cast<double>(sum.retries));
  report.layer("resilience.stale_served", static_cast<double>(sum.stale_served));
  report.layer("resilience.negative_hits", static_cast<double>(sum.negative_hits));
  report.layer("resilience.breaker_opens", static_cast<double>(sum.breaker_opens));
  report.layer("resilience.failed_requests", static_cast<double>(sum.failed_requests));
}

// Every per-layer metric the ledger knows, in emission order, with its
// unit. A workload fills the ones on its path; the rest read 0 there.
const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"workload.generate_s", "s"},
      {"trace.next_ns", "ns"},
      {"trace.urls_interned", "count"},
      {"trace.valid_ratio", "ratio"},
      {"core.ns_per_req", "ns"},
      {"core.victim_ns", "ns"},
      {"core.update_ns", "ns"},
      {"core.evictions_per_req", "ratio"},
      {"core.admission_rejects", "count"},
      {"sim.cell_s.p50", "s"},
      {"sim.cell_s.max", "s"},
      {"sim.cell_s.LRU-MIN", "s"},
      {"sim.cell_s.Pitkow-Recker", "s"},
      {"sim.cell_s.W-TinyLFU", "s"},
      {"sim.cell_s.adaptive", "s"},
      {"sim.busy_ratio", "ratio"},
      {"sim.queue_wait_s", "s"},
      {"proxy.hit_ns.p50", "ns"},
      {"proxy.self_ns.p50", "ns"},
      {"proxy.miss_ns.p99", "ns"},
      {"proxy.upstream_ns.p99", "ns"},
      {"proxy.upstream_calls_per_req", "ratio"},
      {"proxy.hit_bytes_per_req", "B"},
      {"loadgen.materialize_s", "s"},
      {"loadgen.worker_busy_s.max", "s"},
      {"loadgen.imbalance", "ratio"},
      {"loadgen.shard_skew", "ratio"},
      {"resilience.retries", "count"},
      {"resilience.stale_served", "count"},
      {"resilience.negative_hits", "count"},
      {"resilience.breaker_opens", "count"},
      {"resilience.failed_requests", "count"},
      {"topology.handle_ns.hit.p50", "ns"},
      {"topology.handle_ns.hit.p99", "ns"},
      {"topology.handle_ns.miss.p50", "ns"},
      {"topology.handle_ns.miss.p99", "ns"},
      {"topology.origin_ns.p50", "ns"},
      {"topology.link_failures", "count"},
      {"topology.sibling_failovers", "count"},
      {"topology.tier_skips", "count"},
      {"topology.origin_fetches", "count"},
      {"topology.edge.hit_ratio", "ratio"},
      {"topology.regional.hit_ratio", "ratio"},
      {"topology.parent.hit_ratio", "ratio"},
      {"bench.trace_overhead", "ratio"},
  };
  return catalog;
}

// ===========================================================================
// sim-U: the paper's Experiment 2 (key grid + literature) and the policy-zoo
// study on preset U at 10% of MaxNeeded, every cell on one ParallelRunner.

class SimWorkload final : public Workload {
 public:
  std::uint64_t setup(const Options& options) override {
    threads_ = options.threads;
    GeneratedWorkload generated = generate(seeded(WorkloadSpec::undergrad(), options));
    trace_ = std::move(generated.trace);
    validation_ = generated.validation;
    infinite_ = run_experiment1("U", trace_);
    specs_ = KeySpec::experiment2_grid();
    runner_ = std::make_unique<ParallelRunner>(threads_);
    runner_->set_span_recorder(&recorder_);
    Digest digest;
    digest.add(static_cast<std::uint64_t>(trace_.size()));
    digest.add(infinite_.max_needed);
    digest.add(infinite_.overall_hr);
    return digest.value();
  }

  Pass pass(bool traced) override {
    (void)traced;  // job spans are recorded on every pass: they time the cells
    return run(*runner_, recorder_, true);
  }

  std::vector<Pass> warm_up() override {
    Pass reference;
    {
      SpanRecorder spans;  // declared first: outlives the pool's workers
      ParallelRunner runner{std::min(2U, threads_)};
      runner.set_span_recorder(&spans);
      reference = run(runner, spans, false);
    }
    return {agree(std::move(reference), run(*runner_, recorder_, false))};
  }

  void layers(Report& report) override {
    report_trace_layer(report, trace_, validation_);
    report.layer("core.ns_per_req", median(cell_p50_) * 1e9 / static_cast<double>(trace_.size()));
    // The SIZE cell once more through the forwarding policy: the policy
    // index's share of a cell.
    tally_book().clear();
    const SimResult probe = simulate(trace_, capacity_, [] { return make_timed_size(); });
    report_core_tally(report, tally_book().total(), probe.stats.requests);
    report.layer("core.admission_rejects", static_cast<double>(admission_rejects_));
    report.layer("sim.cell_s.p50", median(cell_p50_));
    report.layer("sim.cell_s.max", median(cell_max_));
    for (const auto& [name, samples] : named_cells_) report.layer("sim.cell_s." + name, median(samples));
    report.layer("sim.busy_ratio", median(busy_ratio_));
    report.layer("sim.queue_wait_s", median(queue_wait_));
  }

 private:
  // Cell indices of the named cells, in runner submission order: the 36-key
  // grid, then the literature set (SIZE, LRU-MIN, LRU, FIFO, LFU, Hyper-G,
  // Pitkow/Recker, Pitkow/Recker+daily, RANDOM), then the zoo policies
  // (SIZE, LRU, GDS, GDSF, SLRU, W-TinyLFU, adaptive) and four admission legs.
  static constexpr std::size_t kGrid = 36;
  static constexpr std::size_t kLiterature = 9;
  static constexpr std::size_t kZooPolicies = 7;
  static constexpr std::size_t kCells = kGrid + kLiterature + kZooPolicies + 4;

  /// One pass on `runner`, whose job spans land in `spans`; `record` keeps
  /// its cell times for the ledger.
  Pass run(ParallelRunner& runner, SpanRecorder& spans, bool record) {
    const std::size_t first_span = spans.size();
    const auto phase = [&spans](const char* name, auto&& body) {
      const SpanRecorder::WallScope scope{&spans, name, 0};
      body();
    };
    Experiment2Result grid;
    Experiment2Result literature;
    ZooStudyResult zoo;
    const std::int64_t start = now_ns();
    phase("phase grid", [&] { grid = run_experiment2("U", trace_, infinite_, 0.10, specs_, runner); });
    phase("phase literature",
          [&] { literature = run_experiment2_literature("U", trace_, infinite_, 0.10, runner); });
    phase("phase zoo", [&] { zoo = run_policy_zoo_study("U", trace_, infinite_, 0.10, runner); });
    Pass pass;
    pass.seconds = seconds_since(start);
    capacity_ = grid.capacity_bytes;

    // A worker records its job's span just after the job's result is
    // handed over, so the last spans may trail the gather briefly (wait at
    // most about a second).
    const std::size_t expected = first_span + kCells + 3;
    for (int spin = 0; spin < 20000 && spans.size() < expected; ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds{50});
    }
    // Job spans of this pass, in submission order.
    std::vector<SpanRecord> jobs;
    std::vector<SpanRecord> phases;
    std::vector<SpanRecord> all = spans.snapshot();
    spans_.clear();
    for (std::size_t i = first_span; i < all.size(); ++i) {
      SpanRecord& record = all[i];
      spans_.push_back({record.name, 0, -1, record.start * 1000, record.duration * 1000});
      (record.name.rfind("job ", 0) == 0 ? jobs : phases).push_back(std::move(record));
    }
    std::sort(jobs.begin(), jobs.end(), [](const SpanRecord& a, const SpanRecord& b) {
      return std::stoull(a.name.substr(4)) < std::stoull(b.name.substr(4));
    });
    pass.operations = jobs.size();
    pass.requests = trace_.size() * jobs.size();
    for (const SpanRecord& job : jobs) pass.service_ns.push_back(static_cast<float>(job.duration) * 1e3F);

    // Output checks: every cell ran, and no finite cache beats the infinite
    // one (its hits are a subset of the infinite cache's).
    Digest digest;
    const double hr_cap = infinite_.overall_hr + 1e-12;
    const double whr_cap = infinite_.overall_whr + 1e-12;
    const auto check_outcome = [&](double hr, double whr) {
      digest.add(hr);
      digest.add(whr);
      if (!(hr >= 0.0 && hr <= hr_cap && whr >= 0.0 && whr <= whr_cap)) ++pass.wrong;
    };
    for (const PolicyOutcome& o : grid.outcomes) check_outcome(o.hr, o.whr);
    for (const PolicyOutcome& o : literature.outcomes) check_outcome(o.hr, o.whr);
    for (const ZooPolicyOutcome& o : zoo.outcomes) {
      check_outcome(o.hr, o.whr);
      digest.add(o.evictions);
    }
    admission_rejects_ = 0;
    for (const ZooAdmissionOutcome& o : zoo.admissions) {
      check_outcome(o.hr, o.whr);
      digest.add(o.admission_rejects);
      admission_rejects_ += o.admission_rejects;
      if (o.insertions + o.admission_rejects > trace_.size()) ++pass.wrong;
    }
    const std::size_t outcomes = grid.outcomes.size() + literature.outcomes.size() +
                                 zoo.outcomes.size() + zoo.admissions.size();
    if (jobs.size() != kCells || outcomes != kCells) pass.wrong += kCells;
    pass.digest = digest.value();

    if (record && jobs.size() == kCells) {
      std::vector<double> cells;
      double busy = 0.0;
      for (const SpanRecord& job : jobs) {
        cells.push_back(static_cast<double>(job.duration) / 1e6);
        busy += static_cast<double>(job.duration) / 1e6;
      }
      cell_p50_.push_back(median(cells));
      cell_max_.push_back(*std::max_element(cells.begin(), cells.end()));
      named_cells_[0].second.push_back(cells[kGrid + 1]);                 // LRU-MIN
      named_cells_[1].second.push_back(cells[kGrid + 6]);                 // Pitkow/Recker
      named_cells_[2].second.push_back(cells[kGrid + kLiterature + 5]);   // W-TinyLFU
      named_cells_[3].second.push_back(cells[kGrid + kLiterature + 6]);   // adaptive
      busy_ratio_.push_back(busy / (static_cast<double>(runner.jobs()) * pass.seconds));
      // Queue wait: from the moment a phase submitted its cells (its own
      // start, or for the zoo's admission legs the end of its policy
      // cells) until a worker picked the cell up.
      std::sort(phases.begin(), phases.end(),
                [](const SpanRecord& a, const SpanRecord& b) { return a.start < b.start; });
      double wait = 0.0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::int64_t submitted = phases[i < kGrid ? 0 : (i < kGrid + kLiterature ? 1 : 2)].start;
        if (i >= kGrid + kLiterature + kZooPolicies) {
          for (std::size_t j = kGrid + kLiterature; j < kGrid + kLiterature + kZooPolicies; ++j) {
            submitted = std::max(submitted, jobs[j].start + jobs[j].duration);
          }
        }
        wait += static_cast<double>(std::max<std::int64_t>(0, jobs[i].start - submitted)) / 1e6;
      }
      queue_wait_.push_back(wait / static_cast<double>(jobs.size()));
    }
    return pass;
  }

  unsigned threads_ = 1;
  Trace trace_;
  ValidationStats validation_;
  Experiment1Result infinite_;
  std::vector<KeySpec> specs_;
  SpanRecorder recorder_;  // declared before the pool, so it outlives the workers
  std::unique_ptr<ParallelRunner> runner_;
  std::uint64_t capacity_ = 0;
  std::uint64_t admission_rejects_ = 0;
  std::vector<double> cell_p50_, cell_max_, busy_ratio_, queue_wait_;
  std::vector<std::pair<std::string, std::vector<double>>> named_cells_ = {
      {"LRU-MIN", {}}, {"Pitkow-Recker", {}}, {"W-TinyLFU", {}}, {"adaptive", {}}};
};

// ===========================================================================
// proxy-BR: preset BR through an 8-shard ShardedProxy (SIZE, 10% of unique
// bytes) driven by run_load's closed loop.

/// The load generator's target: a ShardedProxy whose shards each own a
/// trace-driven origin. Times every client call, checks every answer, and
/// in traced passes records serve/upstream spans for sampled URLs.
class ProxyTarget final : public ShardedTarget {
 public:
  struct alignas(64) Lane {  // own cache lines: lanes run on different threads
    SynthOrigin origin;
    HttpRequest http;
    std::vector<float> service_ns;
    std::vector<Span> spans;
    std::int32_t open_span = -1;
    std::uint64_t served = 0;
    std::uint64_t upstream_calls = 0;
    std::uint64_t wrong = 0;
    std::int64_t busy_ns = 0;
    std::int64_t first_start_ns = 0;
  };

  ProxyTarget(ShardedProxy::Config config, const InternTable& names, bool traced,
              std::size_t expected_requests)
      : names_(&names), traced_(traced) {
    lanes_.reserve(config.shards);
    for (std::uint32_t i = 0; i < config.shards; ++i) {
      lanes_.push_back(std::make_unique<Lane>());
      lanes_.back()->service_ns.reserve(2 * expected_requests / config.shards + 64);
    }
    proxy_ = std::make_unique<ShardedProxy>(std::move(config), [this](std::uint32_t shard) -> UpstreamFn {
      Lane* lane = lanes_[shard].get();
      return [lane](const HttpRequest& request, SimTime now) {
        ++lane->upstream_calls;
        if (lane->open_span < 0) return lane->origin.handle(request, now);
        const std::int64_t start = now_ns();
        HttpResponse response = lane->origin.handle(request, now);
        lane->spans.push_back({"upstream", lane->spans[static_cast<std::size_t>(lane->open_span)].request,
                               lane->open_span, start, now_ns() - start});
        return response;
      };
    });
  }

  [[nodiscard]] std::uint32_t shard_count() const noexcept override { return proxy_->shard_count(); }
  [[nodiscard]] std::uint32_t shard_of(const Request& request) const noexcept override {
    return shard_of_url(request.url, proxy_->shard_count());
  }

  bool serve(std::uint32_t shard, const Request& request) override {
    Lane& lane = *lanes_[shard];
    lane.origin.set_next_size(request.size);
    lane.http.target.assign(names_->url_name(request.url));
    const std::uint64_t id = (static_cast<std::uint64_t>(shard) << 40) | lane.served++;
    if (traced_ && sampled(request.url)) {
      lane.open_span = static_cast<std::int32_t>(lane.spans.size());
      lane.spans.push_back({"serve", id, -1, 0, 0});
    }
    const std::int64_t start = now_ns();
    const HttpResponse response = proxy_->handle(shard, lane.http, request.time);
    const std::int64_t elapsed = now_ns() - start;
    lane.service_ns.push_back(static_cast<float>(elapsed));
    lane.busy_ns += elapsed;
    if (lane.first_start_ns == 0) lane.first_start_ns = start;
    const auto cache = response.headers.get("X-Cache");
    const bool hit = cache && *cache == "HIT";
    if (lane.open_span >= 0) {
      Span& span = lane.spans[static_cast<std::size_t>(lane.open_span)];
      span.name = hit ? "serve-hit" : "serve-miss";
      span.start_ns = start;
      span.duration_ns = elapsed;
      lane.open_span = -1;
    }
    // A correct answer: 200, a body as long as its Content-Length, and a
    // miss (fetched just now) exactly the size the trace asked for.
    const auto length = response.headers.content_length();
    const bool ok = response.status == 200 && length && *length == response.body.size() &&
                    (hit || response.headers.contains("Warning") || response.body.size() == request.size);
    if (!ok) ++lane.wrong;
    return hit;
  }

  [[nodiscard]] AuditReport audit() const override { return proxy_->audit(); }
  [[nodiscard]] const ShardedProxy& proxy() const noexcept { return *proxy_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Lane>>& lanes() const noexcept { return lanes_; }

 private:
  const InternTable* names_;
  bool traced_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<ShardedProxy> proxy_;  // built after lanes_ (upstreams point in)
};

/// Preset BR in kCorpora instances: the seed itself, then seeds derived
/// from it. Passes rotate over them. Throughput on one instance depends on
/// how its hottest URLs hash onto the shards (the closed loop waits for the
/// busiest worker), which differs from seed to seed by more than the
/// machine's noise; rotating averages that luck out of a run.
class ProxyWorkload final : public Workload {
 public:
  static constexpr std::uint32_t kShards = 8;
  static constexpr std::size_t kCorpora = 4;

  std::uint64_t setup(const Options& options) override {
    threads_ = options.threads;
    corpora_.clear();
    Digest digest;
    for (std::size_t i = 0; i < kCorpora; ++i) {
      WorkloadSpec spec = seeded(WorkloadSpec::backbone_remote(), options);
      if (i > 0) spec.seed = spec.seed * 0x9e3779b97f4a7c15ULL + i;
      GeneratedWorkload generated = generate(spec);
      Corpus& corpus = corpora_.emplace_back();
      corpus.trace = std::move(generated.trace);
      corpus.validation = generated.validation;
      corpus.capacity = corpus.trace.unique_bytes() / 10;
      corpus.infinite_hr = run_experiment1("BR", corpus.trace).overall_hr;
      digest.add(static_cast<std::uint64_t>(corpus.trace.size()));
      digest.add(corpus.capacity);
      digest.add(corpus.infinite_hr);
    }
    return digest.value();
  }

  Pass pass(bool traced) override {
    const std::size_t input = next_[traced ? 1 : 0];
    next_[traced ? 1 : 0] = (input + 1) % kCorpora;
    Pass pass = run(corpora_[input], threads_, traced);
    pass.input = input;
    return pass;
  }

  /// One pass per instance at the measured thread count; the first
  /// instance also at one worker, whose digest must match (the digest must
  /// not depend on threads).
  std::vector<Pass> warm_up() override {
    std::vector<Pass> references;
    references.push_back(agree(run(corpora_[0], 1, false), run(corpora_[0], threads_, false)));
    for (std::size_t i = 1; i < kCorpora; ++i) {
      references.push_back(run(corpora_[i], threads_, false));
      references.back().input = i;
    }
    return references;
  }

  void layers(Report& report) override {
    const Corpus& corpus = corpora_.front();
    report_trace_layer(report, corpus.trace, corpus.validation);
    // The bare cache under the same policy and capacity: the core layer's
    // share of a proxy request.
    const std::int64_t start = now_ns();
    const SimResult bare = simulate(corpus.trace, corpus.capacity, [] { return make_size(); });
    report.layer("core.ns_per_req",
                 ratio(static_cast<double>(now_ns() - start), static_cast<double>(bare.stats.requests)));
    report_core_tally(report, policy_tally_, requests_);
    report.layer("proxy.hit_ns.p50", median(hit_p50_));
    report.layer("proxy.self_ns.p50", median(self_p50_));
    report.layer("proxy.miss_ns.p99", median(miss_p99_));
    report.layer("proxy.upstream_ns.p99", median(upstream_p99_));
    report.layer("proxy.upstream_calls_per_req", upstream_per_req_);
    report.layer("proxy.hit_bytes_per_req", hit_bytes_per_req_);
    report.layer("loadgen.materialize_s", median(materialize_));
    report.layer("loadgen.worker_busy_s.max", median(busy_max_));
    report.layer("loadgen.imbalance", median(imbalance_));
    report.layer("loadgen.shard_skew", median(shard_skew_));
    report_resilience(report, {stats_});
  }

 private:
  struct Corpus {
    Trace trace;
    ValidationStats validation;
    std::uint64_t capacity = 0;
    double infinite_hr = 0.0;
  };

  Pass run(const Corpus& corpus, unsigned threads, bool traced) {
    const Trace& trace = corpus.trace;
    ShardedProxy::Config config;
    config.shards = kShards;
    config.proxy.capacity_bytes = corpus.capacity;
    config.proxy.policy = traced ? kTimedSize : "size";
    tally_book().clear();
    ProxyTarget target{config, trace.names(), traced, trace.size()};
    TraceSource source{trace};
    LoadGenConfig load;
    load.threads = threads;
    load.mode = ArrivalMode::kClosedLoop;
    const std::int64_t start = now_ns();
    const LoadGenResult result = run_load(target, source, load);
    Pass pass;
    pass.seconds = seconds_since(start);
    pass.operations = result.requests;
    pass.requests = result.requests;

    // Output checks: the end-of-run audit (per-shard cache audits and
    // hits + misses + failed == requests), the merged identities, and no
    // finite cache beating the infinite one.
    const AuditReport audit = target.audit();
    const ProxyCache::Stats stats = target.proxy().merged_stats();
    std::uint64_t wrong = 0;
    std::int64_t first_start = 0;
    std::vector<double> shard_requests;
    std::vector<double> worker_busy(threads, 0.0);
    std::vector<Span> spans;
    std::uint64_t upstream_calls = 0;
    for (std::size_t s = 0; s < target.lanes().size(); ++s) {
      const ProxyTarget::Lane& lane = *target.lanes()[s];
      wrong += lane.wrong;
      pass.service_ns.insert(pass.service_ns.end(), lane.service_ns.begin(), lane.service_ns.end());
      if (lane.first_start_ns != 0 && (first_start == 0 || lane.first_start_ns < first_start)) {
        first_start = lane.first_start_ns;
      }
      shard_requests.push_back(static_cast<double>(lane.served));
      worker_busy[s % threads] += static_cast<double>(lane.busy_ns) / 1e9;
      upstream_calls += lane.upstream_calls;
      // Re-base parent indices into the merged span list.
      const auto base = static_cast<std::int32_t>(spans.size());
      for (Span span : lane.spans) {
        if (span.parent >= 0) span.parent += base;
        spans.push_back(span);
      }
    }
    pass.wrong = wrong + (audit.ok() ? 0 : 1) + (stats.failed_requests != 0 ? 1 : 0) +
                 (stats.requests != trace.size() ? 1 : 0) + (result.requests != trace.size() ? 1 : 0) +
                 (stats.hits != result.hits ? 1 : 0) +
                 (stats.hits + stats.misses + stats.failed_requests != stats.requests ? 1 : 0) +
                 (result.hit_rate() > corpus.infinite_hr + 1e-12 ? 1 : 0);
    Digest digest;
    for (const std::uint64_t value :
         {stats.requests, stats.hits, stats.validations, stats.validated_fresh, stats.misses,
          stats.hit_bytes, stats.miss_bytes, stats.delta_updates, stats.failed_requests,
          result.hits, result.hit_bytes, result.requested_bytes}) {
      digest.add(value);
    }
    pass.digest = digest.value();

    if (traced) {
      std::vector<double> hit_ns = durations(spans, "serve-hit");
      std::vector<double> self_ns = self_times(spans, "serve-hit");
      const std::vector<double> miss_self = self_times(spans, "serve-miss");
      self_ns.insert(self_ns.end(), miss_self.begin(), miss_self.end());
      hit_p50_.push_back(quantile(hit_ns, 0.5));
      self_p50_.push_back(quantile(self_ns, 0.5));
      miss_p99_.push_back(quantile(durations(spans, "serve-miss"), 0.99));
      upstream_p99_.push_back(quantile(durations(spans, "upstream"), 0.99));
      materialize_.push_back(static_cast<double>(first_start - start) / 1e9);
      const double busy_max = *std::max_element(worker_busy.begin(), worker_busy.end());
      double busy_sum = 0.0;
      for (double busy : worker_busy) busy_sum += busy;
      busy_max_.push_back(busy_max);
      imbalance_.push_back(ratio(busy_max, busy_sum / static_cast<double>(threads)));
      double shard_sum = 0.0;
      for (double n : shard_requests) shard_sum += n;
      shard_skew_.push_back(ratio(*std::max_element(shard_requests.begin(), shard_requests.end()),
                                  shard_sum / static_cast<double>(shard_requests.size())));
      upstream_per_req_ = ratio(static_cast<double>(upstream_calls), static_cast<double>(stats.requests));
      hit_bytes_per_req_ = ratio(static_cast<double>(stats.hit_bytes), static_cast<double>(stats.requests));
      stats_ = stats;
      policy_tally_ = tally_book().total();
      requests_ = stats.requests;
      spans_ = std::move(spans);
    }
    return pass;
  }

  unsigned threads_ = 1;
  std::vector<Corpus> corpora_;
  /// Instance of the next untraced and the next traced pass: both kinds
  /// rotate over every instance, so tracing overhead compares like with like.
  std::array<std::size_t, 2> next_{};
  std::vector<double> hit_p50_, self_p50_, miss_p99_, upstream_p99_, materialize_, busy_max_, imbalance_,
      shard_skew_;
  double upstream_per_req_ = 0.0;
  double hit_bytes_per_req_ = 0.0;
  ProxyCache::Stats stats_;
  PolicyTally policy_tally_;
  std::uint64_t requests_ = 0;
};

// ===========================================================================
// topo-U-faults: preset U through a 3-tier CacheTopology (4 edge -> 2
// regional -> 1 parent), one client, faults on the regional downlink and
// the origin link.

class TopologyWorkload final : public Workload {
 public:
  std::uint64_t setup(const Options& options) override {
    GeneratedWorkload generated = generate(seeded(WorkloadSpec::undergrad(), options));
    trace_ = std::move(generated.trace);
    validation_ = generated.validation;
    const std::uint64_t unique = trace_.unique_bytes();
    // Stored bodies stay around a sixth of U's unique bytes in all: 5% per
    // tier, split across its siblings.
    const std::array<std::pair<const char*, std::uint32_t>, 3> tiers = {
        {{"edge", 4}, {"regional", 2}, {"parent", 1}}};
    shape_ = TopologyConfig{};
    for (const auto& [label, caches] : tiers) {
      TierConfig tier;
      tier.label = label;
      tier.caches = caches;
      tier.proxy.capacity_bytes = unique / 20 / caches;
      // Enough retries, and virtual time for them, that a fault-free
      // attempt always comes before the budget runs out.
      tier.proxy.resilience.retry.max_attempts = 6;
      tier.proxy.resilience.timeout_budget_ms = 20000;
      shape_.tiers.push_back(tier);
    }
    const std::uint64_t seed = fault_seed(options);
    shape_.tiers[1].downlink = FaultSpec::transient_mix(0.05, seed);
    // Transient faults only on the last hop: the origin has no fallback, so
    // a persistent outage there would fail clients outright, and every
    // workload here runs with no failed request.
    shape_.origin_link = FaultSpec::transient_mix(0.02, seed);
    shape_.origin_link.outage = 0.0;
    Digest digest;
    digest.add(static_cast<std::uint64_t>(trace_.size()));
    digest.add(unique);
    digest.add(seed);
    return digest.value();
  }

  Pass pass(bool traced) override { return run(traced); }
  std::vector<Pass> warm_up() override { return {run(false)}; }

  void layers(Report& report) override {
    report_trace_layer(report, trace_, validation_);
    // The bare cache at the edge tier's total capacity under the same policy.
    const std::int64_t start = now_ns();
    const SimResult bare =
        simulate(trace_, shape_.tiers[0].proxy.capacity_bytes * shape_.tiers[0].caches,
                 [] { return make_size(); });
    report.layer("core.ns_per_req",
                 ratio(static_cast<double>(now_ns() - start), static_cast<double>(bare.stats.requests)));
    report_core_tally(report, policy_tally_, requests_);
    report.layer("proxy.hit_ns.p50", median(hit_p50_));
    report.layer("proxy.self_ns.p50", median(self_p50_));
    report.layer("proxy.miss_ns.p99", median(miss_p99_));
    report.layer("proxy.upstream_ns.p99", median(origin_p99_));
    report.layer("proxy.upstream_calls_per_req", origin_per_req_);
    report.layer("proxy.hit_bytes_per_req", hit_bytes_per_req_);
    report_resilience(report, tier_stats_);
    report.layer("topology.handle_ns.hit.p50", median(hit_p50_));
    report.layer("topology.handle_ns.hit.p99", median(hit_p99_));
    report.layer("topology.handle_ns.miss.p50", median(miss_p50_));
    report.layer("topology.handle_ns.miss.p99", median(miss_p99_));
    report.layer("topology.origin_ns.p50", median(origin_p50_));
    report.layer("topology.link_failures", static_cast<double>(router_.link_failures));
    report.layer("topology.sibling_failovers", static_cast<double>(router_.sibling_failovers));
    report.layer("topology.tier_skips", static_cast<double>(router_.tier_skips));
    report.layer("topology.origin_fetches", static_cast<double>(router_.origin_fetches));
    for (std::size_t t = 0; t < tier_stats_.size(); ++t) {
      report.layer("topology." + shape_.tiers[t].label + ".hit_ratio",
                   ratio(static_cast<double>(tier_stats_[t].hits),
                         static_cast<double>(tier_stats_[t].requests)));
    }
  }

 private:
  Pass run(bool traced) {
    TopologyConfig config = shape_;
    for (TierConfig& tier : config.tiers) tier.proxy.policy = traced ? kTimedSize : "size";
    tally_book().clear();
    SynthOrigin origin;
    std::vector<Span> spans;
    std::int32_t open_span = -1;
    std::uint64_t origin_calls = 0;
    CacheTopology topology{config, [&](const HttpRequest& request, SimTime now) {
                             ++origin_calls;
                             if (open_span < 0) return origin.handle(request, now);
                             const std::int64_t start = now_ns();
                             HttpResponse response = origin.handle(request, now);
                             spans.push_back({"origin", spans[static_cast<std::size_t>(open_span)].request,
                                              open_span, start, now_ns() - start});
                             return response;
                           }};
    Pass pass;
    pass.service_ns.reserve(trace_.size());
    std::vector<double> hit_ns, miss_ns;
    std::uint64_t served = 0, failed = 0, wrong = 0, hits = 0, hit_bytes = 0;
    TraceSource source{trace_};
    Request request;
    HttpRequest http;
    const std::int64_t start = now_ns();
    while (source.next(request)) {
      origin.set_next_size(request.size);
      http.target.assign(trace_.url_name(request.url));
      if (traced && sampled(request.url)) {
        open_span = static_cast<std::int32_t>(spans.size());
        spans.push_back({"handle", served + failed, -1, 0, 0});
      }
      const std::int64_t begin = now_ns();
      const HttpResponse response = topology.handle(http, request.time);
      const std::int64_t elapsed = now_ns() - begin;
      pass.service_ns.push_back(static_cast<float>(elapsed));
      const auto cache = response.headers.get("X-Cache");
      const bool hit = cache && *cache == "HIT";
      if (open_span >= 0) {
        Span& span = spans[static_cast<std::size_t>(open_span)];
        span.name = hit ? "handle-hit" : "handle-miss";
        span.start_ns = begin;
        span.duration_ns = elapsed;
        open_span = -1;
      }
      if (traced) (hit ? hit_ns : miss_ns).push_back(static_cast<double>(elapsed));
      if (is_upstream_failure(response)) {
        ++failed;
        continue;
      }
      ++served;
      const auto length = response.headers.content_length();
      if (response.status != 200 || !length || *length != response.body.size()) ++wrong;
      if (hit) {
        ++hits;
        hit_bytes += response.body.size();
      }
    }
    pass.seconds = seconds_since(start);
    pass.operations = served + failed;
    pass.requests = served + failed;

    // Output checks: CacheTopology::audit (every tier cache's core audit
    // plus its GET accounting identity), the client identity, and no failed
    // client request.
    const AuditReport audit = topology.audit();
    tier_stats_.clear();
    for (std::size_t t = 0; t < topology.tier_count(); ++t) tier_stats_.push_back(topology.tier_stats(t));
    router_ = topology.router_stats();
    pass.wrong = wrong + failed + (audit.ok() ? 0 : 1) + (served + failed != trace_.size() ? 1 : 0);
    Digest digest;
    digest.add(served);
    digest.add(hits);
    digest.add(hit_bytes);
    digest.add(origin_calls);
    for (const ProxyCache::Stats& s : tier_stats_) {
      for (const std::uint64_t value : {s.requests, s.hits, s.misses, s.validations, s.retries,
                                        s.stale_served, s.negative_hits, s.breaker_opens,
                                        s.failed_requests, s.hit_bytes}) {
        digest.add(value);
      }
    }
    digest.add(router_.link_failures);
    digest.add(router_.sibling_failovers);
    digest.add(router_.tier_skips);
    digest.add(router_.origin_fetches);
    pass.digest = digest.value();

    if (traced) {
      hit_p50_.push_back(quantile(hit_ns, 0.5));
      hit_p99_.push_back(quantile(hit_ns, 0.99));
      miss_p50_.push_back(quantile(miss_ns, 0.5));
      miss_p99_.push_back(quantile(miss_ns, 0.99));
      std::vector<double> self_ns = self_times(spans, "handle-hit");
      const std::vector<double> miss_self = self_times(spans, "handle-miss");
      self_ns.insert(self_ns.end(), miss_self.begin(), miss_self.end());
      self_p50_.push_back(quantile(self_ns, 0.5));
      const std::vector<double> origin_ns = durations(spans, "origin");
      origin_p50_.push_back(quantile(origin_ns, 0.5));
      origin_p99_.push_back(quantile(origin_ns, 0.99));
      origin_per_req_ = ratio(static_cast<double>(origin_calls), static_cast<double>(served + failed));
      hit_bytes_per_req_ = ratio(static_cast<double>(hit_bytes), static_cast<double>(served + failed));
      policy_tally_ = tally_book().total();
      requests_ = served + failed;
      spans_ = std::move(spans);
    }
    return pass;
  }

  Trace trace_;
  ValidationStats validation_;
  TopologyConfig shape_;
  std::vector<ProxyCache::Stats> tier_stats_;
  CacheTopology::RouterStats router_;
  std::vector<double> hit_p50_, hit_p99_, miss_p50_, miss_p99_, self_p50_, origin_p50_, origin_p99_;
  double origin_per_req_ = 0.0;
  double hit_bytes_per_req_ = 0.0;
  PolicyTally policy_tally_;
  std::uint64_t requests_ = 0;
};

// ===========================================================================
// ingest-BL: preset BL at ten times its duration, written as a CLF log
// during set-up, then streamed through LogStreamSource into simulate()
// (SIZE, 10% of unique bytes).

/// Forwards a source, stamping the time between successive pulls: the
/// service time of one request (parse + validate + intern + simulate). With
/// a span list, sampled requests get a "request" span over that interval
/// whose child "next" covers the pull itself, so the request's self time is
/// the cache's share.
class TimedSource final : public RequestSource {
 public:
  TimedSource(RequestSource& inner, std::vector<float>& gaps, std::vector<Span>* spans)
      : inner_(&inner), gaps_(&gaps), spans_(spans) {}

  bool next(Request& out) override {
    const std::int64_t now = now_ns();
    if (last_ != 0) gaps_->push_back(static_cast<float>(now - last_));
    if (open_ >= 0) (*spans_)[static_cast<std::size_t>(open_)].duration_ns = now - last_;
    open_ = -1;
    last_ = now;
    const bool more = inner_->next(out);
    if (more && spans_ != nullptr && sampled(out.url)) {
      open_ = static_cast<std::int32_t>(spans_->size());
      spans_->push_back({"request", pulled_, -1, now, 0});
      spans_->push_back({"next", pulled_, open_, now, now_ns() - now});
    }
    ++pulled_;
    return more;
  }
  [[nodiscard]] const InternTable& names() const noexcept override { return inner_->names(); }
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept override { return inner_->resident_bytes(); }
  [[nodiscard]] std::optional<std::string> stream_error() const override { return inner_->stream_error(); }

 private:
  RequestSource* inner_;
  std::vector<float>* gaps_;
  std::vector<Span>* spans_;  // null: untraced
  std::int64_t last_ = 0;
  std::int32_t open_ = -1;
  std::uint64_t pulled_ = 0;
};

class IngestWorkload final : public Workload {
 public:
  std::uint64_t setup(const Options& options) override {
    WorkloadGenerator generator{seeded(WorkloadSpec::backbone_local(), options).extended(10)};
    const std::int64_t start = now_ns();
    std::vector<RawRequest> raw = generator.generate_raw();
    generate_s_.push_back(seconds_since(start));
    std::ostringstream clf;
    write_clf(clf, raw);
    log_ = std::move(clf).str();
    raw_lines_ = raw.size();
    // The reference: the same log validated in memory and simulated from a
    // materialized trace. Streaming must reproduce it bit for bit.
    ValidatedTrace validated = validate(raw);
    raw.clear();
    raw.shrink_to_fit();
    trace_ = std::move(validated.trace);
    capacity_ = trace_.unique_bytes() / 10;
    infinite_ = simulate_infinite(trace_);
    reference_ = simulate(trace_, capacity_, [] { return make_size(); }).stats;
    Digest digest;
    digest.add(static_cast<std::uint64_t>(log_.size()));
    digest.add(static_cast<std::uint64_t>(trace_.size()));
    digest.add(reference_.hits);
    return digest.value();
  }

  Pass pass(bool traced) override { return run(traced); }
  std::vector<Pass> warm_up() override { return {run(false)}; }

  void layers(Report& report) override {
    // Drain-only pass vs the drain+simulate stack: the trace layer alone,
    // and the cache core as the difference.
    std::vector<double> drain;
    for (int i = 0; i < 3; ++i) {
      std::istringstream in{log_};
      drain.push_back(drain_ns_per_request([&in] { return std::make_unique<LogStreamSource>(in); }));
    }
    const double next_ns = median(drain);
    report.layer("trace.next_ns", next_ns);
    report.layer("trace.urls_interned", urls_interned_);
    report.layer("trace.valid_ratio",
                 ratio(static_cast<double>(trace_.size()), static_cast<double>(raw_lines_)));
    report.layer("core.ns_per_req", median(untraced_ns_per_req_) - next_ns);
    report_core_tally(report, policy_tally_, trace_.size());
    report.layer("core.admission_rejects", static_cast<double>(reference_.admission_rejects));
    report.layer("sim.cell_s.p50", median(cell_s_));
    report.layer("sim.cell_s.max", median(cell_s_));
  }

 private:
  Pass run(bool traced) {
    std::istringstream in{log_};
    LogStreamSource log{in};
    Pass pass;
    pass.service_ns.reserve(trace_.size() + 1);
    std::vector<Span> spans;
    TimedSource source{log, pass.service_ns, traced ? &spans : nullptr};
    tally_book().clear();
    const std::int64_t start = now_ns();
    const SimResult result = traced ? simulate(source, capacity_, [] { return make_timed_size(); })
                                    : simulate(source, capacity_, [] { return make_size(); });
    pass.seconds = seconds_since(start);
    pass.operations = result.stats.requests;
    pass.requests = result.stats.requests;
    if (!pass.service_ns.empty()) pass.service_ns.erase(pass.service_ns.begin());  // source start-up

    // Output checks: every valid line arrived, none was malformed, the
    // stream reproduced the materialized run exactly, and no finite cache
    // beat the infinite one.
    const CacheStats& s = result.stats;
    const CacheStats& r = reference_;
    const bool identical = s.requests == r.requests && s.hits == r.hits &&
                           s.hit_bytes == r.hit_bytes && s.requested_bytes == r.requested_bytes &&
                           s.insertions == r.insertions && s.evictions == r.evictions &&
                           s.evicted_bytes == r.evicted_bytes && s.size_change_misses == r.size_change_misses;
    pass.wrong = (log.validation().kept != trace_.size() ? 1 : 0) + (log.malformed_lines() != 0 ? 1 : 0) +
                 (identical ? 0 : 1) + (s.hits > infinite_.stats.hits ? 1 : 0) +
                 (s.hit_bytes > infinite_.stats.hit_bytes ? 1 : 0) +
                 (log.validation().input != raw_lines_ ? 1 : 0);
    Digest digest;
    for (const std::uint64_t value : {s.requests, s.hits, s.hit_bytes, s.requested_bytes, s.insertions,
                                      s.evictions, s.evicted_bytes, s.size_change_misses}) {
      digest.add(value);
    }
    pass.digest = digest.value();
    urls_interned_ = log.names().url_count();
    if (traced) {
      policy_tally_ = tally_book().total();
      cell_s_.push_back(pass.seconds);
      spans_ = std::move(spans);
    } else {
      untraced_ns_per_req_.push_back(pass.seconds * 1e9 / static_cast<double>(pass.requests));
    }
    return pass;
  }

  std::string log_;
  std::uint64_t raw_lines_ = 0;
  Trace trace_;
  std::uint64_t capacity_ = 0;
  SimResult infinite_;
  CacheStats reference_;
  double urls_interned_ = 0.0;
  PolicyTally policy_tally_;
  std::vector<double> untraced_ns_per_req_, cell_s_;
};

// ===========================================================================
// Entry point: set-up, warm-up, timed passes, report.

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sim-U") return std::make_unique<SimWorkload>();
  if (name == "proxy-BR") return std::make_unique<ProxyWorkload>();
  if (name == "topo-U-faults") return std::make_unique<TopologyWorkload>();
  if (name == "ingest-BL") return std::make_unique<IngestWorkload>();
  return nullptr;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_result(const Report& report, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (!workload) {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  zoo::register_zoo_policies();
  register_policy(kTimedSize, [](std::uint64_t seed) { return make_timed_size(seed); });
  Report report;

  // Set-up, several times: the median is setup_s, and every repetition
  // must build the same inputs.
  std::vector<double> setup_s;
  std::uint64_t input_digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    const std::uint64_t digest = workload->setup(options);
    setup_s.push_back(seconds_since(start));
    if (i == 0) input_digest = digest;
    report.check(digest == input_digest, "set-up " + std::to_string(i) + " built different inputs");
  }

  // Untimed warm-up pass at another thread count where the workload has
  // one; its digest is the reference every timed pass must reproduce.
  const std::int64_t warm_start = now_ns();
  const std::vector<Pass> warm = workload->warm_up();
  const double warm_s = seconds_since(warm_start);
  for (const Pass& pass : warm) {
    report.check(pass.wrong == 0, "warm-up answered " + std::to_string(pass.wrong) + " wrongly");
  }

  // Timed passes until --seconds is spent; a traced run alternates
  // untraced and traced passes.
  std::vector<Pass> passes;
  const std::int64_t measure_start = now_ns();
  bool traced_next = false;
  while (passes.size() < 2 || seconds_since(measure_start) < options.seconds) {
    const bool traced = options.trace && traced_next;
    Pass pass = workload->pass(traced);
    pass.traced = traced;
    report.attempted += pass.operations;
    report.check(pass.wrong == 0,
                 "pass " + std::to_string(passes.size()) + " answered " + std::to_string(pass.wrong) +
                     " operations wrongly",
                 pass.wrong);
    const std::uint64_t reference = warm.at(pass.input).digest;
    report.check(pass.digest == reference, "pass " + std::to_string(passes.size()) + " digest " +
                                               hex(pass.digest) + " differs from the warm-up's " +
                                               hex(reference));
    passes.push_back(std::move(pass));
    traced_next = !traced_next;
  }

  // Throughput over all untraced passes together, and each pass's latency
  // percentiles averaged over passes. On a shared host whole passes fall
  // into a fast or a slow mode; a median over passes flips between the
  // modes, while totals and means move with the share of slow passes.
  const auto rate = [&passes](bool traced) {
    double requests = 0.0;
    double seconds = 0.0;
    for (const Pass& pass : passes) {
      if (pass.traced != traced) continue;
      requests += static_cast<double>(pass.requests);
      seconds += pass.seconds;
    }
    return ratio(requests, seconds);
  };
  std::vector<double> p50, p99;
  for (const Pass& pass : passes) {
    if (pass.traced || pass.service_ns.empty()) continue;
    p50.push_back(quantile(pass.service_ns, 0.50) / 1e3);
    p99.push_back(quantile(pass.service_ns, 0.99) / 1e3);
  }
  const double rss_mb = static_cast<double>(peak_rss_bytes()) / 1e6;
  report.end_to_end = {
      {"req_per_s", rate(false), "1/s"},
      {"p50_us", mean(p50), "us"},
      {"p99_us", mean(p99), "us"},
      {"setup_s", median(setup_s) + warm_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };

  if (options.trace) {
    report.layer("workload.generate_s", workload->generate_s());
    workload->layers(report);
    report.check(rate(true) > 0.0, "no traced pass ran");
    report.layer("bench.trace_overhead", 1.0 - ratio(rate(true), rate(false)));
    write_spans(".bench_out/spans-" + options.workload + ".json", workload->spans());
  }

  // Human-readable summary, then the result line.
  std::cout << "workload " << options.workload << ": " << passes.size() << " timed passes, "
            << report.attempted << " operations, threads " << options.threads
            << ", set-up " << json_number(median(setup_s)) << " s (x" << kSetups
            << "), warm-up " << json_number(warm_s) << " s, digest " << hex(warm.front().digest) << "\n";
  std::cout << "  pass rates (1/s):";
  for (const Pass& pass : passes) std::cout << " " << static_cast<long long>(static_cast<double>(pass.requests) / pass.seconds);
  std::cout << "\n";
  const double failed_ratio =
      ratio(static_cast<double>(report.failed), static_cast<double>(report.attempted));
  std::cout << "  failed_ratio " << json_number(failed_ratio) << "\n";
  for (const Metric& m : report.end_to_end) std::cout << "  " << m.name << " " << json_number(m.value) << " " << m.unit << "\n";
  for (const std::string& violation : report.violations) std::cout << "  CHECK FAILED: " << violation << "\n";

  std::vector<Metric> out;
  if (options.trace) {
    // Every ledger metric, in catalog order; the ones off this workload's
    // path read 0.
    for (const auto& [name, unit] : layer_catalog()) {
      double value = 0.0;
      for (const Metric& m : report.layers) {
        if (m.name == name) value = m.value;
      }
      out.push_back({name, value, unit});
      std::cout << "  " << name << " " << json_number(value) << " " << unit << "\n";
    }
    for (const Metric& m : report.layers) {
      const bool known = std::any_of(layer_catalog().begin(), layer_catalog().end(),
                                     [&m](const auto& entry) { return entry.first == m.name; });
      if (!known) throw std::logic_error{"layer metric " + m.name + " is not in the catalog"};
    }
  } else {
    out = report.end_to_end;
  }
  print_result(report, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.threads = std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
      options.seed_given = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string{argv[++i]} == "1";
    } else if (arg == "--scale" && has_value) {
      options.scale = std::stod(argv[++i]);
    } else {
      std::cerr << "usage: wcs_perfbench --workload <sim-U|proxy-BR|topo-U-faults|ingest-BL> "
                   "[--seed N] [--seconds S] [--trace 0|1] [--scale F]\n";
      return 2;
    }
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::cerr << "wcs_perfbench: " << error.what() << "\n";
    return 1;
  }
}
