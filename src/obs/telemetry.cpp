#include "gridsec/obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/obs/report.hpp"
#include "gridsec/util/thread_pool.hpp"
#include "json.hpp"

namespace gridsec::obs {
namespace {

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Counter& stalls_counter() {
  static Counter& c = default_registry().counter("obs.telemetry.stalls");
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Progress tracking.

namespace telemetry_detail {

struct ProgressTask {
  const char* name;
  std::atomic<std::int64_t> total;
  std::atomic<std::int64_t> done{0};
  std::uint64_t start_ns = 0;
  std::atomic<std::uint64_t> last_advance_ns{0};
  std::atomic<bool> stalled{false};
};

}  // namespace telemetry_detail

using telemetry_detail::ProgressTask;

namespace {

/// Live-scope registry. The enabled flag is the only thing dormant call
/// sites touch; the mutex guards the scope list against concurrent
/// construction/destruction/snapshot.
struct ProgressState {
  std::atomic<bool> enabled{false};
  std::mutex mutex;
  std::vector<ProgressTask*> tasks;
};

ProgressState& progress_state() {
  static ProgressState* s = new ProgressState();
  return *s;
}

ProgressSnapshot snapshot_task(const ProgressTask& task,
                               std::uint64_t now) {
  ProgressSnapshot out;
  out.name = task.name;
  out.total = task.total.load(std::memory_order_relaxed);
  out.done = task.done.load(std::memory_order_relaxed);
  out.elapsed_seconds =
      static_cast<double>(now - task.start_ns) * 1e-9;
  if (out.done > 0 && out.elapsed_seconds > 0.0) {
    out.rate_per_second =
        static_cast<double>(out.done) / out.elapsed_seconds;
  }
  if (out.total > 0 && out.rate_per_second > 0.0 && out.done < out.total) {
    out.eta_seconds =
        static_cast<double>(out.total - out.done) / out.rate_per_second;
  } else if (out.total > 0 && out.done >= out.total) {
    out.eta_seconds = 0.0;
  }
  out.stalled = task.stalled.load(std::memory_order_relaxed);
  return out;
}

}  // namespace

bool ProgressTracker::enabled() {
  return progress_state().enabled.load(std::memory_order_relaxed);
}

void ProgressTracker::set_enabled(bool enabled) {
  progress_state().enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<ProgressSnapshot> ProgressTracker::snapshot() {
  auto& state = progress_state();
  const std::uint64_t now = mono_ns();
  std::lock_guard lock(state.mutex);
  std::vector<ProgressSnapshot> out;
  out.reserve(state.tasks.size());
  for (const ProgressTask* task : state.tasks) {
    out.push_back(snapshot_task(*task, now));
  }
  return out;
}

std::size_t ProgressTracker::active_count() {
  auto& state = progress_state();
  std::lock_guard lock(state.mutex);
  return state.tasks.size();
}

std::size_t ProgressTracker::check_stalls(double stall_seconds) {
  if (stall_seconds <= 0.0) return 0;
  auto& state = progress_state();
  const std::uint64_t now = mono_ns();
  const auto threshold_ns =
      static_cast<std::uint64_t>(stall_seconds * 1e9);
  std::size_t fired = 0;
  std::lock_guard lock(state.mutex);
  for (ProgressTask* task : state.tasks) {
    const std::int64_t total = task->total.load(std::memory_order_relaxed);
    const std::int64_t done = task->done.load(std::memory_order_relaxed);
    if (total > 0 && done >= total) continue;  // complete, just not closed
    std::uint64_t last = task->last_advance_ns.load(std::memory_order_relaxed);
    if (last == 0) last = task->start_ns;
    if (now <= last || now - last < threshold_ns) continue;
    if (task->stalled.exchange(true, std::memory_order_relaxed)) continue;
    ++fired;
    stalls_counter().add();
    GRIDSEC_LOG(kWarn, "obs.telemetry")
        .field("scope", task->name)
        .field("done", done)
        .field("total", total)
        .field("seconds_since_progress",
               static_cast<double>(now - last) * 1e-9)
        .message("progress stalled");
  }
  return fired;
}

Progress::Progress(const char* name, std::int64_t total) {
  auto& state = progress_state();
  if (!state.enabled.load(std::memory_order_relaxed)) return;
  task_ = new ProgressTask();
  task_->name = name;
  task_->total.store(total, std::memory_order_relaxed);
  task_->start_ns = mono_ns();
  std::lock_guard lock(state.mutex);
  state.tasks.push_back(task_);
}

Progress::~Progress() {
  if (task_ == nullptr) return;
  auto& state = progress_state();
  {
    std::lock_guard lock(state.mutex);
    std::erase(state.tasks, task_);
  }
  delete task_;
}

void Progress::advance_slow(std::int64_t delta) {
  task_->done.fetch_add(delta, std::memory_order_relaxed);
  task_->last_advance_ns.store(mono_ns(), std::memory_order_relaxed);
  task_->stalled.store(false, std::memory_order_relaxed);
}

void Progress::set_total(std::int64_t total) {
  if (task_ != nullptr) task_->total.store(total, std::memory_order_relaxed);
}

std::int64_t Progress::done() const {
  return task_ != nullptr ? task_->done.load(std::memory_order_relaxed) : 0;
}

// ---------------------------------------------------------------------------
// Timeseries artifact.

namespace {

void write_progress_json(std::ostream& os, const ProgressSnapshot& p) {
  os << "{\"name\":";
  json::write_string(os, p.name);
  os << ",\"total\":" << p.total << ",\"done\":" << p.done
     << ",\"elapsed_seconds\":";
  json::write_number(os, p.elapsed_seconds);
  os << ",\"rate_per_second\":";
  json::write_number(os, p.rate_per_second);
  os << ",\"eta_seconds\":";
  json::write_number(os, p.eta_seconds);
  os << ",\"stalled\":" << (p.stalled ? "true" : "false") << '}';
}

void write_sample_json(std::ostream& os, const TelemetrySample& s) {
  os << "{\"t_seconds\":";
  json::write_number(os, s.t_seconds);
  os << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ':' << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ':';
    json::write_number(os, v);
  }
  os << "},\"workers\":[";
  first = true;
  for (const auto& w : s.workers) {
    if (!first) os << ',';
    first = false;
    os << "{\"pool\":" << w.pool << ",\"worker\":" << w.worker
       << ",\"busy_ns\":" << w.busy_ns << ",\"idle_ns\":" << w.idle_ns
       << ",\"tasks\":" << w.tasks << '}';
  }
  os << "],\"progress\":[";
  first = true;
  for (const auto& p : s.progress) {
    if (!first) os << ',';
    first = false;
    write_progress_json(os, p);
  }
  os << "]}";
}

}  // namespace

void write_timeseries_json(std::ostream& os, const Timeseries& ts) {
  os << "{\"schema\":";
  json::write_string(os, kTimeseriesSchemaName);
  os << ",\"schema_version\":" << ts.schema_version
     << ",\"start_time_utc\":";
  json::write_string(os, ts.start_time_utc);
  os << ",\"cadence_ms\":";
  json::write_number(os, ts.cadence_ms);
  os << ",\"dropped\":" << ts.dropped << ",\"build\":{\"git_sha\":";
  json::write_string(os, ts.git_sha);
  os << ",\"build_type\":";
  json::write_string(os, ts.build_type);
  os << ",\"compiler\":";
  json::write_string(os, ts.compiler);
  os << "},\"samples\":[";
  bool first = true;
  for (const auto& s : ts.samples) {
    if (!first) os << ',';
    first = false;
    write_sample_json(os, s);
  }
  os << "]}\n";
}

using json::JsonValue;

StatusOr<Timeseries> parse_timeseries(const std::string& json_text) {
  json::JsonParser parser(json_text);
  auto parsed = parser.parse();
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::invalid_argument("timeseries: root is not an object");
  }
  const std::string schema = root.string_field("schema");
  if (schema != kTimeseriesSchemaName) {
    return Status::invalid_argument("timeseries: schema is '" + schema +
                                    "', expected '" + kTimeseriesSchemaName +
                                    "'");
  }
  const auto version = root.int_field("schema_version", -1);
  if (version != kTimeseriesSchemaVersion) {
    return Status::invalid_argument(
        "timeseries: unsupported schema_version " + std::to_string(version));
  }
  Timeseries ts;
  ts.schema_version = static_cast<int>(version);
  ts.start_time_utc = root.string_field("start_time_utc");
  ts.cadence_ms = root.number_field("cadence_ms");
  ts.dropped = static_cast<std::uint64_t>(root.int_field("dropped"));
  if (const JsonValue* build = root.find("build")) {
    ts.git_sha = build->string_field("git_sha");
    ts.build_type = build->string_field("build_type");
    ts.compiler = build->string_field("compiler");
  }
  const JsonValue* samples = root.find("samples");
  if (samples == nullptr || samples->kind != JsonValue::Kind::kArray) {
    return Status::invalid_argument("timeseries: missing samples array");
  }
  ts.samples.reserve(samples->array.size());
  for (const JsonValue& sv : samples->array) {
    if (sv.kind != JsonValue::Kind::kObject) {
      return Status::invalid_argument("timeseries: sample is not an object");
    }
    TelemetrySample s;
    s.t_seconds = sv.number_field("t_seconds");
    if (const JsonValue* counters = sv.find("counters")) {
      for (const auto& [name, v] : counters->object) {
        s.counters[name] = v.int_or(0);
      }
    }
    if (const JsonValue* gauges = sv.find("gauges")) {
      for (const auto& [name, v] : gauges->object) {
        s.gauges[name] = v.number_or(0.0);
      }
    }
    for (const JsonValue& wv : sv.array_field("workers")) {
      s.workers.push_back({static_cast<int>(wv.int_field("pool")),
                           static_cast<int>(wv.int_field("worker")),
                           wv.int_field("busy_ns"), wv.int_field("idle_ns"),
                           wv.int_field("tasks")});
    }
    for (const JsonValue& pv : sv.array_field("progress")) {
      ProgressSnapshot p;
      p.name = pv.string_field("name");
      p.total = pv.int_field("total");
      p.done = pv.int_field("done");
      p.elapsed_seconds = pv.number_field("elapsed_seconds");
      p.rate_per_second = pv.number_field("rate_per_second");
      p.eta_seconds = pv.number_field("eta_seconds", -1.0);
      p.stalled = pv.bool_field("stalled");
      s.progress.push_back(std::move(p));
    }
    ts.samples.push_back(std::move(s));
  }
  return ts;
}

// ---------------------------------------------------------------------------
// Sampler.

struct TelemetrySampler::Impl {
  TelemetrySamplerOptions options;
  MetricRegistry* registry = nullptr;
  RunManifest manifest;  // start time + build provenance for the header
  std::uint64_t start_ns = 0;

  mutable std::mutex ring_mutex;
  std::deque<TelemetrySample> ring;
  std::uint64_t dropped = 0;

  std::thread thread;
  bool thread_running = false;
  std::mutex wake_mutex;
  std::condition_variable wake_cv;
  bool stop_requested = false;

  // Atomic: sample_now() runs take_sample() -> heartbeat() on the caller's
  // thread while the background sampler does the same concurrently.
  std::atomic<double> last_heartbeat_t{-1e18};

  void take_sample();
  void heartbeat(const TelemetrySample& sample);
  void loop();
};

void TelemetrySampler::Impl::take_sample() {
  // Publish allocation totals first so the counter snapshot includes live
  // heap traffic, and count this sample before reading so the ring entry
  // agrees with the registry's own obs.telemetry.samples value — which is
  // why the counter lives on the configured registry, not default_registry().
  sync_alloc_counters();
  registry->counter("obs.telemetry.samples").add();

  TelemetrySample s;
  s.t_seconds = static_cast<double>(mono_ns() - start_ns) * 1e-9;
  s.counters = registry->counter_values();
  s.gauges = registry->gauge_values();
  const auto pools = ThreadPool::stats_for_all_pools();
  for (std::size_t p = 0; p < pools.size(); ++p) {
    for (std::size_t w = 0; w < pools[p].size(); ++w) {
      s.workers.push_back({static_cast<int>(p), static_cast<int>(w),
                           pools[p][w].busy_ns, pools[p][w].idle_ns,
                           pools[p][w].tasks});
    }
  }
  s.progress = ProgressTracker::snapshot();
  ProgressTracker::check_stalls(options.stall_after_seconds);
  heartbeat(s);

  std::lock_guard lock(ring_mutex);
  ring.push_back(std::move(s));
  if (ring.size() > options.ring_capacity) {
    ring.pop_front();
    ++dropped;
    registry->counter("obs.telemetry.dropped_samples").add();
  }
}

void TelemetrySampler::Impl::heartbeat(const TelemetrySample& sample) {
  if (options.heartbeat_every_seconds <= 0.0) return;
  // CAS loop: exactly one of two concurrent samplers claims the beat.
  double last = last_heartbeat_t.load(std::memory_order_relaxed);
  do {
    if (sample.t_seconds - last < options.heartbeat_every_seconds) return;
  } while (!last_heartbeat_t.compare_exchange_weak(
      last, sample.t_seconds, std::memory_order_relaxed));
  registry->counter("obs.telemetry.heartbeats").add();
  const ProgressSnapshot* head =
      sample.progress.empty() ? nullptr : &sample.progress.front();
  GRIDSEC_LOG(kInfo, "obs.telemetry")
      .field("t_seconds", sample.t_seconds)
      .field("scopes", sample.progress.size())
      .field("scope", head != nullptr ? head->name : std::string("-"))
      .field("done", head != nullptr ? head->done : 0)
      .field("total", head != nullptr ? head->total : 0)
      .field("eta_seconds", head != nullptr ? head->eta_seconds : -1.0)
      .message("heartbeat");
  if (options.progress_to_stderr) {
    std::string line = "gridsec: t=" +
                       std::to_string(sample.t_seconds).substr(0, 6) + "s";
    for (std::size_t i = 0; i < sample.progress.size() && i < 3; ++i) {
      const ProgressSnapshot& p = sample.progress[i];
      line += "  " + p.name + " " + std::to_string(p.done);
      if (p.total > 0) line += "/" + std::to_string(p.total);
      char extra[64];
      if (p.eta_seconds >= 0.0) {
        std::snprintf(extra, sizeof(extra), " (%.1f/s, eta %.1fs)",
                      p.rate_per_second, p.eta_seconds);
      } else {
        std::snprintf(extra, sizeof(extra), " (%.1f/s)", p.rate_per_second);
      }
      line += extra;
      if (p.stalled) line += " STALLED";
    }
    if (sample.progress.empty()) line += "  (no active scopes)";
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

void TelemetrySampler::Impl::loop() {
  take_sample();  // t≈0 baseline
  const auto cadence = std::chrono::duration<double, std::milli>(
      options.cadence_ms);
  std::unique_lock lock(wake_mutex);
  while (!stop_requested) {
    if (wake_cv.wait_for(lock, cadence, [this] { return stop_requested; })) {
      break;
    }
    lock.unlock();
    take_sample();
    lock.lock();
  }
}

TelemetrySampler::TelemetrySampler() : impl_(std::make_unique<Impl>()) {}

TelemetrySampler::~TelemetrySampler() { stop(); }

Status TelemetrySampler::start(const TelemetrySamplerOptions& options) {
  if (impl_->thread_running) {
    return Status::invalid_argument("telemetry sampler already running");
  }
  if (!(options.cadence_ms > 0.0)) {
    return Status::invalid_argument("telemetry sampler cadence_ms must be > 0");
  }
  if (options.ring_capacity == 0) {
    return Status::invalid_argument(
        "telemetry sampler ring_capacity must be > 0");
  }
  if (options.stall_after_seconds < 0.0 ||
      options.heartbeat_every_seconds < 0.0) {
    return Status::invalid_argument(
        "telemetry sampler watchdog/heartbeat intervals must be >= 0");
  }
  impl_->options = options;
  impl_->registry =
      options.registry != nullptr ? options.registry : &default_registry();
  impl_->manifest = RunManifest::capture("", 0, nullptr);
  impl_->start_ns = mono_ns();
  impl_->stop_requested = false;
  ProgressTracker::set_enabled(true);
  impl_->thread = std::thread([this] { impl_->loop(); });
  impl_->thread_running = true;
  return Status::ok();
}

void TelemetrySampler::stop() {
  if (!impl_->thread_running) return;
  {
    std::lock_guard lock(impl_->wake_mutex);
    impl_->stop_requested = true;
  }
  impl_->wake_cv.notify_all();
  impl_->thread.join();
  impl_->thread_running = false;
  // Final sample: the ring's last entry is the registry's exit state.
  impl_->take_sample();
}

bool TelemetrySampler::running() const { return impl_->thread_running; }

void TelemetrySampler::sample_now() {
  if (impl_->registry == nullptr) {
    // Never started: sample the default registry against a fresh origin.
    impl_->registry = &default_registry();
    impl_->manifest = RunManifest::capture("", 0, nullptr);
    impl_->start_ns = mono_ns();
  }
  impl_->take_sample();
}

Timeseries TelemetrySampler::snapshot() const {
  Timeseries ts;
  ts.start_time_utc = impl_->manifest.start_time_utc;
  ts.cadence_ms = impl_->options.cadence_ms;
  ts.git_sha = impl_->manifest.git_sha;
  ts.build_type = impl_->manifest.build_type;
  ts.compiler = impl_->manifest.compiler;
  std::lock_guard lock(impl_->ring_mutex);
  ts.dropped = impl_->dropped;
  ts.samples.assign(impl_->ring.begin(), impl_->ring.end());
  return ts;
}

std::size_t TelemetrySampler::samples() const {
  std::lock_guard lock(impl_->ring_mutex);
  return impl_->ring.size();
}

std::uint64_t TelemetrySampler::dropped() const {
  std::lock_guard lock(impl_->ring_mutex);
  return impl_->dropped;
}

}  // namespace gridsec::obs
