// gridsec::obs — run-health telemetry: progress/ETA tracking with a stall
// watchdog and a background time-series sampler over the metric registry.
//
// Everything here is strictly opt-in and zero-cost when dormant:
//   * Progress sites (Monte-Carlo trials, impact-matrix target loops, B&B
//     node exploration, game rounds, experiment sweeps) check one relaxed
//     atomic and construct nothing while ProgressTracker is disabled — the
//     default. The sampler (the CLI's --timeseries and --progress flags)
//     enables it.
//   * TelemetrySampler is a single background thread that only exists
//     while explicitly started; stopping takes one final sample so the
//     last ring entry equals the registry's exit snapshot.
//
// The sampler's ring exports as a versioned "gridsec.timeseries" artifact
// (schema_version 1) with the same JSON round-trip contract as report.hpp:
// write_timeseries_json + parse_timeseries are exact inverses for the
// fields the schema carries. `gridsec-inspect top` renders the artifact
// as a terminal table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/util/error.hpp"

namespace gridsec::obs {

namespace telemetry_detail {
struct ProgressTask;  // telemetry.cpp internals
}  // namespace telemetry_detail

// ---------------------------------------------------------------------------
// Progress tracking.

/// Point-in-time view of one in-flight Progress scope.
struct ProgressSnapshot {
  std::string name;          // site name, e.g. "sim.montecarlo.trials"
  std::int64_t total = 0;    // 0 = indeterminate (e.g. B&B node count)
  std::int64_t done = 0;
  double elapsed_seconds = 0.0;
  double rate_per_second = 0.0;  // done / elapsed (0 until first advance)
  double eta_seconds = -1.0;     // < 0 when unknown (indeterminate/no rate)
  bool stalled = false;          // watchdog has flagged this scope
};

/// Process-global registry of live Progress scopes plus the stall
/// watchdog. All static; disabled by default so instrumented loops cost
/// one relaxed atomic load per Progress construction.
class ProgressTracker {
 public:
  [[nodiscard]] static bool enabled();
  static void set_enabled(bool enabled);

  /// Snapshot of every live scope, registration order.
  [[nodiscard]] static std::vector<ProgressSnapshot> snapshot();
  [[nodiscard]] static std::size_t active_count();

  /// Flags every live scope that has not advanced for `stall_seconds`:
  /// one kWarn log record + one obs.telemetry.stalls count per stall
  /// episode (the flag re-arms when the scope advances again). Returns how
  /// many scopes were newly flagged. The sampler calls this every tick;
  /// tests may call it directly.
  static std::size_t check_stalls(double stall_seconds);
};

/// RAII progress scope. When the tracker is disabled at construction this
/// is a complete no-op (no allocation, no registration, advance() is one
/// branch on a plain pointer). Scopes may be constructed concurrently from
/// worker threads; advance() is wait-free.
class Progress {
 public:
  /// `name` must outlive the scope (string literals at call sites).
  /// total == 0 means indeterminate: done counts up with no ETA.
  Progress(const char* name, std::int64_t total);
  ~Progress();
  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  void advance(std::int64_t delta = 1) {
    if (task_ != nullptr) advance_slow(delta);
  }
  /// Re-scopes a live total (e.g. when the workload size is discovered
  /// mid-run). No-op when dormant.
  void set_total(std::int64_t total);
  [[nodiscard]] std::int64_t done() const;
  /// False when the tracker was disabled at construction.
  [[nodiscard]] bool active() const { return task_ != nullptr; }

 private:
  void advance_slow(std::int64_t delta);
  telemetry_detail::ProgressTask* task_ = nullptr;
};

// ---------------------------------------------------------------------------
// Time-series sampling.

/// Wire-format version of the gridsec.timeseries artifact.
inline constexpr int kTimeseriesSchemaVersion = 1;
inline constexpr const char* kTimeseriesSchemaName = "gridsec.timeseries";

/// One worker of one pool at sample time (ThreadPool::stats_for_all_pools).
struct WorkerSample {
  int pool = 0;
  int worker = 0;
  std::int64_t busy_ns = 0;
  std::int64_t idle_ns = 0;
  std::int64_t tasks = 0;
};

/// One ring entry: everything the sampler saw at one instant.
struct TelemetrySample {
  double t_seconds = 0.0;  // monotonic offset from sampler start
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<WorkerSample> workers;
  std::vector<ProgressSnapshot> progress;
};

/// The exported artifact: header + samples (oldest first).
struct Timeseries {
  int schema_version = kTimeseriesSchemaVersion;
  std::string start_time_utc;  // ISO 8601, sampler start
  double cadence_ms = 0.0;
  // Build provenance, from RunManifest::capture (JSON "build" object).
  std::string git_sha;
  std::string build_type;
  std::string compiler;
  std::uint64_t dropped = 0;  // ring overwrites (oldest evicted)
  std::vector<TelemetrySample> samples;
};

void write_timeseries_json(std::ostream& os, const Timeseries& ts);
/// Inverse of write_timeseries_json. Rejects wrong schema name/version and
/// malformed JSON with an explanatory Status.
StatusOr<Timeseries> parse_timeseries(const std::string& json_text);

struct TelemetrySamplerOptions {
  double cadence_ms = 100.0;
  /// Ring bound; the oldest sample is evicted (and counted as dropped)
  /// once full. 4096 samples at the default cadence ≈ 7 minutes.
  std::size_t ring_capacity = 4096;
  /// Stall watchdog: scopes silent for this long get flagged (0 disables).
  double stall_after_seconds = 30.0;
  /// Heartbeat JSONL records (component obs.telemetry, kInfo) at most this
  /// often (0 disables).
  double heartbeat_every_seconds = 1.0;
  /// Mirrors a one-line progress/ETA summary to stderr on each heartbeat
  /// (the CLI's --progress flag).
  bool progress_to_stderr = false;
  /// Registry to sample; nullptr = default_registry().
  MetricRegistry* registry = nullptr;
};

/// Background sampling thread + bounded in-memory ring. start()/stop() are
/// not thread-safe against each other; everything else may run while
/// solver threads hammer the registry (TSan-covered).
class TelemetrySampler {
 public:
  TelemetrySampler();
  ~TelemetrySampler();  // stops if running
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Spawns the sampling thread and enables ProgressTracker. Fails if
  /// already running or the options are out of range.
  Status start(const TelemetrySamplerOptions& options = {});
  /// Takes one final sample (so the ring's last entry matches the
  /// registry's exit state), then joins the thread. Idempotent.
  void stop();
  [[nodiscard]] bool running() const;

  /// Takes one sample synchronously, on the caller's thread. Usable while
  /// running (the background cadence is unaffected) and after stop().
  void sample_now();

  /// Copy of the ring plus header fields, oldest sample first.
  [[nodiscard]] Timeseries snapshot() const;
  [[nodiscard]] std::size_t samples() const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gridsec::obs
