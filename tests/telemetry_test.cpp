// Tests for gridsec::obs telemetry: gridsec.timeseries round-trips, the background sampler, progress/ETA
// tracking, and the stall watchdog.
#include "gridsec/obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/report.hpp"
#include "gridsec/sim/montecarlo.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace gridsec::obs {
namespace {

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Restores the tracker's enabled flag on scope exit so tests cannot leak
/// an enabled tracker into unrelated suites.
struct TrackerGuard {
  bool was_enabled = ProgressTracker::enabled();
  ~TrackerGuard() { ProgressTracker::set_enabled(was_enabled); }
};

// ---------------------------------------------------------------------------
// Timeseries artifact.

Timeseries make_timeseries() {
  Timeseries ts;
  ts.start_time_utc = "2026-01-02T03:04:05Z";
  ts.cadence_ms = 100.0;
  ts.git_sha = "abc123";
  ts.build_type = "Release";
  ts.compiler = "gcc 12";
  ts.dropped = 3;
  TelemetrySample s1;
  s1.t_seconds = 0.001;
  s1.counters = {{"lp.simplex.pivots", 10}, {"sim.montecarlo.trials", 2}};
  s1.gauges = {{"obs.alloc.live_bytes", 512.0}};
  s1.workers = {{0, 0, 1000, 2000, 3}, {0, 1, 1500, 1500, 4}};
  ProgressSnapshot p;
  p.name = "sim.montecarlo.trials";
  p.total = 100;
  p.done = 2;
  p.elapsed_seconds = 0.5;
  p.rate_per_second = 4.0;
  p.eta_seconds = 24.5;
  p.stalled = true;
  s1.progress = {p};
  TelemetrySample s2;
  s2.t_seconds = 0.101;
  s2.counters = {{"lp.simplex.pivots", 50}};
  ts.samples = {s1, s2};
  return ts;
}

TEST(TimeseriesIo, JsonRoundTrip) {
  const Timeseries ts = make_timeseries();
  std::ostringstream os;
  write_timeseries_json(os, ts);
  const StatusOr<Timeseries> back = parse_timeseries(os.str());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const Timeseries& rt = back.value();
  EXPECT_EQ(rt.schema_version, kTimeseriesSchemaVersion);
  EXPECT_EQ(rt.start_time_utc, ts.start_time_utc);
  EXPECT_EQ(rt.cadence_ms, ts.cadence_ms);
  EXPECT_EQ(rt.git_sha, "abc123");
  EXPECT_EQ(rt.build_type, "Release");
  EXPECT_EQ(rt.compiler, "gcc 12");
  EXPECT_EQ(rt.dropped, 3u);
  ASSERT_EQ(rt.samples.size(), 2u);
  EXPECT_EQ(rt.samples[0].t_seconds, 0.001);
  EXPECT_EQ(rt.samples[0].counters, ts.samples[0].counters);
  EXPECT_EQ(rt.samples[0].gauges, ts.samples[0].gauges);
  ASSERT_EQ(rt.samples[0].workers.size(), 2u);
  EXPECT_EQ(rt.samples[0].workers[1].worker, 1);
  EXPECT_EQ(rt.samples[0].workers[1].busy_ns, 1500);
  ASSERT_EQ(rt.samples[0].progress.size(), 1u);
  EXPECT_EQ(rt.samples[0].progress[0].name, "sim.montecarlo.trials");
  EXPECT_EQ(rt.samples[0].progress[0].done, 2);
  EXPECT_EQ(rt.samples[0].progress[0].total, 100);
  EXPECT_EQ(rt.samples[0].progress[0].eta_seconds, 24.5);
  EXPECT_TRUE(rt.samples[0].progress[0].stalled);
  EXPECT_EQ(rt.samples[1].counters.at("lp.simplex.pivots"), 50);
}

TEST(TimeseriesIo, RejectsWrongSchema) {
  EXPECT_FALSE(parse_timeseries("{").is_ok());
  EXPECT_FALSE(parse_timeseries("[]").is_ok());
  EXPECT_FALSE(
      parse_timeseries(
          R"({"schema":"nope","schema_version":1,"samples":[]})")
          .is_ok());
  EXPECT_FALSE(
      parse_timeseries(
          R"({"schema":"gridsec.timeseries","schema_version":99,"samples":[]})")
          .is_ok());
  EXPECT_FALSE(
      parse_timeseries(R"({"schema":"gridsec.timeseries","schema_version":1})")
          .is_ok());
  EXPECT_TRUE(
      parse_timeseries(
          R"({"schema":"gridsec.timeseries","schema_version":1,"samples":[]})")
          .is_ok());
}

// ---------------------------------------------------------------------------
// Progress tracking.

TEST(ProgressTest, DisabledScopesAreFree) {
  TrackerGuard guard;
  ProgressTracker::set_enabled(false);
  Progress p("tests.progress.disabled", 10);
  EXPECT_FALSE(p.active());
  p.advance(5);
  EXPECT_EQ(p.done(), 0);
  EXPECT_EQ(ProgressTracker::active_count(), 0u);
}

TEST(ProgressTest, SnapshotRateAndEta) {
  TrackerGuard guard;
  ProgressTracker::set_enabled(true);
  Progress p("tests.progress.math", 10);
  ASSERT_TRUE(p.active());
  EXPECT_EQ(ProgressTracker::active_count(), 1u);
  p.advance(4);
  sleep_ms(2);
  std::vector<ProgressSnapshot> snaps = ProgressTracker::snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "tests.progress.math");
  EXPECT_EQ(snaps[0].done, 4);
  EXPECT_EQ(snaps[0].total, 10);
  EXPECT_GT(snaps[0].elapsed_seconds, 0.0);
  EXPECT_GT(snaps[0].rate_per_second, 0.0);
  EXPECT_GT(snaps[0].eta_seconds, 0.0);
  p.advance(6);
  snaps = ProgressTracker::snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].done, 10);
  EXPECT_EQ(snaps[0].eta_seconds, 0.0);  // complete
}

TEST(ProgressTest, IndeterminateTotalHasNoEta) {
  TrackerGuard guard;
  ProgressTracker::set_enabled(true);
  Progress p("tests.progress.indeterminate", 0);
  p.advance(100);
  sleep_ms(1);
  const std::vector<ProgressSnapshot> snaps = ProgressTracker::snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].total, 0);
  EXPECT_LT(snaps[0].eta_seconds, 0.0);
}

TEST(ProgressTest, SetTotalAndDeregistration) {
  TrackerGuard guard;
  ProgressTracker::set_enabled(true);
  {
    Progress p("tests.progress.rescope", 0);
    p.set_total(50);
    const std::vector<ProgressSnapshot> snaps = ProgressTracker::snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].total, 50);
  }
  EXPECT_EQ(ProgressTracker::active_count(), 0u);
}

// ---------------------------------------------------------------------------
// Stall watchdog.

TEST(WatchdogTest, FiresOncePerEpisodeAndRearms) {
  TrackerGuard guard;
  ProgressTracker::set_enabled(true);
  Counter& stalls = default_registry().counter("obs.telemetry.stalls");
  const std::int64_t before = stalls.value();

  Progress p("tests.watchdog.scope", 5);
  p.advance();
  sleep_ms(20);
  EXPECT_EQ(ProgressTracker::check_stalls(0.005), 1u);
  EXPECT_EQ(stalls.value(), before + 1);
  std::vector<ProgressSnapshot> snaps = ProgressTracker::snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_TRUE(snaps[0].stalled);
  // Same episode: no re-fire until the scope advances again.
  EXPECT_EQ(ProgressTracker::check_stalls(0.005), 0u);
  EXPECT_EQ(stalls.value(), before + 1);

  p.advance();  // re-arms the watchdog
  snaps = ProgressTracker::snapshot();
  EXPECT_FALSE(snaps[0].stalled);
  sleep_ms(20);
  EXPECT_EQ(ProgressTracker::check_stalls(0.005), 1u);
  EXPECT_EQ(stalls.value(), before + 2);

  // The stall left a warn record behind.
  bool found = false;
  for (const std::string& line : Logger::tail(50)) {
    if (line.find("progress stalled") != std::string::npos &&
        line.find("tests.watchdog.scope") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WatchdogTest, CompleteScopesNeverStall) {
  TrackerGuard guard;
  ProgressTracker::set_enabled(true);
  Progress p("tests.watchdog.complete", 3);
  p.advance(3);
  sleep_ms(15);
  EXPECT_EQ(ProgressTracker::check_stalls(0.005), 0u);
}

TEST(WatchdogTest, ZeroThresholdDisables) {
  TrackerGuard guard;
  ProgressTracker::set_enabled(true);
  Progress p("tests.watchdog.off", 5);
  sleep_ms(10);
  EXPECT_EQ(ProgressTracker::check_stalls(0.0), 0u);
}

// Acceptance: an injected worker stall inside a real Monte-Carlo sweep is
// caught by the sampler's watchdog while the sweep is still running.
TEST(WatchdogTest, SamplerCatchesInjectedWorkerStall) {
  TrackerGuard guard;
  Counter& stalls = default_registry().counter("obs.telemetry.stalls");
  const std::int64_t before = stalls.value();

  TelemetrySampler sampler;
  TelemetrySamplerOptions opts;
  opts.cadence_ms = 5.0;
  opts.stall_after_seconds = 0.05;
  opts.heartbeat_every_seconds = 0.0;
  ASSERT_TRUE(sampler.start(opts).is_ok());

  // One serial "worker" that sits on its first trial far past the stall
  // threshold before making any progress.
  const std::vector<int> r = sim::run_trials<int>(
      nullptr, 2, 7, [](std::size_t i, Rng&) {
        if (i == 0) sleep_ms(150);
        return static_cast<int>(i);
      });
  sampler.stop();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_GT(stalls.value(), before);
}

// ---------------------------------------------------------------------------
// Sampler.

TEST(SamplerTest, StartValidation) {
  TrackerGuard guard;
  TelemetrySampler sampler;
  TelemetrySamplerOptions opts;
  opts.cadence_ms = 0.0;
  EXPECT_FALSE(sampler.start(opts).is_ok());
  opts.cadence_ms = 1.0;
  opts.ring_capacity = 0;
  EXPECT_FALSE(sampler.start(opts).is_ok());
  opts.ring_capacity = 8;
  opts.stall_after_seconds = -1.0;
  EXPECT_FALSE(sampler.start(opts).is_ok());
  opts.stall_after_seconds = 0.0;
  ASSERT_TRUE(sampler.start(opts).is_ok());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.start(opts).is_ok());  // already running
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  sampler.stop();  // idempotent
}

TEST(SamplerTest, FinalSampleMatchesRegistryExitSnapshot) {
  TrackerGuard guard;
  MetricRegistry reg;
  Counter& work = reg.counter("tests.sampler.work");
  reg.gauge("tests.sampler.level").set(1.0);

  TelemetrySampler sampler;
  TelemetrySamplerOptions opts;
  opts.cadence_ms = 2.0;
  opts.heartbeat_every_seconds = 0.0;
  opts.registry = &reg;
  ASSERT_TRUE(sampler.start(opts).is_ok());
  for (int i = 0; i < 10; ++i) {
    work.add(3);
    reg.gauge("tests.sampler.level").set(static_cast<double>(i));
    sleep_ms(2);
  }
  sampler.stop();

  const Timeseries ts = sampler.snapshot();
  ASSERT_GE(ts.samples.size(), 2u);
  EXPECT_EQ(ts.cadence_ms, 2.0);
  EXPECT_FALSE(ts.start_time_utc.empty());
  EXPECT_EQ(ts.git_sha, RunManifest::capture("", 0, nullptr).git_sha);
  // stop() appended one final sample; it must agree exactly with the
  // registry's exit state.
  const TelemetrySample& last = ts.samples.back();
  EXPECT_EQ(last.counters, reg.counter_values());
  EXPECT_EQ(last.gauges, reg.gauge_values());
  EXPECT_EQ(last.counters.at("tests.sampler.work"), 30);
  // The sample counter lives on the configured registry (not
  // default_registry()), so the ring entry agrees with it exactly: one
  // increment per take_sample, i.e. ring size plus evictions.
  EXPECT_EQ(last.counters.at("obs.telemetry.samples"),
            static_cast<std::int64_t>(ts.samples.size() + ts.dropped));
  // Monotone timestamps.
  for (std::size_t i = 1; i < ts.samples.size(); ++i) {
    EXPECT_GE(ts.samples[i].t_seconds, ts.samples[i - 1].t_seconds);
  }
  // And the artifact round-trips.
  std::ostringstream os;
  write_timeseries_json(os, ts);
  const StatusOr<Timeseries> back = parse_timeseries(os.str());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().samples.size(), ts.samples.size());
  EXPECT_EQ(back.value().samples.back().counters, last.counters);
}

TEST(SamplerTest, RingBoundEvictsOldest) {
  TrackerGuard guard;
  MetricRegistry reg;
  TelemetrySampler sampler;
  TelemetrySamplerOptions opts;
  opts.cadence_ms = 1.0;
  opts.ring_capacity = 4;
  opts.heartbeat_every_seconds = 0.0;
  opts.registry = &reg;
  ASSERT_TRUE(sampler.start(opts).is_ok());
  sleep_ms(40);
  sampler.stop();
  EXPECT_LE(sampler.samples(), 4u);
  EXPECT_GT(sampler.dropped(), 0u);
  EXPECT_EQ(sampler.snapshot().dropped, sampler.dropped());
}

TEST(SamplerTest, SampleNowWithoutStart) {
  TrackerGuard guard;
  TelemetrySampler sampler;
  sampler.sample_now();
  EXPECT_EQ(sampler.samples(), 1u);
  const Timeseries ts = sampler.snapshot();
  ASSERT_EQ(ts.samples.size(), 1u);
  EXPECT_FALSE(ts.samples[0].counters.empty());
}

TEST(SamplerTest, EnablesProgressTrackerAndRecordsScopes) {
  TrackerGuard guard;
  ProgressTracker::set_enabled(false);
  MetricRegistry reg;
  TelemetrySampler sampler;
  TelemetrySamplerOptions opts;
  opts.cadence_ms = 2.0;
  opts.heartbeat_every_seconds = 0.0;
  opts.registry = &reg;
  ASSERT_TRUE(sampler.start(opts).is_ok());
  EXPECT_TRUE(ProgressTracker::enabled());
  {
    Progress p("tests.sampler.scope", 8);
    p.advance(3);
    sleep_ms(10);
    sampler.stop();
  }
  const Timeseries ts = sampler.snapshot();
  bool saw_scope = false;
  for (const TelemetrySample& s : ts.samples) {
    for (const ProgressSnapshot& p : s.progress) {
      if (p.name == "tests.sampler.scope" && p.done >= 3) saw_scope = true;
    }
  }
  EXPECT_TRUE(saw_scope);
}

// ---------------------------------------------------------------------------
// TSan coverage: the sampler snapshots the registry, pools, and progress
// scopes while solver threads hammer all three.

TEST(TelemetryConcurrency, SamplerWhileSolving) {
  TrackerGuard guard;
  TelemetrySampler sampler;
  TelemetrySamplerOptions opts;
  opts.cadence_ms = 1.0;
  opts.stall_after_seconds = 0.001;  // exercise the watchdog path too
  // Non-zero so the observer's sample_now() races the background thread
  // through heartbeat()'s last-beat CAS, not just the ring.
  opts.heartbeat_every_seconds = 0.05;
  ASSERT_TRUE(sampler.start(opts).is_ok());

  Counter& work = default_registry().counter("tests.telemetry.race");
  ThreadPool pool(3);
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load()) {
      static_cast<void>(ProgressTracker::snapshot());
      static_cast<void>(sampler.samples());
      sampler.sample_now();
    }
  });
  for (int round = 0; round < 20; ++round) {
    Progress progress("tests.telemetry.round", 64);
    parallel_for(&pool, 64, [&](std::size_t) {
      work.add();
      default_registry().gauge("tests.telemetry.gauge").set(1.0);
      progress.advance();
    });
  }
  stop.store(true);
  observer.join();
  sampler.stop();
  EXPECT_EQ(work.value(), 20 * 64);
  EXPECT_GE(sampler.snapshot().samples.size(), 1u);
}

}  // namespace
}  // namespace gridsec::obs
