// Scoped spans and the one recorder behind them.
//
// Every GRIDSEC_TRACE_SPAN site feeds a single per-thread span recorder
// (recorder.cpp) with two captures, each switched on independently:
//   * Tracer   — completed spans as Chrome trace-event JSON ("complete"
//                events, ph:"X"), so a whole `defend` run can be opened in
//                Perfetto or chrome://tracing;
//   * Profiler — a call tree of wall/thread-CPU/allocation totals keyed by
//                span-name path (obs/prof.hpp), exported as the
//                gridsec.profile artifact and folded flamegraph stacks.
//
// Cost model:
//   * both captures off (the default): a span open is one relaxed atomic
//     load of the capture word and a branch — no clock read, no TLS lookup;
//   * either capture on: one steady_clock read per open and per close plus
//     one uncontended per-thread mutex lock at close (and at open when
//     profiling, which also reads the thread-CPU clock).
//
// Usage:
//   obs::Tracer::start();
//   { GRIDSEC_TRACE_SPAN("core.game.play"); ... }   // or obs::TraceSpan
//   obs::Tracer::stop();
//   obs::Tracer::write_chrome_json(file);
//
// Per-thread state survives thread exit (shared ownership), so spans
// recorded on ThreadPool workers are exported even after the pool is
// destroyed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace gridsec::obs {

namespace span_detail {
/// Capture word bits; TraceSpan loads the word once per open.
inline constexpr unsigned kTrace = 1;
inline constexpr unsigned kProfile = 2;
extern std::atomic<unsigned> g_capture;
struct ThreadState;  // recorder.cpp internals
}  // namespace span_detail

/// Chrome-trace capture control + export. All static; the recorder state
/// lives in recorder.cpp and is intentionally leaked.
class Tracer {
 public:
  /// Enables span capture. Spans already open stay un-recorded (capture
  /// decisions are made at span open).
  static void start();
  /// Disables capture; already-recorded events are kept for export.
  static void stop();
  [[nodiscard]] static bool enabled();
  /// Discards every recorded event (capture state unchanged).
  static void reset();
  /// Number of completed spans recorded so far (all threads).
  [[nodiscard]] static std::size_t event_count();
  /// Writes a Chrome trace-event JSON array, one {"name","ph":"X","ts",
  /// "dur","pid","tid"} object per completed span, ts/dur in microseconds.
  static void write_chrome_json(std::ostream& os);
};

/// RAII span: records [open, close) into whichever captures were on at
/// open. `name` must outlive the span (string literals do).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    const unsigned capture =
        span_detail::g_capture.load(std::memory_order_relaxed);
    if (capture != 0) open(name, capture);
  }
  ~TraceSpan() {
    if (capture_ != 0) close();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void open(const char* name, unsigned capture);
  void close();

  unsigned capture_ = 0;  // captures on at open; 0 = inactive
  const char* name_ = nullptr;
  std::uint64_t open_ns_ = 0;
  span_detail::ThreadState* state_ = nullptr;
};

#define GRIDSEC_OBS_CONCAT_INNER(a, b) a##b
#define GRIDSEC_OBS_CONCAT(a, b) GRIDSEC_OBS_CONCAT_INNER(a, b)
#define GRIDSEC_TRACE_SPAN(name)  \
  ::gridsec::obs::TraceSpan GRIDSEC_OBS_CONCAT(gridsec_trace_span_, \
                                               __LINE__)(name)

}  // namespace gridsec::obs
