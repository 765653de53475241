// The span recorder behind obs/trace.hpp and obs/prof.hpp, plus the heap
// accounting it attributes to spans.
//
// One capture word says which exports are recording. One registry holds a
// state per recording thread: its Chrome-trace events, its call tree, its
// open frame stack and its allocation checkpoints, all under one mutex.
// The owning thread records; Tracer::write_chrome_json and
// Profiler::snapshot read every thread's state from any thread.
#include <malloc.h>  // malloc_usable_size (glibc)
#include <time.h>    // clock_gettime(CLOCK_THREAD_CPUTIME_ID)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <vector>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/obs/trace.hpp"
#include "json.hpp"

namespace gridsec::obs {

// ---------------------------------------------------------------------------
// Allocation accounting.
//
// Two tiers: plain thread_local counters (owner-thread only; feed phase
// attribution through the frame checkpoints below) and process-wide relaxed
// atomics (feed alloc_totals()/sync_alloc_counters()). The thread_locals
// are PODs with static initialization on purpose — the hooks run inside
// operator new, where a dynamically-initialized TLS object could recurse
// into the allocator it is instrumenting.
//
// The hot path is kept to plain TLS arithmetic: per-thread counts fold
// into the global atomics only at flush points (thread-pool task
// boundaries and alloc_totals() reads). Live/peak tracking needs a
// malloc_usable_size() call plus atomics per alloc AND per free, so it
// runs only while the profiler is recording (g_heap_track) — it is a
// namespace-scope constant-initialized atomic, not function-local state,
// because the hooks must not trip a static init guard inside operator new.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};
std::atomic<bool> g_heap_track{false};

thread_local std::int64_t t_alloc_count = 0;
thread_local std::int64_t t_alloc_bytes = 0;
// Watermarks: how much of t_alloc_* has been folded into g_alloc_*.
thread_local std::int64_t t_flushed_count = 0;
thread_local std::int64_t t_flushed_bytes = 0;

inline void track_alloc(void* p, std::size_t requested) noexcept {
  t_alloc_count += 1;
  t_alloc_bytes += static_cast<std::int64_t>(requested);
  if (!g_heap_track.load(std::memory_order_relaxed)) return;
  const auto usable =
      static_cast<std::int64_t>(::malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

inline void track_free(void* p) noexcept {
  if (p == nullptr || !g_heap_track.load(std::memory_order_relaxed)) return;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(::malloc_usable_size(p)),
      std::memory_order_relaxed);
}

void* alloc_throwing(std::size_t n) {
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) {
      track_alloc(p, n);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* alloc_nothrow(std::size_t n) noexcept {
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p != nullptr) track_alloc(p, n);
  return p;
}

void free_tracked(void* p) noexcept {
  track_free(p);
  std::free(p);
}

std::uint64_t wall_ns_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns_now() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-thread recording state.
// ---------------------------------------------------------------------------

namespace span_detail {

constinit std::atomic<unsigned> g_capture{0};

/// One completed span of the Chrome-trace export.
struct TraceEvent {
  const char* name;
  std::uint64_t open_ns;
  std::uint64_t close_ns;
};

/// One call-tree node. Span names are string literals; identical names from
/// different TUs may be distinct pointers, so matching tries the pointer
/// first and falls back to strcmp. Child counts are small — linear scan.
struct Node {
  explicit Node(const char* n) : name(n) {}
  const char* name;
  std::int64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t alloc_count = 0;
  std::int64_t alloc_bytes = 0;
  std::vector<std::unique_ptr<Node>> children;

  Node* find_or_add(const char* child) {
    for (auto& c : children) {
      if (c->name == child || std::strcmp(c->name, child) == 0) {
        return c.get();
      }
    }
    children.push_back(std::make_unique<Node>(child));
    return children.back().get();
  }
};

struct Frame {
  Node* node;
  std::uint64_t open_wall_ns;
  std::uint64_t open_cpu_ns;
};

/// One recording thread. The owner records under `mutex`; the exporters
/// and the reset paths take the same mutex from other threads.
struct ThreadState {
  ThreadState() { stack.reserve(64); }
  std::mutex mutex;
  std::uint32_t tid = 0;            // Chrome-trace tid, registration order
  std::vector<TraceEvent> events;   // Tracer capture
  Node root{"(root)"};              // Profiler capture
  std::vector<Frame> stack;
  // Checkpoint of the owner's t_alloc_* counters: the delta since the last
  // push/pop boundary is charged to whichever node was topmost then.
  std::int64_t ckpt_count = 0;
  std::int64_t ckpt_bytes = 0;
};

}  // namespace span_detail

namespace {

using span_detail::g_capture;
using span_detail::kProfile;
using span_detail::kTrace;
using span_detail::Node;
using span_detail::ThreadState;

struct Registry {
  std::uint64_t epoch_ns = wall_ns_now();  // Chrome-trace ts origin
  std::mutex mutex;
  // shared_ptr keeps each state alive past thread exit so worker spans
  // survive until export.
  std::vector<std::shared_ptr<ThreadState>> threads;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: see trace.hpp
  return *r;
}

ThreadState& local_state() {
  thread_local std::shared_ptr<ThreadState> state = [] {
    auto s = std::make_shared<ThreadState>();
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    s->tid = static_cast<std::uint32_t>(r.threads.size()) + 1;
    r.threads.push_back(s);
    return s;
  }();
  return *state;
}

/// Calls fn(state) for every registered thread, each under its own mutex.
template <typename Fn>
void for_each_thread(Fn&& fn) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (auto& s : r.threads) {
    std::lock_guard state_lock(s->mutex);
    fn(*s);
  }
}

/// Charges the owner's allocation delta since the last checkpoint to the
/// currently-topmost node. Caller holds s.mutex and is the owner thread
/// (t_alloc_* are the caller's own TLS).
void charge_allocs_locked(ThreadState& s) {
  const std::int64_t dc = t_alloc_count - s.ckpt_count;
  const std::int64_t db = t_alloc_bytes - s.ckpt_bytes;
  s.ckpt_count = t_alloc_count;
  s.ckpt_bytes = t_alloc_bytes;
  if (dc == 0 && db == 0) return;
  Node* active = s.stack.empty() ? &s.root : s.stack.back().node;
  active->alloc_count += dc;
  active->alloc_bytes += db;
}

void merge_node(const Node& from, ProfileNode* into) {
  into->count += from.count;
  into->wall_ns += from.wall_ns;
  into->cpu_ns += from.cpu_ns;
  into->alloc_count += from.alloc_count;
  into->alloc_bytes += from.alloc_bytes;
  for (const auto& child : from.children) {
    ProfileNode* slot = nullptr;
    for (ProfileNode& existing : into->children) {
      if (existing.name == child->name) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      into->children.emplace_back();
      slot = &into->children.back();
      slot->name = child->name;
    }
    merge_node(*child, slot);
  }
}

void finalize_node(ProfileNode* n) {
  std::sort(n->children.begin(), n->children.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              return a.name < b.name;
            });
  std::int64_t child_wall = 0;
  std::int64_t child_cpu = 0;
  for (ProfileNode& c : n->children) {
    finalize_node(&c);
    child_wall += c.wall_ns;
    child_cpu += c.cpu_ns;
  }
  // Clock jitter can push a child a hair past its parent; clamp at zero so
  // folded-stack weights stay non-negative.
  n->excl_wall_ns = std::max<std::int64_t>(0, n->wall_ns - child_wall);
  n->excl_cpu_ns = std::max<std::int64_t>(0, n->cpu_ns - child_cpu);
}

}  // namespace

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

void TraceSpan::open(const char* name, unsigned capture) {
  ThreadState& s = local_state();
  const std::uint64_t wall = wall_ns_now();
  capture_ = capture;
  name_ = name;
  open_ns_ = wall;
  state_ = &s;
  if ((capture & kProfile) == 0) return;
  const std::uint64_t cpu = cpu_ns_now();
  std::lock_guard lock(s.mutex);
  charge_allocs_locked(s);
  Node* parent = s.stack.empty() ? &s.root : s.stack.back().node;
  s.stack.push_back({parent->find_or_add(name), wall, cpu});
}

void TraceSpan::close() {
  ThreadState& s = *state_;
  const bool prof = (capture_ & kProfile) != 0;
  const std::uint64_t wall = wall_ns_now();
  const std::uint64_t cpu = prof ? cpu_ns_now() : 0;
  std::lock_guard lock(s.mutex);
  // An empty stack means Profiler::reset() raced this open span: drop it.
  if (prof && !s.stack.empty()) {
    charge_allocs_locked(s);
    const span_detail::Frame f = s.stack.back();
    s.stack.pop_back();
    f.node->count += 1;
    f.node->wall_ns += static_cast<std::int64_t>(wall - f.open_wall_ns);
    f.node->cpu_ns += static_cast<std::int64_t>(cpu - f.open_cpu_ns);
  }
  if ((capture_ & kTrace) != 0) s.events.push_back({name_, open_ns_, wall});
}

// ---------------------------------------------------------------------------
// Chrome-trace export.
// ---------------------------------------------------------------------------

void Tracer::start() { g_capture.fetch_or(kTrace, std::memory_order_release); }

void Tracer::stop() { g_capture.fetch_and(~kTrace, std::memory_order_release); }

bool Tracer::enabled() {
  return (g_capture.load(std::memory_order_relaxed) & kTrace) != 0;
}

void Tracer::reset() {
  for_each_thread([](ThreadState& s) { s.events.clear(); });
}

std::size_t Tracer::event_count() {
  std::size_t n = 0;
  for_each_thread([&n](ThreadState& s) { n += s.events.size(); });
  return n;
}

void Tracer::write_chrome_json(std::ostream& os) {
  const std::uint64_t epoch_ns = registry().epoch_ns;
  os << "[";
  bool first = true;
  for_each_thread([&](ThreadState& s) {
    for (const span_detail::TraceEvent& e : s.events) {
      if (!first) os << ",\n";
      first = false;
      const std::uint64_t ts_us = (e.open_ns - epoch_ns) / 1000;
      const std::uint64_t dur_us = (e.close_ns - e.open_ns) / 1000;
      os << "{\"name\":";
      json::write_string(os, e.name);
      os << ",\"cat\":\"gridsec\",\"ph\":\"X\",\"ts\":" << ts_us
         << ",\"dur\":" << dur_us
         << ",\"pid\":1,\"tid\":" << s.tid << '}';
    }
  });
  os << "]\n";
}

// ---------------------------------------------------------------------------
// Call-tree export.
// ---------------------------------------------------------------------------

void Profiler::start() {
  g_heap_track.store(true, std::memory_order_relaxed);
  g_capture.fetch_or(kProfile, std::memory_order_release);
}

void Profiler::stop() {
  g_capture.fetch_and(~kProfile, std::memory_order_release);
  g_heap_track.store(false, std::memory_order_relaxed);
}

bool Profiler::enabled() {
  return (g_capture.load(std::memory_order_relaxed) & kProfile) != 0;
}

void Profiler::reset() {
  for_each_thread([](ThreadState& s) {
    s.root = Node{"(root)"};
    s.stack.clear();
  });
}

Profile Profiler::snapshot() {
  Profile p;
  p.root.name = "(root)";
  for_each_thread([&p](ThreadState& s) {
    if (s.root.children.empty() && s.root.alloc_count == 0) return;
    ++p.threads;
    merge_node(s.root, &p.root);
  });
  finalize_node(&p.root);
  p.root.excl_wall_ns = 0;  // the synthetic root carries no time of its own
  p.root.excl_cpu_ns = 0;
  p.alloc = alloc_totals();
  p.pool_busy_ns =
      default_registry().counter("util.threadpool.busy_ns").value();
  p.pool_idle_ns =
      default_registry().counter("util.threadpool.idle_ns").value();
  return p;
}

// ---------------------------------------------------------------------------
// Allocation totals.
// ---------------------------------------------------------------------------

namespace prof_detail {

void flush_thread_allocs() noexcept {
  const std::int64_t dc = t_alloc_count - t_flushed_count;
  const std::int64_t db = t_alloc_bytes - t_flushed_bytes;
  if (dc == 0 && db == 0) return;
  t_flushed_count = t_alloc_count;
  t_flushed_bytes = t_alloc_bytes;
  g_alloc_count.fetch_add(dc, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(db, std::memory_order_relaxed);
}

}  // namespace prof_detail

AllocTotals alloc_totals() {
  prof_detail::flush_thread_allocs();  // include the caller's own tail
  AllocTotals t;
  t.count = g_alloc_count.load(std::memory_order_relaxed);
  t.bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  t.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  t.peak_bytes = g_peak_bytes.load(std::memory_order_relaxed);
  return t;
}

void sync_alloc_counters() {
  // Published as deltas so the registry counters stay monotonic and
  // registry.reset() (which zeroes values) keeps working: after a reset the
  // counters carry the traffic since the last sync, not process lifetime.
  static std::mutex mutex;
  static std::int64_t published_count = 0;
  static std::int64_t published_bytes = 0;
  static std::int64_t published_peak = 0;
  static Counter& c_count = default_registry().counter("obs.alloc.count");
  static Counter& c_bytes = default_registry().counter("obs.alloc.bytes");
  static Counter& c_peak =
      default_registry().counter("obs.alloc.peak_bytes");
  static Gauge& g_live = default_registry().gauge("obs.alloc.live_bytes");
  const AllocTotals t = alloc_totals();
  std::lock_guard lock(mutex);
  c_count.add(t.count - published_count);
  c_bytes.add(t.bytes - published_bytes);
  c_peak.add(t.peak_bytes - published_peak);
  published_count = t.count;
  published_bytes = t.bytes;
  published_peak = t.peak_bytes;
  g_live.set(static_cast<double>(t.live_bytes));
}

}  // namespace gridsec::obs

// ---------------------------------------------------------------------------
// Global operator new/delete replacement. Linked into every binary that
// pulls this object (any GRIDSEC_TRACE_SPAN site references the capture
// word defined here, and the thread pool calls flush_thread_allocs). The
// replacements must not allocate, which is why the per-thread counters
// above are plain PODs.
// ---------------------------------------------------------------------------

void* operator new(std::size_t n) {
  return gridsec::obs::alloc_throwing(n);
}
void* operator new[](std::size_t n) {
  return gridsec::obs::alloc_throwing(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return gridsec::obs::alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return gridsec::obs::alloc_nothrow(n);
}
void operator delete(void* p) noexcept { gridsec::obs::free_tracked(p); }
void operator delete[](void* p) noexcept { gridsec::obs::free_tracked(p); }
void operator delete(void* p, std::size_t) noexcept {
  gridsec::obs::free_tracked(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  gridsec::obs::free_tracked(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  gridsec::obs::free_tracked(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  gridsec::obs::free_tracked(p);
}
