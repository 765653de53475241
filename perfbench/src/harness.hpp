// Closed-loop load generation for the benchmark: persistent client threads,
// unit records, and the phase runner that times whole cycles of a
// workload's point list.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// What one unit (one user question) produced.
struct UnitRecord {
  std::uint64_t index = 0;
  std::int64_t latency_ns = 0;  // wall time of the public call alone
  /// Failed status, non-zero failed trials, or a failed output check.
  bool failed = false;
  std::string problem;          // why it failed; empty when it did not
  std::vector<double> digest;   // compared against the committed reference
};

/// A workload as the phase runner sees it. run() is called concurrently
/// from every client thread, each time with a distinct unit index; the
/// index alone determines the unit's inputs.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Units in one cycle of the point list.
  [[nodiscard]] virtual std::uint64_t cycle() const = 0;
  /// Closed-loop clients: each sends its next unit when the last returns.
  [[nodiscard]] virtual int clients() const = 0;
  virtual UnitRecord run(std::uint64_t index) = 0;
};

/// N persistent client threads. Threads outlive phases so that per-thread
/// solver state warmed during set-up is the state the timed units use.
class ClientGroup {
 public:
  explicit ClientGroup(int clients);
  ~ClientGroup();
  ClientGroup(const ClientGroup&) = delete;
  ClientGroup& operator=(const ClientGroup&) = delete;

  /// Runs fn(client) once on every client and waits for all of them.
  /// Rethrows the first exception a client raised.
  void run(const std::function<void(int)>& fn);

 private:
  void loop(int client);
  void stop_and_join();

  std::mutex mu_;  // guards everything below except threads_
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

/// Keeps `threads` threads busy for `seconds`. Virtual CPUs that were idle
/// run slowly for up to a second after waking; spinning them first keeps
/// that ramp out of every measured interval.
void spin_up(int threads, double seconds);

/// Process user+sys CPU seconds (getrusage).
double process_cpu_seconds();
/// Process peak resident set size in MiB (/proc/self/status VmHWM).
double peak_rss_mib();
double now_seconds();

/// When a phase stops handing out units. Units are claimed in index order
/// from `first_index`; a phase only stops at a cycle boundary, so every
/// phase covers whole cycles of the point list.
struct StopRule {
  std::uint64_t first_index = 0;
  /// Stop once this many units ran, at least `min_seconds` passed, and the
  /// next unit would start a new cycle. Set fixed_units instead to run an
  /// exact count (a multiple of the cycle) regardless of time.
  std::uint64_t min_units = 0;
  double min_seconds = 0.0;
  std::uint64_t fixed_units = 0;
};

struct PhaseResult {
  std::vector<UnitRecord> units;  // sorted by index
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

PhaseResult run_phase(Workload& workload, ClientGroup& group,
                      const StopRule& rule);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> samples, double q);

}  // namespace perfbench
