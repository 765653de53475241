#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "gridsec/obs/prof.hpp"

namespace perfbench {

ClientGroup::ClientGroup(int clients) {
  threads_.reserve(static_cast<std::size_t>(clients));
  try {
    for (int c = 0; c < clients; ++c) {
      threads_.emplace_back([this, c] { loop(c); });
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
}

ClientGroup::~ClientGroup() { stop_and_join(); }

void ClientGroup::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

void ClientGroup::run(const std::function<void(int)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  pending_ = static_cast<int>(threads_.size());
  error_ = nullptr;
  ++generation_;
  wake_.notify_all();
  done_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

void ClientGroup::loop(int client) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(client);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !error_) error_ = error;
    if (--pending_ == 0) done_.notify_all();
  }
}

void spin_up(int threads, double seconds) {
  const double deadline = now_seconds() + seconds;
  ClientGroup(threads).run([deadline](int) {
    volatile double x = 1.0;  // volatile: keep the loop from being elided
    while (now_seconds() < deadline) {
      for (int i = 0; i < 10000; ++i) x = x * 1.0000001 + 1e-9;
    }
  });
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // program started from a larger parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PhaseResult run_phase(Workload& workload, ClientGroup& group,
                      const StopRule& rule) {
  const std::uint64_t cycle = workload.cycle();
  std::mutex mu;  // guards next, closed and out.units
  std::uint64_t next = rule.first_index;
  bool closed = false;
  PhaseResult out;

  const double cpu0 = process_cpu_seconds();
  const double t0 = now_seconds();
  auto claim = [&](std::uint64_t* index) {
    std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t done = next - rule.first_index;
    if (!closed && done % cycle == 0) {
      closed = rule.fixed_units > 0
                   ? done >= rule.fixed_units
                   : done >= rule.min_units &&
                         now_seconds() - t0 >= rule.min_seconds;
    }
    if (closed) return false;
    *index = next++;
    return true;
  };
  group.run([&](int) {
    std::uint64_t index = 0;
    while (claim(&index)) {
      UnitRecord rec = workload.run(index);
      std::lock_guard<std::mutex> lock(mu);
      out.units.push_back(std::move(rec));
    }
    // Client threads are not pool workers, so nothing else folds their
    // allocation counts into the process totals; reading the totals does.
    static_cast<void>(gridsec::obs::alloc_totals());
  });
  out.wall_s = now_seconds() - t0;
  out.cpu_s = process_cpu_seconds() - cpu0;
  std::sort(out.units.begin(), out.units.end(),
            [](const UnitRecord& a, const UnitRecord& b) {
              return a.index < b.index;
            });
  return out;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace perfbench
