#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "gridsec/cps/impact.hpp"
#include "gridsec/cps/ownership.hpp"
#include "gridsec/obs/trace.hpp"
#include "gridsec/sim/experiments.hpp"
#include "gridsec/sim/scenario.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/rng.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace perfbench {
namespace {

using gridsec::Rng;
using gridsec::SplitMix64;
using gridsec::ThreadPool;
namespace cps = gridsec::cps;
namespace sim = gridsec::sim;

/// Relative tolerance of the output invariants: identities that hold
/// exactly in real arithmetic and to rounding error in floating point.
constexpr double kCheckTol = 1e-9;

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                (b * 0xc2b2ae3d27d4eb4fULL));
  return sm.next();
}

constexpr std::uint64_t kWarmupSeed = 0x5eed5eedULL;

/// Seed of unit `index`'s inputs. Warm-up units draw from one fixed seed,
/// so set-up time does not change with --seed.
std::uint64_t input_seed(const WorkloadConfig& config, std::uint64_t index) {
  return index >= kWarmupIndexBase ? kWarmupSeed : config.seed;
}

/// Times `fn` on the steady clock into rec.latency_ns and returns its result.
template <typename F>
auto timed(UnitRecord& rec, const F& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = fn();
  rec.latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

void fail(UnitRecord& rec, std::string problem) {
  if (!rec.failed) rec.problem = std::move(problem);
  rec.failed = true;
}

bool near(double a, double b, double scale) {
  return std::fabs(a - b) <= kCheckTol * std::max(1.0, scale);
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

// ---------------------------------------------------------------------------
// defense_game: one unit is one sweep point of Experiment 3 (Figs 5-7).

class DefenseGame final : public Workload {
 public:
  explicit DefenseGame(const WorkloadConfig& config)
      : config_(config),
        model_(sim::build_western_us()),
        pool_(static_cast<std::size_t>(config.threads)) {}

  [[nodiscard]] std::uint64_t cycle() const override {
    return kActors.size() * kSigmas.size() * 2;
  }
  [[nodiscard]] int clients() const override { return 1; }

  UnitRecord run(std::uint64_t index) override {
    const std::uint64_t c = index / cycle();
    const std::uint64_t pos = index % cycle();
    const std::size_t ai = pos / (kSigmas.size() * 2);
    const std::size_t si = pos / 2 % kSigmas.size();

    // The config's defaults are the paper's settings: 12-asset budget,
    // cost 2000, pa_samples 5, speculated adversary sigma 0.2.
    sim::DefenseExperimentConfig cfg;
    cfg.actor_counts = {kActors[ai]};
    cfg.defender_sigmas = {kSigmas[si]};
    cfg.collaborative = pos % 2 == 1;
    sim::ExperimentOptions opt;
    opt.trials = 20;
    // Individual and collaborative points share a seed, so they see the
    // same ownerships and noise draws, as in the library's own sweeps.
    opt.seed = mix(input_seed(config_, index), c, ai * kSigmas.size() + si);
    opt.pool = &pool_;

    UnitRecord rec;
    rec.index = index;
    auto points = timed(rec, [&] {
      GRIDSEC_TRACE_SPAN("sim.experiment_defense");
      return sim::experiment_defense(model_.network, cfg, opt);
    });
    if (points.size() != 1) {
      fail(rec, "experiment_defense returned no point");
      return rec;
    }
    sim::DefensePoint p = points.front();
    if (static_cast<std::int64_t>(index) == config_.corrupt_index) {
      p.effectiveness = p.mean_gain_undefended * 1.5 + 1.0;
    }
    rec.digest = {p.effectiveness, p.mean_gain_undefended,
                  p.relative_effectiveness};
    if (p.failed_trials != 0) fail(rec, "failed trials in defense point");
    if (!all_finite(rec.digest)) fail(rec, "non-finite defense output");
    // The attack plan is fixed before the defense is evaluated, so per
    // trial 0 <= gain_defended = gain_undefended - effectiveness <=
    // gain_undefended; the means must keep that order.
    const double tol = kCheckTol * std::max(1.0, p.mean_gain_undefended);
    if (p.effectiveness < -tol ||
        p.effectiveness > p.mean_gain_undefended + tol) {
      fail(rec, fmt("effectiveness %.17g outside [0, undefended %.17g]",
                    p.effectiveness, p.mean_gain_undefended));
    }
    return rec;
  }

 private:
  static constexpr std::array<int, 4> kActors{2, 4, 6, 12};
  static constexpr std::array<double, 6> kSigmas{0.0, 0.05, 0.1,
                                                 0.2, 0.4, 0.8};
  WorkloadConfig config_;
  sim::WesternUsModel model_;
  ThreadPool pool_;
};

// ---------------------------------------------------------------------------
// ownership_sweep: one unit is one point of Experiment 1 (Fig 2) on the
// unchanged western_us network.

class OwnershipSweep final : public Workload {
 public:
  explicit OwnershipSweep(const WorkloadConfig& config)
      : config_(config),
        model_(sim::build_western_us()),
        pool_(static_cast<std::size_t>(config.threads)) {
    // Gain + loss is ownership-free: Σ_t system impact, taken once from a
    // single-owner matrix.
    const auto& net = model_.network;
    auto im = [&] {
      GRIDSEC_TRACE_SPAN("cps.compute_impact_matrix");
      return cps::compute_impact_matrix(
          net, cps::Ownership::monolithic(net.num_edges()));
    }();
    if (!im.is_ok()) {
      throw std::runtime_error("ownership_sweep: reference matrix: " +
                               im.status().to_string());
    }
    for (int t = 0; t < im->matrix.num_targets(); ++t) {
      system_net_ += im->matrix.system_impact(t);
    }
  }

  [[nodiscard]] std::uint64_t cycle() const override {
    return kActors.size();
  }
  [[nodiscard]] int clients() const override { return 1; }

  UnitRecord run(std::uint64_t index) override {
    const std::uint64_t c = index / cycle();
    const std::uint64_t pos = index % cycle();
    sim::ExperimentOptions opt;
    opt.trials = 20;
    opt.seed = mix(input_seed(config_, index), c, pos);
    opt.pool = &pool_;

    UnitRecord rec;
    rec.index = index;
    auto points = timed(rec, [&] {
      GRIDSEC_TRACE_SPAN("sim.experiment_gain_loss");
      return sim::experiment_gain_loss(model_.network, {kActors[pos]}, opt);
    });
    if (points.size() != 1) {
      fail(rec, "experiment_gain_loss returned no point");
      return rec;
    }
    sim::GainLossPoint p = points.front();
    if (static_cast<std::int64_t>(index) == config_.corrupt_index) {
      p.mean_gain += 1.0 + 0.01 * std::fabs(p.mean_loss);
    }
    rec.digest = {p.mean_gain, p.mean_loss};
    if (p.failed_trials != 0) fail(rec, "failed trials in gain/loss point");
    if (!all_finite({p.mean_gain, p.mean_loss, p.mean_net, p.se_gain,
                     p.se_loss})) {
      fail(rec, "non-finite gain/loss output");
    }
    const double scale = std::fabs(p.mean_gain) + std::fabs(p.mean_loss);
    if (!near(p.mean_gain + p.mean_loss, system_net_, scale) ||
        !near(p.mean_net, system_net_, scale)) {
      fail(rec, fmt("gain + loss %.17g != ownership-free net %.17g",
                    p.mean_gain + p.mean_loss, system_net_));
    }
    if (p.mean_gain < -kCheckTol * std::max(1.0, scale) ||
        p.mean_loss > kCheckTol * std::max(1.0, scale)) {
      fail(rec, fmt("gain %.17g < 0 or loss %.17g > 0", p.mean_gain,
                    p.mean_loss));
    }
    return rec;
  }

 private:
  static constexpr std::array<int, 9> kActors{1, 2, 3, 4, 6, 8, 12, 16, 24};
  WorkloadConfig config_;
  sim::WesternUsModel model_;
  ThreadPool pool_;
  double system_net_ = 0.0;
};

// ---------------------------------------------------------------------------
// large_grid: one unit is one impact matrix on a fresh random grid.

class LargeGrid final : public Workload {
 public:
  explicit LargeGrid(const WorkloadConfig& config) : config_(config) {}

  [[nodiscard]] std::uint64_t cycle() const override { return 1; }
  [[nodiscard]] int clients() const override { return config_.threads; }

  UnitRecord run(std::uint64_t index) override {
    Rng rng(mix(input_seed(config_, index), index, 7));
    sim::RandomGridOptions grid;
    grid.hubs = kHubs;
    const gridsec::flow::Network net = [&] {
      GRIDSEC_TRACE_SPAN("sim.make_random_grid");
      return sim::make_random_grid(grid, rng);
    }();
    const cps::Ownership own = [&] {
      GRIDSEC_TRACE_SPAN("cps.ownership_random");
      return cps::Ownership::random(net.num_edges(), kActors, rng);
    }();

    UnitRecord rec;
    rec.index = index;
    auto im = timed(rec, [&] {
      GRIDSEC_TRACE_SPAN("cps.compute_impact_matrix");
      return cps::compute_impact_matrix(net, own);
    });
    if (!im.is_ok()) {
      fail(rec, "compute_impact_matrix: " + im.status().to_string());
      return rec;
    }
    cps::ImpactMatrix& m = im->matrix;
    if (static_cast<std::int64_t>(index) == config_.corrupt_index) {
      m.set(0, 0, m.at(0, 0) + 1.0);
    }
    if (im->failed_targets != 0) fail(rec, "failed impact targets");
    double sum_system = 0.0, sum_abs = 0.0;
    for (int t = 0; t < m.num_targets(); ++t) {
      double col = 0.0, col_abs = 0.0;
      for (int a = 0; a < m.num_actors(); ++a) {
        col += m.at(a, t);
        col_abs += std::fabs(m.at(a, t));
      }
      const double sys = m.system_impact(t);
      const double scale = std::max(col_abs, std::fabs(sys));
      if (!near(col, sys, scale)) {
        fail(rec, fmt("sum_a IM[a,t] %.17g != system_impact %.17g", col, sys));
      }
      if (sys > kCheckTol * std::max(1.0, scale)) {
        fail(rec, fmt("system_impact %.17g > 0 (welfare %.17g)", sys,
                      im->base_welfare));
      }
      sum_system += sys;
      sum_abs += col_abs;
    }
    rec.digest = {static_cast<double>(net.num_edges()), im->base_welfare,
                  sum_system, sum_abs};
    if (!all_finite(rec.digest)) fail(rec, "non-finite impact output");
    return rec;
  }

 private:
  static constexpr int kHubs = 36;
  static constexpr int kActors = 6;
  WorkloadConfig config_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"defense_game",
                                              "ownership_sweep", "large_grid"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "defense_game") return std::make_unique<DefenseGame>(config);
  if (name == "ownership_sweep") {
    return std::make_unique<OwnershipSweep>(config);
  }
  if (name == "large_grid") return std::make_unique<LargeGrid>(config);
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
