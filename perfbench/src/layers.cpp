#include "layers.hpp"

#include <functional>

namespace perfbench {
namespace {

using gridsec::obs::ProfileNode;

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Exclusive thread-CPU time folded by module: the span name up to its
/// first dot. CPU rather than wall time, so a thread blocked waiting on
/// the pool adds nothing to the layer it waits in.
struct Fold {
  std::map<std::string, double> module_ns;
  std::map<std::string, double> span_excl_ns;  // keyed by full span name
  double total_ns = 0.0;
};

void fold(const ProfileNode& node, Fold& f) {
  if (node.name != "(root)") {
    const auto excl = static_cast<double>(node.excl_cpu_ns);
    f.module_ns[node.name.substr(0, node.name.find('.'))] += excl;
    f.span_excl_ns[node.name] += excl;
    f.total_ns += excl;
  }
  for (const auto& child : node.children) fold(child, f);
}

/// Inclusive totals of the outermost spans called `name`.
void inclusive(const ProfileNode& node, const std::string& name,
               std::int64_t* count, double* wall_ns, double* cpu_ns) {
  if (node.name == name) {
    *count += node.count;
    *wall_ns += static_cast<double>(node.wall_ns);
    *cpu_ns += static_cast<double>(node.cpu_ns);
    return;
  }
  for (const auto& child : node.children) {
    inclusive(child, name, count, wall_ns, cpu_ns);
  }
}

}  // namespace

std::vector<Metric> layer_metrics(const TracedRun& run) {
  auto c = [&](const char* name) {
    auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  Fold f;
  fold(run.profile.root, f);
  auto share = [&](const std::string& module) {
    return ratio(f.module_ns[module], f.total_ns);
  };
  auto span_share = [&](const std::string& span) {
    return ratio(f.span_excl_ns[span], f.total_ns);
  };
  auto prefix_share = [&](const std::string& prefix) {
    double ns = 0.0;
    for (const auto& [name, v] : f.span_excl_ns) {
      if (name.rfind(prefix, 0) == 0) ns += v;
    }
    return ratio(ns, f.total_ns);
  };

  const auto units = static_cast<double>(run.traced.units.size());
  const double wall = run.traced.wall_s;
  const double solves = c("lp.simplex.solves");
  const double pivots = c("lp.simplex.pivots");
  const double warm = c("lp.simplex.warm_starts");
  const double matrices = c("cps.impact.matrix_computes");
  const double welfare = c("flow.social_welfare.solves");
  const double plans = c("core.adversary.plans");
  const double traced_ups = ratio(units, wall);

  std::int64_t pa_count = 0, impact_count = 0;
  double pa_wall = 0.0, pa_cpu = 0.0, impact_wall = 0.0, impact_cpu = 0.0;
  inclusive(run.profile.root, "core.defender.estimate_pa", &pa_count,
            &pa_wall, &pa_cpu);
  inclusive(run.profile.root, "cps.impact.matrix", &impact_count,
            &impact_wall, &impact_cpu);

  return {
      // Bases of the ratios below.
      {"trace.units", units, "count"},
      {"trace.wall_s", wall, "s"},
      {"trace.cpu_s", run.traced.cpu_s, "s"},
      {"trace.span_cpu_s", f.total_ns * 1e-9, "s"},
      {"lp.solves", solves, "count"},
      {"lp.pivots", pivots, "count"},
      {"lp.self_cpu_s", f.module_ns["lp"] * 1e-9, "s"},
      {"cps.matrices", matrices, "count"},
      {"core.adversary.plans", plans, "count"},
      // lp
      {"lp.solves_per_unit", ratio(solves, units), "solves/unit"},
      {"lp.pivots_per_solve", ratio(pivots, solves), "pivots/solve"},
      {"lp.refactorizations_per_solve",
       ratio(c("lp.simplex.refactorizations"), solves), "count/solve"},
      {"lp.eta_updates_per_solve", ratio(c("lp.simplex.eta_updates"), solves),
       "count/solve"},
      {"lp.bound_flips_per_solve", ratio(c("lp.simplex.bound_flips"), solves),
       "count/solve"},
      {"lp.degenerate_pivot_frac",
       ratio(c("lp.simplex.degenerate_pivots"), pivots), "fraction"},
      {"lp.warm_start_frac", ratio(warm, solves), "fraction"},
      {"lp.warm_reject_frac", ratio(c("lp.simplex.warm_start_rejects"), warm),
       "fraction"},
      {"lp.basis_repairs_per_solve",
       ratio(c("lp.simplex.basis_repairs"), solves), "count/solve"},
      {"lp.us_per_pivot", ratio(f.module_ns["lp"] * 1e-3, pivots), "us"},
      {"lp.self_share", share("lp"), "fraction"},
      {"lp.refactorize_self_share", span_share("lp.simplex.refactorize"),
       "fraction"},
      {"lp.bnb_nodes_per_unit", ratio(c("lp.bnb.nodes"), units), "nodes/unit"},
      {"lp.failures_per_unit",
       ratio(c("lp.simplex.numerical_errors") +
                 c("lp.simplex.warm_cold_retries") +
                 c("robust.recovery.attempts"),
             units),
       "count/unit"},
      // flow
      {"flow.welfare_solves_per_unit", ratio(welfare, units), "solves/unit"},
      {"flow.self_share", share("flow"), "fraction"},
      // cps
      {"cps.matrices_per_unit", ratio(matrices, units), "matrices/unit"},
      {"cps.target_solves_per_matrix", ratio(welfare - matrices, matrices),
       "solves/matrix"},
      {"cps.self_share", share("cps"), "fraction"},
      {"cps.impact_ms_mean",
       ratio(impact_wall * 1e-6, static_cast<double>(impact_count)), "ms"},
      // core
      {"core.game_plays_per_unit", ratio(c("core.game.plays"), units),
       "count/unit"},
      {"core.pa_share", ratio(pa_cpu, f.total_ns), "fraction"},
      {"core.adversary.search_nodes_per_plan",
       ratio(c("core.adversary.search_nodes"), plans), "nodes/plan"},
      {"core.adversary.self_share", prefix_share("core.adversary."),
       "fraction"},
      {"core.defender.self_share", prefix_share("core.defender."),
       "fraction"},
      {"core.self_share", share("core"), "fraction"},
      // sim
      {"sim.self_share", share("sim"), "fraction"},
      {"sim.pool_busy_frac",
       ratio(c("util.threadpool.busy_ns") * 1e-9, run.pool_threads * wall),
       "fraction"},
      {"sim.pool_idle_ms_per_unit",
       ratio(c("util.threadpool.idle_ns") * 1e-6, units), "ms"},
      {"sim.failed_trials", c("sim.montecarlo.failed_trials"), "count"},
      {"sim.retries", c("sim.montecarlo.retries"), "count"},
      // util
      {"util.allocs_per_unit", ratio(c("obs.alloc.count"), units),
       "allocs/unit"},
      {"util.alloc_bytes_per_unit", ratio(c("obs.alloc.bytes"), units),
       "bytes/unit"},
      {"util.alloc_peak_bytes",
       static_cast<double>(run.profile.alloc.peak_bytes), "bytes"},
      // obs
      {"obs.traced_units_per_s", traced_ups, "units/s"},
      {"obs.untraced_units_per_s", run.untraced_units_per_s, "units/s"},
      {"obs.trace_overhead_frac",
       ratio(run.untraced_units_per_s - traced_ups, run.untraced_units_per_s),
       "fraction"},
  };
}

}  // namespace perfbench
