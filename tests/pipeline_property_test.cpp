// Cross-module property sweep: the whole pipeline on random networks.
//
// For each seed, a random grid + random ownership is pushed through impact
// analysis, adversary planning and both defenses, asserting the structural
// invariants that must hold regardless of the drawn economy:
//   * Σ_a IM[a,t] == system impact, system impact <= 0;
//   * monolithic ownership never gains;
//   * SA plan >= 0, >= greedy, >= random, and == enumeration (small cases);
//   * defense never increases the adversary's realized gain;
//   * collaborative >= individual on the same beliefs;
//   * everything is deterministic per seed;
//   * the impact matrix does not depend on whether simplex warm starts
//     are on (the warm and cold solve paths agree);
//   * metamorphic relations: a zero-budget adversary gains nothing,
//     doubling every price and cost doubles the impacts and the SA gain
//     while leaving the attack and defense sets unchanged, and a sigma = 0
//     view's matrix equals the truth matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gridsec/core/game.hpp"
#include "gridsec/lp/basis.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/scenario.hpp"
#include "gridsec/sim/western_us.hpp"

namespace gridsec {
namespace {

constexpr double kTol = 1e-5;

struct Pipeline {
  flow::Network net;
  cps::Ownership own{std::vector<int>{0}, 1};
  cps::ImpactResult impact{cps::ImpactMatrix(1, 1), {}, 0.0, 0};
};

Pipeline make_pipeline(std::uint64_t seed, int n_actors) {
  Rng rng(seed);
  sim::RandomGridOptions opt;
  opt.hubs = 4 + static_cast<int>(rng.uniform_index(4));
  Pipeline p;
  p.net = sim::make_random_grid(opt, rng);
  p.own = cps::Ownership::random(p.net.num_edges(), n_actors, rng);
  auto impact = cps::compute_impact_matrix(p.net, p.own);
  EXPECT_TRUE(impact.is_ok());
  p.impact = std::move(impact.value());
  return p;
}

class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, ImpactIdentities) {
  auto p = make_pipeline(static_cast<std::uint64_t>(GetParam()) * 7 + 1, 3);
  const auto& im = p.impact.matrix;
  for (int t = 0; t < im.num_targets(); ++t) {
    double sum = 0.0;
    for (int a = 0; a < im.num_actors(); ++a) sum += im.at(a, t);
    EXPECT_NEAR(sum, im.system_impact(t), 1e-4) << "target " << t;
    EXPECT_LE(im.system_impact(t), 1e-4) << "target " << t;
    EXPECT_LE(im.total_gain(t), -im.total_loss(t) + 1e-4);
  }
}

TEST_P(PipelineProperty, MonolithicNeverGains) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 2);
  sim::RandomGridOptions opt;
  opt.hubs = 4;
  auto net = sim::make_random_grid(opt, rng);
  auto own = cps::Ownership::monolithic(net.num_edges());
  auto impact = cps::compute_impact_matrix(net, own);
  ASSERT_TRUE(impact.is_ok());
  EXPECT_NEAR(impact->matrix.aggregate_gain(), 0.0, 1e-4);
}

TEST_P(PipelineProperty, AdversaryOrdering) {
  auto p = make_pipeline(static_cast<std::uint64_t>(GetParam()) * 29 + 3, 4);
  core::AdversaryConfig cfg;
  cfg.max_targets = 2;
  core::StrategicAdversary sa(cfg);
  auto exact = sa.plan(p.impact.matrix);
  ASSERT_TRUE(exact.optimal());
  EXPECT_GE(exact.anticipated_return, -kTol);

  auto greedy = sa.plan_greedy(p.impact.matrix);
  EXPECT_LE(greedy.anticipated_return, exact.anticipated_return + kTol);

  Rng rng(99);
  auto random = core::random_attack_plan(p.impact.matrix, cfg, rng);
  EXPECT_LE(random.anticipated_return, exact.anticipated_return + kTol);

  auto enumerated = sa.plan_enumerate(p.impact.matrix);
  EXPECT_NEAR(enumerated.anticipated_return, exact.anticipated_return,
              kTol);
}

TEST_P(PipelineProperty, MilpAgreesWithCombinatorialPlanner) {
  auto p = make_pipeline(static_cast<std::uint64_t>(GetParam()) * 31 + 4, 3);
  core::AdversaryConfig cfg;
  cfg.max_targets = 2;
  core::StrategicAdversary sa(cfg);
  auto combinatorial = sa.plan(p.impact.matrix);
  auto milp = sa.plan_milp(p.impact.matrix);
  ASSERT_TRUE(combinatorial.optimal());
  if (milp.optimal()) {
    EXPECT_NEAR(milp.anticipated_return, combinatorial.anticipated_return,
                kTol);
  }
}

TEST_P(PipelineProperty, DefenseNeverHelpsTheAttacker) {
  auto p = make_pipeline(static_cast<std::uint64_t>(GetParam()) * 37 + 5, 3);
  core::GameConfig cfg;
  cfg.adversary.max_targets = 2;
  cfg.defender.defense_cost.assign(
      static_cast<std::size_t>(p.net.num_edges()), 1.0);
  cfg.defender.budget.assign(3, 2.0);
  cfg.collaborative = true;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto game = core::play_defense_game(p.net, p.own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  EXPECT_LE(game->adversary_gain_defended,
            game->adversary_gain_undefended + kTol);
  EXPECT_GE(game->defense_effectiveness, -kTol);
  // Realized losses with defense are no worse than without.
  EXPECT_GE(game->total_loss_defended(),
            game->total_loss_undefended() - kTol);
}

TEST_P(PipelineProperty, CollaborationWeaklyDominatesOnSameBeliefs) {
  auto p = make_pipeline(static_cast<std::uint64_t>(GetParam()) * 41 + 6, 4);
  core::DefenderConfig cfg;
  cfg.defense_cost.assign(static_cast<std::size_t>(p.net.num_edges()), 1.0);
  cfg.budget.assign(4, 1.0);
  std::vector<double> pa(static_cast<std::size_t>(p.net.num_edges()), 0.0);
  // Pa concentrated on the worst few targets by system impact.
  std::vector<int> order(static_cast<std::size_t>(p.net.num_edges()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return p.impact.matrix.system_impact(a) <
           p.impact.matrix.system_impact(b);
  });
  for (int k = 0; k < std::min<int>(3, p.net.num_edges()); ++k) {
    pa[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] = 1.0;
  }
  auto indiv = core::defend_individual(p.impact.matrix, p.own, pa, cfg);
  auto collab = core::defend_collaborative(p.impact.matrix, p.own, pa, cfg);
  ASSERT_TRUE(indiv.optimal());
  ASSERT_TRUE(collab.optimal());
  // The joint Eq-16 objective is at least the sum of the Eq-12 optima on
  // identical beliefs whenever every defendable target has a coalition: the
  // individual solution's spending is feasible for the coalition problem
  // only target-wise, so compare realized coverage of the worst targets.
  EXPECT_GE(collab.num_defended() + 1, indiv.num_defended())
      << "collaboration lost coverage";
}

TEST_P(PipelineProperty, DeterministicEndToEnd) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 43 + 7;
  auto a = make_pipeline(seed, 3);
  auto b = make_pipeline(seed, 3);
  ASSERT_EQ(a.net.num_edges(), b.net.num_edges());
  for (int t = 0; t < a.impact.matrix.num_targets(); ++t) {
    for (int actor = 0; actor < 3; ++actor) {
      EXPECT_DOUBLE_EQ(a.impact.matrix.at(actor, t),
                       b.impact.matrix.at(actor, t));
    }
  }
}

// ---------------------------------------------------------------------------
// Metamorphic relations: input transformations with a known effect on the
// outputs. A certified LP of the wrong model passes every solve
// certificate; these relations catch it at the pipeline level.

/// The largest |IM[a,t]| or |system_impact(t)|.
double largest_entry(const cps::ImpactMatrix& im) {
  double scale = 0.0;
  for (int t = 0; t < im.num_targets(); ++t) {
    scale = std::max(scale, std::abs(im.system_impact(t)));
    for (int a = 0; a < im.num_actors(); ++a) {
      scale = std::max(scale, std::abs(im.at(a, t)));
    }
  }
  return scale;
}

/// Every IM[a,t] and system_impact(t) of `got` equals `want`'s to 1e-10
/// of `want`'s largest entry.
void expect_matrices_close(const cps::ImpactMatrix& got,
                           const cps::ImpactMatrix& want) {
  ASSERT_EQ(got.num_actors(), want.num_actors());
  ASSERT_EQ(got.num_targets(), want.num_targets());
  const double tol = 1e-10 * largest_entry(want);
  for (int t = 0; t < want.num_targets(); ++t) {
    EXPECT_LE(std::abs(got.system_impact(t) - want.system_impact(t)), tol)
        << "system impact, target " << t;
    for (int a = 0; a < want.num_actors(); ++a) {
      EXPECT_LE(std::abs(got.at(a, t) - want.at(a, t)), tol)
          << "actor " << a << ", target " << t;
    }
  }
}

/// Every attack costs 1 and the budget is 0: the SA can afford nothing.
void expect_zero_budget_gains_nothing(const cps::ImpactMatrix& im) {
  core::AdversaryConfig cfg;
  cfg.attack_cost.assign(static_cast<std::size_t>(im.num_targets()), 1.0);
  cfg.budget = 0.0;
  const core::AttackPlan plan = core::StrategicAdversary(cfg).plan(im);
  EXPECT_TRUE(plan.optimal());
  EXPECT_TRUE(plan.targets.empty());
  EXPECT_EQ(plan.anticipated_return, 0.0);
  EXPECT_EQ(core::realized_return(im, plan, cfg), 0.0);
}

/// Attack and defense sets for `im` when every attack and defense costs
/// `unit` and the budgets are multiples of it. Attack beliefs are the SA
/// plan itself (Pa = 1 on its targets).
struct Plans {
  core::AttackPlan attack;
  core::DefensePlan individual;
  core::DefensePlan collaborative;
};

Plans plan_with_unit_cost(const cps::ImpactMatrix& im,
                          const cps::Ownership& own, double unit) {
  const auto n_targets = static_cast<std::size_t>(im.num_targets());
  core::AdversaryConfig adv;
  adv.attack_cost.assign(n_targets, unit);
  adv.budget = 2.0 * unit;
  core::DefenderConfig def;
  def.defense_cost.assign(n_targets, unit);
  def.budget.assign(static_cast<std::size_t>(own.num_actors()), 2.0 * unit);
  Plans out;
  out.attack = core::StrategicAdversary(adv).plan(im);
  std::vector<double> pa(n_targets, 0.0);
  for (int t : out.attack.targets) pa[static_cast<std::size_t>(t)] = 1.0;
  out.individual = core::defend_individual(im, own, pa, def);
  out.collaborative = core::defend_collaborative(im, own, pa, def);
  return out;
}

/// Doubling every edge cost (supply costs, demand prices, transport and
/// conversion costs) and every attack/defense cost and budget doubles each
/// IM[a,t], each system_impact(t) and the SA gain, to 1e-10 of the largest
/// entry, and leaves the attack and defense sets unchanged. c = 2 keeps
/// the scaled data exact.
void expect_doubling_costs_doubles_impact(const flow::Network& net,
                                          const cps::Ownership& own) {
  constexpr double kC = 2.0;
  flow::Network scaled = net;
  for (int e = 0; e < scaled.num_edges(); ++e) {
    scaled.set_cost(e, kC * scaled.edge(e).cost);
  }
  const auto base = cps::compute_impact_matrix(net, own);
  const auto doubled = cps::compute_impact_matrix(scaled, own);
  ASSERT_TRUE(base.is_ok());
  ASSERT_TRUE(doubled.is_ok());
  const cps::ImpactMatrix& im = base->matrix;
  const cps::ImpactMatrix& im2 = doubled->matrix;
  const double tol = 1e-10 * largest_entry(im2);
  for (int t = 0; t < im.num_targets(); ++t) {
    EXPECT_LE(std::abs(im2.system_impact(t) - kC * im.system_impact(t)), tol)
        << "system impact, target " << t;
    for (int a = 0; a < im.num_actors(); ++a) {
      EXPECT_LE(std::abs(im2.at(a, t) - kC * im.at(a, t)), tol)
          << "actor " << a << ", target " << t;
    }
  }

  const Plans p = plan_with_unit_cost(im, own, 1.0);
  const Plans p2 = plan_with_unit_cost(im2, own, kC);
  ASSERT_TRUE(p.attack.optimal());
  ASSERT_TRUE(p2.attack.optimal());
  EXPECT_EQ(p2.attack.targets, p.attack.targets);
  EXPECT_EQ(p2.attack.actors, p.attack.actors);
  EXPECT_LE(std::abs(p2.attack.anticipated_return -
                     kC * p.attack.anticipated_return),
            tol);
  ASSERT_TRUE(p.individual.optimal());
  ASSERT_TRUE(p2.individual.optimal());
  EXPECT_EQ(p2.individual.defended, p.individual.defended);
  ASSERT_TRUE(p.collaborative.optimal());
  ASSERT_TRUE(p2.collaborative.optimal());
  EXPECT_EQ(p2.collaborative.defended, p.collaborative.defended);
}

/// A sigma = 0 view draws no random numbers, and its matrix equals the
/// truth matrix `truth` even when solved warm from a noisy sibling view's
/// basis, as a game's warm chain does. play_defense_game relies on this to
/// compute one truth matrix for every noiseless view.
void expect_noiseless_view_matches_truth(const flow::Network& net,
                                         const cps::Ownership& own,
                                         const cps::ImpactMatrix& truth,
                                         Rng& rng) {
  cps::NoiseSpec noisy;
  noisy.sigma = 0.2;
  const auto sibling =
      cps::compute_impact_matrix(cps::perturb_knowledge(net, noisy, rng), own);
  ASSERT_TRUE(sibling.is_ok());
  Rng untouched = rng;
  const flow::Network view =
      cps::perturb_knowledge(net, cps::NoiseSpec{}, rng);
  EXPECT_EQ(rng.next(), untouched.next());
  cps::ImpactOptions warm;
  warm.warm_start = sibling->base_basis;
  const auto viewed = cps::compute_impact_matrix(view, own, warm);
  ASSERT_TRUE(viewed.is_ok());
  expect_matrices_close(viewed->matrix, truth);
}

TEST_P(PipelineProperty, ZeroBudgetAdversaryGainsNothing) {
  auto p = make_pipeline(static_cast<std::uint64_t>(GetParam()) * 47 + 8, 3);
  expect_zero_budget_gains_nothing(p.impact.matrix);
}

TEST_P(PipelineProperty, DoublingCostsDoublesImpactKeepsPlans) {
  auto p = make_pipeline(static_cast<std::uint64_t>(GetParam()) * 53 + 9, 3);
  expect_doubling_costs_doubles_impact(p.net, p.own);
}

TEST_P(PipelineProperty, NoiselessViewMatchesTruth) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 59 + 10;
  auto p = make_pipeline(seed, 3);
  Rng rng(seed);
  expect_noiseless_view_matches_truth(p.net, p.own, p.impact.matrix, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty, ::testing::Range(0, 12));

TEST(Metamorphic, WesternUsZeroBudgetAdversaryGainsNothing) {
  const sim::WesternUsModel model = sim::build_western_us();
  Rng rng(2015);
  for (int actors = 2; actors <= 6; ++actors) {
    const auto own =
        cps::Ownership::random(model.network.num_edges(), actors, rng);
    const auto impact = cps::compute_impact_matrix(model.network, own);
    ASSERT_TRUE(impact.is_ok());
    SCOPED_TRACE(std::to_string(actors) + " actors");
    expect_zero_budget_gains_nothing(impact->matrix);
  }
}

TEST(Metamorphic, WesternUsDoublingCostsDoublesImpactKeepsPlans) {
  const sim::WesternUsModel model = sim::build_western_us();
  Rng rng(2015);
  for (int actors = 2; actors <= 6; ++actors) {
    const auto own =
        cps::Ownership::random(model.network.num_edges(), actors, rng);
    SCOPED_TRACE(std::to_string(actors) + " actors");
    expect_doubling_costs_doubles_impact(model.network, own);
  }
}

TEST(Metamorphic, WesternUsNoiselessViewMatchesTruth) {
  const sim::WesternUsModel model = sim::build_western_us();
  Rng rng(2015);
  for (int actors = 2; actors <= 6; ++actors) {
    const auto own =
        cps::Ownership::random(model.network.num_edges(), actors, rng);
    const auto truth = cps::compute_impact_matrix(model.network, own);
    ASSERT_TRUE(truth.is_ok());
    SCOPED_TRACE(std::to_string(actors) + " actors");
    expect_noiseless_view_matches_truth(model.network, own, truth->matrix,
                                        rng);
  }
}

// ---------------------------------------------------------------------------
// Warm/cold path independence: every IM[a,t] and system_impact(t) must be
// the same whether each LP warm-starts from a sibling basis or solves from
// scratch. Guards any change to the pivot paths.

/// Restores the process-wide warm-start switch even when an assertion
/// fails mid-test.
struct WarmStartGuard {
  bool was_enabled = lp::warm_start_enabled();
  ~WarmStartGuard() { lp::set_warm_start_enabled(was_enabled); }
};

struct PathRun {
  cps::ImpactMatrix matrix{1, 1};
  std::int64_t pivots = 0;
};

PathRun impact_with_warm_start(const flow::Network& net,
                               const cps::Ownership& own, bool warm) {
  lp::set_warm_start_enabled(warm);
  obs::Counter& pivots = obs::default_registry().counter("lp.simplex.pivots");
  const std::int64_t before = pivots.value();
  auto impact = cps::compute_impact_matrix(net, own);
  EXPECT_TRUE(impact.is_ok());
  PathRun run;
  run.pivots = pivots.value() - before;
  if (impact.is_ok()) run.matrix = std::move(impact->matrix);
  return run;
}

/// Runs the matrix warm then cold and checks every entry agrees to 1e-10
/// of the largest absolute entry. Adds each run's pivots to the totals.
void expect_path_independent(const flow::Network& net,
                             const cps::Ownership& own,
                             std::int64_t* warm_pivots,
                             std::int64_t* cold_pivots) {
  const PathRun warm = impact_with_warm_start(net, own, true);
  const PathRun cold = impact_with_warm_start(net, own, false);
  *warm_pivots += warm.pivots;
  *cold_pivots += cold.pivots;
  expect_matrices_close(cold.matrix, warm.matrix);
}

TEST(WarmColdPathIndependence, WesternUsRandomOwnership) {
  WarmStartGuard guard;
  const sim::WesternUsModel model = sim::build_western_us();
  const flow::Network& net = model.network;
  Rng rng(2015);
  std::int64_t warm_pivots = 0;
  std::int64_t cold_pivots = 0;
  for (int draw = 0; draw < 40; ++draw) {
    const int actors = 2 + draw % 5;
    const auto own = cps::Ownership::random(net.num_edges(), actors, rng);
    SCOPED_TRACE("draw " + std::to_string(draw));
    expect_path_independent(net, own, &warm_pivots, &cold_pivots);
  }
  // The cold path really ran: without warm starts the same solves pivot
  // more.
  EXPECT_GT(cold_pivots, warm_pivots);
}

TEST(WarmColdPathIndependence, RandomGrids) {
  WarmStartGuard guard;
  Rng rng(1603);
  std::int64_t warm_pivots = 0;
  std::int64_t cold_pivots = 0;
  for (int draw = 0; draw < 200; ++draw) {
    sim::RandomGridOptions opt;
    opt.hubs = 6 + static_cast<int>(rng.uniform_index(7));
    const flow::Network net = sim::make_random_grid(opt, rng);
    const auto own = cps::Ownership::random(net.num_edges(), 3, rng);
    SCOPED_TRACE("grid " + std::to_string(draw));
    expect_path_independent(net, own, &warm_pivots, &cold_pivots);
  }
  EXPECT_GT(cold_pivots, warm_pivots);
}

}  // namespace
}  // namespace gridsec
