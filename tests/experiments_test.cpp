// Integration tests: the paper's qualitative experimental claims must hold
// on the reproduced western-US system. These are the shapes of Figures 2-7;
// absolute values are synthetic-data-dependent and not asserted.
#include "gridsec/sim/experiments.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/western_us.hpp"

namespace gridsec::sim {
namespace {

const flow::Network& western() {
  static const WesternUsModel m = build_western_us();
  return m.network;
}

ExperimentOptions fast_options(int trials) {
  ExperimentOptions opt;
  opt.trials = trials;
  opt.seed = 99;
  return opt;
}

TEST(ExperimentGainLoss, Figure2Shapes) {
  auto points = experiment_gain_loss(western(), {1, 2, 4, 8, 16},
                                     fast_options(6));
  ASSERT_EQ(points.size(), 5u);
  // Monolithic ownership cannot gain from attacks.
  EXPECT_NEAR(points[0].mean_gain, 0.0, 1e-6);
  // Gains grow with the number of actors...
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].mean_gain, points[i - 1].mean_gain)
        << "actors " << points[i].actors;
  }
  // ...with saturation: the marginal growth shrinks at the high end.
  const double early_growth = points[2].mean_gain - points[1].mean_gain;
  const double late_growth = points[4].mean_gain - points[3].mean_gain;
  EXPECT_LT(late_growth, early_growth);
  // Gains are met with losses; the net (system impact) is constant across
  // actor counts — it does not depend on ownership at all.
  for (const auto& p : points) {
    EXPECT_LE(p.mean_gain, -p.mean_loss + 1e-6);
    EXPECT_NEAR(p.mean_net, points[0].mean_net,
                std::max(1e-6, 1e-9 * std::fabs(points[0].mean_net)));
  }
}

TEST(ExperimentAdversaryNoise, Figure3Shapes) {
  AdversaryNoiseConfig cfg;
  cfg.actor_counts = {2, 6, 12};
  cfg.sigmas = {0.0, 0.2, 0.8};
  auto points = experiment_adversary_noise(western(), cfg, fast_options(6));
  ASSERT_EQ(points.size(), 9u);
  const auto at = [&](int actors, double sigma) -> const AdversaryNoisePoint& {
    for (const auto& p : points) {
      if (p.actors == actors && p.sigma == sigma) return p;
    }
    ADD_FAILURE() << "missing point";
    return points[0];
  };
  // More actors -> more profit opportunities at perfect knowledge.
  EXPECT_GT(at(6, 0.0).observed, at(2, 0.0).observed);
  EXPECT_GT(at(12, 0.0).observed, at(2, 0.0).observed);
  // Noise destroys realized profit.
  for (int actors : {2, 6, 12}) {
    EXPECT_GT(at(actors, 0.0).observed, at(actors, 0.8).observed)
        << actors << " actors";
  }
  // At zero noise, anticipated == observed exactly.
  for (int actors : {2, 6, 12}) {
    EXPECT_NEAR(at(actors, 0.0).anticipated, at(actors, 0.0).observed, 1e-6);
  }
}

TEST(ExperimentAdversaryNoise, Figure4OverconfidenceGap) {
  AdversaryNoiseConfig cfg;
  cfg.actor_counts = {6};
  cfg.sigmas = {0.0, 0.4};
  auto points = experiment_adversary_noise(western(), cfg, fast_options(6));
  ASSERT_EQ(points.size(), 2u);
  // The anticipated return does not decay the way the observed one does:
  // the overconfidence gap opens with noise.
  const double gap0 = points[0].anticipated - points[0].observed;
  const double gap4 = points[1].anticipated - points[1].observed;
  EXPECT_NEAR(gap0, 0.0, 1e-6);
  EXPECT_GT(gap4, 0.0);
  EXPECT_GT(points[1].anticipated, points[1].observed);
}

TEST(ExperimentAdversaryNoise, NoiselessStepPlansOnTheTruthMatrix) {
  // Each trial computes its truth matrix plus one matrix per sigma > 0; a
  // sigma = 0 step, wherever it sits in the grid, plans on the truth.
  AdversaryNoiseConfig cfg;
  cfg.actor_counts = {4};
  cfg.sigmas = {0.2, 0.0, 0.4};
  obs::Counter& computes =
      obs::default_registry().counter("cps.impact.matrix_computes");
  const std::int64_t before = computes.value();
  auto points = experiment_adversary_noise(western(), cfg, fast_options(3));
  EXPECT_EQ(computes.value() - before, 3 * (1 + 2));
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[1].failed_trials, 0);
  EXPECT_NEAR(points[1].anticipated, points[1].observed, 1e-6);
}

TEST(ExperimentDefense, Figure5NoiseDegradesDefense) {
  DefenseExperimentConfig cfg;
  cfg.actor_counts = {4};
  cfg.defender_sigmas = {0.0, 0.8};
  auto points = experiment_defense(western(), cfg, fast_options(6));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[0].effectiveness, points[1].effectiveness);
  EXPECT_GE(points[0].effectiveness, 0.0);
  EXPECT_GE(points[1].effectiveness, -1e-9);
}

TEST(ExperimentDefense, Figure6CollaborationNeverHurtsPaired) {
  DefenseExperimentConfig cfg;
  cfg.actor_counts = {4};
  cfg.defender_sigmas = {0.1};
  auto opt = fast_options(8);
  cfg.collaborative = false;
  auto ind = experiment_defense(western(), cfg, opt);
  cfg.collaborative = true;
  auto col = experiment_defense(western(), cfg, opt);
  ASSERT_EQ(ind.size(), 1u);
  ASSERT_EQ(col.size(), 1u);
  // Paired trials: collaboration is at least as effective on average.
  EXPECT_GE(col[0].effectiveness, ind[0].effectiveness - 1e-6);
}

TEST(ExperimentDefense, RelativeEffectivenessBounded) {
  DefenseExperimentConfig cfg;
  cfg.actor_counts = {2, 12};
  cfg.defender_sigmas = {0.0};
  auto points = experiment_defense(western(), cfg, fast_options(6));
  for (const auto& p : points) {
    EXPECT_GE(p.relative_effectiveness, -1e-9);
    EXPECT_LE(p.relative_effectiveness, 1.0 + 1e-9);
  }
}

TEST(Experiments, DeterministicAcrossRuns) {
  auto a = experiment_gain_loss(western(), {3}, fast_options(4));
  auto b = experiment_gain_loss(western(), {3}, fast_options(4));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a[0].mean_gain, b[0].mean_gain);
  EXPECT_DOUBLE_EQ(a[0].mean_loss, b[0].mean_loss);
}

TEST(Experiments, ThreadCountInvariant) {
  ThreadPool pool(3);
  auto serial = experiment_gain_loss(western(), {4}, fast_options(4));
  auto opt = fast_options(4);
  opt.pool = &pool;
  auto parallel = experiment_gain_loss(western(), {4}, opt);
  EXPECT_DOUBLE_EQ(serial[0].mean_gain, parallel[0].mean_gain);
  EXPECT_DOUBLE_EQ(serial[0].mean_loss, parallel[0].mean_loss);
}

}  // namespace
}  // namespace gridsec::sim
