// Tests for the attack-defense game evaluator.
#include "gridsec/core/game.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/sim/western_us.hpp"

namespace gridsec::core {
namespace {

constexpr double kTol = 1e-6;

// Duopoly with a consumer: attacking the dear generator (edge 1) makes the
// cheap one scarce and profitable; the consumer (actor 2) loses.
flow::Network duopoly() {
  flow::Network net;
  const auto h = net.add_hub("H");
  net.add_supply("cheap", h, 60.0, 10.0);  // edge 0, actor 0
  net.add_supply("dear", h, 100.0, 30.0);  // edge 1, actor 1
  net.add_demand("load", h, 80.0, 50.0);   // edge 2, actor 2
  return net;
}

GameConfig perfect_information_config(int n_edges, int n_actors) {
  GameConfig cfg;
  cfg.adversary.max_targets = 1;
  cfg.defender.defense_cost.assign(static_cast<std::size_t>(n_edges), 10.0);
  cfg.defender.budget.assign(static_cast<std::size_t>(n_actors), 10.0);
  cfg.pa_samples = 1;
  return cfg;
}

TEST(Game, PerfectInformationDefenseNeutralizesAttack) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  Rng rng(1);
  auto game = play_defense_game(net, own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  // The SA attacks the dear generator (gain 1200 undefended).
  EXPECT_EQ(game->attack.targets, (std::vector<int>{1}));
  EXPECT_NEAR(game->adversary_gain_undefended, 1200.0, kTol);
  // Actor 1 owns it, predicts the attack (Pa=1), loses nothing itself...
  // IM[1,1] = 0, so actor 1 won't defend. Actor 2 (the victim) cannot.
  // Individual defense therefore fails to stop this attack.
  EXPECT_FALSE(game->defense.defended[1]);
  EXPECT_NEAR(game->defense_effectiveness, 0.0, kTol);
}

TEST(Game, CollaborativeDefenseStopsMisalignedAttack) {
  // Same scenario but collaborative: the consumer (hurt -1600) joins
  // CD(dear) and funds the defense it cannot mount alone individually.
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.collaborative = true;
  Rng rng(1);
  auto game = play_defense_game(net, own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  EXPECT_TRUE(game->defense.defended[1]);
  EXPECT_NEAR(game->adversary_gain_defended, 0.0, kTol);
  EXPECT_NEAR(game->defense_effectiveness, 1200.0, kTol);
}

TEST(Game, PartialMitigationScalesEffect) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.collaborative = true;
  cfg.mitigation = 0.75;
  Rng rng(1);
  auto game = play_defense_game(net, own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  ASSERT_TRUE(game->defense.defended[1]);
  EXPECT_NEAR(game->adversary_gain_defended, 1200.0 * 0.25, kTol);
}

TEST(Game, ActorImpactsTrackDefense) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.collaborative = true;
  Rng rng(1);
  auto game = play_defense_game(net, own, cfg, rng);
  ASSERT_TRUE(game.is_ok());
  // Undefended: cheap gains 1200, consumer loses 1600.
  EXPECT_NEAR(game->actor_impact_undefended[0], 1200.0, kTol);
  EXPECT_NEAR(game->actor_impact_undefended[2], -1600.0, kTol);
  EXPECT_NEAR(game->total_loss_undefended(), -1600.0, kTol);
  // Defended: nothing happens.
  EXPECT_NEAR(game->actor_impact_defended[2], 0.0, kTol);
  EXPECT_NEAR(game->total_loss_defended(), 0.0, kTol);
}

TEST(Game, DeterministicGivenSeed) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.defender_noise.sigma = 0.2;
  cfg.adversary_noise.sigma = 0.2;
  cfg.speculated_adversary_noise.sigma = 0.2;
  cfg.pa_samples = 3;
  Rng rng_a(42), rng_b(42);
  auto ga = play_defense_game(net, own, cfg, rng_a);
  auto gb = play_defense_game(net, own, cfg, rng_b);
  ASSERT_TRUE(ga.is_ok());
  ASSERT_TRUE(gb.is_ok());
  EXPECT_EQ(ga->attack.targets, gb->attack.targets);
  EXPECT_EQ(ga->defense.defended, gb->defense.defended);
  EXPECT_DOUBLE_EQ(ga->defense_effectiveness, gb->defense_effectiveness);
}

TEST(Game, PerDefenderViewsMatchSharedAtZeroNoise) {
  // With sigma = 0 every private view equals the truth, so the per-defender
  // path must pick exactly the same defense as the shared path.
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.collaborative = true;
  Rng rng_a(5), rng_b(5);
  auto shared = play_defense_game(net, own, cfg, rng_a);
  cfg.per_defender_views = true;
  auto separate = play_defense_game(net, own, cfg, rng_b);
  ASSERT_TRUE(shared.is_ok());
  ASSERT_TRUE(separate.is_ok());
  EXPECT_EQ(shared->defense.defended, separate->defense.defended);
  EXPECT_DOUBLE_EQ(shared->defense_effectiveness,
                   separate->defense_effectiveness);
}

TEST(Game, PerDefenderViewsDeterministic) {
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.per_defender_views = true;
  cfg.defender_noise.sigma = 0.3;
  cfg.speculated_adversary_noise.sigma = 0.2;
  cfg.pa_samples = 2;
  Rng a(9), b(9);
  auto ga = play_defense_game(net, own, cfg, a);
  auto gb = play_defense_game(net, own, cfg, b);
  ASSERT_TRUE(ga.is_ok());
  ASSERT_TRUE(gb.is_ok());
  EXPECT_EQ(ga->defense.defended, gb->defense.defended);
  EXPECT_DOUBLE_EQ(ga->defense_effectiveness, gb->defense_effectiveness);
}

// ---------------------------------------------------------------------------
// One truth matrix per game: a noiseless (sigma = 0) view is the truth, so
// its matrix is computed once and shared by every such view and by the
// realization.

/// A Fig 5-style game on western_us: single-target perfect-knowledge
/// adversary, 5 Pa samples, individual defense under a 12-asset budget.
GameConfig western_us_config(int n_edges, int n_actors, double defender_sigma,
                             double adversary_sigma) {
  GameConfig cfg;
  cfg.adversary.max_targets = 1;
  cfg.defender.defense_cost.assign(static_cast<std::size_t>(n_edges), 2000.0);
  cfg.defender.budget.assign(static_cast<std::size_t>(n_actors),
                             12.0 * 2000.0 / n_actors);
  cfg.defender_noise.sigma = defender_sigma;
  cfg.speculated_adversary_noise.sigma = 0.2;
  cfg.adversary_noise.sigma = adversary_sigma;
  cfg.pa_samples = 5;
  return cfg;
}

std::int64_t matrix_computes() {
  return obs::default_registry()
      .counter("cps.impact.matrix_computes")
      .value();
}

/// Plays one game and checks that it computed `expected_computes` impact
/// matrices, and that its realized gains and actor impacts equal the same
/// attack and defense evaluated on a freshly computed truth matrix, to
/// 1e-10 of that matrix's largest entry.
void expect_game(const flow::Network& net, const cps::Ownership& own,
                 const GameConfig& cfg, std::uint64_t seed,
                 std::int64_t expected_computes) {
  Rng rng(seed);
  const std::int64_t before = matrix_computes();
  auto game = play_defense_game(net, own, cfg, rng);
  EXPECT_EQ(matrix_computes() - before, expected_computes);
  ASSERT_TRUE(game.is_ok());

  const auto truth = cps::compute_impact_matrix(net, own);
  ASSERT_TRUE(truth.is_ok());
  double scale = 0.0;
  for (int t = 0; t < truth->matrix.num_targets(); ++t) {
    for (int a = 0; a < truth->matrix.num_actors(); ++a) {
      scale = std::max(scale, std::abs(truth->matrix.at(a, t)));
    }
  }
  const double tol = 1e-10 * scale;
  const std::vector<bool> no_defense(
      static_cast<std::size_t>(net.num_edges()), false);
  std::vector<double> undefended, defended;
  const double gain_undefended = evaluate_attack_with_defense(
      truth->matrix, game->attack, cfg.adversary, no_defense, 0.0,
      &undefended);
  const double gain_defended = evaluate_attack_with_defense(
      truth->matrix, game->attack, cfg.adversary, game->defense.defended,
      cfg.mitigation, &defended);
  EXPECT_LE(std::abs(game->adversary_gain_undefended - gain_undefended), tol);
  EXPECT_LE(std::abs(game->adversary_gain_defended - gain_defended), tol);
  ASSERT_EQ(game->actor_impact_undefended.size(), undefended.size());
  ASSERT_EQ(game->actor_impact_defended.size(), defended.size());
  for (std::size_t a = 0; a < undefended.size(); ++a) {
    EXPECT_LE(std::abs(game->actor_impact_undefended[a] - undefended[a]), tol)
        << "actor " << a;
    EXPECT_LE(std::abs(game->actor_impact_defended[a] - defended[a]), tol)
        << "actor " << a;
  }
}

TEST(GameTruthMatrix, NoiselessViewsReuseTheTruthMatrix) {
  // Defender view + 5 Pa samples + adversary view + truth = 8 matrices;
  // each noiseless view folds into the one truth matrix.
  const sim::WesternUsModel model = sim::build_western_us();
  const flow::Network& net = model.network;
  Rng own_rng(2015);
  for (int actors : {2, 4, 6}) {
    SCOPED_TRACE(std::to_string(actors) + " actors");
    const auto own = cps::Ownership::random(net.num_edges(), actors, own_rng);
    const auto expect_computes = [&](double defender_sigma,
                                     double adversary_sigma,
                                     std::int64_t expected) {
      SCOPED_TRACE("sigma " + std::to_string(defender_sigma) + " / " +
                   std::to_string(adversary_sigma));
      expect_game(net, own,
                  western_us_config(net.num_edges(), actors, defender_sigma,
                                    adversary_sigma),
                  static_cast<std::uint64_t>(actors), expected);
    };
    expect_computes(0.1, 0.1, 8);
    expect_computes(0.1, 0.0, 7);
    expect_computes(0.0, 0.1, 7);
    expect_computes(0.0, 0.0, 6);
  }
}

TEST(GameTruthMatrix, PerDefenderNoiselessViewsShareOneMatrix) {
  // With per-defender views at sigma = 0 every actor's view is the truth:
  // one truth matrix plus each actor's 5 Pa samples.
  const sim::WesternUsModel model = sim::build_western_us();
  const flow::Network& net = model.network;
  Rng own_rng(7);
  const int actors = 3;
  const auto own = cps::Ownership::random(net.num_edges(), actors, own_rng);
  GameConfig cfg = western_us_config(net.num_edges(), actors, 0.0, 0.0);
  cfg.per_defender_views = true;
  expect_game(net, own, cfg, 11, 1 + actors * 5);
  cfg.defender_noise.sigma = 0.1;
  expect_game(net, own, cfg, 11, actors * (1 + 5) + 1);
}

TEST(GameTruthMatrix, NoiselessViewDrawsNoRandomNumbers) {
  // Skipping perturb_knowledge at sigma = 0 must leave the noise of every
  // later draw unchanged: a game whose noiseless adversary reads the truth
  // matrix ends with the same RNG state as one that draws the copy.
  flow::Network net = duopoly();
  cps::Ownership own({0, 1, 2}, 3);
  GameConfig cfg = perfect_information_config(net.num_edges(), 3);
  cfg.defender_noise.sigma = 0.2;
  cfg.speculated_adversary_noise.sigma = 0.2;
  cfg.pa_samples = 3;
  Rng played(21);
  ASSERT_TRUE(play_defense_game(net, own, cfg, played).is_ok());
  Rng drawn(21);
  (void)cps::perturb_knowledge(net, cfg.defender_noise, drawn);
  for (int s = 0; s < cfg.pa_samples; ++s) {
    (void)cps::perturb_knowledge(net, cfg.speculated_adversary_noise, drawn);
  }
  (void)cps::perturb_knowledge(net, cfg.adversary_noise, drawn);
  EXPECT_EQ(played.next(), drawn.next());
}

TEST(EvaluateAttackWithDefense, MixedDefenseCoverage) {
  cps::ImpactMatrix im(2, 3);
  im.set(0, 0, 100.0);
  im.set(0, 1, 80.0);
  im.set(1, 2, -40.0);
  AttackPlan plan;
  plan.status = lp::SolveStatus::kOptimal;
  plan.targets = {0, 1};
  plan.actors = {0};
  std::vector<bool> defended{true, false, false};
  const double gain =
      evaluate_attack_with_defense(im, plan, {}, defended, 1.0, nullptr);
  // Target 0 fully mitigated, target 1 lands: gain = 80.
  EXPECT_NEAR(gain, 80.0, kTol);
}

TEST(EvaluateAttackWithDefense, ReportsAllActorImpacts) {
  cps::ImpactMatrix im(2, 2);
  im.set(0, 0, 100.0);
  im.set(1, 0, -60.0);
  AttackPlan plan;
  plan.status = lp::SolveStatus::kOptimal;
  plan.targets = {0};
  plan.actors = {0};
  std::vector<double> impacts;
  std::vector<bool> defended{false, false};
  evaluate_attack_with_defense(im, plan, {}, defended, 1.0, &impacts);
  EXPECT_NEAR(impacts[0], 100.0, kTol);
  EXPECT_NEAR(impacts[1], -60.0, kTol);  // includes non-colluding victims
}

}  // namespace
}  // namespace gridsec::core
