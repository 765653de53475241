#include "gridsec/core/game.hpp"

#include <algorithm>
#include <optional>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::core {

double GameOutcome::total_loss_undefended() const {
  double loss = 0.0;
  for (double v : actor_impact_undefended) loss += std::min(v, 0.0);
  return loss;
}

double GameOutcome::total_loss_defended() const {
  double loss = 0.0;
  for (double v : actor_impact_defended) loss += std::min(v, 0.0);
  return loss;
}

double evaluate_attack_with_defense(const cps::ImpactMatrix& truth,
                                    const AttackPlan& plan,
                                    const AdversaryConfig& adversary,
                                    const std::vector<bool>& defended,
                                    double mitigation,
                                    std::vector<double>* actor_impact) {
  if (actor_impact != nullptr) {
    actor_impact->assign(static_cast<std::size_t>(truth.num_actors()), 0.0);
  }
  double gain = 0.0;
  for (int t : plan.targets) {
    const auto ts = static_cast<std::size_t>(t);
    gain -= adversary.attack_cost.empty() ? 0.0 : adversary.attack_cost[ts];
    const double ps =
        adversary.success_prob.empty() ? 1.0 : adversary.success_prob[ts];
    const double effect =
        (ts < defended.size() && defended[ts]) ? (1.0 - mitigation) : 1.0;
    for (int a = 0; a < truth.num_actors(); ++a) {
      const double impact = truth.at(a, t) * ps * effect;
      if (actor_impact != nullptr) {
        (*actor_impact)[static_cast<std::size_t>(a)] += impact;
      }
    }
    for (int a : plan.actors) {
      gain += truth.at(a, t) * ps * effect;
    }
  }
  return gain;
}

StatusOr<GameOutcome> play_defense_game(const flow::Network& truth,
                                        const cps::Ownership& ownership,
                                        const GameConfig& config, Rng& rng) {
  GRIDSEC_TRACE_SPAN("core.game.play");
  static obs::Counter& c_games =
      obs::default_registry().counter("core.game.plays");
  c_games.add();
  GameOutcome out;

  // One warm-start chain through the whole round: every impact matrix in a
  // game is computed over a (noisy) view of the same topology, so each
  // matrix's base basis seeds the next one's base solve: defender view(s),
  // then adversary view, then truth. Each Pa estimate starts from its
  // defender view's basis and chains its own samples. One welfare model
  // serves every solve in the round (perturb_knowledge never changes
  // topology, so after the first build each sync is an in-place refresh).
  cps::ImpactOptions impact = config.impact;
  flow::SocialWelfareModel round_model;
  if (impact.allocation.model == nullptr) {
    impact.allocation.model = &round_model;
  }

  // perturb_knowledge at sigma = 0 is an exact copy that draws no random
  // numbers, so a noiseless view is the truth itself. The game computes the
  // truth matrix once: the first noiseless view fills `truth_im`, and later
  // noiseless views and the realization (step 5) read it.
  std::optional<cps::ImpactResult> truth_im;
  // One actor's view and its impact matrix; a noisy view owns both.
  struct View {
    flow::Network noisy;
    std::optional<cps::ImpactResult> noisy_im;
    const flow::Network* net = nullptr;
    const cps::ImpactMatrix* matrix = nullptr;
  };
  // Draws a view under `noise`, computes its matrix unless it is the truth's
  // and already known, and carries the matrix's base basis down the chain.
  const auto draw_view = [&](const cps::NoiseSpec& noise, View& v) -> Status {
    const bool exact = noise.sigma == 0.0;
    if (!exact) v.noisy = cps::perturb_knowledge(truth, noise, rng);
    v.net = exact ? &truth : &v.noisy;
    std::optional<cps::ImpactResult>& slot = exact ? truth_im : v.noisy_im;
    if (!slot) {
      auto im = cps::compute_impact_matrix(*v.net, ownership, impact);
      if (!im.is_ok()) return im.status();
      slot = std::move(im.value());
    }
    impact.warm_start = slot->base_basis;
    v.matrix = &slot->matrix;
    return Status::ok();
  };

  {  // Defender phase (steps 1-3); the span closes before the SA plans.
  GRIDSEC_TRACE_SPAN("core.game.defender_phase");
  if (!config.per_defender_views) {
    // 1. One shared view and its impact matrix I'.
    View view;
    if (Status s = draw_view(config.defender_noise, view); !s.is_ok()) {
      return s;
    }

    // 2. Attack-probability estimate via the defender's SA model on I''.
    auto pa = estimate_attack_probabilities(
        *view.net, ownership, config.adversary,
        config.speculated_adversary_noise, config.pa_samples, rng, impact);
    if (!pa.is_ok()) return pa.status();
    out.pa = std::move(pa.value());

    // 3. Defensive investment on the defender's beliefs.
    out.defense =
        config.collaborative
            ? defend_collaborative(*view.matrix, ownership, out.pa,
                                   config.defender)
            : defend_individual(*view.matrix, ownership, out.pa,
                                config.defender);
  } else {
    // 1-2. Each defender draws its own view, beliefs, and Pa estimate.
    // Row a of the composite matrix carries actor a's own believed impacts
    // (the only row the defense optimizations read for actor a).
    cps::ImpactMatrix composite(ownership.num_actors(), truth.num_edges());
    std::vector<std::vector<double>> pa_rows;
    pa_rows.reserve(static_cast<std::size_t>(ownership.num_actors()));
    for (int a = 0; a < ownership.num_actors(); ++a) {
      View view;
      if (Status s = draw_view(config.defender_noise, view); !s.is_ok()) {
        return s;
      }
      for (int t = 0; t < truth.num_edges(); ++t) {
        composite.set(a, t, view.matrix->at(a, t));
      }
      auto pa_a = estimate_attack_probabilities(
          *view.net, ownership, config.adversary,
          config.speculated_adversary_noise, config.pa_samples, rng, impact);
      if (!pa_a.is_ok()) return pa_a.status();
      pa_rows.push_back(std::move(pa_a.value()));
    }
    // Report the mean belief as the headline Pa.
    out.pa.assign(static_cast<std::size_t>(truth.num_edges()), 0.0);
    for (const auto& row : pa_rows) {
      for (std::size_t t = 0; t < row.size(); ++t) out.pa[t] += row[t];
    }
    for (double& v : out.pa) v /= pa_rows.size();
    out.defense = config.collaborative
                      ? defend_collaborative(composite, ownership, pa_rows,
                                             config.defender)
                      : defend_individual(composite, ownership, pa_rows,
                                          config.defender);
  }
  // Budget-limited defenses (node or wall-clock) still carry a feasible
  // investment; degrade to the incumbent rather than failing the game.
  // Hard verdicts (infeasible / unbounded / numerical) surface typed.
  if (!out.defense.optimal() &&
      !(lp::is_budget_limited(out.defense.status) &&
        !out.defense.defended.empty())) {
    return lp::to_status(out.defense.status, "play_defense_game: defense");
  }
  }  // end defender phase

  // 4. The actual adversary plans on its own view.
  {
    GRIDSEC_TRACE_SPAN("core.game.adversary_phase");
    View view;
    if (Status s = draw_view(config.adversary_noise, view); !s.is_ok()) {
      return s;
    }
    StrategicAdversary sa(config.adversary);
    out.attack = sa.plan(*view.matrix);
    // A budget-limited plan is a feasible (just unproven) attack — keep it.
    if (!out.attack.optimal() && !lp::is_budget_limited(out.attack.status)) {
      return lp::to_status(out.attack.status, "play_defense_game: adversary");
    }
  }

  // 5. Realize the attack against the ground truth (the noiseless view),
  // with and without the defense in place.
  View real;
  if (Status s = draw_view(cps::NoiseSpec{}, real); !s.is_ok()) return s;
  const std::vector<bool> no_defense(
      static_cast<std::size_t>(truth.num_edges()), false);
  out.adversary_gain_undefended = evaluate_attack_with_defense(
      *real.matrix, out.attack, config.adversary, no_defense, 0.0,
      &out.actor_impact_undefended);
  out.adversary_gain_defended = evaluate_attack_with_defense(
      *real.matrix, out.attack, config.adversary, out.defense.defended,
      config.mitigation, &out.actor_impact_defended);
  out.defense_effectiveness =
      out.adversary_gain_undefended - out.adversary_gain_defended;
  GRIDSEC_LOG(kDebug, "core.game")
      .field("collaborative", config.collaborative)
      .field("attack_status", lp::to_string(out.attack.status))
      .field("defense_status", lp::to_string(out.defense.status))
      .field("gain_undefended", out.adversary_gain_undefended)
      .field("gain_defended", out.adversary_gain_defended)
      .field("effectiveness", out.defense_effectiveness);
  return out;
}

}  // namespace gridsec::core
