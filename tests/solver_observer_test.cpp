// Solver event streams: the simplex observer fires exactly once per
// counted pivot, the B&B observer's node trajectory matches the returned
// stats, and Solution::bnb is populated.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/lp/milp.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/obs/solver_events.hpp"

namespace gridsec::lp {
namespace {

// A small LP that takes several pivots: maximize x+2y+3z under coupling
// rows.
Problem small_lp() {
  Problem p(Objective::kMaximize);
  const int x = p.add_variable("x", 0.0, 40.0, 1.0);
  const int y = p.add_variable("y", 0.0, kInfinity, 2.0);
  const int z = p.add_variable("z", 0.0, kInfinity, 3.0);
  LinearExpr r1;
  r1.add(x, 1.0).add(y, 1.0).add(z, 1.0);
  p.add_constraint("r1", std::move(r1), Sense::kLessEqual, 100.0);
  LinearExpr r2;
  r2.add(x, 2.0).add(y, 1.0).add(z, -1.0);
  p.add_constraint("r2", std::move(r2), Sense::kLessEqual, 210.0);
  LinearExpr r3;
  r3.add(y, 1.0).add(z, -1.0);
  p.add_constraint("r3", std::move(r3), Sense::kGreaterEqual, -30.0);
  return p;
}

// A knapsack MILP with enough fractional LP relaxations to branch.
Problem knapsack_milp() {
  Problem p(Objective::kMaximize);
  const std::vector<double> value{10, 13, 7, 11, 9, 8};
  const std::vector<double> weight{3, 4, 2, 3.5, 2.5, 2.2};
  LinearExpr cap;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const int v = p.add_binary("b" + std::to_string(i), value[i]);
    cap.add(v, weight[i]);
  }
  p.add_constraint("cap", std::move(cap), Sense::kLessEqual, 8.0);
  return p;
}

TEST(SimplexObserver, EventCountEqualsSolutionIterations) {
  SimplexOptions opt;
  std::vector<obs::SimplexIterationEvent> events;
  opt.observer = [&events](const obs::SimplexIterationEvent& ev) {
    events.push_back(ev);
  };
  SimplexSolver solver(opt);
  const Solution sol = solver.solve(small_lp());
  ASSERT_TRUE(sol.optimal());
  EXPECT_GT(sol.iterations, 0);
  EXPECT_EQ(static_cast<long>(events.size()), sol.iterations);
  // Iterations number 0..n-1 cumulatively across both phases.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].iteration, static_cast<long>(i));
    EXPECT_TRUE(events[i].phase == 1 || events[i].phase == 2);
    EXPECT_GE(events[i].entering, 0);
    if (events[i].bound_flip) {
      EXPECT_EQ(events[i].leaving, -1);
    } else {
      EXPECT_GE(events[i].leaving, 0);
    }
  }
}

TEST(SimplexObserver, NoObserverStillCountsIterations) {
  SimplexSolver solver;
  const Solution sol = solver.solve(small_lp());
  ASSERT_TRUE(sol.optimal());
  EXPECT_GT(sol.iterations, 0);
}

TEST(SimplexObserver, ObserverDoesNotChangeResult) {
  SimplexSolver plain;
  const Solution a = plain.solve(small_lp());
  SimplexOptions opt;
  long fired = 0;
  opt.observer = [&fired](const obs::SimplexIterationEvent&) { ++fired; };
  SimplexSolver observed(opt);
  const Solution b = observed.solve(small_lp());
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(fired, b.iterations);
}

TEST(BnBObserver, ExploredEventsMatchStatsAndSolutionBnb) {
  BranchAndBoundOptions opt;
  long explored_events = 0;
  long incumbent_events = 0;
  double last_gap = -1.0;
  opt.observer = [&](const obs::BnBNodeEvent& ev) {
    using Kind = obs::BnBNodeEvent::Kind;
    if (ev.kind == Kind::kNodeExplored) ++explored_events;
    if (ev.kind == Kind::kIncumbent) ++incumbent_events;
    if (ev.has_incumbent) last_gap = ev.gap;
  };
  BranchAndBoundSolver solver(opt);
  const Solution sol = solver.solve(knapsack_milp());
  ASSERT_TRUE(sol.optimal());
  EXPECT_GT(sol.bnb.nodes_explored, 0);
  EXPECT_EQ(explored_events, sol.bnb.nodes_explored);
  EXPECT_GT(incumbent_events, 0);
  EXPECT_GE(sol.bnb.lp_solves, sol.bnb.nodes_explored);
  EXPECT_GE(last_gap, 0.0);  // final incumbent-bearing event carried a gap
}

TEST(BnBObserver, SolutionBnbPopulatedWithoutObserver) {
  BranchAndBoundSolver solver;
  const Solution sol = solver.solve(knapsack_milp());
  ASSERT_TRUE(sol.optimal());
  EXPECT_GT(sol.bnb.nodes_explored, 0);
  EXPECT_GT(sol.bnb.lp_solves, 0);
  EXPECT_GT(sol.bnb.incumbent_updates, 0);
}

TEST(BnBObserver, PlainLpLeavesBnbStatsZero) {
  SimplexSolver solver;
  const Solution sol = solver.solve(small_lp());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.bnb.nodes_explored, 0);
  EXPECT_EQ(sol.bnb.lp_solves, 0);
  EXPECT_EQ(sol.bnb.incumbent_updates, 0);
}

TEST(BnBObserver, BoundsReportedInProblemSense) {
  // Maximization: every reported node bound must be >= the final optimum
  // (the relaxation can only be optimistic).
  BranchAndBoundOptions opt;
  std::vector<double> bounds;
  opt.observer = [&bounds](const obs::BnBNodeEvent& ev) {
    if (ev.kind == obs::BnBNodeEvent::Kind::kNodeExplored) {
      bounds.push_back(ev.bound);
    }
  };
  BranchAndBoundSolver solver(opt);
  const Solution sol = solver.solve(knapsack_milp());
  ASSERT_TRUE(sol.optimal());
  ASSERT_FALSE(bounds.empty());
  for (double b : bounds) {
    EXPECT_GE(b, sol.objective - 1e-6);
  }
}

}  // namespace
}  // namespace gridsec::lp
