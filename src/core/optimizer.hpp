#pragma once
// Budgeted design-space search: beyond the exhaustive grid sweep the paper
// uses, real pathfinding wants an optimum under an evaluation budget. The
// optimizer combines random sampling over the axis grids with coordinate
// descent around the incumbent, under the constrained objective the paper
// optimizes (minimum power subject to a quality floor).

#include <functional>
#include <optional>
#include <string>

#include "arch/design_space.hpp"
#include "core/evaluator.hpp"
#include "core/study.hpp"

namespace efficsense::core {

struct OptimizerOptions {
  std::size_t budget = 48;        ///< maximum number of evaluations
  double explore_fraction = 0.5;  ///< share of the budget spent sampling
  Merit merit = Merit::Accuracy;
  double min_merit = 0.98;        ///< quality constraint (paper: 98 %)
  std::uint64_t seed = 7;
};

struct OptimizerResult {
  /// Every evaluated point, in evaluation order (no duplicates).
  std::vector<SweepResult> evaluated;
  /// Index into `evaluated` of the best design: the cheapest point meeting
  /// min_merit, or — if none qualifies — the highest-merit point.
  std::size_t best = 0;
  bool feasible = false;  ///< best meets the constraint
  std::size_t evaluations() const { return evaluated.size(); }
};

class PathfindingOptimizer {
 public:
  using EvaluateFn = std::function<EvalMetrics(const power::DesignParams&)>;

  /// Generic form (unit-testable with analytic objectives).
  PathfindingOptimizer(EvaluateFn evaluate, power::DesignParams base,
                       arch::DesignSpace space);
  /// Convenience: bind to a full Evaluator.
  PathfindingOptimizer(const Evaluator* evaluator, power::DesignParams base,
                       arch::DesignSpace space);

  OptimizerResult run(
      const OptimizerOptions& options = {},
      const std::function<void(const std::string&)>& log = {}) const;

 private:
  EvaluateFn evaluate_;
  power::DesignParams base_;
  arch::DesignSpace space_;
};

}  // namespace efficsense::core
