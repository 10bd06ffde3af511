#include "core/optimizer.hpp"

#include <map>
#include <sstream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::core {

PathfindingOptimizer::PathfindingOptimizer(EvaluateFn evaluate,
                                           power::DesignParams base,
                                           arch::DesignSpace space)
    : evaluate_(std::move(evaluate)), base_(base), space_(std::move(space)) {
  EFF_REQUIRE(static_cast<bool>(evaluate_), "optimizer needs an evaluator");
  EFF_REQUIRE(space_.axis_count() > 0, "optimizer needs at least one axis");
}

PathfindingOptimizer::PathfindingOptimizer(const Evaluator* evaluator,
                                           power::DesignParams base,
                                           arch::DesignSpace space)
    : PathfindingOptimizer(
          [evaluator](const power::DesignParams& d) {
            return evaluator->evaluate(d);
          },
          base, std::move(space)) {
  EFF_REQUIRE(evaluator != nullptr, "optimizer needs an evaluator");
}

namespace {

double merit_of(const EvalMetrics& m, Merit merit) {
  return merit == Merit::Snr ? m.snr_db : m.accuracy;
}

/// Constrained comparison: feasible beats infeasible; among feasible lower
/// power wins; among infeasible higher merit wins.
bool better(const EvalMetrics& a, const EvalMetrics& b, Merit merit,
            double min_merit) {
  const bool fa = merit_of(a, merit) >= min_merit;
  const bool fb = merit_of(b, merit) >= min_merit;
  if (fa != fb) return fa;
  if (fa) return a.power_w < b.power_w;
  return merit_of(a, merit) > merit_of(b, merit);
}

}  // namespace

OptimizerResult PathfindingOptimizer::run(
    const OptimizerOptions& options,
    const std::function<void(const std::string&)>& log) const {
  EFFICSENSE_SPAN("optimizer/run");
  EFF_REQUIRE(options.budget >= 2, "budget too small");

  const auto& axes = space_.axes();
  Rng rng(options.seed);

  OptimizerResult result;
  std::map<std::string, std::size_t> seen;  // point string -> index

  // Current position as per-axis value indices.
  std::vector<std::size_t> position(axes.size());

  auto point_from = [&](const std::vector<std::size_t>& idx) {
    arch::PointValues p;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      p[axes[a].first] = axes[a].second[idx[a]];
    }
    return p;
  };

  auto eval_indexed =
      [&](const std::vector<std::size_t>& idx) -> std::optional<std::size_t> {
    if (result.evaluated.size() >= options.budget) return std::nullopt;
    const auto point = point_from(idx);
    const auto key = arch::point_to_string(point);
    if (auto it = seen.find(key); it != seen.end()) {
      obs::counter("optimizer/dedup_hits").inc();
      return it->second;
    }
    EFFICSENSE_SPAN("optimizer/eval");
    obs::counter("optimizer/evals").inc();
    SweepResult r;
    r.point = point;
    r.design = arch::apply_point(base_, point);
    r.metrics = evaluate_(r.design);
    result.evaluated.push_back(std::move(r));
    const std::size_t index = result.evaluated.size() - 1;
    seen[key] = index;
    if (log) {
      std::ostringstream os;
      os << "eval " << index + 1 << "/" << options.budget << ": "
         << describe_result(result.evaluated[index]);
      log(os.str());
    }
    return index;
  };

  auto is_better = [&](std::size_t a, std::size_t b) {
    return better(result.evaluated[a].metrics, result.evaluated[b].metrics,
                  options.merit, options.min_merit);
  };

  // --- Phase 1: random exploration over the grids --------------------------
  const auto explore_budget = static_cast<std::size_t>(
      static_cast<double>(options.budget) * options.explore_fraction);
  std::size_t best = 0;
  bool have_any = false;
  std::size_t attempts = 0;
  while (result.evaluated.size() < std::max<std::size_t>(1, explore_budget) &&
         attempts < 20 * options.budget) {
    ++attempts;
    std::vector<std::size_t> idx(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      idx[a] = static_cast<std::size_t>(rng.below(axes[a].second.size()));
    }
    if (const auto got = eval_indexed(idx)) {
      if (!have_any || is_better(*got, best)) {
        best = *got;
        have_any = true;
        position = idx;
      }
    }
  }
  EFF_REQUIRE(have_any, "optimizer could not evaluate any point");

  // --- Phase 2: coordinate descent around the incumbent --------------------
  bool improved = true;
  while (improved && result.evaluated.size() < options.budget) {
    improved = false;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      for (int dir : {-1, +1}) {
        if (result.evaluated.size() >= options.budget) break;
        const long long next = static_cast<long long>(position[a]) + dir;
        if (next < 0 ||
            next >= static_cast<long long>(axes[a].second.size())) {
          continue;
        }
        auto idx = position;
        idx[a] = static_cast<std::size_t>(next);
        const auto got = eval_indexed(idx);
        if (got && is_better(*got, best)) {
          best = *got;
          position = idx;
          improved = true;
        }
      }
    }
  }

  result.best = best;
  result.feasible = merit_of(result.evaluated[best].metrics, options.merit) >=
                    options.min_merit;
  EFFICSENSE_LOG_DEBUG("optimizer finished",
                       {{"evals", obs::logv(result.evaluated.size())},
                        {"feasible", result.feasible ? "yes" : "no"}});
  return result;
}

}  // namespace efficsense::core
