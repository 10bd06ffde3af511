#include "run/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cs/solver.hpp"
#include "eeg/generator.hpp"
#include "obs/metrics.hpp"
#include "util/cache.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::run {

namespace {

/// True when any point of the scenario routes to a non-reconstructing
/// solver (the eval solver itself, or a value of a swept "solver" axis):
/// the detector then also needs measurement-domain training views, since
/// those points score it directly on y.
bool scenario_uses_measurement_domain(const arch::ScenarioSpec& spec) {
  auto& registry = cs::SolverRegistry::instance();
  if (!registry.get(spec.recon.solver).reconstructs()) return true;
  for (const auto& [name, values] : spec.space.axes()) {
    if (name != "solver") continue;
    for (const double v : values) {
      const auto id = registry.id_of_code(static_cast<int>(std::llround(v)));
      if (!registry.get(id).reconstructs()) return true;
    }
  }
  return false;
}

/// Train (or load from the repo file cache) the spec's detector. The key
/// pins everything that shapes the trained weights.
classify::EpilepsyDetector scenario_detector(
    const arch::ScenarioSpec& spec, const eeg::Generator& gen,
    const power::DesignParams& base, ThreadPool* pool,
    const std::function<void(const std::string&)>& log) {
  classify::DetectorConfig cfg;
  cfg.fs_hz = base.f_sample_hz();
  if (scenario_uses_measurement_domain(spec)) {
    auto& yv = cfg.augment.y_view;
    int m = base.cs_m;
    if (m <= 0) {
      // Base design has CS off; take the first CS-enabled value of the
      // cs_m axis so the y-view matches what the sweep actually deploys.
      for (const auto& [name, values] : spec.space.axes()) {
        if (name != "cs_m") continue;
        for (const double v : values) {
          if (v > 0.5) {
            m = static_cast<int>(std::llround(v));
            break;
          }
        }
        break;
      }
    }
    EFF_REQUIRE(m > 0,
                "compressed-domain scenario needs a CS-enabled cs_m "
                "(base override or axis value)");
    yv.enabled = true;
    yv.phi_seed = spec.seeds.phi;
    yv.m = m;
    yv.n_phi = base.cs_n_phi;
    yv.sparsity = base.cs_sparsity;
    yv.c_sample_f = base.cs_c_sample_f;
    yv.c_hold_f = base.cs_c_hold_f;
  }
  const std::size_t n_seizure = spec.train_segments / 2;
  const std::size_t n_normal = spec.train_segments - n_seizure;
  const auto train_seed = derive_seed(spec.seed, 0xDE7);
  std::ostringstream key;
  key.precision(17);
  key << "scenario/detector/v1;train=" << n_seizure << "x" << n_normal << "@"
      << train_seed << ";fs=" << cfg.fs_hz << ";hidden=" << cfg.hidden_units
      << ";aug_seed=" << cfg.augment.seed << ";train_seed=" << cfg.train.seed;
  if (cfg.augment.y_view.enabled) {
    // Suffix only when the view is on, so every recon-only scenario keeps
    // its pre-existing cache key byte for byte.
    key << ";ydom=" << cfg.augment.y_view.m << "x" << cfg.augment.y_view.n_phi
        << "@" << cfg.augment.y_view.phi_seed;
  }
  const auto cache = default_cache();
  if (const auto blob = cache.load(key.str())) {
    obs::counter("detector_cache/hits").inc();
    if (log) log("detector: cache hit");
    return classify::EpilepsyDetector::from_blob(*blob);
  }
  obs::counter("detector_cache/misses").inc();
  if (log) log("detector: training");
  auto detector = classify::EpilepsyDetector::train(
      eeg::make_dataset(gen, n_seizure, n_normal, train_seed, pool), cfg);
  cache.store(key.str(), detector.to_blob());
  return detector;
}

}  // namespace

core::EvalOptions scenario_eval_options(const arch::ScenarioSpec& spec) {
  core::EvalOptions options;
  options.recon = spec.recon;
  options.seeds = spec.seeds;
  options.max_segments = spec.max_segments;
  options.architecture = spec.architecture;
  options.scenario_digest = spec.digest();
  return options;
}

std::unique_ptr<ScenarioContext> make_scenario_context(
    arch::ScenarioSpec spec, ThreadPool* pool,
    const std::function<void(const std::string&)>& log) {
  auto context = std::make_unique<ScenarioContext>();
  context->spec = std::move(spec);
  context->base = context->spec.base_design();

  const auto n = static_cast<std::size_t>(
      env_int("EFFICSENSE_SEGMENTS",
              static_cast<std::int64_t>(context->spec.segments)));
  const eeg::Generator gen{eeg::GeneratorConfig{}};
  context->dataset = eeg::make_dataset(gen, n / 2, n - n / 2,
                                       derive_seed(context->spec.seed, 0xEA1),
                                       pool);
  context->detector =
      scenario_detector(context->spec, gen, context->base, pool, log);
  context->evaluator = std::make_unique<core::Evaluator>(
      power::TechnologyParams{}, &context->dataset, &*context->detector,
      scenario_eval_options(context->spec));
  return context;
}

RunOutcome run_scenario(const ScenarioContext& context, RunOptions options,
                        ThreadPool* pool,
                        const DurableSweeper::Progress& progress) {
  if (options.config_digest == 0) {
    options.config_digest = context.evaluator->config_digest();
  }
  const DurableSweeper sweeper(context.evaluator.get(), std::move(options));
  return sweeper.run(context.base, context.spec.space, pool, progress);
}

}  // namespace efficsense::run
