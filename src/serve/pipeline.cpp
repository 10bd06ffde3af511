#include "serve/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "arch/recon_cache.hpp"
#include "cs/solver.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace efficsense::serve {

namespace {

/// The (design, seeds) pair a frame header selects: the scenario's base
/// design with the frame's M, and the scenario's seeds with the frame's
/// phi draw — the same knobs the offline sweeps turn.
power::DesignParams frame_design(const run::ScenarioContext& ctx,
                                 const DataHeader& h) {
  power::DesignParams design = ctx.base;
  design.cs_m = int(h.m);
  return design;
}

arch::ChainSeeds frame_seeds(const run::ScenarioContext& ctx,
                             const DataHeader& h) {
  arch::ChainSeeds seeds = ctx.spec.seeds;
  seeds.phi = h.phi_seed;
  return seeds;
}

}  // namespace

DecodePipeline::DecodePipeline(
    std::vector<const run::ScenarioContext*> scenarios)
    : scenarios_(std::move(scenarios)) {
  for (const auto* ctx : scenarios_) {
    EFF_REQUIRE(ctx != nullptr && ctx->detector.has_value(),
                "serve pipeline needs contexts with trained detectors");
  }
}

std::size_t DecodePipeline::min_epoch_samples(std::size_t scenario_id) const {
  const auto& ctx = *scenarios_[scenario_id];
  const double fs = ctx.base.f_sample_hz();
  const double epoch_s = ctx.detector->config().features.epoch_s;
  return std::size_t(epoch_s * fs);
}

Status DecodePipeline::validate(const EpochRequest& req) const {
  const auto& h = req.header;
  if (h.scenario_id >= scenarios_.size()) return Status::kUnknownScenario;
  const auto& ctx = *scenarios_[h.scenario_id];
  if (req.y.empty()) return Status::kTruncated;
  std::size_t window_samples = req.y.size();
  if (h.m > 0) {
    // M beyond the frame length N_Phi never occurs in the design space the
    // scenario sweeps; reject instead of building an absurd dictionary.
    if (h.m > std::uint32_t(ctx.base.cs_n_phi)) return Status::kBadM;
    if (req.y.size() % h.m != 0) return Status::kBadM;
    window_samples = (req.y.size() / h.m) * std::size_t(ctx.base.cs_n_phi);
  }
  if (window_samples < min_epoch_samples(h.scenario_id)) {
    return Status::kShortEpoch;
  }
  // The decoders assume finite input (the FFT butterflies skip the complex
  // operator's NaN recovery), and a NaN would only come back as a NaN score.
  if (!std::all_of(req.y.begin(), req.y.end(),
                   [](double v) { return std::isfinite(v); })) {
    return Status::kNonFinite;
  }
  return Status::kOk;
}

EpochDetection DecodePipeline::decode(const EpochRequest& req) const {
  const auto start = std::chrono::steady_clock::now();
  const auto& h = req.header;
  EFF_REQUIRE(h.scenario_id < scenarios_.size(), "scenario id out of range");
  const auto& ctx = *scenarios_[h.scenario_id];
  const auto design = frame_design(ctx, h);
  const double fs = design.f_sample_hz();

  std::vector<double> x;
  double fs_detect = fs;
  if (h.m > 0) {
    const cs::SparseSolver& solver =
        cs::SolverRegistry::instance().get(ctx.spec.recon.solver);
    if (!solver.reconstructs()) {
      // Compressed-domain scenario: the gateway skips reconstruction and
      // feeds the detector the measurement stream (whole frames) at the
      // compressed rate — the decode cost drops to the copy below.
      const std::size_t frames = req.y.size() / h.m;
      x.assign(req.y.begin(), req.y.begin() + frames * h.m);
      fs_detect = fs * double(h.m) / double(design.cs_n_phi);
    } else {
      const auto recon = arch::ReconstructorCache::instance().get(
          design, frame_seeds(ctx, h), ctx.spec.recon);
      x = recon->reconstruct_stream(req.y);
    }
  } else {
    x = req.y;
  }
  obs::histogram("time/serve_decode")
      .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count());

  const auto detect_start = std::chrono::steady_clock::now();
  EpochDetection out;
  out.node_id = h.node_id;
  out.epoch_index = h.epoch_index;
  out.n_samples = std::uint32_t(x.size());
  out.score = ctx.detector->seizure_probability(x, fs_detect);
  out.detected = out.score >= 0.5;
  obs::histogram("time/serve_detect")
      .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             detect_start)
                   .count());
  return out;
}

}  // namespace efficsense::serve
