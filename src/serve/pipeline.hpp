#pragma once
// The gateway's decode/detect path: one epoch of framed measurements in,
// one detection out. This is *exactly* the offline machinery — the frame's
// (scenario id, phi seed, M) select a cs::Reconstructor through the
// process-wide arch::ReconstructorCache and the decoded window is scored by
// the scenario's trained EpilepsyDetector — so a detection streamed back by
// the daemon is bit-identical to the offline oracle computing the same
// request in-process. bench_serve and the serve-smoke CI job assert that
// equality on every returned detection.

#include <cstdint>
#include <vector>

#include "run/scenario.hpp"
#include "serve/wire.hpp"

namespace efficsense::serve {

/// One epoch's decode request (the payload of a kData frame).
struct EpochRequest {
  DataHeader header;
  std::vector<double> y;
};

/// Decode result (the payload of a kDetection frame).
struct EpochDetection {
  std::uint64_t node_id = 0;
  std::uint64_t epoch_index = 0;
  double score = 0.0;
  bool detected = false;
  std::uint32_t n_samples = 0;
};

/// Stateless facade over the loaded scenarios. Thread-safe: the contexts
/// are read-only after construction and the reconstructor cache is the
/// process-wide thread-safe LRU.
class DecodePipeline {
 public:
  /// `scenarios[i]` serves frames with scenario_id == i. Contexts must
  /// outlive the pipeline and carry a trained detector.
  explicit DecodePipeline(
      std::vector<const run::ScenarioContext*> scenarios);

  /// Admission check without decoding: kOk, or the typed rejection a
  /// malformed/unservable request earns (kUnknownScenario, kTruncated,
  /// kBadM, kShortEpoch, kNonFinite).
  Status validate(const EpochRequest& req) const;

  /// Decode + detect. The request must have passed validate().
  /// M > 0: y is consumed M measurements per CS frame through the cached
  /// reconstructor; M == 0: y is the raw waveform (pass-through chain).
  EpochDetection decode(const EpochRequest& req) const;

  std::size_t scenario_count() const { return scenarios_.size(); }
  const run::ScenarioContext& scenario(std::size_t id) const {
    return *scenarios_[id];
  }

  /// Samples the decoded window must hold for one detector epoch at the
  /// scenario's sample rate.
  std::size_t min_epoch_samples(std::size_t scenario_id) const;

 private:
  std::vector<const run::ScenarioContext*> scenarios_;
};

}  // namespace efficsense::serve
