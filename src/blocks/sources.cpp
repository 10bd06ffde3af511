#include "blocks/sources.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace efficsense::blocks {

WaveformSource::WaveformSource(std::string name)
    : sim::Block(std::move(name), 0, 1) {}

WaveformSource::WaveformSource(std::string name, sim::Waveform initial)
    : sim::Block(std::move(name), 0, 1), waveform_(std::move(initial)) {}

void WaveformSource::set_waveform(sim::Waveform w) { waveform_ = std::move(w); }

std::vector<sim::Waveform> WaveformSource::process(
    const std::vector<sim::Waveform>& in) {
  EFF_REQUIRE(in.empty(), "source takes no inputs");
  EFF_REQUIRE(!waveform_.empty(), "WaveformSource has no waveform set");
  return {waveform_};
}

SineSource::SineSource(std::string name, double fs, double duration_s,
                       double freq_hz, double amplitude, double offset,
                       double phase_rad)
    : sim::Block(std::move(name), 0, 1),
      fs_(fs),
      duration_s_(duration_s),
      freq_hz_(freq_hz),
      amplitude_(amplitude),
      offset_(offset),
      phase_rad_(phase_rad) {
  EFF_REQUIRE(fs > 0.0 && duration_s > 0.0, "fs and duration must be positive");
  EFF_REQUIRE(freq_hz > 0.0 && freq_hz < fs / 2.0,
              "tone must lie below Nyquist");
  params().set("fs", fs);
  params().set("freq_hz", freq_hz);
  params().set("amplitude", amplitude);
}

std::vector<sim::Waveform> SineSource::process(
    const std::vector<sim::Waveform>& in) {
  EFF_REQUIRE(in.empty(), "source takes no inputs");
  const auto n = static_cast<std::size_t>(fs_ * duration_s_);
  sim::Waveform out(fs_, std::vector<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) / fs_;
    out.samples[k] = offset_ + amplitude_ * std::sin(2.0 * std::numbers::pi *
                                                         freq_hz_ * t +
                                                     phase_rad_);
  }
  return {std::move(out)};
}

}  // namespace efficsense::blocks
