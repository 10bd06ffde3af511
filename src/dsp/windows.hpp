#pragma once
// Window functions for spectral analysis (SNDR, Welch PSD). The metric code
// defaults to Blackman-Harris, whose sidelobes (-92 dB) are far below the
// quantization floors measured in this project.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace efficsense::dsp {

enum class WindowKind { Rectangular, Hann, Hamming, BlackmanHarris, FlatTop };

/// Generate the window samples (periodic form, suited for spectral analysis).
std::vector<double> make_window(WindowKind kind, std::size_t n);

/// Sum of window samples (coherent gain * n), needed for amplitude scaling.
double window_coherent_gain(const std::vector<double>& w);

/// Sum of squared samples / n (noise gain), needed for power scaling.
double window_noise_gain(const std::vector<double>& w);

/// A window's samples with its noise gain.
struct CachedWindow {
  std::vector<double> samples;  ///< make_window(kind, n)
  double noise_gain = 0.0;      ///< window_noise_gain(samples)
};

/// make_window plus its noise gain, built on the first request for a (kind,
/// length) and shared read-only afterwards, so repeated Welch estimates do
/// not re-evaluate the cosines. Thread-safe; holds the most recently built
/// few (kind, length) pairs.
std::shared_ptr<const CachedWindow> cached_window(WindowKind kind,
                                                  std::size_t n);

/// Parse from text ("hann", "blackman-harris", ...), for CLI/bench knobs.
WindowKind window_from_name(const std::string& name);

}  // namespace efficsense::dsp
