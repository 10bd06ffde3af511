#include "dsp/windows.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numbers>

#include "util/error.hpp"

namespace efficsense::dsp {

namespace {
// Periodic cosine-sum window with the given coefficients.
std::vector<double> cosine_sum(std::size_t n, const std::vector<double>& a) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 2.0 * std::numbers::pi * static_cast<double>(i) /
                     static_cast<double>(n);
    double v = 0.0;
    double sign = 1.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      v += sign * a[k] * std::cos(static_cast<double>(k) * x);
      sign = -sign;
    }
    w[i] = v;
  }
  return w;
}
}  // namespace

std::vector<double> make_window(WindowKind kind, std::size_t n) {
  EFF_REQUIRE(n > 0, "window length must be positive");
  switch (kind) {
    case WindowKind::Rectangular:
      return std::vector<double>(n, 1.0);
    case WindowKind::Hann:
      return cosine_sum(n, {0.5, 0.5});
    case WindowKind::Hamming:
      return cosine_sum(n, {0.54, 0.46});
    case WindowKind::BlackmanHarris:
      return cosine_sum(n, {0.35875, 0.48829, 0.14128, 0.01168});
    case WindowKind::FlatTop:
      return cosine_sum(n, {0.21557895, 0.41663158, 0.277263158, 0.083578947,
                            0.006947368});
  }
  throw Error("unknown window kind");
}

double window_coherent_gain(const std::vector<double>& w) {
  double sum = 0.0;
  for (double v : w) sum += v;
  return sum / static_cast<double>(w.size());
}

double window_noise_gain(const std::vector<double>& w) {
  double sum = 0.0;
  for (double v : w) sum += v * v;
  return sum / static_cast<double>(w.size());
}

std::shared_ptr<const CachedWindow> cached_window(WindowKind kind,
                                                  std::size_t n) {
  struct Entry {
    WindowKind kind;
    std::size_t n;
    std::shared_ptr<const CachedWindow> window;
  };
  constexpr std::size_t kCapacity = 8;
  static std::mutex mutex;
  static std::vector<Entry> entries;  // guarded by mutex, oldest first
  const auto find = [&] {
    return std::find_if(entries.begin(), entries.end(), [&](const Entry& e) {
      return e.kind == kind && e.n == n;
    });
  };
  {
    std::lock_guard lock(mutex);
    if (const auto it = find(); it != entries.end()) return it->window;
  }
  CachedWindow built;
  built.samples = make_window(kind, n);
  built.noise_gain = window_noise_gain(built.samples);
  auto window = std::make_shared<const CachedWindow>(std::move(built));
  std::lock_guard lock(mutex);
  // Another thread may have built the same window meanwhile; share its copy.
  if (const auto it = find(); it != entries.end()) return it->window;
  if (entries.size() == kCapacity) entries.erase(entries.begin());
  entries.push_back({kind, n, window});
  return window;
}

WindowKind window_from_name(const std::string& name) {
  if (name == "rect" || name == "rectangular") return WindowKind::Rectangular;
  if (name == "hann") return WindowKind::Hann;
  if (name == "hamming") return WindowKind::Hamming;
  if (name == "blackman-harris" || name == "bh") return WindowKind::BlackmanHarris;
  if (name == "flattop" || name == "flat-top") return WindowKind::FlatTop;
  throw Error("unknown window name: " + name);
}

}  // namespace efficsense::dsp
