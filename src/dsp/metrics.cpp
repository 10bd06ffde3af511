#include "dsp/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/fft.hpp"
#include "util/error.hpp"

namespace efficsense::dsp {

double mean(const std::vector<double>& x) {
  EFF_REQUIRE(!x.empty(), "mean of empty signal");
  double sum = 0.0;
  for (double v : x) sum += v;
  return sum / static_cast<double>(x.size());
}

double rms(const std::vector<double>& x) {
  EFF_REQUIRE(!x.empty(), "rms of empty signal");
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum / static_cast<double>(x.size()));
}

double variance(const std::vector<double>& x) {
  const double m = mean(x);
  double sum = 0.0;
  for (double v : x) sum += (v - m) * (v - m);
  return sum / static_cast<double>(x.size());
}

double snr_vs_reference_db(const std::vector<double>& reference,
                           const std::vector<double>& test) {
  EFF_REQUIRE(reference.size() == test.size() && !reference.empty(),
              "snr_vs_reference: size mismatch");
  // Fit test ~= a * reference in least squares, then measure the residual.
  double rr = 0.0, rt = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    rr += reference[i] * reference[i];
    rt += reference[i] * test[i];
  }
  if (rr == 0.0) return -std::numeric_limits<double>::infinity();
  const double a = rt / rr;
  double err = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double e = test[i] - a * reference[i];
    err += e * e;
  }
  const double sig = a * a * rr;
  if (err == 0.0) return std::numeric_limits<double>::infinity();
  if (sig == 0.0) return -std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(sig / err);
}

ToneAnalysis analyze_tone(const std::vector<double>& x, double fs,
                          std::size_t peak_halfwidth) {
  EFF_REQUIRE(x.size() >= 64, "analyze_tone needs at least 64 samples");
  EFF_REQUIRE(fs > 0.0, "sample rate must be positive");

  const std::size_t n = x.size();
  const auto w = make_window(WindowKind::BlackmanHarris, n);
  std::vector<double> xw(n);
  const double m = mean(x);
  for (std::size_t i = 0; i < n; ++i) xw[i] = (x[i] - m) * w[i];

  const auto spec = fft_real(xw);
  const std::size_t half = n / 2;
  std::vector<double> power(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    power[k] = std::norm(spec[k]);
  }

  // DC region removed from consideration (window main lobe width).
  const std::size_t dc_guard = peak_halfwidth;

  // Locate the fundamental.
  std::size_t peak = dc_guard + 1;
  for (std::size_t k = dc_guard + 1; k < half; ++k) {
    if (power[k] > power[peak]) peak = k;
  }

  auto band_sum = [&](std::size_t centre) {
    double sum = 0.0;
    const std::size_t lo = centre > peak_halfwidth ? centre - peak_halfwidth : 1;
    const std::size_t hi = std::min(centre + peak_halfwidth, half);
    for (std::size_t k = lo; k <= hi; ++k) sum += power[k];
    return sum;
  };

  ToneAnalysis out;
  out.fundamental_hz = static_cast<double>(peak) * fs / static_cast<double>(n);
  out.signal_power = band_sum(peak);

  // Harmonics 2..6 (folded at Nyquist if needed).
  for (int h = 2; h <= 6; ++h) {
    double fh = out.fundamental_hz * h;
    // Fold around Nyquist.
    const double fnyq = fs / 2.0;
    while (fh > fs) fh -= fs;
    if (fh > fnyq) fh = fs - fh;
    const auto kb = static_cast<std::size_t>(
        std::llround(fh * static_cast<double>(n) / fs));
    if (kb > dc_guard && kb < half) out.harmonic_power += band_sum(kb);
  }

  double total = 0.0;
  for (std::size_t k = dc_guard + 1; k <= half; ++k) total += power[k];
  out.noise_distortion_power = std::max(total - out.signal_power, 0.0);

  if (out.noise_distortion_power == 0.0) {
    out.sndr_db = std::numeric_limits<double>::infinity();
  } else {
    out.sndr_db =
        10.0 * std::log10(out.signal_power / out.noise_distortion_power);
  }
  out.thd_db = (out.harmonic_power > 0.0)
                   ? 10.0 * std::log10(out.harmonic_power / out.signal_power)
                   : -std::numeric_limits<double>::infinity();
  out.enob = (out.sndr_db - 1.76) / 6.02;
  return out;
}

Psd welch_psd(const std::vector<double>& x, double fs, std::size_t nperseg,
              double overlap, WindowKind window) {
  EFF_REQUIRE(nperseg >= 8, "welch_psd needs nperseg >= 8");
  EFF_REQUIRE(x.size() >= nperseg, "signal shorter than one Welch segment");
  EFF_REQUIRE(overlap >= 0.0 && overlap < 1.0, "overlap must lie in [0,1)");

  const auto win = cached_window(window, nperseg);
  const std::vector<double>& w = win->samples;
  const double u = win->noise_gain;  // normalizes window power
  const auto step = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(nperseg) * (1.0 - overlap)));

  Psd out;
  const std::size_t half = nperseg / 2;
  out.density.assign(half + 1, 0.0);
  out.bin_hz = fs / static_cast<double>(nperseg);
  out.freq_hz.resize(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    out.freq_hz[k] = static_cast<double>(k) * out.bin_hz;
  }

  std::size_t segments = 0;
  std::vector<Complex> buf(nperseg);
  for (std::size_t start = 0; start + nperseg <= x.size(); start += step) {
    double seg_mean = 0.0;
    for (std::size_t i = 0; i < nperseg; ++i) seg_mean += x[start + i];
    seg_mean /= static_cast<double>(nperseg);
    for (std::size_t i = 0; i < nperseg; ++i) {
      buf[i] = Complex((x[start + i] - seg_mean) * w[i], 0.0);
    }
    auto spec = fft(buf);
    for (std::size_t k = 0; k <= half; ++k) {
      double p = std::norm(spec[k]);
      if (k != 0 && !(nperseg % 2 == 0 && k == half)) p *= 2.0;  // one-sided
      out.density[k] += p;
    }
    ++segments;
  }
  EFF_REQUIRE(segments > 0, "no Welch segments fit the record");
  const double scale =
      1.0 / (static_cast<double>(segments) * fs * u * static_cast<double>(nperseg));
  for (double& v : out.density) v *= scale;
  return out;
}

PsdLanes welch_psd_lanes(const double* xt, std::size_t n, std::size_t lanes,
                         double fs, std::size_t nperseg, double overlap,
                         WindowKind window) {
  EFF_REQUIRE(nperseg >= 8, "welch_psd needs nperseg >= 8");
  EFF_REQUIRE(n >= nperseg, "signal shorter than one Welch segment");
  EFF_REQUIRE(overlap >= 0.0 && overlap < 1.0, "overlap must lie in [0,1)");
  EFF_REQUIRE(lanes >= 1, "welch_psd_lanes needs at least one lane");
  // The lockstep FFT only has a radix-2 path; all in-tree callers derive
  // nperseg as a power of two. (welch_psd covers the Bluestein case.)
  EFF_REQUIRE(is_pow2(nperseg), "welch_psd_lanes needs power-of-two nperseg");

  const auto win = cached_window(window, nperseg);
  const std::vector<double>& w = win->samples;
  const double u = win->noise_gain;  // normalizes window power
  const auto step = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(nperseg) * (1.0 - overlap)));

  PsdLanes out;
  const std::size_t half = nperseg / 2;
  out.lanes = lanes;
  out.density.assign((half + 1) * lanes, 0.0);
  out.bin_hz = fs / static_cast<double>(nperseg);
  out.freq_hz.resize(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    out.freq_hz[k] = static_cast<double>(k) * out.bin_hz;
  }

  std::size_t segments = 0;
  std::vector<double> seg_mean(lanes);
  std::vector<double> re(nperseg * lanes), im(nperseg * lanes);
  for (std::size_t start = 0; start + nperseg <= n; start += step) {
    // Per-lane segment mean, i-accumulation in scalar order.
    std::fill(seg_mean.begin(), seg_mean.end(), 0.0);
    for (std::size_t i = 0; i < nperseg; ++i) {
      const double* row = xt + (start + i) * lanes;
      for (std::size_t l = 0; l < lanes; ++l) seg_mean[l] += row[l];
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      seg_mean[l] /= static_cast<double>(nperseg);
    }
    for (std::size_t i = 0; i < nperseg; ++i) {
      const double* row = xt + (start + i) * lanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        re[i * lanes + l] = (row[l] - seg_mean[l]) * w[i];
        im[i * lanes + l] = 0.0;
      }
    }
    fft_pow2_lanes(re.data(), im.data(), nperseg, lanes);
    for (std::size_t k = 0; k <= half; ++k) {
      const bool doubled = k != 0 && !(nperseg % 2 == 0 && k == half);
      const double* rr = re.data() + k * lanes;
      const double* ri = im.data() + k * lanes;
      double* d = out.density.data() + k * lanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        double p = rr[l] * rr[l] + ri[l] * ri[l];
        if (doubled) p *= 2.0;
        d[l] += p;
      }
    }
    ++segments;
  }
  EFF_REQUIRE(segments > 0, "no Welch segments fit the record");
  const double scale =
      1.0 / (static_cast<double>(segments) * fs * u * static_cast<double>(nperseg));
  for (double& v : out.density) v *= scale;
  return out;
}

double band_power(const Psd& psd, double f_lo, double f_hi) {
  EFF_REQUIRE(f_lo <= f_hi, "band_power requires f_lo <= f_hi");
  double power = 0.0;
  for (std::size_t k = 0; k < psd.freq_hz.size(); ++k) {
    if (psd.freq_hz[k] >= f_lo && psd.freq_hz[k] <= f_hi) {
      power += psd.density[k] * psd.bin_hz;
    }
  }
  return power;
}

double band_power(const std::vector<double>& x, double fs, double f_lo,
                  double f_hi) {
  const std::size_t nperseg = std::min<std::size_t>(256, x.size());
  return band_power(welch_psd(x, fs, nperseg), f_lo, f_hi);
}

}  // namespace efficsense::dsp
