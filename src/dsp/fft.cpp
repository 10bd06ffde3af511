#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "linalg/lane_kernels.hpp"
#include "util/error.hpp"

namespace efficsense::dsp {

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

namespace {

// Twiddle factors of every radix-2 stage, built with the recurrence the
// butterflies always used (w starts at 1 and multiplies by wlen once per
// step), so each value is bitwise the one a per-block recurrence yields.
// Stage `len` occupies entries [len/2 - 1, len - 1); a stage's entries do
// not depend on the transform length, so the table for n serves every
// power of two up to n.
std::vector<Complex> build_twiddles(std::size_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> tw(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    Complex* stage = tw.data() + len / 2 - 1;
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      stage[k] = w;
      w *= wlen;
    }
  }
  return tw;
}

/// The shared table for transforms of length <= n (n >= 2) in one
/// direction: one table per direction, replaced by a longer one when a
/// longer transform first runs, so memory stays bounded by the largest
/// length in use. Thread-safe; holders keep a replaced table alive.
std::shared_ptr<const std::vector<Complex>> twiddles(std::size_t n,
                                                     bool inverse) {
  static std::mutex mutex;
  // Forward and inverse tables, guarded by mutex.
  static std::shared_ptr<const std::vector<Complex>> tables[2];
  std::lock_guard lock(mutex);
  auto& table = tables[inverse ? 1 : 0];
  if (!table || table->size() < n - 1) {
    table = std::make_shared<const std::vector<Complex>>(
        build_twiddles(n, inverse));
  }
  return table;
}

}  // namespace

void fft_pow2(std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  EFF_REQUIRE(is_pow2(n), "fft_pow2 requires a power-of-two length");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }

  // v = b*w written out as br*wr - bi*wi / br*wi + bi*wr: what the complex
  // operator computes for finite values, without its NaN-recovery branch.
  const auto table = twiddles(n, inverse);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complex* tw = table->data() + half - 1;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[k].real();
        const double wi = tw[k].imag();
        Complex& u = x[i + k];
        Complex& b = x[i + k + half];
        const double vr = b.real() * wr - b.imag() * wi;
        const double vi = b.real() * wi + b.imag() * wr;
        const double u_r = u.real();
        const double u_i = u.imag();
        u = Complex(u_r + vr, u_i + vi);
        b = Complex(u_r - vr, u_i - vi);
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv;
  }
}

namespace {

// One butterfly stage across all lanes, with fft_pow2's arithmetic
// (v = b*w as br*wr - bi*wi / br*wi + bi*wr, then u +/- v component-wise),
// so every lane reproduces its rounding; `tw` holds the stage's twiddles.
// The lane loop has no cross-lane dependency, which is what the AVX2
// variant exploits.
void butterfly_stage_scalar(double* re, double* im, std::size_t n,
                            std::size_t lanes, std::size_t len,
                            const Complex* tw) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const double wr = tw[k].real();
      const double wi = tw[k].imag();
      double* ur = re + (i + k) * lanes;
      double* ui = im + (i + k) * lanes;
      double* br = re + (i + k + half) * lanes;
      double* bi = im + (i + k + half) * lanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        const double vr = br[l] * wr - bi[l] * wi;
        const double vi = br[l] * wi + bi[l] * wr;
        const double u_r = ur[l];
        const double u_i = ui[l];
        ur[l] = u_r + vr;
        ui[l] = u_i + vi;
        br[l] = u_r - vr;
        bi[l] = u_i - vi;
      }
    }
  }
}

#if defined(__x86_64__)
// mul and add/sub stay separate instructions (never fmadd): the scalar
// oracle is built without FMA, and contraction would change low bits.
__attribute__((target("avx2"))) void butterfly_stage_avx2(
    double* re, double* im, std::size_t n, std::size_t lanes, std::size_t len,
    const Complex* tw) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const __m256d vwr = _mm256_set1_pd(tw[k].real());
      const __m256d vwi = _mm256_set1_pd(tw[k].imag());
      double* ur = re + (i + k) * lanes;
      double* ui = im + (i + k) * lanes;
      double* br = re + (i + k + half) * lanes;
      double* bi = im + (i + k + half) * lanes;
      std::size_t l = 0;
      for (; l + 4 <= lanes; l += 4) {
        const __m256d xbr = _mm256_loadu_pd(br + l);
        const __m256d xbi = _mm256_loadu_pd(bi + l);
        const __m256d vr = _mm256_sub_pd(_mm256_mul_pd(xbr, vwr),
                                         _mm256_mul_pd(xbi, vwi));
        const __m256d vi = _mm256_add_pd(_mm256_mul_pd(xbr, vwi),
                                         _mm256_mul_pd(xbi, vwr));
        const __m256d xur = _mm256_loadu_pd(ur + l);
        const __m256d xui = _mm256_loadu_pd(ui + l);
        _mm256_storeu_pd(ur + l, _mm256_add_pd(xur, vr));
        _mm256_storeu_pd(ui + l, _mm256_add_pd(xui, vi));
        _mm256_storeu_pd(br + l, _mm256_sub_pd(xur, vr));
        _mm256_storeu_pd(bi + l, _mm256_sub_pd(xui, vi));
      }
      for (; l < lanes; ++l) {
        const double vr = br[l] * tw[k].real() - bi[l] * tw[k].imag();
        const double vi = br[l] * tw[k].imag() + bi[l] * tw[k].real();
        const double u_r = ur[l];
        const double u_i = ui[l];
        ur[l] = u_r + vr;
        ui[l] = u_i + vi;
        br[l] = u_r - vr;
        bi[l] = u_i - vi;
      }
    }
  }
}
#endif

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Bluestein chirp-z transform: expresses an arbitrary-length DFT as a
/// convolution, evaluated with power-of-two FFTs.
std::vector<Complex> bluestein(const std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  const double sign = inverse ? 1.0 : -1.0;
  const std::size_t m = next_pow2(2 * n - 1);

  std::vector<Complex> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Use k^2 mod 2n to keep the phase argument small for large k.
    const std::size_t k2 = (static_cast<unsigned long long>(k) * k) % (2 * n);
    const double ang =
        sign * std::numbers::pi * static_cast<double>(k2) / static_cast<double>(n);
    chirp[k] = Complex(std::cos(ang), std::sin(ang));
  }

  std::vector<Complex> a(m, Complex(0, 0)), b(m, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * chirp[k];
  b[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) b[k] = b[m - k] = std::conj(chirp[k]);

  fft_pow2(a);
  fft_pow2(b);
  for (std::size_t k = 0; k < m; ++k) a[k] *= b[k];
  fft_pow2(a, /*inverse=*/true);

  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * chirp[k];
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& v : out) v *= inv;
  }
  return out;
}

}  // namespace

void fft_pow2_lanes(double* re, double* im, std::size_t n, std::size_t lanes) {
  EFF_REQUIRE(is_pow2(n), "fft_pow2_lanes requires a power-of-two length");
  EFF_REQUIRE(lanes >= 1, "fft_pow2_lanes needs at least one lane");
  if (n == 1) return;

  // Bit-reversal permutation: swap whole lane rows.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap_ranges(re + i * lanes, re + (i + 1) * lanes, re + j * lanes);
      std::swap_ranges(im + i * lanes, im + (i + 1) * lanes, im + j * lanes);
    }
  }

  const auto table = twiddles(n, /*inverse=*/false);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Complex* tw = table->data() + len / 2 - 1;
#if defined(__x86_64__)
    if (lanes >= 4 && linalg::cpu_has_avx2()) {
      butterfly_stage_avx2(re, im, n, lanes, len, tw);
      continue;
    }
#endif
    butterfly_stage_scalar(re, im, n, lanes, len, tw);
  }
}

std::vector<Complex> fft(const std::vector<Complex>& x) {
  EFF_REQUIRE(!x.empty(), "fft of empty signal");
  if (is_pow2(x.size())) {
    std::vector<Complex> copy = x;
    fft_pow2(copy);
    return copy;
  }
  return bluestein(x, /*inverse=*/false);
}

std::vector<Complex> ifft(const std::vector<Complex>& x) {
  EFF_REQUIRE(!x.empty(), "ifft of empty signal");
  if (is_pow2(x.size())) {
    std::vector<Complex> copy = x;
    fft_pow2(copy, /*inverse=*/true);
    return copy;
  }
  return bluestein(x, /*inverse=*/true);
}

std::vector<Complex> fft_real(const std::vector<double>& x) {
  std::vector<Complex> cx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) cx[i] = Complex(x[i], 0.0);
  return fft(cx);
}

std::vector<double> amplitude_spectrum(const std::vector<double>& x) {
  const auto spec = fft_real(x);
  const std::size_t n = x.size();
  std::vector<double> amp(n / 2 + 1);
  for (std::size_t k = 0; k < amp.size(); ++k) {
    double mag = std::abs(spec[k]) / static_cast<double>(n);
    if (k != 0 && !(n % 2 == 0 && k == n / 2)) mag *= 2.0;  // fold negative bins
    amp[k] = mag;
  }
  return amp;
}

}  // namespace efficsense::dsp
