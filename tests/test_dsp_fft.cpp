// FFT correctness: impulse/sine spectra, Parseval, round trips, Bluestein
// (arbitrary length) against a naive DFT reference; bit-level goldens of
// fft/ifft, lane-vs-scalar bit equality, and the shared twiddle and window
// tables.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <thread>

#include "dsp/fft.hpp"
#include "dsp/windows.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace efficsense;
using dsp::Complex;

namespace {

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      sum += x[t] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = sum;
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  return x;
}

}  // namespace

TEST(Fft, IsPow2) {
  EXPECT_TRUE(dsp::is_pow2(1));
  EXPECT_TRUE(dsp::is_pow2(256));
  EXPECT_FALSE(dsp::is_pow2(0));
  EXPECT_FALSE(dsp::is_pow2(384));
}

TEST(Fft, ImpulseIsFlat) {
  std::vector<Complex> x(64, Complex(0, 0));
  x[0] = Complex(1, 0);
  const auto spec = dsp::fft(x);
  for (const auto& v : spec) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SinePeaksAtItsBin) {
  const std::size_t n = 256;
  std::vector<Complex> x(n);
  const int bin = 17;
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = Complex(std::sin(2.0 * std::numbers::pi * bin *
                            static_cast<double>(t) / static_cast<double>(n)),
                   0.0);
  }
  const auto spec = dsp::fft(x);
  EXPECT_NEAR(std::abs(spec[bin]), n / 2.0, 1e-9);
  // All other bins (except the conjugate) are ~0.
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin || k == n - bin) continue;
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-8);
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  const auto n = GetParam();
  const auto x = random_signal(n, n);
  const auto back = dsp::ifft(dsp::fft(x));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const auto n = GetParam();
  const auto x = random_signal(n, 1000 + n);
  const auto spec = dsp::fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

TEST_P(FftRoundTrip, MatchesNaiveDft) {
  const auto n = GetParam();
  if (n > 600) GTEST_SKIP() << "naive DFT too slow";
  const auto x = random_signal(n, 7 * n);
  const auto fast = dsp::fft(x);
  const auto slow = naive_dft(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-7);
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(8, 64, 100, 384, 173, 512, 1000));

TEST(Fft, AmplitudeSpectrumScaling) {
  const std::size_t n = 512;
  const double amp = 0.75;
  const int bin = 20;
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = amp * std::cos(2.0 * std::numbers::pi * bin *
                          static_cast<double>(t) / static_cast<double>(n));
  }
  const auto spec = dsp::amplitude_spectrum(x);
  EXPECT_EQ(spec.size(), n / 2 + 1);
  EXPECT_NEAR(spec[bin], amp, 1e-9);
}

TEST(Fft, EmptyThrows) {
  EXPECT_THROW(dsp::fft({}), Error);
  EXPECT_THROW(dsp::ifft({}), Error);
}

// ---------------------------------------------------------------------------
// Bit-level goldens. The tolerance tests above accept any accurate
// transform; these pin the exact output bits of the radix-2 butterflies,
// their twiddle tables and Bluestein's chirp convolution, so a rewrite of
// the transform must reproduce every bit.

namespace {

/// Every power of two from 2 to 4096, then three Bluestein lengths.
std::vector<std::size_t> golden_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= 4096; n *= 2) sizes.push_back(n);
  for (std::size_t n : {383, 1075, 1150}) sizes.push_back(n);
  return sizes;
}

/// FNV-1a over the raw bits of each real and imaginary part, LSB first.
void fnv1a_complex(std::uint64_t& h, const std::vector<Complex>& v) {
  for (const auto& c : v) {
    for (double d : {c.real(), c.imag()}) {
      const auto bits = std::bit_cast<std::uint64_t>(d);
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ULL;
      }
    }
  }
}

}  // namespace

TEST(FftGolden, ForwardOutputBitsArePinned) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t n : golden_sizes()) {
    fnv1a_complex(h, dsp::fft(random_signal(n, 31 + n)));
  }
  EXPECT_EQ(h, 0x862FCAEBA6A015F4ULL) << std::hex << h;
}

TEST(FftGolden, InverseOutputBitsArePinned) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t n : golden_sizes()) {
    fnv1a_complex(h, dsp::ifft(random_signal(n, 57 + n)));
  }
  EXPECT_EQ(h, 0x869384D99F794B67ULL) << std::hex << h;
}

TEST(FftLanes, EveryLaneMatchesScalarTransformBitwise) {
  // Lane counts below, at and above the 4-wide AVX2 block, with a tail.
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    for (std::size_t lanes : {1, 3, 4, 5, 8}) {
      std::vector<std::vector<Complex>> scalar;
      std::vector<double> re(n * lanes), im(n * lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        scalar.push_back(random_signal(n, 100 * n + l));
        for (std::size_t i = 0; i < n; ++i) {
          re[i * lanes + l] = scalar[l][i].real();
          im[i * lanes + l] = scalar[l][i].imag();
        }
        dsp::fft_pow2(scalar[l]);
      }
      dsp::fft_pow2_lanes(re.data(), im.data(), n, lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(re[i * lanes + l]),
                    std::bit_cast<std::uint64_t>(scalar[l][i].real()))
              << "n=" << n << " lanes=" << lanes << " lane " << l
              << " bin " << i;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(im[i * lanes + l]),
                    std::bit_cast<std::uint64_t>(scalar[l][i].imag()))
              << "n=" << n << " lanes=" << lanes << " lane " << l
              << " bin " << i;
        }
      }
    }
  }
}

TEST(Windows, CoherentGainOfRectIsOne) {
  const auto w = dsp::make_window(dsp::WindowKind::Rectangular, 128);
  EXPECT_DOUBLE_EQ(dsp::window_coherent_gain(w), 1.0);
  EXPECT_DOUBLE_EQ(dsp::window_noise_gain(w), 1.0);
}

TEST(Windows, HannProperties) {
  const auto w = dsp::make_window(dsp::WindowKind::Hann, 256);
  EXPECT_NEAR(dsp::window_coherent_gain(w), 0.5, 1e-12);
  EXPECT_NEAR(dsp::window_noise_gain(w), 0.375, 1e-12);
  // Periodic Hann starts at 0 and peaks mid-window.
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[128], 1.0, 1e-12);
}

TEST(Windows, AllKindsHavePositiveGain) {
  for (auto kind : {dsp::WindowKind::Rectangular, dsp::WindowKind::Hann,
                    dsp::WindowKind::Hamming, dsp::WindowKind::BlackmanHarris,
                    dsp::WindowKind::FlatTop}) {
    const auto w = dsp::make_window(kind, 64);
    EXPECT_GT(dsp::window_coherent_gain(w), 0.0);
    EXPECT_GT(dsp::window_noise_gain(w), 0.0);
  }
}

TEST(Windows, FromName) {
  EXPECT_EQ(dsp::window_from_name("hann"), dsp::WindowKind::Hann);
  EXPECT_EQ(dsp::window_from_name("bh"), dsp::WindowKind::BlackmanHarris);
  EXPECT_THROW(dsp::window_from_name("nope"), Error);
}

TEST(Windows, CachedWindowIsMakeWindowBitwise) {
  // More (kind, length) pairs than the cache holds, requested twice: every
  // answer, fresh build or hit, carries make_window's bits and noise gain.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto kind : {dsp::WindowKind::Rectangular, dsp::WindowKind::Hann,
                      dsp::WindowKind::Hamming, dsp::WindowKind::BlackmanHarris,
                      dsp::WindowKind::FlatTop}) {
      for (std::size_t n : {8, 64, 100, 256}) {
        const auto cached = dsp::cached_window(kind, n);
        const auto w = dsp::make_window(kind, n);
        ASSERT_EQ(cached->samples.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(cached->samples[i]),
                    std::bit_cast<std::uint64_t>(w[i]));
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cached->noise_gain),
                  std::bit_cast<std::uint64_t>(dsp::window_noise_gain(w)));
      }
    }
  }
  // A repeated request shares the table built by the first one.
  const auto a = dsp::cached_window(dsp::WindowKind::Hann, 512);
  EXPECT_EQ(dsp::cached_window(dsp::WindowKind::Hann, 512).get(), a.get());
}

TEST(FftTables, ServeConcurrentCallers) {
  // Threads grow the twiddle table and cycle the window cache past its
  // capacity while others read them; every result matches the serial one.
  const std::vector<std::size_t> sizes = {4096, 2, 256, 1024, 8, 383, 64};
  std::vector<std::vector<Complex>> want;
  for (std::size_t n : sizes) want.push_back(dsp::fft(random_signal(n, n)));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        for (std::size_t j = 0; j < sizes.size(); ++j) {
          const std::size_t i = (j + std::size_t(t)) % sizes.size();
          if (dsp::fft(random_signal(sizes[i], sizes[i])) != want[i]) {
            ++mismatches;
          }
          const std::size_t n = 16 + std::size_t(t) * 16 + std::size_t(rep % 6);
          const auto w = dsp::cached_window(dsp::WindowKind::Hann, n);
          if (w->samples != dsp::make_window(dsp::WindowKind::Hann, n)) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}
