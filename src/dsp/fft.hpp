#pragma once
// FFT: iterative radix-2 for power-of-two lengths plus Bluestein's algorithm
// for arbitrary lengths (needed because the paper's frame and segment sizes
// are not powers of two). Used by the PSD estimator, the SNDR metric and the
// spectral feature extraction of the classifier.

#include <complex>
#include <vector>

namespace efficsense::dsp {

using Complex = std::complex<double>;

/// In-place FFT (inverse normalized by 1/N); size must be a power of two.
/// Twiddles come from a table shared across calls and threads (built once
/// per direction with the per-stage recurrence w = 1, w *= wlen), and the
/// butterfly writes the complex product out in real arithmetic. Inputs must
/// be finite: the written-out product skips the complex operator's
/// NaN-recovery step.
void fft_pow2(std::vector<Complex>& x, bool inverse = false);

/// In-place forward FFT of `lanes` signals in lockstep, stored as
/// structure-of-arrays with the lane index minor: re[i * lanes + l] /
/// im[i * lanes + l] hold bin i of lane l. The butterfly schedule, its
/// arithmetic and the twiddle table are fft_pow2's (control flow is
/// data-independent), so each lane's spectrum matches a scalar fft_pow2 of
/// that lane bit for bit. The per-bin lane rows vectorize across lanes
/// (hand-AVX2 under a runtime dispatch, scalar fallback otherwise).
void fft_pow2_lanes(double* re, double* im, std::size_t n, std::size_t lanes);

/// Forward FFT of arbitrary length (radix-2 when possible, else Bluestein).
std::vector<Complex> fft(const std::vector<Complex>& x);

/// Inverse FFT of arbitrary length (normalized by 1/N).
std::vector<Complex> ifft(const std::vector<Complex>& x);

/// FFT of a real signal; returns the full complex spectrum of length N.
std::vector<Complex> fft_real(const std::vector<double>& x);

/// One-sided amplitude spectrum of a real signal: bins 0..N/2, scaled so a
/// full-scale sine of amplitude A shows as a peak of height A.
std::vector<double> amplitude_spectrum(const std::vector<double>& x);

/// true iff n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

}  // namespace efficsense::dsp
