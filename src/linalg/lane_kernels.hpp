#pragma once
// SIMD kernels for the K-lane batched engine and for every Batch-OMP solve.
// Every kernel keeps each result's floating-point operation order identical
// to a plain scalar loop — SIMD runs ACROSS lanes or independent elements,
// never along a reduction index — so results match the scalar loop bit for
// bit at any width. The AVX2 variants are picked by a runtime CPU probe,
// with a scalar fallback, and use separate multiply and add instructions:
// the build carries no -march flag, so scalar code never contracts to FMA
// and the vector path must not either.

#include <cstddef>

namespace efficsense::linalg {

/// True when the CPU supports AVX2 (cached runtime probe).
bool cpu_has_avx2();

/// out[l] = sum_i a[i] * xt[i*lanes + l] for each lane l, with the
/// i-accumulation in scalar order per lane. `xt` is sample-major SoA
/// (lane index minor). This shares one FP add-latency chain across all
/// lanes, which is where the batched-vs-scalar win comes from.
void dot_lanes(const double* a, const double* xt, std::size_t n,
               std::size_t lanes, double* out);

/// a[k] -= c * r[k], elementwise. No reduction is reordered, and IEEE
/// mul/sub are correctly rounded at any width, so the AVX2 path is
/// bit-identical to the scalar loop.
void sub_scaled(double* a, const double* r, double c, std::size_t n);

/// First k (ascending) maximizing fabs(alpha[k]) / col_norm[k] under
/// strict '>' updates, skipping entries with live[k] == 0.0. Returns n
/// when nothing scores above zero; writes the winning score to
/// *best_score (left at 0.0 otherwise). Matches the scalar OMP atom
/// selection loop exactly: the vector path only prefilters blocks whose
/// maximum cannot beat the current best, then rescans in scalar order.
std::size_t select_atom(const double* alpha, const double* col_norm,
                        const double* live, std::size_t n,
                        double* best_score);

}  // namespace efficsense::linalg
