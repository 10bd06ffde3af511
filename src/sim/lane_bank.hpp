#pragma once
// LaneBank: the structure-of-arrays waveform container of the batched
// Monte-Carlo engine. K simulation lanes (one per fabricated instance)
// share one sample grid; storage is lane-major — lane k is the contiguous
// row data()[k*samples .. (k+1)*samples) — so every per-lane kernel walks
// the same contiguous memory the scalar path does (bit-exactness for free)
// and the per-lane fallback hands rows to Block::process() without any
// repacking. The [sample][lane] alternative only wins when a kernel is
// vectorized *across* lanes; the bench_blocksim `lane_layout` microbench
// quantifies the trade (see DESIGN.md §12) and the dominant shared-noise
// path makes it moot: lane-invariant stages store one broadcast row.
//
// Uniform (broadcast) banks: when every lane would hold identical samples
// (shared noise streams upstream of the first mismatch-bearing block), the
// bank stores a single row and reports uniform() == true; lane(k) aliases
// row 0 for every k. This is where the K-lane batch earns most of its
// speedup — the whole source -> LNA -> S&H prefix is computed once.

#include <cstddef>
#include <vector>

#include "sim/waveform.hpp"

namespace efficsense::sim {

class LaneBank {
 public:
  LaneBank() = default;

  /// Bank with zero-filled storage: one row when `uniform`, else `lanes`.
  LaneBank(double fs, std::size_t lanes, std::size_t samples, bool uniform);

  /// Adopt an existing buffer as the bank's storage. `data` must hold
  /// `samples` values for a uniform bank, `lanes * samples` otherwise.
  static LaneBank adopt(double fs, std::size_t lanes, std::size_t samples,
                        bool uniform, std::vector<double> data);

  /// Broadcast a single waveform to `lanes` uniform lanes (zero copy).
  static LaneBank broadcast(std::size_t lanes, Waveform w) {
    const std::size_t n = w.samples.size();
    return adopt(w.fs, lanes, n, /*uniform=*/true, std::move(w.samples));
  }

  double fs() const { return fs_; }
  std::size_t lanes() const { return lanes_; }
  std::size_t samples() const { return samples_; }
  /// Stored rows: 1 for a uniform bank, lanes() otherwise.
  std::size_t rows() const { return uniform_ ? 1 : lanes_; }
  bool uniform() const { return uniform_; }
  bool empty() const { return lanes_ == 0 || samples_ == 0; }

  double* lane(std::size_t k) {
    return data_.data() + (uniform_ ? 0 : k * samples_);
  }
  const double* lane(std::size_t k) const {
    return data_.data() + (uniform_ ? 0 : k * samples_);
  }

  /// Copy lane k out as a standalone Waveform (per-lane fallback path).
  Waveform lane_waveform(std::size_t k) const;

  /// The raw rows() * samples() storage.
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

 private:
  double fs_ = 0.0;
  std::size_t lanes_ = 0;
  std::size_t samples_ = 0;
  bool uniform_ = false;
  std::vector<double> data_;
};

}  // namespace efficsense::sim
