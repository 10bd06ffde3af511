#include "sim/lane_bank.hpp"

#include "util/error.hpp"

namespace efficsense::sim {

LaneBank::LaneBank(double fs, std::size_t lanes, std::size_t samples,
                   bool uniform)
    : fs_(fs),
      lanes_(lanes),
      samples_(samples),
      uniform_(uniform),
      data_((uniform ? 1 : lanes) * samples) {
  EFF_REQUIRE(lanes >= 1, "a lane bank needs at least one lane");
}

LaneBank LaneBank::adopt(double fs, std::size_t lanes, std::size_t samples,
                         bool uniform, std::vector<double> data) {
  EFF_REQUIRE(lanes >= 1, "a lane bank needs at least one lane");
  EFF_REQUIRE(data.size() == (uniform ? 1 : lanes) * samples,
              "adopted buffer does not match the bank geometry");
  LaneBank bank;
  bank.fs_ = fs;
  bank.lanes_ = lanes;
  bank.samples_ = samples;
  bank.uniform_ = uniform;
  bank.data_ = std::move(data);
  return bank;
}

Waveform LaneBank::lane_waveform(std::size_t k) const {
  EFF_REQUIRE(k < lanes_, "lane index out of range");
  Waveform w;
  w.fs = fs_;
  const double* row = lane(k);
  w.samples.assign(row, row + samples_);
  return w;
}

}  // namespace efficsense::sim
