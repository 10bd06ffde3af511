#include "sim/block.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace efficsense::sim {

Block::Block(std::string name, std::size_t num_inputs, std::size_t num_outputs)
    : name_(std::move(name)), num_inputs_(num_inputs), num_outputs_(num_outputs) {
  EFF_REQUIRE(!name_.empty(), "block name must not be empty");
}

void Block::process_batch(std::size_t lanes,
                          const std::vector<const LaneBank*>& inputs,
                          std::vector<LaneBank>& outputs) {
  EFF_REQUIRE(lanes >= 1, "process_batch needs at least one lane");
  EFF_REQUIRE(inputs.size() == num_inputs_,
              "wrong number of input banks for " + name_);
  bool all_uniform = true;
  for (const LaneBank* in : inputs) {
    EFF_REQUIRE(in != nullptr && in->lanes() == lanes,
                "input bank lane count mismatch on " + name_);
    all_uniform = all_uniform && in->uniform();
  }

  std::vector<Waveform> scratch(inputs.size());
  if (all_uniform) {
    // Lane-invariant assumption: one scalar run, broadcast to every lane.
    // Per-run RNG state (if any) advances exactly once, like one scalar
    // instance — bit-exact whenever the lanes share the block's streams.
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      scratch[p] = inputs[p]->lane_waveform(0);
    }
    auto outs = process(scratch);
    EFF_REQUIRE(outs.size() == num_outputs_,
                "block " + name_ + " produced wrong number of outputs");
    for (auto& w : outs) {
      outputs.push_back(LaneBank::broadcast(lanes, std::move(w)));
    }
    return;
  }

  // Per-lane scalar fallback. Only bit-exact for blocks without per-run RNG
  // or per-lane fabrication state — stateful hot blocks override.
  const std::size_t base = outputs.size();
  for (std::size_t k = 0; k < lanes; ++k) {
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      scratch[p] = inputs[p]->lane_waveform(k);
    }
    auto outs = process(scratch);
    EFF_REQUIRE(outs.size() == num_outputs_,
                "block " + name_ + " produced wrong number of outputs");
    for (std::size_t p = 0; p < outs.size(); ++p) {
      if (k == 0) {
        outputs.emplace_back(outs[p].fs, lanes, outs[p].size(),
                             /*uniform=*/false);
      }
      EFF_REQUIRE(outs[p].size() == outputs[base + p].samples(),
                  "block " + name_ + " emitted lane-dependent lengths");
      std::copy(outs[p].samples.begin(), outs[p].samples.end(),
                outputs[base + p].lane(k));
    }
  }
}

FunctionBlock::FunctionBlock(std::string name, Fn fn)
    : Block(std::move(name), 1, 1), fn_(fn) {
  EFF_REQUIRE(fn_ != nullptr, "FunctionBlock requires a function");
}

std::vector<Waveform> FunctionBlock::process(const std::vector<Waveform>& inputs) {
  EFF_REQUIRE(inputs.size() == 1, "FunctionBlock expects one input");
  return {fn_(inputs[0])};
}

}  // namespace efficsense::sim
