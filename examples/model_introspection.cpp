// Hierarchy and introspection: package a whole front-end as one reusable
// CompositeBlock (the Simulink "subsystem" idea), probe internal signals,
// and export the block diagram as Graphviz DOT — the workflow glue around
// the paper's plug-and-play library claim.

#include <fstream>
#include <iostream>

#include "blocks/lna.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sar_adc.hpp"
#include "blocks/sources.hpp"
#include "blocks/transmitter.hpp"
#include "dsp/metrics.hpp"
#include "sim/composite.hpp"
#include "util/csv.hpp"

using namespace efficsense;

namespace {

/// The classical analog front half (LNA + S&H + ADC) as one subsystem.
std::unique_ptr<sim::Model> make_afe(const power::TechnologyParams& tech,
                                     const power::DesignParams& design) {
  auto afe = std::make_unique<sim::Model>();
  const auto in = afe->add(std::make_unique<blocks::WaveformSource>("in"));
  const auto lna = afe->add(std::make_unique<blocks::LnaBlock>("lna", tech, design, 1));
  const auto sh = afe->add(std::make_unique<blocks::SampleHoldBlock>("sh", tech, design, 2));
  const auto adc = afe->add(std::make_unique<blocks::SarAdcBlock>("adc", tech, design, 3, 4));
  afe->chain({in, lna, sh, adc});
  return afe;
}

}  // namespace

int main() {
  const power::TechnologyParams tech;
  power::DesignParams design;
  design.lna_noise_vrms = 3e-6;

  // Top level: source -> [analog front-end subsystem] -> transmitter.
  sim::Model top;
  const auto src = top.add(std::make_unique<blocks::WaveformSource>("source"));
  const auto afe = top.add(std::make_unique<sim::CompositeBlock>(
      "analog_front_end", make_afe(tech, design), "in"));
  const auto tx = top.add(std::make_unique<blocks::TransmitterBlock>("tx", tech, design, 9));
  top.chain({src, afe, tx});

  // Drive it with a tone and look inside.
  blocks::SineSource tone("tone", 8192.0, 4.0, 40.0,
                          0.8 * (design.v_fs / 2.0) / design.lna_gain);
  dynamic_cast<blocks::WaveformSource&>(top.block("source"))
      .set_waveform(tone.process({}).front());
  const auto outputs = top.run();

  const auto quality = dsp::analyze_tone(outputs.front().samples, outputs.front().fs);
  std::cout << "end-to-end SNDR: " << format_number(quality.sndr_db)
            << " dB (through a hierarchical model)\n\n";

  // Power and area aggregate through the hierarchy automatically.
  std::cout << "top-level power report (the subsystem appears as one entry):\n"
            << top.power_report().to_string() << "\n";

  // The runtime twin: where the *simulation* wall time went, per block.
  std::cout << "top-level run stats:\n" << top.run_stats().to_string() << "\n";

  // Probe the subsystem's internal nodes.
  auto& inner = dynamic_cast<sim::CompositeBlock&>(top.block("analog_front_end")).inner();
  const auto lna_out = inner.probe("lna").lane_waveform(0);
  std::cout << "probed LNA output inside the subsystem: rms = "
            << format_number(dsp::rms(lna_out.samples)) << " V at "
            << format_number(lna_out.fs) << " Hz\n\n";

  // Export both diagrams to Graphviz.
  std::ofstream("model_top.dot") << top.to_dot();
  std::ofstream("model_afe.dot") << inner.to_dot();
  std::cout << "wrote model_top.dot and model_afe.dot (render with: dot -Tpng)\n"
            << "\ntop-level DOT:\n"
            << top.to_dot();
  return 0;
}
