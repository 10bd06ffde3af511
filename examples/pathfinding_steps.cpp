// A walkthrough of the five EffiCSense pathfinding steps of Fig. 2, end to
// end, on a miniature search:
//   Step 1  derive the high-level model   -> chain builders
//   Step 2  derive the power models       -> Table II functions (attached)
//   Step 3  technology parameters         -> TechnologyParams (Table III)
//   Step 4  insert real sensor data       -> low-rate records, upsampled
//   Step 5  choose a goal function, sweep -> DesignSpace + Pareto + constraint

#include <iostream>

#include "classify/detector.hpp"
#include "core/evaluator.hpp"
#include "core/study.hpp"
#include "eeg/dataset.hpp"
#include "util/csv.hpp"

using namespace efficsense;
using namespace efficsense::core;

int main() {
  // --- Step 3: technology (gpdk045 extraction, Table III) ------------------
  const power::TechnologyParams tech;
  std::cout << tech.describe() << "\n";

  // --- Step 4: sensor data. The paper records at 173.61 Hz and upsamples
  // to mimic a continuous-time signal; we do exactly that here.
  eeg::GeneratorConfig record_cfg;
  record_cfg.fs_hz = 173.61;
  const eeg::Generator recorder(record_cfg);
  eeg::Dataset dataset;
  for (std::uint64_t i = 0; i < 10; ++i) {
    eeg::Segment seg;
    seg.seed = i;
    seg.label = (i % 2) ? eeg::SegmentClass::Seizure : eeg::SegmentClass::Normal;
    const auto record = (i % 2) ? recorder.seizure(i) : recorder.normal(i);
    // The paper's Step 4 (173.61 -> 512 Hz), then on to the framework's
    // quasi-continuous simulation rate (the LNA model needs fs > 2*BW_LNA).
    const auto at512 = eeg::upsample_record(record, 512.0);
    seg.waveform = eeg::upsample_record(at512, 2048.0);
    dataset.segments.push_back(std::move(seg));
  }
  std::cout << "dataset: " << dataset.size() << " records upsampled "
            << record_cfg.fs_hz << " -> 512 -> "
            << dataset.segments[0].waveform.fs << " Hz\n\n";

  // --- Step 5a: goal function. Train the application-level detector.
  const eeg::Generator synth{eeg::GeneratorConfig{}};
  classify::DetectorConfig det_cfg;
  det_cfg.train.epochs = 40;
  const auto detector =
      classify::EpilepsyDetector::train(eeg::make_dataset(synth, 20, 20, 55),
                                        det_cfg);

  // --- Steps 1+2 are embodied by the chain builders: every block carries
  // its functional model and its Table II power model.
  const Evaluator evaluator(tech, &dataset, &detector);
  const Sweeper sweeper(&evaluator);

  // --- Step 5b: sweep a small search space for the baseline architecture.
  arch::DesignSpace space;
  space.add_axis("lna_noise_vrms", {2e-6, 6e-6, 15e-6});
  space.add_axis("adc_bits", {6, 8});
  std::cout << "sweeping " << space.size() << " baseline design points...\n";
  const auto results = sweeper.run(power::DesignParams{}, space);

  TablePrinter t({"design point", "power", "SNR [dB]", "acc [%]", "area [Cu]"});
  for (const auto& r : results) {
    t.add_row({arch::point_to_string(r.point), format_power(r.metrics.power_w),
               format_number(r.metrics.snr_db),
               format_number(100.0 * r.metrics.accuracy),
               format_number(r.metrics.area_unit_caps)});
  }
  t.print(std::cout);

  // Pareto front + constrained optimum: the designer's decision surface.
  const auto front = pareto_front(make_candidates(results, Merit::Accuracy));
  std::cout << "\naccuracy/power Pareto front: " << front.size() << " points\n";
  if (const auto best = cheapest_with_merit(
          make_candidates(results, Merit::Accuracy), 0.9)) {
    std::cout << "cheapest design with accuracy >= 90 %: "
              << describe_result(results[best->tag]) << "\n";
  }
  return 0;
}
