#pragma once
// Shared shape of the four workloads: what run.py hands bench_e2e (seed, run
// length, trace flag and the frozen per-workload sizes from
// bench/e2e/workloads.json), and what each workload reports back. Values
// every workload shares, or that only one uses, are constants here and in
// the workload's own file.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "arch/scenario.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "run/scenario.hpp"

namespace e2e {

/// Segments of the detector's training set (half ictal), every workload.
constexpr std::size_t kTrainSegments = 12;
/// Cold set-ups per run; setup_s is their median. A traced run traces all
/// but the first.
constexpr std::size_t kSetupRepeats = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;
  std::map<std::string, std::string> params;  ///< --param key=value

  double num(const std::string& key) const;  ///< throws when missing
  std::string str(const std::string& key) const;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra facts printed with the result: output digest, sample counts,
  /// phase lengths. run.py checks the digest against the pinned one.
  std::map<std::string, std::string> info;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// Record a failed output check; the run then reports no metrics.
  void fail(const std::string& why);
};

/// Snapshot of the omp/* counters the cs layer metrics are read from.
struct OmpCounters {
  std::uint64_t solves = 0, iterations = 0, gram_builds = 0, hits = 0,
                misses = 0;
  static OmpCounters now() {
    return {efficsense::obs::counter("omp/solves").value(),
            efficsense::obs::counter("omp/iterations").value(),
            efficsense::obs::counter("omp/gram_builds").value(),
            efficsense::obs::counter("omp/cache_hits").value(),
            efficsense::obs::counter("omp/cache_misses").value()};
  }
  OmpCounters operator-(const OmpCounters& o) const {
    return {solves - o.solves, iterations - o.iterations,
            gram_builds - o.gram_builds, hits - o.hits, misses - o.misses};
  }
  OmpCounters& operator+=(const OmpCounters& o) {
    solves += o.solves;
    iterations += o.iterations;
    gram_builds += o.gram_builds;
    hits += o.hits;
    misses += o.misses;
    return *this;
  }
};

/// Time `rep` kSetupRepeats times, each in a fresh sub-directory of the
/// working directory (so the repo-local .cache/ starts cold) with the
/// process-wide reconstructor cache emptied first. Returns the median
/// duration in seconds; the caller keeps whatever the last repetition built.
double timed_setups(const std::function<void(std::size_t)>& rep);

/// Scenario spec built from the workload's frozen parameters and the seed.
efficsense::arch::ScenarioSpec make_spec(const std::string& json_axes,
                                         std::size_t segments,
                                         std::uint64_t seed);

/// Build a scenario context as run::make_scenario_context does, but through
/// its public steps so each can carry a span: eeg.synth (make_dataset, eval
/// and training sets) and classify.train (EpilepsyDetector::train).
std::unique_ptr<efficsense::run::ScenarioContext> traced_scenario_context(
    const efficsense::arch::ScenarioSpec& spec, efficsense::ThreadPool* pool);

/// Fill eeg.synth_s / classify.train_s (per setup) from the spans of the
/// traced setups.
void report_setup_layers(const LedgerTotals& setup, Result& out);

/// The per-layer metrics every workload prints in a traced run, with 0 for
/// layers the workload never enters; workloads overwrite what they measure.
std::vector<Metric> per_layer_template();
void set_metric(Result& r, const std::string& name, double value);

Result run_sweep_grid(const Options& opt);
Result run_mc_yield(const Options& opt);
Result run_serve(const Options& opt, bool cs);

}  // namespace e2e
