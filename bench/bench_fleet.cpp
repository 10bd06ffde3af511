// Sweep-fabric scaling: how the work-stealing coordinator/worker fleet
// (run::Coordinator + run::Worker, PR 8) scales a fixed 240-point sweep
// over 1, 2 and 4 in-process workers, and what group-commit journaling
// (EFFICSENSE_FSYNC=group) buys over the per-record fsync default.
//
// The evaluation is a deterministic synthetic metric with a fixed ~1.5 ms
// sleep — a stand-in for a simulation-bound point whose cost does not
// contend for CPU, so the scaling section measures the fabric (leases,
// heartbeats, journal commits, stealing), not core count. Every fleet
// configuration must reproduce the serial DurableSweeper CSV bitwise; any
// divergence fails the bench (exit 1). The fsync section drops the sleep
// and journals as fast as it can, so the fsync cost dominates.
//
// Writes BENCH_fleet.json next to the console output; the gated trajectory
// numbers are scaling.points_per_s_w4 and fsync.points_per_s_group (see
// bench/baselines.json), and CI additionally asserts scaling.speedup_w4.

#include "obs/obs.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "arch/design_space.hpp"
#include "core/sweep.hpp"
#include "results_common.hpp"
#include "run/coordinator.hpp"
#include "run/durable.hpp"
#include "run/worker.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

using namespace efficsense;
using namespace efficsense::core;
using namespace efficsense::run;

namespace fs = std::filesystem;

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// 16 x 15 = 240 points: big enough that a 4-worker fleet re-leases many
/// times (and steals), small enough for a CI smoke lap.
arch::DesignSpace fleet_space() {
  arch::DesignSpace space;
  std::vector<double> noise, bits;
  for (int i = 0; i < 16; ++i) noise.push_back(1e-6 * (i + 1));
  for (int i = 0; i < 15; ++i) bits.push_back(4 + i * 0.5);
  space.add_axis("lna_noise_vrms", noise).add_axis("adc_bits", bits);
  return space;
}

/// Deterministic synthetic metrics — same shape as the test suite's
/// stand-in evaluator, so fleet results are bit-reproducible.
EvalMetrics synthetic_metrics(const power::DesignParams& d) {
  EvalMetrics m;
  m.snr_db = 20.0 + 1e6 * d.lna_noise_vrms + d.adc_bits;
  m.accuracy = 0.9 + 0.001 * d.adc_bits;
  m.power_w = 1e-6 * d.adc_bits + d.lna_noise_vrms;
  m.area_unit_caps = 100.0 * d.adc_bits;
  m.segments_evaluated = 4;
  m.power_breakdown.add("lna", 0.5 * m.power_w);
  m.power_breakdown.add("adc", 0.5 * m.power_w);
  m.area_breakdown.add("adc", m.area_unit_caps);
  return m;
}

struct FleetLap {
  std::size_t workers = 0;
  double seconds = 0.0;
  double points_per_s = 0.0;
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_stolen = 0;
  bool csv_identical = false;
};

/// One fleet lap: coordinator + `workers` in-process Worker threads over a
/// fresh spool, point cost `point_ms`. Returns the lap timing and whether
/// the merged CSV reproduced `oracle_csv` bitwise.
FleetLap fleet_lap(const fs::path& scratch, const arch::DesignSpace& space,
                   std::size_t workers, double point_ms,
                   const std::string& oracle_csv) {
  const auto spool = (scratch / ("spool_w" + std::to_string(workers))).string();
  power::DesignParams base;

  CoordinatorOptions copt;
  copt.spool_dir = spool;
  copt.config_digest = 42;
  copt.lease_ttl_s = 10.0;
  copt.poll_interval_s = 0.002;
  copt.stall_timeout_s = 120.0;
  Coordinator coordinator(base, space, copt);

  const auto eval = [point_ms](const power::DesignParams& d) {
    if (point_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(point_ms));
    }
    return synthetic_metrics(d);
  };

  const auto t0 = std::chrono::steady_clock::now();
  CoordinatorOutcome outcome;
  std::thread coord([&] { outcome = coordinator.run(); });
  std::vector<std::thread> fleet;
  for (std::size_t i = 0; i < workers; ++i) {
    fleet.emplace_back([&, i] {
      WorkerOptions wopt;
      wopt.spool_dir = spool;
      wopt.name = "w" + std::to_string(i);
      wopt.config_digest = 42;
      wopt.poll_interval_s = 0.002;
      Worker(eval, base, space, wopt).run();
    });
  }
  coord.join();
  for (auto& t : fleet) t.join();

  FleetLap lap;
  lap.workers = workers;
  lap.seconds = seconds_since(t0);
  lap.points_per_s =
      lap.seconds > 0.0 ? space.size() / lap.seconds : 0.0;
  lap.leases_granted = outcome.stats.leases_granted;
  lap.leases_stolen = outcome.stats.leases_stolen;
  lap.csv_identical = sweep_to_csv(outcome.merged.results) == oracle_csv;
  return lap;
}

struct FsyncLap {
  double seconds = 0.0;
  double points_per_s = 0.0;
  std::uint64_t coalesced = 0;
};

/// Journal the whole space through a DurableSweeper with a free evaluation,
/// under EFFICSENSE_FSYNC=`mode`: the lap time is journal commit cost.
FsyncLap fsync_lap(const fs::path& scratch, const arch::DesignSpace& space,
                   const char* mode) {
  ::setenv("EFFICSENSE_FSYNC", mode, 1);
  RunOptions o;
  o.journal_path =
      (scratch / ("fsync_" + std::string(mode) + ".jsonl")).string();
  o.config_digest = 42;
  o.record_events = false;
  DurableSweeper sweeper(synthetic_metrics, o);
  power::DesignParams base;
  const auto before = obs::counter("run/fsync_coalesced").value();
  const auto t0 = std::chrono::steady_clock::now();
  sweeper.run(base, space);
  FsyncLap lap;
  lap.seconds = seconds_since(t0);
  lap.points_per_s =
      lap.seconds > 0.0 ? space.size() / lap.seconds : 0.0;
  lap.coalesced = obs::counter("run/fsync_coalesced").value() - before;
  ::unsetenv("EFFICSENSE_FSYNC");
  return lap;
}

}  // namespace

int main() {
  obs::BenchRun obs_run("bench_fleet");
  const auto space = fleet_space();
  const auto total = space.size();
  obs_run.set_points(total);
  const double point_ms = env_double("EFFICSENSE_BENCH_POINT_MS", 1.5);

  const fs::path scratch =
      fs::temp_directory_path() /
      ("efficsense_bench_fleet_" + std::to_string(::getpid()));
  fs::create_directories(scratch);

  // Serial oracle: the CSV every fleet lap must reproduce bitwise.
  std::string oracle_csv;
  {
    RunOptions o;
    o.journal_path = (scratch / "serial_oracle.jsonl").string();
    o.config_digest = 42;
    DurableSweeper sweeper(synthetic_metrics, o);
    power::DesignParams base;
    oracle_csv = sweep_to_csv(sweeper.run(base, space).results);
  }

  std::cout << "Sweep-fabric scaling (" << total << " points, ~" << point_ms
            << " ms each, in-process workers)\n\n";
  TablePrinter t({"workers", "wall [s]", "points/s", "speedup", "leases",
                  "stolen", "vs serial"});
  std::vector<FleetLap> laps;
  bool all_identical = true;
  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const auto lap = fleet_lap(scratch, space, w, point_ms, oracle_csv);
    laps.push_back(lap);
    if (!lap.csv_identical) all_identical = false;
    const double speedup =
        laps.front().seconds > 0.0 ? laps.front().seconds / lap.seconds : 0.0;
    t.add_row({std::to_string(w), format_number(lap.seconds),
               format_number(lap.points_per_s), format_number(speedup),
               std::to_string(lap.leases_granted),
               std::to_string(lap.leases_stolen),
               lap.csv_identical ? "bit-identical" : "DIVERGED"});
  }
  t.print(std::cout);
  const double speedup_w4 =
      laps.back().seconds > 0.0 ? laps.front().seconds / laps.back().seconds
                                : 0.0;

  std::cout << "\nGroup-commit journaling (" << total
            << " points, free evaluation, serial journal):\n";
  const auto each = fsync_lap(scratch, space, "each");
  const auto group = fsync_lap(scratch, space, "group");
  std::cout << "  fsync=each:  " << format_number(each.seconds) << " s  ("
            << format_number(each.points_per_s) << " points/s)\n"
            << "  fsync=group: " << format_number(group.seconds) << " s  ("
            << format_number(group.points_per_s) << " points/s, "
            << format_number(each.seconds > 0.0 && group.seconds > 0.0
                                 ? each.seconds / group.seconds
                                 : 0.0)
            << "x, " << group.coalesced << " fsyncs coalesced)\n";

  std::cout << "\nReading: the fabric's per-point overhead (lease re-reads, "
               "heartbeats, journal\nfsyncs) stays small against a "
               "millisecond-class evaluation, so the fleet tracks\nthe "
               "worker count; group commit trades the per-record durability "
               "guarantee for\nfewer fsyncs, which only matters when the "
               "evaluation itself is nearly free.\n";

  obs_run.add_field("speedup_w4", speedup_w4);
  obs_run.add_field("fsync_group_speedup",
                    group.seconds > 0.0 ? each.seconds / group.seconds : 0.0);

  std::ofstream out("BENCH_fleet.json", std::ios::trunc);
  if (out) {
    out.precision(6);
    out << "{\n  \"bench\": \"bench_fleet\",\n"
        << "  \"points\": " << total << ",\n"
        << "  \"point_ms\": " << point_ms << ",\n"
        << "  \"scaling\": {\n";
    for (std::size_t i = 0; i < laps.size(); ++i) {
      const auto& lap = laps[i];
      out << "    \"points_per_s_w" << lap.workers
          << "\": " << lap.points_per_s << ",\n";
    }
    out << "    \"speedup_w4\": " << speedup_w4 << ",\n"
        << "    \"csv_identical\": " << (all_identical ? "true" : "false")
        << "\n  },\n  \"fsync\": {\n"
        << "    \"points_per_s_each\": " << each.points_per_s << ",\n"
        << "    \"points_per_s_group\": " << group.points_per_s << ",\n"
        << "    \"coalesced\": " << group.coalesced << "\n  }\n}\n";
    std::cout << "[writing BENCH_fleet.json]\n";
  }

  std::error_code ec;
  fs::remove_all(scratch, ec);
  if (!all_identical) {
    std::cerr << "bench_fleet: a fleet lap diverged from the serial oracle\n";
    return 1;
  }
  return 0;
}
