// The two offline workloads: sweep_grid (a journaled run::DurableSweeper over
// a design grid) and mc_yield (core::monte_carlo on the two headline designs
// through the K-lane batch path).
//
// Both measure laps of a fixed unit of work until --seconds has elapsed; each
// lap starts with an empty reconstructor cache, as a fresh sweep process
// would. A traced run alternates untraced laps (the library call as is) with
// traced laps, where the benchmark replays Evaluator::evaluate /
// evaluate_lanes as the same sequence of public calls with a span around
// each layer. Every lap's output digest must be identical, so traced outputs
// equal untraced ones bit for bit.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "arch/architecture.hpp"
#include "arch/recon_cache.hpp"
#include "core/monte_carlo.hpp"
#include "core/sweep.hpp"
#include "cs/solver.hpp"
#include "dsp/metrics.hpp"
#include "dsp/resample.hpp"
#include "run/durable.hpp"
#include "run/journal.hpp"
#include "util/cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace efficsense;

namespace {

/// Worker threads of both offline workloads (the sweeper's pool, and
/// monte_carlo's), and the lane width of mc_yield's batch path.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kLanes = 8;

std::unique_ptr<ThreadPool> make_pool() {
  auto pool = std::make_unique<ThreadPool>(kThreads);
  if (pool->size() <= 1) pool.reset();
  return pool;
}

/// Evaluator::point_recon: the evaluator's config with a swept solver axis.
cs::ReconstructorConfig point_recon(const core::EvalOptions& opts,
                                    const power::DesignParams& design) {
  cs::ReconstructorConfig rc = opts.recon;
  if (design.cs_solver_code >= 0) {
    rc.solver = cs::SolverRegistry::instance().id_of_code(design.cs_solver_code);
  }
  return rc;
}

std::size_t segment_limit(const core::EvalOptions& opts,
                          const eeg::Dataset& ds) {
  std::size_t limit = ds.segments.size();
  if (opts.max_segments > 0) limit = std::min(limit, opts.max_segments);
  return limit;
}

/// Evaluator::evaluate as public calls, one span per layer.
core::EvalMetrics replay_evaluate(const run::ScenarioContext& ctx,
                                  const power::DesignParams& design,
                                  std::uint64_t corr) {
  Span root("core.evaluate", corr);
  const core::Evaluator& ev = *ctx.evaluator;
  const core::EvalOptions& opts = ev.options();
  design.validate();

  const arch::Architecture* architecture = nullptr;
  std::unique_ptr<sim::Model> chain;
  {
    Span s("arch.build");
    architecture =
        &arch::ArchRegistry::instance().resolve(opts.architecture, design);
    chain = architecture->build_model(ev.tech(), design, opts.seeds);
  }
  std::unique_ptr<arch::Decoder> decoder;
  {
    Span s("arch.decoder");
    decoder = architecture->make_decoder(design, opts.seeds,
                                         point_recon(opts, design));
  }

  core::EvalMetrics metrics;
  const bool live_power = architecture->signal_dependent_power();
  {
    Span s("power.report");
    if (!live_power) {
      metrics.power_breakdown = architecture->power_report(*chain);
      metrics.power_w = metrics.power_breakdown.total_watts();
    }
    metrics.area_breakdown = architecture->area_report(*chain);
    metrics.area_unit_caps = metrics.area_breakdown.total_unit_caps();
  }

  const std::size_t limit = segment_limit(opts, ctx.dataset);
  const double f_sample = design.f_sample_hz();
  double snr_sum = 0.0;
  std::size_t correct = 0, scored = 0;
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& segment = ctx.dataset.segments[i];
    sim::Waveform received;
    {
      Span s("sim.chain");
      received = arch::run_chain(*chain, segment.waveform);
    }
    std::vector<double> signal;
    {
      Span s("cs.decode");
      signal = decoder->decode(received.samples, nullptr);
    }
    EFF_REQUIRE(!signal.empty(), "front-end produced no samples");
    {
      Span s("dsp.reference");
      const auto times = dsp::uniform_times(
          decoder->reference_samples(signal.size()), f_sample);
      const auto reference = decoder->reference(dsp::sample_at_times(
          segment.waveform.samples, segment.waveform.fs, times));
      snr_sum += dsp::snr_vs_reference_db(reference, signal);
    }
    std::vector<double> input_referred(signal.size());
    const double inv_gain = 1.0 / design.lna_gain;
    for (std::size_t k = 0; k < signal.size(); ++k) {
      input_referred[k] = signal[k] * inv_gain;
    }
    if (live_power) {
      Span s("power.report");
      metrics.power_breakdown.merge(architecture->power_report(*chain));
    }
    {
      Span s("classify.score");
      const auto score = ctx.detector->score_epochs(
          input_referred, f_sample * decoder->rate_scale(), segment.ictal);
      correct += score.correct;
      scored += score.scored;
    }
  }
  metrics.segments_evaluated = limit;
  metrics.snr_db = snr_sum / static_cast<double>(limit);
  if (live_power) {
    metrics.power_breakdown.scale(1.0 / static_cast<double>(limit));
    metrics.power_w = metrics.power_breakdown.total_watts();
  }
  EFF_REQUIRE(scored > 0, "no scorable epochs in the dataset");
  metrics.accuracy = static_cast<double>(correct) / static_cast<double>(scored);
  return metrics;
}

/// Evaluator::evaluate_lanes as public calls, one span per layer. Returns
/// empty when the architecture has no batched path (as evaluate_lanes does).
std::vector<core::EvalMetrics> replay_evaluate_lanes(
    const run::ScenarioContext& ctx, const power::DesignParams& design,
    const std::vector<arch::ChainSeeds>& lane_seeds, ThreadPool* pool,
    std::uint64_t corr) {
  if (lane_seeds.size() < 2) return {};
  Span root("core.evaluate_lanes", corr);
  const core::Evaluator& ev = *ctx.evaluator;
  const core::EvalOptions& opts = ev.options();
  design.validate();
  const arch::Architecture* architecture = nullptr;
  std::unique_ptr<sim::Model> chain;
  {
    Span s("arch.build");
    architecture =
        &arch::ArchRegistry::instance().resolve(opts.architecture, design);
    if (architecture->signal_dependent_power()) return {};
    chain = architecture->build_batch_model(ev.tech(), design, lane_seeds);
  }
  if (chain == nullptr) return {};
  const std::size_t lanes = lane_seeds.size();
  std::unique_ptr<arch::Decoder> decoder;
  {
    Span s("arch.decoder");
    decoder = architecture->make_decoder(design, lane_seeds.front(),
                                         point_recon(opts, design));
  }
  std::vector<core::EvalMetrics> metrics(lanes);
  {
    Span s("power.report");
    const sim::PowerReport power = architecture->power_report(*chain);
    const sim::AreaReport area = architecture->area_report(*chain);
    for (core::EvalMetrics& m : metrics) {
      m.power_breakdown = power;
      m.power_w = power.total_watts();
      m.area_breakdown = area;
      m.area_unit_caps = area.total_unit_caps();
    }
  }

  const std::size_t limit = segment_limit(opts, ctx.dataset);
  const double f_sample = design.f_sample_hz();
  const double inv_gain = 1.0 / design.lna_gain;
  std::vector<double> snr_sum(lanes, 0.0);
  std::vector<std::size_t> correct(lanes, 0), scored(lanes, 0);
  std::vector<const double*> rows(lanes);
  std::vector<std::vector<double>> input_referred(lanes);
  std::vector<const std::vector<double>*> lane_records(lanes);
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& segment = ctx.dataset.segments[i];
    std::size_t samples = 0;
    {
      Span s("sim.batch");
      const sim::LaneBank& received =
          arch::run_chain_batch(*chain, segment.waveform, lanes);
      for (std::size_t k = 0; k < lanes; ++k) rows[k] = received.lane(k);
      samples = received.samples();
    }
    std::vector<std::vector<double>> signals;
    {
      Span s("cs.decode");
      signals = decoder->decode_lanes(rows, samples, pool);
    }
    EFF_REQUIRE(!signals.empty() && !signals.front().empty(),
                "front-end produced no samples");
    {
      Span s("dsp.reference");
      const auto times = dsp::uniform_times(
          decoder->reference_samples(signals.front().size()), f_sample);
      const auto reference = decoder->reference(dsp::sample_at_times(
          segment.waveform.samples, segment.waveform.fs, times));
      for (std::size_t k = 0; k < lanes; ++k) {
        EFF_REQUIRE(signals[k].size() == signals.front().size(),
                    "lane-dependent decode length");
        snr_sum[k] += dsp::snr_vs_reference_db(reference, signals[k]);
      }
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::vector<double>& signal = signals[k];
      input_referred[k].resize(signal.size());
      for (std::size_t s = 0; s < signal.size(); ++s) {
        input_referred[k][s] = signal[s] * inv_gain;
      }
      lane_records[k] = &input_referred[k];
    }
    {
      Span s("classify.score");
      const auto scores = ctx.detector->score_epochs_lanes(
          lane_records, f_sample * decoder->rate_scale(), segment.ictal);
      for (std::size_t k = 0; k < lanes; ++k) {
        correct[k] += scores[k].correct;
        scored[k] += scores[k].scored;
      }
    }
  }
  for (std::size_t k = 0; k < lanes; ++k) {
    metrics[k].segments_evaluated = limit;
    metrics[k].snr_db = snr_sum[k] / static_cast<double>(limit);
    EFF_REQUIRE(scored[k] > 0, "no scorable epochs in the dataset");
    metrics[k].accuracy =
        static_cast<double>(correct[k]) / static_cast<double>(scored[k]);
  }
  return metrics;
}

/// Per-lap record shared by both offline workloads.
struct Lap {
  bool traced = false;
  double wall_s = 0.0;
  std::size_t points = 0;
  std::uint64_t digest = 0;
  std::vector<double> latency_ms;  ///< per point (sweep) / lane group (MC)
};

/// Layer totals of the traced laps plus the thread-seconds they span.
struct TracedPhase {
  std::vector<ThreadSpans> spans;  ///< every traced lap, for trace.json
  LedgerTotals totals;
  double thread_seconds = 0.0;
  OmpCounters omp;
  std::size_t points = 0;
  std::size_t laps = 0;
};

/// Metrics common to the traced offline workloads: per-call layer costs,
/// coverage, overhead, omp counters.
void report_offline_layers(const TracedPhase& tp, const std::vector<Lap>& laps,
                           std::size_t segments, std::size_t lanes,
                           Result& r) {
  const LedgerTotals& t = tp.totals;
  // Per-segment costs are per instance-segment: a K-lane call covers K.
  const double seg_scale = 1e3 / double(lanes);
  set_metric(r, "classify.score_ms_per_seg",
             mean_span(t, "classify.score", seg_scale));
  set_metric(r, "sim.chain_ms_per_seg", mean_span(t, "sim.chain", 1e3));
  set_metric(r, "sim.batch_ms_per_seg", mean_span(t, "sim.batch", seg_scale));
  set_metric(r, "cs.decode_ms_per_seg", mean_span(t, "cs.decode", seg_scale));
  set_metric(r, "dsp.reference_ms_per_seg",
             mean_span(t, "dsp.reference", seg_scale));
  set_metric(r, "arch.build_us", mean_span(t, "arch.build", 1e6));
  set_metric(r, "arch.decoder_us", mean_span(t, "arch.decoder", 1e6));
  set_metric(r, "power.report_us", mean_span(t, "power.report", 1e6));
  const OmpCounters& o = tp.omp;
  set_metric(r, "cs.solves",
             tp.points ? double(o.solves) / double(tp.points) : 0.0);
  set_metric(r, "cs.iterations_per_solve",
             o.solves ? double(o.iterations) / double(o.solves) : 0.0);
  set_metric(r, "cs.gram_builds",
             tp.laps ? double(o.gram_builds) / double(tp.laps) : 0.0);
  set_metric(r, "arch.cache_hit_ratio",
             o.hits + o.misses ? double(o.hits) / double(o.hits + o.misses)
                               : 0.0);
  set_metric(r, "ledger.coverage",
             tp.thread_seconds > 0 ? t.self_sum_s() / tp.thread_seconds : 0.0);
  std::vector<double> traced, plain;
  for (const auto& lap : laps) (lap.traced ? traced : plain).push_back(lap.wall_s);
  set_metric(r, "trace.overhead_frac",
             median(traced) / std::max(1e-12, median(plain)) - 1.0);
  r.info["segments_per_point"] = std::to_string(segments);
  r.info["traced_laps"] = std::to_string(traced.size());
  r.info["untraced_laps"] = std::to_string(plain.size());
  std::ostringstream layers;
  layers.precision(4);
  for (const auto& [layer, s] : t.layer_self_s) {
    layers << layer << "=" << s / std::max(1e-12, tp.thread_seconds) << " ";
  }
  r.info["layer_share"] = layers.str();
}

/// Laps while the next one is expected to end within `seconds` (at least
/// `min_laps`). In a traced run odd laps are traced, so traced and untraced
/// laps interleave.
template <class LapFn>
std::vector<Lap> run_laps(const Options& opt, std::size_t min_laps, LapFn lap) {
  std::vector<Lap> laps;
  const auto t0 = Clock::now();
  for (std::size_t k = 0;
       k < min_laps ||
       seconds_since(t0) + laps.back().wall_s <= opt.seconds;
       ++k) {
    const bool traced = opt.trace && (k % 2 == 1);
    arch::ReconstructorCache::instance().clear();
    ledger_enable(traced);
    laps.push_back(lap(k, traced));
    ledger_enable(false);
    laps.back().traced = traced;
    std::cout << "  lap " << k << (traced ? " traced  " : " untraced")
              << "  " << laps.back().points << " points  "
              << laps.back().wall_s << " s  digest "
              << hex16(laps.back().digest) << std::endl;
  }
  return laps;
}

/// Latency percentile of the traced or untraced laps: per lap, then the
/// median over laps.
double lap_latency(const std::vector<Lap>& laps, bool traced, double q) {
  std::vector<double> latency;
  std::vector<std::uint32_t> lap_of;
  for (std::size_t k = 0; k < laps.size(); ++k) {
    if (laps[k].traced != traced) continue;
    latency.insert(latency.end(), laps[k].latency_ms.begin(),
                   laps[k].latency_ms.end());
    lap_of.insert(lap_of.end(), laps[k].latency_ms.size(), std::uint32_t(k));
  }
  return median_of_group_quantiles(latency, lap_of, q, 1);
}

/// End-to-end metrics of an offline workload from its untraced laps.
void report_offline_e2e(const std::vector<Lap>& laps, double setup_s,
                        Result& r) {
  std::vector<double> rates;
  std::size_t samples = 0;
  for (const auto& lap : laps) {
    if (lap.traced) continue;
    rates.push_back(double(lap.points) / lap.wall_s);
    samples += lap.latency_ms.size();
  }
  r.add("points_per_s", "1/s", median(rates));
  r.add("latency_p50_ms", "ms", lap_latency(laps, false, 0.50));
  r.add("latency_p99_ms", "ms", lap_latency(laps, false, 0.99));
  r.add("setup_s", "s", setup_s);
  r.add("peak_rss_mb", "MB", peak_rss_mb());
  r.info["latency_samples"] = std::to_string(samples);
  r.info["laps"] = std::to_string(rates.size());
}

/// Every lap must reproduce the first lap's digest.
void check_digests(const std::vector<Lap>& laps, Result& r) {
  for (const auto& lap : laps) {
    if (lap.digest != laps.front().digest) {
      r.fail(std::string(lap.traced ? "traced" : "untraced") +
             " lap digest " + hex16(lap.digest) + " != first lap's " +
             hex16(laps.front().digest));
    }
  }
  r.info["digest"] = hex16(laps.front().digest);
}

}  // namespace

// --- sweep_grid ---------------------------------------------------------------

Result run_sweep_grid(const Options& opt) {
  Result r;
  if (opt.trace) r.metrics = per_layer_template();
  const auto spec =
      make_spec(opt.str("axes"), std::size_t(opt.num("segments")), opt.seed);
  auto pool = make_pool();

  // Set-up: dataset synthesis + detector training, cold cache each time. A
  // traced run replays the set-up's public steps with spans after one plain
  // run::make_scenario_context, whose detector and evaluator digest the
  // replay must reproduce.
  std::unique_ptr<run::ScenarioContext> ctx;
  std::string ref_blob;
  std::uint64_t ref_digest = 0;
  const double setup_s = timed_setups([&](std::size_t k) {
    ctx.reset();
    if (opt.trace && k > 0) {
      ledger_enable(true);
      ctx = traced_scenario_context(spec, pool.get());
      ledger_enable(false);
    } else {
      ctx = run::make_scenario_context(spec, pool.get());
    }
    if (k == 0) {
      ref_blob = ctx->detector->to_blob();
      ref_digest = ctx->evaluator->config_digest();
    } else if (ctx->detector->to_blob() != ref_blob ||
               ctx->evaluator->config_digest() != ref_digest) {
      r.fail("set-up " + std::to_string(k) + " built a different detector or "
             "dataset than set-up 0");
    }
  });
  const auto setup_spans = ledger_collect();
  std::cout << "sweep_grid: " << spec.space.size() << " points x "
            << ctx->dataset.size() << " segments, setup " << setup_s << " s"
            << std::endl;

  // Correlation id of each point: its coordinate hash, keyed by the design
  // the sweeper hands the EvalFn.
  std::unordered_map<std::string, std::uint64_t> corr_of;
  for (std::size_t i = 0; i < spec.space.size(); ++i) {
    const auto point = spec.space.point(i);
    corr_of[arch::apply_point(ctx->base, point).cache_key()] =
        arch::hash_point(point);
  }

  // The direct-evaluation oracle checks the grid's last point.
  const std::size_t probe = spec.space.size() - 1;
  std::string last_row;
  TracedPhase tp;
  const auto laps = run_laps(opt, opt.trace ? 4 : 2, [&](std::size_t k,
                                                          bool traced) {
    Lap lap;
    const std::string journal = "lap" + std::to_string(k) + ".jsonl";
    run::RunOptions ro;
    ro.journal_path = journal;
    ro.config_digest = ctx->evaluator->config_digest();
    run::DurableSweeper::EvalFn eval;
    if (traced) {
      eval = [&](const power::DesignParams& d) {
        return replay_evaluate(*ctx, d, corr_of.at(d.cache_key()));
      };
    } else {
      const core::Evaluator* ev = ctx->evaluator.get();
      eval = [ev](const power::DesignParams& d) { return ev->evaluate(d); };
    }
    const run::DurableSweeper sweeper(std::move(eval), ro);
    const auto omp0 = OmpCounters::now();
    const auto t_lap = now_ns();
    const auto t0 = Clock::now();
    const auto outcome = sweeper.run(ctx->base, ctx->spec.space, pool.get());
    lap.wall_s = seconds_since(t0);
    const auto t_end = now_ns();
    const auto omp = OmpCounters::now() - omp0;
    lap.points = outcome.results.size();
    r.attempted += spec.space.size();
    r.failed += outcome.quarantined.size();
    if (!outcome.quarantined.empty()) {
      r.fail(std::to_string(outcome.quarantined.size()) +
             " point(s) quarantined: " + outcome.quarantined.front().error);
    }
    lap.digest = fnv1a(core::sweep_to_csv(outcome.results));

    // Per-point latency from the journal's own provenance events: first
    // evaluation attempt to the durable record append.
    const auto contents = run::read_journal(journal);
    if (!contents || contents->events.size() != spec.space.size()) {
      r.fail("journal " + journal + " lacks one provenance event per point");
    } else {
      for (const auto& ev : contents->events) {
        lap.latency_ms.push_back((ev.t_journal_s - ev.t_eval_start_s) * 1e3);
      }
    }

    if (traced) {
      auto spans = ledger_collect();
      // The sweeper's own time on each worker thread: from the lap start to
      // its first evaluation (dispatch) and between consecutive evaluations
      // (journal commit of the previous point, then dispatch of the next).
      // The idle tail after a thread's last point belongs to no layer.
      for (auto& th : spans) {
        std::vector<SpanRecord> roots;
        for (const auto& s : th.spans) {
          if (s.parent < 0) roots.push_back(s);
        }
        std::sort(roots.begin(), roots.end(),
                  [](const SpanRecord& a, const SpanRecord& b) {
                    return a.start_ns < b.start_ns;
                  });
        std::int64_t prev_end = t_lap;
        std::uint64_t prev_corr = 0;
        for (const SpanRecord& s : roots) {
          SpanRecord g;
          g.name = prev_corr ? "run.commit" : "run.dispatch";
          g.start_ns = prev_end;
          g.end_ns = s.start_ns;
          g.corr = prev_corr;
          g.tid = th.tid;
          th.spans.push_back(g);
          prev_end = s.end_ns;
          prev_corr = s.corr;
        }
      }
      const auto totals = ledger_totals(spans);
      add_totals(tp.totals, totals);
      tp.thread_seconds += double(t_end - t_lap) * 1e-9 * double(totals.threads);
      tp.omp += omp;
      tp.points += lap.points;
      ++tp.laps;
      for (auto& th : spans) tp.spans.push_back(std::move(th));
    }
    // The journal alone must reproduce the lap's results.
    const auto merged = run::merge_journals({journal}, ctx->base);
    if (fnv1a(core::sweep_to_csv(merged.results)) != lap.digest) {
      r.fail("journal " + journal + " does not reproduce the lap's results");
    }
    if (lap.points == spec.space.size()) {
      last_row = core::sweep_result_to_row(outcome.results[probe]);
    }
    std::filesystem::remove(journal);
    std::filesystem::remove(journal + ".status.json");
    return lap;
  });
  check_digests(laps, r);

  // Independent oracle: one point evaluated directly (no sweeper, no
  // journal) must match its journaled row bit for bit.
  if (!opt.trace) {
    core::SweepResult direct;
    direct.point = spec.space.point(probe);
    direct.design = arch::apply_point(ctx->base, direct.point);
    direct.metrics = ctx->evaluator->evaluate(direct.design);
    if (core::sweep_result_to_row(direct) != last_row) {
      r.fail("point " + std::to_string(probe) +
             " evaluated directly differs from its journaled row");
    }
  }

  if (opt.trace) {
    report_setup_layers(ledger_totals(setup_spans), r);
    report_offline_layers(tp, laps, ctx->dataset.size(), 1, r);
    set_metric(r, "run.point_p50_ms", lap_latency(laps, true, 0.5));
    set_metric(r, "run.point_p90_ms", lap_latency(laps, true, 0.9));
    set_metric(r, "run.commit_ms_per_point",
               mean_span(tp.totals, "run.commit", 1e3));
    std::vector<ThreadSpans> all = setup_spans;
    all.insert(all.end(), tp.spans.begin(), tp.spans.end());
    write_trace("trace.json", all);
  } else {
    report_offline_e2e(laps, setup_s, r);
  }
  return r;
}

// --- mc_yield -----------------------------------------------------------------

Result run_mc_yield(const Options& opt) {
  Result r;
  if (opt.trace) r.metrics = per_layer_template();
  const std::size_t lanes = kLanes;
  const auto spec =
      make_spec("[]", std::size_t(opt.num("segments")), opt.seed);
  auto setup_pool = make_pool();

  std::unique_ptr<run::ScenarioContext> ctx;
  std::string ref_blob;
  std::uint64_t ref_digest = 0;
  const double setup_s = timed_setups([&](std::size_t k) {
    ctx.reset();
    if (opt.trace && k > 0) {
      ledger_enable(true);
      ctx = traced_scenario_context(spec, setup_pool.get());
      ledger_enable(false);
    } else {
      ctx = run::make_scenario_context(spec, setup_pool.get());
    }
    if (k == 0) {
      ref_blob = ctx->detector->to_blob();
      ref_digest = ctx->evaluator->config_digest();
    } else if (ctx->detector->to_blob() != ref_blob ||
               ctx->evaluator->config_digest() != ref_digest) {
      r.fail("set-up " + std::to_string(k) + " built a different detector or "
             "dataset than set-up 0");
    }
  });
  setup_pool.reset();
  const auto setup_spans = ledger_collect();

  // The two headline designs (bench_montecarlo's candidates). The CS design
  // gets more instances so the lane-group latency median falls inside its
  // mode rather than on the gap between the two designs' group costs.
  std::vector<power::DesignParams> designs(2, ctx->base);
  designs[0].adc_bits = 6;
  designs[0].lna_noise_vrms = 6e-6;
  designs[0].cs_m = 0;
  designs[1].adc_bits = 8;
  designs[1].lna_noise_vrms = 6e-6;
  designs[1].cs_m = 75;
  designs[1].cs_c_hold_f = 1e-12;
  const std::vector<std::size_t> instance_counts = {
      std::size_t(opt.num("baseline_instances")),
      std::size_t(opt.num("cs_instances"))};

  core::MonteCarloOptions mc;
  mc.seed = derive_seed(opt.seed, 0xFAB);
  mc.threads = kThreads;
  mc.lanes = lanes;
  const auto seeds_for = [&](std::size_t i) {
    arch::ChainSeeds seeds = ctx->evaluator->options().seeds;
    seeds.mismatch = derive_seed(mc.seed, 2 * i);
    return seeds;
  };
  std::cout << "mc_yield: " << instance_counts[0] << " baseline + "
            << instance_counts[1] << " CS instances x " << ctx->dataset.size()
            << " segments, K=" << lanes << ", setup "
            << setup_s << " s" << std::endl;

  TracedPhase tp;
  std::vector<std::vector<core::EvalMetrics>> last_results;
  const auto laps = run_laps(opt, opt.trace ? 4 : 2, [&](std::size_t,
                                                          bool traced) {
    Lap lap;
    std::vector<double> bits;
    const auto omp0 = OmpCounters::now();
    const auto t0 = Clock::now();
    last_results.clear();
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const std::size_t instances = instance_counts[d];
      mc.instances = instances;
      std::vector<core::EvalMetrics> inst;
      if (!traced) {
        // Lane-group latency from the progress callback: monte_carlo calls
        // it on the worker thread right after each group, so consecutive
        // calls on one thread bracket one group.
        std::mutex mu;
        std::unordered_map<std::thread::id, std::int64_t> last;
        const std::int64_t start = now_ns();
        std::size_t calls = 0;
        const auto res = core::monte_carlo(
            *ctx->evaluator, designs[d], mc,
            [&](std::size_t, std::size_t) {
              const std::int64_t t = now_ns();
              std::lock_guard lock(mu);
              const auto it =
                  last.try_emplace(std::this_thread::get_id(), start).first;
              lap.latency_ms.push_back(double(t - it->second) * 1e-6);
              it->second = t;
              ++calls;
            });
        // A callback skipped by monte_carlo's progress de-duplication would
        // merge two groups into one sample; drop such a call's samples.
        const std::size_t groups = (instances + lanes - 1) / lanes;
        if (calls != groups) lap.latency_ms.resize(lap.latency_ms.size() - calls);
        inst = res.instances;
      } else {
        // monte_carlo's group fan-out with evaluate_lanes replayed.
        inst.resize(instances);
        const std::size_t width = std::min(lanes, instances);
        const std::size_t groups = (instances + width - 1) / width;
        // monte_carlo builds a pool per call; so does the replay. Its
        // threads (plus the calling one) span this design's thread-seconds.
        auto pool = make_pool();
        const double thread_count = pool ? double(pool->size() + 1) : 1.0;
        const auto t_design = Clock::now();
        const auto run_group = [&](std::size_t g) {
          const std::size_t first = g * width;
          const std::size_t count = std::min(width, instances - first);
          std::vector<arch::ChainSeeds> lane_seeds(count);
          for (std::size_t k = 0; k < count; ++k) {
            lane_seeds[k] = seeds_for(first + k);
          }
          const auto lane_metrics = replay_evaluate_lanes(
              *ctx, designs[d], lane_seeds, pool.get(), (d << 32) | g);
          EFF_REQUIRE(lane_metrics.size() == count,
                      "mc_yield: design has no batched path");
          for (std::size_t k = 0; k < count; ++k) {
            inst[first + k] = lane_metrics[k];
          }
        };
        if (pool) {
          pool->parallel_for(groups, run_group);
        } else {
          for (std::size_t g = 0; g < groups; ++g) run_group(g);
        }
        tp.thread_seconds += seconds_since(t_design) * thread_count;
      }
      for (const auto& m : inst) {
        bits.push_back(m.snr_db);
        bits.push_back(m.accuracy);
      }
      lap.points += inst.size();
      last_results.push_back(std::move(inst));
    }
    lap.wall_s = seconds_since(t0);
    lap.digest = fnv1a_doubles(bits);
    r.attempted += lap.points;
    if (traced) {
      auto spans = ledger_collect();
      add_totals(tp.totals, ledger_totals(spans));
      tp.omp += OmpCounters::now() - omp0;
      tp.points += lap.points;
      ++tp.laps;
      for (auto& th : spans) tp.spans.push_back(std::move(th));
    }
    return lap;
  });
  check_digests(laps, r);

  // Independent oracle: the lane engine must match the scalar path. One
  // instance per design is re-evaluated through Evaluator::evaluate.
  if (!opt.trace) {
    for (std::size_t d = 0; d < designs.size(); ++d) {
      core::Evaluator scalar = *ctx->evaluator;
      scalar.set_seeds(seeds_for(0));
      const auto m = scalar.evaluate(designs[d]);
      const auto& lane0 = last_results[d].front();
      if (std::memcmp(&m.snr_db, &lane0.snr_db, sizeof m.snr_db) != 0 ||
          std::memcmp(&m.accuracy, &lane0.accuracy, sizeof m.accuracy) != 0) {
        r.fail("mc_yield: lane 0 of design " + std::to_string(d) +
               " differs from the scalar Evaluator::evaluate oracle");
      }
    }
  }

  if (opt.trace) {
    report_setup_layers(ledger_totals(setup_spans), r);
    report_offline_layers(tp, laps, ctx->dataset.size(), lanes, r);
    std::vector<ThreadSpans> all = setup_spans;
    all.insert(all.end(), tp.spans.begin(), tp.spans.end());
    write_trace("trace.json", all);
  } else {
    report_offline_e2e(laps, setup_s, r);
  }
  return r;
}

}  // namespace e2e
