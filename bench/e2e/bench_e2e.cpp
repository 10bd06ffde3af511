// bench_e2e — the end-to-end benchmark behind BENCHMARK.json. One binary runs
// one workload per invocation; bench/e2e/run.py builds it, sets a clean
// environment and a fresh working directory, and passes the frozen workload
// sizes from bench/e2e/workloads.json:
//
//   bench_e2e --workload <sweep_grid|mc_yield|serve_cs|serve_raw>
//             --seed <n> --seconds <s> --trace <0|1> [--param key=value ...]
//   bench_e2e --self-test
//
// The last stdout line is one JSON object: correct/attempted/failed, every
// metric with its unit, and an "info" map (output digest, sample counts).
// Any failed output check exits 1 without that line.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "arch/recon_cache.hpp"
#include "classify/detector.hpp"
#include "eeg/dataset.hpp"
#include "eeg/generator.hpp"
#include "serve_load.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

double Options::num(const std::string& key) const {
  return std::stod(str(key));
}

std::string Options::str(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    throw efficsense::Error("bench_e2e: workload parameter '" + key +
                            "' missing (see bench/e2e/workloads.json)");
  }
  return it->second;
}

void Result::fail(const std::string& why) {
  correct = false;
  std::cerr << "bench_e2e: OUTPUT CHECK FAILED: " << why << "\n";
}

double timed_setups(const std::function<void(std::size_t)>& rep) {
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  std::vector<double> times;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const fs::path dir = home / ("setup" + std::to_string(k));
    fs::create_directories(dir);
    fs::current_path(dir);
    efficsense::arch::ReconstructorCache::instance().clear();
    const auto t0 = Clock::now();
    rep(k);
    times.push_back(seconds_since(t0));
    fs::current_path(home);
  }
  return median(times);
}

efficsense::arch::ScenarioSpec make_spec(const std::string& json_axes,
                                         std::size_t segments,
                                         std::uint64_t seed) {
  std::ostringstream js;
  js << "{\"name\": \"e2e\", \"architecture\": \"auto\", \"axes\": "
     << json_axes << ", \"eval\": {\"residual_tol\": 0.02}, \"sweep\": "
     << "{\"segments\": " << segments << ", \"train_segments\": "
     << kTrainSegments << ", \"seed\": " << seed << "}}";
  return efficsense::arch::scenario_from_json(js.str());
}

std::unique_ptr<efficsense::run::ScenarioContext> traced_scenario_context(
    const efficsense::arch::ScenarioSpec& spec, efficsense::ThreadPool* pool) {
  using namespace efficsense;
  auto ctx = std::make_unique<run::ScenarioContext>();
  ctx->spec = spec;
  ctx->base = spec.base_design();
  const eeg::Generator gen{eeg::GeneratorConfig{}};
  const std::size_t n = spec.segments;
  {
    Span s("eeg.synth");
    ctx->dataset = eeg::make_dataset(gen, n / 2, n - n / 2,
                                     derive_seed(spec.seed, 0xEA1), pool);
  }
  // Mirrors run::make_scenario_context's detector recipe (reconstructing
  // solvers only: no measurement-domain view).
  classify::DetectorConfig cfg;
  cfg.fs_hz = ctx->base.f_sample_hz();
  const std::size_t n_seizure = spec.train_segments / 2;
  eeg::Dataset train;
  {
    Span s("eeg.synth");
    train = eeg::make_dataset(gen, n_seizure, spec.train_segments - n_seizure,
                              derive_seed(spec.seed, 0xDE7), pool);
  }
  {
    Span s("classify.train");
    ctx->detector = classify::EpilepsyDetector::train(train, cfg);
  }
  ctx->evaluator = std::make_unique<core::Evaluator>(
      power::TechnologyParams{}, &ctx->dataset, &*ctx->detector,
      run::scenario_eval_options(spec));
  return ctx;
}

void report_setup_layers(const LedgerTotals& setup, Result& out) {
  const double n = double(kSetupRepeats - 1);  // set-up 0 is untraced
  const auto get = [&](const char* name) {
    const auto it = setup.name_total_s.find(name);
    return it == setup.name_total_s.end() ? 0.0 : it->second;
  };
  set_metric(out, "eeg.synth_s", get("eeg.synth") / n);
  set_metric(out, "classify.train_s", get("classify.train") / n);
}

std::vector<Metric> per_layer_template() {
  return {
      {"eeg.synth_s", "s", 0},
      {"classify.train_s", "s", 0},
      {"classify.score_ms_per_seg", "ms", 0},
      {"classify.detect_us", "us", 0},
      {"sim.chain_ms_per_seg", "ms", 0},
      {"sim.batch_ms_per_seg", "ms", 0},
      {"cs.decode_ms_per_seg", "ms", 0},
      {"cs.reconstruct_us", "us", 0},
      {"cs.solves", "count", 0},
      {"cs.iterations_per_solve", "count", 0},
      {"cs.gram_builds", "count", 0},
      {"arch.build_us", "us", 0},
      {"arch.decoder_us", "us", 0},
      {"arch.cache_get_us", "us", 0},
      {"arch.cache_hit_ratio", "ratio", 0},
      {"dsp.reference_ms_per_seg", "ms", 0},
      {"power.report_us", "us", 0},
      {"run.commit_ms_per_point", "ms", 0},
      {"run.point_p50_ms", "ms", 0},
      {"run.point_p90_ms", "ms", 0},
      {"serve.encode_us", "us", 0},
      {"serve.parse_us", "us", 0},
      {"serve.validate_us", "us", 0},
      {"serve.residual_p50_ms", "ms", 0},
      {"serve.residual_p99_ms", "ms", 0},
      {"serve.queue_depth_mean", "count", 0},
      {"serve.queue_depth_max", "count", 0},
      {"serve.retries", "count", 0},
      {"loadgen.lag_p99_ms", "ms", 0},
      {"ledger.coverage", "ratio", 0},
      {"trace.overhead_frac", "ratio", 0},
  };
}

void set_metric(Result& r, const std::string& name, double value) {
  for (auto& m : r.metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw efficsense::Error("bench_e2e: unknown metric " + name);
}

namespace {

// --- self-test --------------------------------------------------------------

bool check(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  return ok;
}

/// The percentile helper against exact quantiles: order statistics found by
/// std::nth_element on a seeded random sample, and samples whose sorted
/// order is known by construction.
bool self_test_quantile() {
  bool ok = true;
  efficsense::Rng rng(11);
  std::vector<double> sample(1001);
  for (double& x : sample) x = rng.gaussian();
  bool exact = true;
  for (const std::size_t rank : {0, 10, 500, 990, 1000}) {
    std::vector<double> a = sample, b = sample;
    std::nth_element(b.begin(), b.begin() + std::ptrdiff_t(rank), b.end());
    // q = rank / 1000 is not exact in binary: allow rounding in q*(n-1).
    exact &= std::abs(quantile(a, double(rank) / 1000.0) - b[rank]) < 1e-9;
  }
  ok &= check(exact, "quantile: rank q*(n-1) is the exact order statistic");
  std::vector<double> v;
  for (int i = 100; i >= 0; --i) v.push_back(double(i));  // 0..100 reversed
  ok &= check(quantile(v, 0.5) == 50.0, "quantile: median of 0..100 is 50");
  ok &= check(quantile(v, 0.99) == 99.0, "quantile: p99 of 0..100 is 99");
  ok &= check(quantile(v, 0.0) == 0.0 && quantile(v, 1.0) == 100.0,
              "quantile: p0/p100 are the extremes");
  std::vector<double> w = {4.0, 1.0, 3.0, 2.0};
  // Python: statistics.quantiles([1,2,3,4], n=4, method="inclusive")
  // == [1.75, 2.5, 3.25].
  ok &= check(quantile(w, 0.25) == 1.75 && quantile(w, 0.75) == 3.25,
              "quantile: quartiles of {1,2,3,4} match the inclusive method");
  std::vector<double> e;
  ok &= check(quantile(e, 0.5) == 0.0, "quantile: empty sample gives 0");
  return ok;
}

bool self_test_ledger() {
  // Synthetic tree on one thread: root [0,100] with children a [10,40] and
  // b [50,90]; b has a child c [60,70]. Times in ns.
  ThreadSpans th;
  th.tid = 1;
  th.spans = {
      {"core.root", 0, 100, -1, 7, 1},
      {"sim.a", 10, 40, 0, 7, 1},
      {"cs.b", 50, 90, 0, 7, 1},
      {"dsp.c", 60, 70, 2, 7, 1},
  };
  const auto t = ledger_totals({th});
  const auto self = [&](const char* layer) {
    return t.layer_self_s.at(layer) * 1e9;
  };
  bool ok = true;
  ok &= check(std::abs(self("core") - 30.0) < 1e-6,
              "ledger: root self = 100 - 30 - 40 = 30");
  ok &= check(std::abs(self("sim") - 30.0) < 1e-6, "ledger: leaf a self = 30");
  ok &= check(std::abs(self("cs") - 30.0) < 1e-6,
              "ledger: b self = 40 - 10 = 30");
  ok &= check(std::abs(self("dsp") - 10.0) < 1e-6, "ledger: leaf c self = 10");
  ok &= check(std::abs(t.self_sum_s() * 1e9 - 100.0) < 1e-6,
              "ledger: self times sum to the root's duration");

  // Live spans: nesting and correlation-id inheritance.
  ledger_enable(true);
  {
    Span root("core.live", 42);
    Span child("sim.live");
  }
  ledger_enable(false);
  const auto live = ledger_collect();
  ok &= check(live.size() == 1 && live[0].spans.size() == 2 &&
                  live[0].spans[1].parent == 0 && live[0].spans[1].corr == 42,
              "ledger: live child records its parent and inherits corr");

  // One thread collected in two phases: trace ids must stay unique.
  const std::string json = chrome_trace_json({th, th}, 100);
  ok &= check(json.find("\"id\":\"0:3\",\"parent\":\"0:2\"") !=
                      std::string::npos &&
                  json.find("\"id\":\"1:3\",\"parent\":\"1:2\"") !=
                      std::string::npos,
              "ledger: trace ids and parents are unique across phases");
  return ok;
}

bool self_test_schedule() {
  const auto a = make_schedule(7, 5000.0, 0.5, 64, 2);
  const auto b = make_schedule(7, 5000.0, 0.5, 64, 2);
  const auto c = make_schedule(8, 5000.0, 0.5, 64, 2);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].offset_ns == b[i].offset_ns && a[i].payload == b[i].payload &&
           a[i].session == b[i].session;
  }
  bool ok = check(same && !a.empty(),
                  "loadgen: same seed gives the same arrivals and payloads");
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].offset_ns != c[i].offset_ns || a[i].payload != c[i].payload;
  }
  ok &= check(differs, "loadgen: another seed gives another schedule");
  // Poisson: the count over 0.5 s at 5000/s is 2500 +- a few sigma (50).
  ok &= check(a.size() > 2300 && a.size() < 2700,
              "loadgen: arrival count matches the rate (" +
                  std::to_string(a.size()) + " in 0.5 s at 5000/s)");
  bool sorted = std::is_sorted(
      a.begin(), a.end(),
      [](const Arrival& x, const Arrival& y) { return x.offset_ns < y.offset_ns; });
  ok &= check(sorted, "loadgen: arrivals are in time order");
  return ok;
}

int self_test() {
  std::cout << "bench_e2e self-test\n";
  bool ok = self_test_quantile();
  ok &= self_test_ledger();
  ok &= self_test_schedule();
  std::cout << (ok ? "self-test passed\n" : "self-test FAILED\n");
  return ok ? 0 : 1;
}

// --- result output ----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_result(const Result& r) {
  std::cout << "\n";
  for (const auto& m : r.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const auto& [k, v] : r.info) std::cout << "  [" << k << "] " << v << "\n";
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}, \"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    os << (first ? "" : ", ") << "\"" << json_escape(k) << "\": \""
       << json_escape(v) << "\"";
    first = false;
  }
  os << "}, \"build\": {\"compiler\": \"" << E2E_COMPILER
     << "\", \"build_type\": \"" << E2E_BUILD_TYPE << "\"}}";
  std::cout << os.str() << std::endl;
}

void usage() {
  std::cerr << "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--param key=value ...]\n"
               "       bench_e2e --self-test\n";
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--self-test") return self_test();
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (arg == "--trace") {
      opt.trace = std::stoi(next()) != 0;
    } else if (arg == "--param") {
      const std::string kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        usage();
        return 2;
      }
      opt.params[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else {
      usage();
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    usage();
    return 2;
  }

  try {
    Result r;
    if (opt.workload == "sweep_grid") {
      r = run_sweep_grid(opt);
    } else if (opt.workload == "mc_yield") {
      r = run_mc_yield(opt);
    } else if (opt.workload == "serve_cs") {
      r = run_serve(opt, /*cs=*/true);
    } else if (opt.workload == "serve_raw") {
      r = run_serve(opt, /*cs=*/false);
    } else {
      usage();
      return 2;
    }
    if (!r.correct) return 1;
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: fatal: " << e.what() << "\n";
    return 1;
  }
}
