// bench_serve — load generator for the streaming gateway (DESIGN.md §14).
// Simulates a fleet of virtual sensor nodes (default 10k; 1k–100k sensible)
// multiplexed over C loopback UDS connections, sweeping C to find the
// daemon's throughput knee. Every virtual node streams one epoch window of
// framed measurements (CS-compressed for most nodes, raw pass-through for
// every fourth) and expects one detection back.
//
// Correctness is the point, not just speed: every detection returned by the
// daemon is compared BITWISE against the offline oracle — the same
// DecodePipeline invoked in-process on the identical request bytes. The
// order-independent FNV-1a64 digests of both sides print as
//
//   STREAM_DIGEST=<hex16>
//   ORACLE_DIGEST=<hex16>
//
// and any mismatch (or any non-retryable error response) exits 1. The
// serve-smoke CI lane runs this against an externally started daemon
// (--connect) and asserts the digest lines match.
//
//   bench_serve [--nodes <n>] [--conc <c1,c2,...>] [--connect <uds-path>]
//               [--scenario <spec.json>] [--out <BENCH_serve.json>]
//
// Without --connect the bench hosts the daemon in-process on a scratch UDS
// socket. The gated trajectory numbers are serve.points_per_s (best lap)
// and serve.p99_latency_ms at that lap (lower is better — see
// bench/baselines.json).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arch/scenario.hpp"
#include "obs/obs.hpp"
#include "results_common.hpp"
#include "run/scenario.hpp"
#include "serve/client.hpp"
#include "serve/pipeline.hpp"
#include "serve/server.hpp"
#include "util/cache.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

using namespace efficsense;

namespace {

/// Kept in sync with tools/serve's built-in spec and
/// examples/scenario_serve_smoke.json so the oracle here and an external
/// `serve` daemon with no --scenario agree on the scenario (and on the
/// cached detector blob).
constexpr const char* kServeSmokeSpec = R"({
  "name": "serve-smoke",
  "architecture": "auto",
  "axes": [
    {"name": "cs_m", "values": [0, 75]}
  ],
  "eval": {"residual_tol": 0.02},
  "sweep": {"segments": 2, "train_segments": 4, "seed": 919}
})";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// xorshift64* — deterministic per-node measurement synthesis, so the bench
/// and any external daemon's oracle see identical request bytes.
std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}

/// One virtual node's epoch request. The measurement vector is EEG-scale
/// pseudo-random data: the oracle comparison is about the decode path being
/// bit-identical, not about the waveform being physiological.
std::vector<serve::EpochRequest> make_requests(std::size_t nodes,
                                               std::uint32_t n_phi,
                                               std::uint32_t m_cs,
                                               std::size_t frames_per_epoch) {
  std::vector<serve::EpochRequest> reqs(nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    auto& r = reqs[node];
    r.header.scenario_id = 0;
    // Every fourth node streams the raw pass-through chain; the rest are
    // CS-compressed with one of 8 sensing seeds (so the reconstructor cache
    // sees realistic reuse instead of one hot entry or pure misses).
    const bool raw = (node % 4) == 3;
    r.header.m = raw ? 0 : m_cs;
    r.header.phi_seed = 100 + node % 8;
    r.header.node_id = node;
    r.header.epoch_index = node / 7;  // not all zero; exercises the field
    const std::size_t n =
        raw ? frames_per_epoch * n_phi : frames_per_epoch * m_cs;
    r.y.resize(n);
    std::uint64_t s = 0x9E3779B97F4A7C15ULL ^ (node + 1);
    for (auto& v : r.y) {
      // ~±100 uV, the dataset's scale.
      v = (double(xorshift(s) >> 11) / double(1ULL << 53) - 0.5) * 2e-4;
    }
  }
  return reqs;
}

struct Rec {
  std::uint64_t node_id = 0;
  std::uint64_t epoch_index = 0;
  std::uint64_t score_bits = 0;
  std::uint32_t n_samples = 0;
  std::uint8_t detected = 0;
};

/// Order-independent identity of a detection set: records sorted by
/// (node, epoch), raw fields folded through FNV-1a64.
std::uint64_t digest_recs(std::vector<Rec> recs) {
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return a.node_id != b.node_id ? a.node_id < b.node_id
                                  : a.epoch_index < b.epoch_index;
  });
  std::uint64_t d = kFnvOffset;
  for (const auto& r : recs) {
    d = fnv1a_update(d, &r.node_id, sizeof r.node_id);
    d = fnv1a_update(d, &r.epoch_index, sizeof r.epoch_index);
    d = fnv1a_update(d, &r.score_bits, sizeof r.score_bits);
    d = fnv1a_update(d, &r.n_samples, sizeof r.n_samples);
    d = fnv1a_update(d, &r.detected, sizeof r.detected);
  }
  return d;
}

Rec rec_of(const serve::Detection& det) {
  Rec r;
  r.node_id = det.node_id;
  r.epoch_index = det.epoch_index;
  std::memcpy(&r.score_bits, &det.score, sizeof r.score_bits);
  r.n_samples = det.n_samples;
  r.detected = det.detected;
  return r;
}

struct Lap {
  std::size_t concurrency = 0;
  double seconds = 0.0;
  double points_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
  std::uint64_t digest = 0;
};

double percentile_ms(std::vector<double>& lat_s, double q) {
  if (lat_s.empty()) return 0.0;
  std::sort(lat_s.begin(), lat_s.end());
  const auto idx = std::min(lat_s.size() - 1,
                            std::size_t(q * double(lat_s.size() - 1) + 0.5));
  return lat_s[idx] * 1e3;
}

/// One lap: all requests pushed through `concurrency` connections, each a
/// pipelining session with a bounded window of outstanding frames.
/// Retryable rejections (queue full / budget / draining) back off and
/// resend — that is the backpressure contract working, not a failure.
Lap run_lap(const std::vector<serve::EpochRequest>& reqs,
            const std::string& uds_path, std::size_t concurrency,
            std::size_t window) {
  Lap lap;
  lap.concurrency = concurrency;
  std::mutex merge_mutex;
  std::vector<Rec> recs;
  std::vector<double> latencies;
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> failures{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> conns;
  for (std::size_t c = 0; c < concurrency; ++c) {
    conns.emplace_back([&, c] {
      std::vector<const serve::EpochRequest*> mine;
      for (std::size_t i = c; i < reqs.size(); i += concurrency) {
        mine.push_back(&reqs[i]);
      }
      std::vector<Rec> local;
      std::vector<double> local_lat;
      local.reserve(mine.size());
      try {
        auto client = serve::Client::connect_unix(uds_path);
        client.hello({std::uint32_t(c), 0, std::uint32_t(mine.size())});

        struct Pending {
          const serve::EpochRequest* req;
          std::chrono::steady_clock::time_point sent;
        };
        std::unordered_map<std::uint64_t, Pending> inflight;
        const auto key = [](std::uint64_t node, std::uint64_t epoch) {
          return node * 1000003ULL + epoch;
        };
        std::size_t next = 0;
        while (next < mine.size() || !inflight.empty()) {
          while (next < mine.size() && inflight.size() < window) {
            const auto* r = mine[next++];
            client.send_data(r->header, r->y.data(), r->y.size());
            inflight[key(r->header.node_id, r->header.epoch_index)] = {
                r, std::chrono::steady_clock::now()};
          }
          auto resp = client.recv();
          if (!resp) throw Error("daemon closed the session mid-stream");
          if (resp->type == serve::FrameType::kDetection &&
              resp->detection) {
            const auto k =
                key(resp->detection->node_id, resp->detection->epoch_index);
            const auto it = inflight.find(k);
            if (it != inflight.end()) {
              local_lat.push_back(seconds_since(it->second.sent));
              inflight.erase(it);
            }
            local.push_back(rec_of(*resp->detection));
          } else if (resp->type == serve::FrameType::kError && resp->error) {
            const auto k =
                key(resp->error->node_id, resp->error->epoch_index);
            const auto it = inflight.find(k);
            if (serve::status_retryable(resp->status) &&
                it != inflight.end()) {
              retries.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              const auto* r = it->second.req;
              client.send_data(r->header, r->y.data(), r->y.size());
              it->second.sent = std::chrono::steady_clock::now();
            } else {
              failures.fetch_add(1);
              if (it != inflight.end()) inflight.erase(it);
            }
          } else {
            failures.fetch_add(1);
          }
        }
        client.bye();
      } catch (const std::exception& e) {
        std::cerr << "bench_serve: connection " << c << ": " << e.what()
                  << "\n";
        failures.fetch_add(1);
      }
      std::lock_guard lock(merge_mutex);
      recs.insert(recs.end(), local.begin(), local.end());
      latencies.insert(latencies.end(), local_lat.begin(), local_lat.end());
    });
  }
  for (auto& t : conns) t.join();

  lap.seconds = seconds_since(t0);
  lap.points_per_s = lap.seconds > 0.0 ? double(recs.size()) / lap.seconds : 0;
  lap.p50_ms = percentile_ms(latencies, 0.50);
  lap.p99_ms = percentile_ms(latencies, 0.99);
  lap.retries = retries.load();
  lap.failures = failures.load() + (reqs.size() - recs.size());
  lap.digest = digest_recs(std::move(recs));
  return lap;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes =
      std::size_t(env_int("EFFICSENSE_BENCH_SERVE_NODES", 10000));
  std::vector<std::size_t> concurrencies = {1, 2, 4, 8};
  std::string connect_path;
  std::string scenario_file;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      EFF_REQUIRE(i + 1 < argc, "bench_serve: missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--nodes") {
      nodes = std::size_t(std::max(1, std::atoi(next())));
    } else if (arg == "--conc") {
      concurrencies.clear();
      std::stringstream ss(next());
      for (std::string tok; std::getline(ss, tok, ',');) {
        concurrencies.push_back(std::size_t(std::max(1, std::atoi(tok.c_str()))));
      }
      EFF_REQUIRE(!concurrencies.empty(), "bench_serve: empty --conc list");
    } else if (arg == "--connect") {
      connect_path = next();
    } else if (arg == "--scenario") {
      scenario_file = next();
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::cerr << "usage: bench_serve [--nodes <n>] [--conc <c1,c2,...>]\n"
                   "                   [--connect <uds-path>]"
                   " [--scenario <spec.json>]\n"
                   "                   [--out <BENCH_serve.json>]\n";
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  obs::BenchRun obs_run("bench_serve");
  try {
    // The oracle side: the identical scenario the daemon serves, brought up
    // in this process. Detector identity across processes is guaranteed by
    // deterministic seeded training plus the repo-local .cache/ blob.
    auto context = run::make_scenario_context(
        scenario_file.empty() ? arch::scenario_from_json(kServeSmokeSpec)
                              : arch::scenario_from_file(scenario_file),
        nullptr,
        [](const std::string& line) {
          std::cerr << "bench_serve: " << line << "\n";
        });
    serve::DecodePipeline pipeline({context.get()});

    const auto n_phi = std::uint32_t(context->base.cs_n_phi);
    const std::uint32_t m_cs = 75;
    // Smallest whole-frame window covering one detector epoch.
    const std::size_t frames_per_epoch =
        (pipeline.min_epoch_samples(0) + n_phi - 1) / n_phi;
    const auto requests = make_requests(nodes, n_phi, m_cs, frames_per_epoch);
    std::cout << "bench_serve: " << nodes << " virtual nodes, "
              << frames_per_epoch << " CS frames/epoch, m=" << m_cs
              << " (raw every 4th node)\n";

    // Offline oracle pass (parallel — identical math per request either way).
    ThreadPool pool;
    std::vector<Rec> oracle(requests.size());
    const auto t_oracle = std::chrono::steady_clock::now();
    pool.parallel_for(requests.size(), [&](std::size_t i) {
      const auto det = pipeline.decode(requests[i]);
      Rec r;
      r.node_id = det.node_id;
      r.epoch_index = det.epoch_index;
      std::memcpy(&r.score_bits, &det.score, sizeof r.score_bits);
      r.n_samples = det.n_samples;
      r.detected = det.detected ? 1 : 0;
      oracle[i] = r;
    });
    const double oracle_s = seconds_since(t_oracle);
    const std::uint64_t oracle_digest = digest_recs(oracle);
    std::cout << "bench_serve: oracle pass " << oracle_s << " s ("
              << double(requests.size()) / std::max(1e-9, oracle_s)
              << " points/s in-process)\n";

    // The daemon side: external (--connect) or hosted in-process.
    std::unique_ptr<serve::Server> server;
    std::string uds_path = connect_path;
    if (uds_path.empty()) {
      uds_path = "/tmp/efficsense_serve_" + std::to_string(::getpid()) +
                 ".sock";
      serve::ServerConfig config = serve::server_config_from_env();
      config.uds_path = uds_path;
      config.tcp_port = -1;
      config.status_path = "";  // the bench reads stats(), not heartbeats
      server = std::make_unique<serve::Server>(&pipeline, config);
      server->start();
    }

    const std::size_t window = 32;
    std::vector<Lap> laps;
    bool all_match = true;
    std::cout << "\n  conc    seconds    points/s    p50 ms    p99 ms"
                 "    retries  digest\n";
    for (const auto c : concurrencies) {
      auto lap = run_lap(requests, uds_path, c, window);
      const bool match = lap.digest == oracle_digest && lap.failures == 0;
      if (!match) all_match = false;
      std::printf("  %4zu %10.3f %11.1f %9.3f %9.3f %10llu  %s\n", c,
                  lap.seconds, lap.points_per_s, lap.p50_ms, lap.p99_ms,
                  static_cast<unsigned long long>(lap.retries),
                  match ? "match" : "MISMATCH");
      laps.push_back(lap);
    }

    const auto best = std::max_element(
        laps.begin(), laps.end(), [](const Lap& a, const Lap& b) {
          return a.points_per_s < b.points_per_s;
        });
    std::cout << "\nknee: concurrency " << best->concurrency << " at "
              << best->points_per_s << " points/s (p99 " << best->p99_ms
              << " ms)\n";
    std::cout << "STREAM_DIGEST=" << hex16(best->digest) << "\n"
              << "ORACLE_DIGEST=" << hex16(oracle_digest) << std::endl;

    if (server) server->stop();

    obs_run.add_field("points_per_s", best->points_per_s);
    obs_run.add_field("p99_latency_ms", best->p99_ms);
    std::ofstream out(out_path, std::ios::trunc);
    if (out) {
      out.precision(6);
      out << "{\n  \"bench\": \"bench_serve\",\n"
          << "  \"nodes\": " << nodes << ",\n"
          << "  \"frames_per_epoch\": " << frames_per_epoch << ",\n"
          << "  \"oracle_points_per_s\": "
          << double(requests.size()) / std::max(1e-9, oracle_s) << ",\n"
          << "  \"serve\": {\n"
          << "    \"points_per_s\": " << best->points_per_s << ",\n"
          << "    \"p50_latency_ms\": " << best->p50_ms << ",\n"
          << "    \"p99_latency_ms\": " << best->p99_ms << ",\n"
          << "    \"knee_concurrency\": " << best->concurrency << ",\n"
          << "    \"retries\": " << best->retries << ",\n    \"laps\": {";
      for (std::size_t i = 0; i < laps.size(); ++i) {
        out << (i ? ", " : "") << "\"c" << laps[i].concurrency
            << "\": " << laps[i].points_per_s;
      }
      out << "}\n  },\n"
          << "  \"digest_match\": " << (all_match ? "true" : "false") << ",\n"
          << "  \"omp\": " << bench::omp_instruments_json() << "\n}\n";
      std::cout << "[writing " << out_path << "]\n";
    }

    if (!all_match) {
      std::cerr << "bench_serve: stream/oracle DIVERGED (or frames lost)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_serve: fatal: " << e.what() << "\n";
    return 1;
  }
}
