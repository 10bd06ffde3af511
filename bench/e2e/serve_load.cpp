// The serve_* workloads: open-loop arrivals into an in-process
// serve::Server over 2 UDS sessions, driven from one generator thread.
//
// Set-up synthesizes the scenario (dataset + detector), a fixed payload pool
// made by running the acquisition chain itself over EEG segments (CS epochs
// of M measurements per frame for serve_cs, raw f_sample epochs for
// serve_raw), an in-process DecodePipeline oracle answer for every payload,
// and starts the server. The measured phases are an open-loop warm-up, an
// open-loop nominal phase at a frozen Poisson rate (latency from each frame's
// scheduled send time) and a closed-loop capacity phase (a fixed window of
// frames outstanding per session; answered frames per second). Every
// detection must equal the oracle's bits for its payload.
//
// A traced run adds a 10 ms queue-depth sampler during the nominal phase and,
// after the live phases, replays the gateway's per-frame path (encode, parse,
// validate, cache lookup, reconstruct, detect) over the payload pool as
// public calls with a span per layer.

#include "serve_load.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <thread>

#include "arch/architecture.hpp"
#include "arch/recon_cache.hpp"
#include "serve/client.hpp"
#include "serve/pipeline.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace efficsense;

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double duration_s, std::size_t pool_size,
                                   std::size_t sessions) {
  EFF_REQUIRE(rate_per_s > 0 && pool_size > 0 && sessions > 0,
              "make_schedule: rate, pool and sessions must be positive");
  Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(std::size_t(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  for (std::uint32_t i = 0;; ++i) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back({std::int64_t(t * 1e9),
                   std::uint32_t(rng.below(pool_size)),
                   std::uint32_t(i % sessions)});
  }
  return out;
}

namespace {

/// Frame i travels as (node_id, epoch_index) = (i % kNodes, i / kNodes).
constexpr std::uint64_t kNodes = 4096;
/// The generator lag p99 and closed-loop throughput are taken per window of
/// this length, then the median over windows: one host stall moves the
/// result by at most one window's rank. A lag window needs kMinWindowSamples
/// frames for its p99 to rest on at least ten samples beyond it.
constexpr double kWindowS = 0.5;
constexpr std::size_t kMinWindowSamples = 1000;
/// Latency percentiles are taken per shorter window (about 250 frames at the
/// serve_cs rate), then the median over the least-late share of them (see
/// kLatencyWindowShare). Short windows let a run on a host that stalls every
/// few hundred milliseconds still find stall-free ones; a window with fewer
/// than kMinLatencyWindowSamples frames is not used.
constexpr double kLatencyWindowS = 0.1;
constexpr std::size_t kMinLatencyWindowSamples = 100;

/// Traffic: one generator thread over this many UDS sessions, drawing from a
/// fixed pool of payloads; CS payloads carry M measurements per frame and
/// rotate over kPhiSeeds sensing-matrix draws.
constexpr std::size_t kSessions = 2;
constexpr std::size_t kPayloads = 96;
constexpr int kCsM = 75;
constexpr std::size_t kPhiSeeds = 8;

/// Phases: an untimed open-loop warm-up (fills the reconstructor cache), the
/// nominal phase (whatever --seconds leaves), then the closed-loop capacity
/// phase with kCapacityWindow frames outstanding per session, whose
/// throughput counts only after a ramp.
constexpr double kWarmupS = 1.0;
constexpr double kCapacityS = 3.0;
constexpr double kCapacityRampS = 0.5;
constexpr std::size_t kCapacityWindow = 64;
/// Closed-loop throughput ceiling, used only to size the frame table.
constexpr double kMaxCapacity = 60000.0;
/// How long a phase waits for its last answers before abandoning them.
constexpr double kDrainS = 3.0;
/// A latency window in which the generator ran late measured a host stall as
/// well as the gateway: a thread that only sleeps and writes was held up.
/// Latency percentiles use this share of the windows, those in which the
/// generator's largest lag was smallest.
constexpr double kLatencyWindowShare = 1.0 / 6.0;
/// Traced run: length of the gateway replay after the live phases.
constexpr double kReplayS = 0.6;

struct Payload {
  serve::DataHeader header;  ///< node_id / epoch_index filled per frame
  std::vector<double> y;
  std::uint64_t score_bits = 0;  ///< in-process DecodePipeline answer
  std::uint32_t n_samples = 0;
  std::uint8_t detected = 0;
};

enum FrameState : std::uint8_t {
  kPending = 0,
  kAnswered = 1,
  kFailed = 2,     ///< non-retryable error response
  kMismatch = 3,   ///< answered, but not with the oracle's bits
  kAbandoned = 4,  ///< unanswered when its phase's drain timed out
};

struct Frame {
  std::atomic<std::int64_t> sched_ns{0};
  std::atomic<std::int64_t> recv_ns{0};
  std::atomic<std::uint8_t> state{kPending};
  std::uint32_t payload = 0;
  std::uint32_t session = 0;
  std::uint32_t retries = 0;  ///< touched by the session's receiver only
};

struct PhaseStats {
  std::size_t frames = 0;
  std::size_t failed = 0;     ///< non-retryable errors + unanswered
  std::size_t mismatched = 0;
  std::uint64_t retries = 0;
  // Per frame, in schedule order:
  std::vector<double> latency_ms;      ///< from scheduled send time
  std::vector<double> lag_ms;          ///< send time - scheduled time
  std::vector<std::uint32_t> payload;  ///< payload pool index
  std::vector<double> offset_s;        ///< scheduled time into the phase

  /// Window index of each frame for windows of `window_s` seconds.
  std::vector<std::uint32_t> windows(double window_s) const {
    std::vector<std::uint32_t> w;
    w.reserve(offset_s.size());
    for (const double t : offset_s) w.push_back(std::uint32_t(t / window_s));
    return w;
  }

  /// Of the windows of `window_s` seconds holding at least `min_samples`
  /// frames, the `share` (at least one) in which the generator's largest lag
  /// was smallest; `worst_lag_ms` gets the largest lag within them.
  std::set<std::uint32_t> least_late_windows(double window_s, double share,
                                             std::size_t min_samples,
                                             double* worst_lag_ms) const {
    std::map<std::uint32_t, std::pair<double, std::size_t>> lag_of;
    for (std::size_t k = 0; k < offset_s.size(); ++k) {
      auto& [worst, frames] = lag_of[std::uint32_t(offset_s[k] / window_s)];
      worst = std::max(worst, lag_ms[k]);
      ++frames;
    }
    std::vector<std::pair<double, std::uint32_t>> order;
    for (const auto& [w, lag] : lag_of) {
      if (lag.second >= min_samples) order.emplace_back(lag.first, w);
    }
    std::sort(order.begin(), order.end());
    const auto n = std::max<std::size_t>(
        1, std::size_t(std::ceil(share * double(order.size()))));
    std::set<std::uint32_t> out;
    *worst_lag_ms = 0.0;
    for (std::size_t i = 0; i < n && i < order.size(); ++i) {
      out.insert(order[i].second);
      *worst_lag_ms = order[i].first;
    }
    return out;
  }
};

/// Generator + receivers over `sessions` UDS sessions to one server.
class LoadGen {
 public:
  LoadGen(const std::string& uds_path, const std::vector<Payload>& pool,
          std::size_t sessions, std::size_t max_frames)
      : pool_(pool),
        frames_(new Frame[max_frames]),
        max_frames_(max_frames),
        session_resolved_(new std::atomic<std::uint64_t>[sessions]) {
    for (std::size_t s = 0; s < sessions; ++s) session_resolved_[s] = 0;
    for (std::size_t s = 0; s < sessions; ++s) {
      clients_.push_back(serve::Client::connect_unix(uds_path));
      clients_.back().hello({std::uint32_t(s), 0, std::uint32_t(kNodes)});
    }
    for (std::size_t s = 0; s < sessions; ++s) {
      receivers_.emplace_back([this, s] { receive(s); });
    }
  }

  ~LoadGen() { close(); }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Say bye on every session and join the receivers.
  void close() {
    if (closed_) return;
    closed_ = true;
    const std::string bye =
        serve::encode_frame(serve::FrameType::kBye, serve::Status::kOk, "");
    for (auto& c : clients_) serve::write_all(c.fd(), bye);
    for (auto& t : receivers_) t.join();
  }

  bool broken() const { return broken_.load(); }

  /// Send one phase's arrivals open-loop, then wait (servicing retries)
  /// until every frame is answered or `drain_timeout_s` passes.
  PhaseStats run_phase(const std::vector<Arrival>& arrivals,
                       double drain_timeout_s) {
    PhaseStats st;
    const std::size_t first = next_;
    EFF_REQUIRE(first + arrivals.size() <= max_frames_,
                "load generator frame table exhausted");
    const std::int64_t start = now_ns() + 1'000'000;  // 1 ms lead
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
      Frame& f = frames_[first + k];
      f.payload = arrivals[k].payload;
      f.session = arrivals[k].session;
      f.sched_ns.store(start + arrivals[k].offset_ns, std::memory_order_release);
    }
    next_ = first + arrivals.size();
    assigned_.store(next_, std::memory_order_release);
    const std::uint64_t resolved0 = resolved_.load();
    const std::uint64_t retries0 = retries_.load();

    st.lag_ms.reserve(arrivals.size());
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
      const std::size_t i = first + k;
      const std::int64_t due = frames_[i].sched_ns.load(std::memory_order_relaxed);
      service_retries(now_ns());
      std::int64_t now = now_ns();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
      st.lag_ms.push_back(double(now - due) * 1e-6);
      st.offset_s.push_back(double(due - start) * 1e-9);
      send(i);
    }
    const auto drain_deadline =
        now_ns() + std::int64_t(drain_timeout_s * 1e9);
    while (resolved_.load() - resolved0 < arrivals.size() &&
           now_ns() < drain_deadline && !broken()) {
      service_retries(now_ns());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const std::int64_t end = now_ns();

    st.frames = arrivals.size();
    st.retries = retries_.load() - retries0;
    st.latency_ms.reserve(arrivals.size());
    for (std::size_t i = first; i < next_; ++i) {
      Frame& f = frames_[i];
      std::uint8_t expect = kPending;
      // An unanswered frame is abandoned (a late answer is then ignored)
      // and counts as the whole drain window late.
      f.state.compare_exchange_strong(expect, kAbandoned);
      const std::uint8_t state = f.state.load();
      const std::int64_t sched = f.sched_ns.load();
      const std::int64_t recv =
          state == kAnswered || state == kMismatch ? f.recv_ns.load() : end;
      const double ms = double(recv - sched) * 1e-6;
      st.latency_ms.push_back(ms);
      st.payload.push_back(f.payload);
      if (state == kMismatch) {
        ++st.mismatched;
      } else if (state != kAnswered) {
        ++st.failed;
      }
    }
    {
      std::lock_guard lock(retry_mutex_);
      retry_queue_ = {};
    }
    return st;
  }

  struct ClosedStats {
    std::size_t frames = 0;
    std::size_t failed = 0;  ///< non-retryable errors + unanswered
    std::size_t mismatched = 0;
    /// Frames answered per second after the ramp: per kWindowS window, the
    /// median over windows.
    double points_per_s = 0.0;
  };

  /// Closed loop: keep `window` frames outstanding on every session for
  /// `duration_s` (payloads drawn with `seed`), then drain. Throughput
  /// counts the frames answered between `ramp_s` and the end of sending.
  ClosedStats run_closed(std::uint64_t seed, double duration_s, double ramp_s,
                         std::size_t window, double drain_timeout_s) {
    Rng rng(seed);
    const std::size_t first = next_;
    const std::size_t sessions = clients_.size();
    std::vector<std::uint64_t> sent(sessions, 0), resolved0(sessions, 0);
    for (std::size_t s = 0; s < sessions; ++s) {
      resolved0[s] = session_resolved_[s].load();
    }
    const std::int64_t start = now_ns();
    const std::int64_t end = start + std::int64_t(duration_s * 1e9);
    while (now_ns() < end && !broken()) {
      bool sent_any = false;
      for (std::size_t s = 0; s < sessions; ++s) {
        while (sent[s] - (session_resolved_[s].load() - resolved0[s]) < window) {
          EFF_REQUIRE(next_ < max_frames_, "load generator frame table exhausted");
          const std::size_t i = next_++;
          Frame& f = frames_[i];
          f.payload = std::uint32_t(rng.below(pool_.size()));
          f.session = std::uint32_t(s);
          f.sched_ns.store(now_ns(), std::memory_order_release);
          assigned_.store(next_, std::memory_order_release);
          send(i);
          ++sent[s];
          sent_any = true;
        }
      }
      service_retries(now_ns());
      if (!sent_any) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const std::uint64_t total = next_ - first;
    const auto drain_deadline = now_ns() + std::int64_t(drain_timeout_s * 1e9);
    const auto resolved_all = [&] {
      std::uint64_t n = 0;
      for (std::size_t s = 0; s < sessions; ++s) {
        n += session_resolved_[s].load() - resolved0[s];
      }
      return n;
    };
    while (resolved_all() < total && now_ns() < drain_deadline && !broken()) {
      service_retries(now_ns());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ClosedStats cs;
    cs.frames = total;
    const std::int64_t from = start + std::int64_t(ramp_s * 1e9);
    const auto window_ns = std::int64_t(kWindowS * 1e9);
    std::vector<double> answered(std::size_t((end - from) / window_ns), 0.0);
    for (std::size_t i = first; i < next_; ++i) {
      Frame& f = frames_[i];
      std::uint8_t expect = kPending;
      f.state.compare_exchange_strong(expect, kAbandoned);
      const std::uint8_t state = f.state.load();
      if (state == kAnswered) {
        const std::int64_t t = f.recv_ns.load();
        const std::size_t w =
            t < from ? answered.size() : std::size_t((t - from) / window_ns);
        if (w < answered.size()) ++answered[w];
      } else if (state == kMismatch) {
        ++cs.mismatched;
      } else {
        ++cs.failed;
      }
    }
    cs.points_per_s = median(answered) / kWindowS;
    {
      std::lock_guard lock(retry_mutex_);
      retry_queue_ = {};
    }
    return cs;
  }

 private:
  void send(std::size_t i) {
    const Frame& f = frames_[i];
    serve::DataHeader h = pool_[f.payload].header;
    h.node_id = i % kNodes;
    h.epoch_index = i / kNodes;
    const auto& y = pool_[f.payload].y;
    const std::string frame = serve::encode_frame(
        serve::FrameType::kData, serve::Status::kOk,
        serve::encode_data(h, y.data(), y.size()));
    if (!serve::write_all(clients_[f.session].fd(), frame)) broken_ = true;
  }

  /// Resend frames whose retry backoff has passed. The frame keeps its
  /// original schedule time.
  void service_retries(std::int64_t now) {
    std::vector<std::size_t> due;
    {
      std::lock_guard lock(retry_mutex_);
      while (!retry_queue_.empty() && retry_queue_.top().first <= now) {
        due.push_back(retry_queue_.top().second);
        retry_queue_.pop();
      }
    }
    for (const std::size_t i : due) send(i);
  }

  void receive(std::size_t s) {
    try {
      for (;;) {
        const auto resp = clients_[s].recv();
        if (!resp || resp->type == serve::FrameType::kByeAck) return;
        const std::int64_t now = now_ns();
        std::uint64_t node = 0, epoch = 0;
        if (resp->detection) {
          node = resp->detection->node_id;
          epoch = resp->detection->epoch_index;
        } else if (resp->error) {
          node = resp->error->node_id;
          epoch = resp->error->epoch_index;
        } else {
          broken_ = true;
          return;
        }
        const std::uint64_t i = epoch * kNodes + node;
        if (node >= kNodes || i >= assigned_.load(std::memory_order_acquire)) {
          broken_ = true;  // an answer to a frame never sent
          continue;
        }
        Frame& f = frames_[i];
        if (resp->detection) {
          const Payload& p = pool_[f.payload];
          std::uint64_t bits = 0;
          std::memcpy(&bits, &resp->detection->score, sizeof bits);
          const bool same = bits == p.score_bits &&
                            resp->detection->n_samples == p.n_samples &&
                            resp->detection->detected == p.detected;
          f.recv_ns.store(now);
          resolve(f, same ? kAnswered : kMismatch);
        } else if (serve::status_retryable(resp->status)) {
          // Exponential backoff, 200 us doubling to 25.6 ms: an open-loop
          // client must not answer backpressure with a retry storm. A frame
          // its phase already abandoned is not resent, or it would land in
          // the next phase; checked under the lock the phase takes to clear
          // the queue after abandoning its frames.
          std::lock_guard lock(retry_mutex_);
          if (f.state.load() == kPending) {
            const std::int64_t backoff = 200'000LL << std::min(f.retries++, 7u);
            retries_.fetch_add(1);
            retry_queue_.emplace(now + backoff, i);
          }
        } else {
          resolve(f, kFailed);
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "bench_e2e: session " << s << ": " << e.what() << "\n";
      broken_ = true;
    }
  }

  void resolve(Frame& f, std::uint8_t state) {
    std::uint8_t expect = kPending;
    if (f.state.compare_exchange_strong(expect, state)) {
      resolved_.fetch_add(1);
      session_resolved_[f.session].fetch_add(1);
    }
  }

  const std::vector<Payload>& pool_;
  std::unique_ptr<Frame[]> frames_;
  const std::size_t max_frames_;
  std::size_t next_ = 0;  // generator thread only
  std::atomic<std::size_t> assigned_{0};
  std::atomic<std::uint64_t> resolved_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<bool> broken_{false};
  std::unique_ptr<std::atomic<std::uint64_t>[]> session_resolved_;
  std::mutex retry_mutex_;
  using Retry = std::pair<std::int64_t, std::size_t>;  // (due ns, frame)
  std::priority_queue<Retry, std::vector<Retry>, std::greater<>> retry_queue_;
  std::vector<serve::Client> clients_;
  std::vector<std::thread> receivers_;  // declared last: they use the above
  bool closed_ = false;
};

/// Everything the set-up builds; destroyed server-first.
struct ServeSetup {
  std::unique_ptr<run::ScenarioContext> ctx;
  std::unique_ptr<serve::DecodePipeline> pipeline;
  std::vector<Payload> pool;
  std::unique_ptr<serve::Server> server;

  ~ServeSetup() {
    if (server) server->stop();
  }
};

/// Payload pool: the chain's own output over dataset segments, input
/// referred, cut into epoch windows of whole frames. CS payloads rotate over
/// kPhiSeeds sensing-matrix draws.
std::vector<Payload> make_pool(const run::ScenarioContext& ctx,
                               const serve::DecodePipeline& pipeline, bool cs) {
  const std::size_t count = kPayloads;
  const auto n_phi = std::size_t(ctx.base.cs_n_phi);
  const std::size_t frames_per_epoch =
      (pipeline.min_epoch_samples(0) + n_phi - 1) / n_phi;
  const std::size_t per_frame = cs ? std::size_t(kCsM) : n_phi;
  const std::size_t window = frames_per_epoch * per_frame;
  const std::size_t streams = cs ? kPhiSeeds : 1;
  std::vector<Payload> pool;
  for (std::size_t s = 0; s < streams && pool.size() < count; ++s) {
    power::DesignParams design = ctx.base;
    design.cs_m = cs ? kCsM : 0;
    arch::ChainSeeds seeds = ctx.spec.seeds;
    seeds.phi = 100 + s;
    const auto& architecture =
        arch::ArchRegistry::instance().resolve(ctx.spec.architecture, design);
    auto chain =
        architecture.build_model(power::TechnologyParams{}, design, seeds);
    const std::size_t quota = (count - pool.size()) / (streams - s);
    std::size_t taken = 0;
    for (std::size_t g = 0; g < ctx.dataset.size() && taken < quota; ++g) {
      const auto& segment = ctx.dataset.segments[(s + g) % ctx.dataset.size()];
      sim::Waveform received;
      {
        Span span("sim.chain");
        received = arch::run_chain(*chain, segment.waveform);
      }
      const double inv_gain = 1.0 / design.lna_gain;
      for (std::size_t off = 0;
           off + window <= received.samples.size() && taken < quota;
           off += window, ++taken) {
        Payload p;
        p.header.scenario_id = 0;
        p.header.m = std::uint32_t(design.cs_m);
        p.header.phi_seed = cs ? seeds.phi : 0;
        p.y.assign(received.samples.begin() + std::ptrdiff_t(off),
                   received.samples.begin() + std::ptrdiff_t(off + window));
        for (double& v : p.y) v *= inv_gain;
        pool.push_back(std::move(p));
      }
    }
  }
  EFF_REQUIRE(pool.size() == count,
              "serve payload pool: dataset too small for " +
                  std::to_string(count) + " payloads");
  // The oracle: the in-process pipeline's answer for every payload.
  for (auto& p : pool) {
    const auto det = pipeline.decode({p.header, p.y});
    std::memcpy(&p.score_bits, &det.score, sizeof p.score_bits);
    p.n_samples = det.n_samples;
    p.detected = det.detected ? 1 : 0;
  }
  return pool;
}

/// DecodePipeline::decode as public calls, one span per layer.
double replay_decode(const run::ScenarioContext& ctx,
                     const serve::EpochRequest& req) {
  const auto& h = req.header;
  power::DesignParams design = ctx.base;
  design.cs_m = int(h.m);
  std::vector<double> x;
  if (h.m > 0) {
    arch::ChainSeeds seeds = ctx.spec.seeds;
    seeds.phi = h.phi_seed;
    std::shared_ptr<const cs::Reconstructor> recon;
    {
      Span s("arch.cache_get");
      recon = arch::ReconstructorCache::instance().get(design, seeds,
                                                       ctx.spec.recon);
    }
    Span s("cs.reconstruct");
    x = recon->reconstruct_stream(req.y);
  } else {
    x = req.y;
  }
  Span s("classify.detect");
  return ctx.detector->seizure_probability(x, design.f_sample_hz());
}

struct ReplayStats {
  double traced_s = 0.0, plain_s = 0.0;
  std::vector<double> decode_ms;  ///< per payload, median over rounds
  LedgerTotals totals;
  std::vector<ThreadSpans> spans;
  bool match = true;
};

/// Alternate untraced rounds (the real calls) and traced rounds (replayed
/// calls with spans) over the pool for about `budget_s`.
ReplayStats replay(const ServeSetup& su, double budget_s) {
  ReplayStats rs;
  const auto& ctx = *su.ctx;
  std::vector<std::vector<double>> per_payload(su.pool.size());
  const auto t_start = Clock::now();
  for (std::size_t round = 0; round < 2 || seconds_since(t_start) < budget_s;
       ++round) {
    const bool traced = round % 2 == 1;
    ledger_enable(traced);
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < su.pool.size(); ++p) {
      const Payload& pl = su.pool[p];
      serve::DataHeader h = pl.header;
      h.node_id = p;
      h.epoch_index = round;
      Span root("serve.frame", (std::uint64_t(p) << 32) | round);
      std::string frame;
      {
        Span s("serve.encode");
        frame = serve::encode_frame(serve::FrameType::kData, serve::Status::kOk,
                                    serve::encode_data(h, pl.y.data(), pl.y.size()));
      }
      serve::EpochRequest req;
      {
        Span s("serve.parse");
        serve::ParsedFrame pf;
        serve::Status why = serve::Status::kOk;
        const auto* bytes = reinterpret_cast<const std::uint8_t*>(frame.data());
        if (serve::parse_frame(bytes + 4, frame.size() - 4, &pf) !=
            serve::Status::kOk) {
          rs.match = false;
          continue;
        }
        auto df = serve::decode_data(pf.body, pf.body_len, &why);
        if (!df) {
          rs.match = false;
          continue;
        }
        req.header = df->header;
        req.y = std::move(df->y);
      }
      {
        Span s("serve.validate");
        if (su.pipeline->validate(req) != serve::Status::kOk) rs.match = false;
      }
      double score = 0.0;
      const auto d0 = Clock::now();
      if (traced) {
        score = replay_decode(ctx, req);
        per_payload[p].push_back(seconds_since(d0) * 1e3);
      } else {
        score = su.pipeline->decode(req).score;
      }
      std::uint64_t bits = 0;
      std::memcpy(&bits, &score, sizeof bits);
      if (bits != pl.score_bits) rs.match = false;
    }
    (traced ? rs.traced_s : rs.plain_s) += seconds_since(t0);
    ledger_enable(false);
  }
  rs.spans = ledger_collect();
  rs.totals = ledger_totals(rs.spans);
  for (auto& v : per_payload) rs.decode_ms.push_back(median(v));
  return rs;
}

}  // namespace

Result run_serve(const Options& opt, bool cs) {
  Result r;
  if (opt.trace) r.metrics = per_layer_template();
  const auto spec = make_spec(
      cs ? "[{\"name\": \"cs_m\", \"values\": [" + std::to_string(kCsM) + "]}]"
         : "[]",
      std::size_t(opt.num("segments")), opt.seed);

  // Set-up: scenario (dataset + detector), payload pool + oracle answers,
  // server listening. Repeated cold; the last one is kept.
  std::unique_ptr<ServeSetup> su;
  std::string uds;
  std::uint64_t pool_digest = 0;
  const double setup_s = timed_setups([&](std::size_t k) {
    su.reset();
    su = std::make_unique<ServeSetup>();
    const bool traced = opt.trace && k > 0;
    ledger_enable(traced);
    su->ctx = traced ? traced_scenario_context(spec, nullptr)
                     : run::make_scenario_context(spec, nullptr);
    su->pipeline = std::make_unique<serve::DecodePipeline>(
        std::vector<const run::ScenarioContext*>{su->ctx.get()});
    su->pool = make_pool(*su->ctx, *su->pipeline, cs);
    ledger_enable(false);
    serve::ServerConfig config = serve::server_config_from_env();
    config.uds_path = "serve.sock";  // relative: the set-up's own directory
    config.tcp_port = -1;
    su->server = std::make_unique<serve::Server>(su->pipeline.get(), config);
    su->server->start();
    uds = "setup" + std::to_string(k) + "/serve.sock";
    std::vector<double> bits;
    for (const auto& p : su->pool) {
      double v = 0.0;
      std::memcpy(&v, &p.score_bits, sizeof v);
      bits.push_back(v);
    }
    const std::uint64_t digest = fnv1a_doubles(bits);
    if (k > 0 && digest != pool_digest) {
      r.fail("set-up " + std::to_string(k) +
             " built a different payload pool or oracle than set-up 0");
    }
    pool_digest = digest;
  });
  const auto setup_spans = ledger_collect();
  r.info["oracle_digest"] = hex16(pool_digest);
  std::cout << (cs ? "serve_cs" : "serve_raw") << ": " << su->pool.size()
            << " payloads of " << su->pool.front().y.size()
            << " doubles, setup " << setup_s << " s" << std::endl;

  // Phases: warm-up and nominal (open loop at the frozen nominal rate), then
  // capacity (closed loop). The nominal phase gets what the other two leave
  // of --seconds.
  const double nominal_rate = opt.num("nominal_rate");
  const double nominal_s = opt.seconds - kWarmupS - kCapacityS;
  EFF_REQUIRE(nominal_s >= 1.0, "serve: --seconds leaves no nominal phase");
  const std::size_t max_frames =
      std::size_t(nominal_rate * (kWarmupS + nominal_s) * 1.2 +
                  kMaxCapacity * kCapacityS) +
      1024;

  const auto omp_start = OmpCounters::now();
  const auto t_measure = Clock::now();
  PhaseStats nominal;
  std::vector<double> depth;
  LoadGen::ClosedStats capacity;
  {
    LoadGen gen(uds, su->pool, kSessions, max_frames);
    std::uint64_t phase_seed = derive_seed(opt.seed, 0x5E7E);
    const auto account = [&](std::size_t frames, std::size_t failed,
                             std::size_t mismatched) {
      r.attempted += frames;
      r.failed += failed;
      if (mismatched > 0) {
        r.fail(std::to_string(mismatched) +
               " detection(s) differ from the in-process oracle");
      }
    };
    const auto warm = gen.run_phase(make_schedule(phase_seed++, nominal_rate,
                                                  kWarmupS, su->pool.size(),
                                                  kSessions),
                                    kDrainS);
    account(warm.frames, warm.failed, warm.mismatched);

    std::atomic<bool> sampling{opt.trace};
    std::thread sampler;
    if (opt.trace) {
      sampler = std::thread([&] {
        while (sampling.load()) {
          depth.push_back(double(su->server->stats().queue_depth));
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }
    nominal = gen.run_phase(make_schedule(phase_seed++, nominal_rate,
                                          nominal_s, su->pool.size(),
                                          kSessions),
                            kDrainS);
    account(nominal.frames, nominal.failed, nominal.mismatched);
    sampling = false;
    if (sampler.joinable()) sampler.join();

    capacity = gen.run_closed(phase_seed++, kCapacityS, kCapacityRampS,
                              kCapacityWindow, kDrainS);
    account(capacity.frames, capacity.failed, capacity.mismatched);
    gen.close();
    if (gen.broken()) r.fail("a session broke or answered a frame never sent");
  }
  const double measured_s = seconds_since(t_measure);
  const auto omp = OmpCounters::now() - omp_start;
  const double rss = peak_rss_mb();
  su->server->stop();

  // Percentiles of the nominal phase: per window, median over the least-late
  // windows. The generator lag p99 is windowed too, over every window.
  const auto window_ids = nominal.windows(kLatencyWindowS);
  double chosen_lag_ms = 0.0;
  const auto chosen = nominal.least_late_windows(
      kLatencyWindowS, kLatencyWindowShare, kMinLatencyWindowSamples,
      &chosen_lag_ms);
  const auto windowed = [&](const std::vector<double>& v, double q) {
    std::vector<double> kept;
    std::vector<std::uint32_t> kept_ids;
    for (std::size_t k = 0; k < v.size(); ++k) {
      if (chosen.count(window_ids[k]) != 0) {
        kept.push_back(v[k]);
        kept_ids.push_back(window_ids[k]);
      }
    }
    return median_of_group_quantiles(kept, kept_ids, q,
                                     kMinLatencyWindowSamples);
  };
  const double lag_p99 = median_of_group_quantiles(
      nominal.lag_ms, nominal.windows(kWindowS), 0.99, kMinWindowSamples);
  r.info["latency_windows"] =
      std::to_string(chosen.size()) + "/" +
      std::to_string(window_ids.empty() ? 0 : window_ids.back() + 1);
  r.info["latency_windows_max_lag_ms"] = std::to_string(chosen_lag_ms);
  std::size_t used = 0;
  for (const auto w : window_ids) used += chosen.count(w);
  r.info["latency_samples_used"] = std::to_string(used);
  std::vector<double> lag = nominal.lag_ms;
  r.info["lag_p99_ms"] = std::to_string(lag_p99);
  r.info["lag_whole_phase_p99_max_ms"] =
      std::to_string(quantile(lag, 0.99)) + " " + std::to_string(quantile(lag, 1.0));
  r.info["latency_samples"] = std::to_string(nominal.latency_ms.size());
  r.info["nominal_rate"] = std::to_string(nominal_rate);
  r.info["capacity_frames"] = std::to_string(capacity.frames);
  r.info["measured_s"] = std::to_string(measured_s);
  r.info["retries_nominal"] = std::to_string(nominal.retries);

  if (!opt.trace) {
    std::vector<double> lat = nominal.latency_ms;
    r.info["latency_whole_phase_p99_ms"] = std::to_string(quantile(lat, 0.99));
    r.add("points_per_s", "1/s", capacity.points_per_s);
    r.add("latency_p50_ms", "ms", windowed(nominal.latency_ms, 0.50));
    r.add("latency_p99_ms", "ms", windowed(nominal.latency_ms, 0.99));
    r.add("setup_s", "s", setup_s);
    r.add("peak_rss_mb", "MB", rss);
    return r;
  }

  // Traced: set-up layers, queue depth, residuals, then the replay ledger.
  const auto setup_totals = ledger_totals(setup_spans);
  report_setup_layers(setup_totals, r);
  set_metric(r, "sim.chain_ms_per_seg", mean_span(setup_totals, "sim.chain", 1e3));
  set_metric(r, "loadgen.lag_p99_ms", lag_p99);
  set_metric(r, "serve.retries", double(nominal.retries));
  double depth_sum = 0.0, depth_max = 0.0;
  for (const double d : depth) {
    depth_sum += d;
    depth_max = std::max(depth_max, d);
  }
  set_metric(r, "serve.queue_depth_mean",
             depth.empty() ? 0.0 : depth_sum / double(depth.size()));
  set_metric(r, "serve.queue_depth_max", depth_max);
  const std::uint64_t answered = r.attempted - r.failed;
  set_metric(r, "cs.solves",
             answered ? double(omp.solves) / double(answered) : 0.0);
  set_metric(r, "cs.iterations_per_solve",
             omp.solves ? double(omp.iterations) / double(omp.solves) : 0.0);
  set_metric(r, "cs.gram_builds", double(omp.gram_builds));
  const std::uint64_t gets = omp.hits + omp.misses;
  set_metric(r, "arch.cache_hit_ratio",
             gets ? double(omp.hits) / double(gets) : 0.0);

  const auto rs = replay(*su, kReplayS);
  if (!rs.match) r.fail("replayed gateway path differs from DecodePipeline");
  const auto& t = rs.totals;
  set_metric(r, "serve.encode_us", mean_span(t, "serve.encode", 1e6));
  set_metric(r, "serve.parse_us", mean_span(t, "serve.parse", 1e6));
  set_metric(r, "serve.validate_us", mean_span(t, "serve.validate", 1e6));
  set_metric(r, "arch.cache_get_us", mean_span(t, "arch.cache_get", 1e6));
  set_metric(r, "cs.reconstruct_us", mean_span(t, "cs.reconstruct", 1e6));
  set_metric(r, "classify.detect_us", mean_span(t, "classify.detect", 1e6));
  set_metric(r, "ledger.coverage", t.self_sum_s() / std::max(1e-12, rs.traced_s));
  set_metric(r, "trace.overhead_frac",
             rs.traced_s / std::max(1e-12, rs.plain_s) - 1.0);
  // Residual = end-to-end latency minus the in-process decode+detect time
  // of the same payload: queue wait plus transport.
  std::vector<double> residual;
  for (std::size_t k = 0; k < nominal.latency_ms.size(); ++k) {
    residual.push_back(nominal.latency_ms[k] - rs.decode_ms[nominal.payload[k]]);
  }
  set_metric(r, "serve.residual_p50_ms", windowed(residual, 0.50));
  set_metric(r, "serve.residual_p99_ms", windowed(residual, 0.99));

  std::vector<ThreadSpans> all = setup_spans;
  all.insert(all.end(), rs.spans.begin(), rs.spans.end());
  write_trace("trace.json", all);
  return r;
}

}  // namespace e2e
