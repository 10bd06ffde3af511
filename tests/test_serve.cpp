// The gateway daemon's test suite: wire-protocol round trips and a
// malformed-ingress corpus (every corruption earns its typed status, never
// a crash — this file is in the ASan/UBSan and TSan CI lanes), the
// backpressure primitives, pipeline bit-exactness against the offline
// path, and full server lifecycles over a unix socket (one stream also
// over loopback TCP) — backpressure rejections, budget accounting across
// mid-session disconnects, drain with in-flight work, and the crash-honest
// heartbeat.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string_view>
#include <thread>

#include "arch/scenario.hpp"
#include "run/scenario.hpp"
#include "serve/client.hpp"
#include "serve/pipeline.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/status.hpp"
#include "serve/wire.hpp"

using namespace efficsense;
using namespace efficsense::serve;

namespace {

std::string scratch_uds(const char* tag) {
  return "/tmp/effi_serve_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// --- Wire protocol ----------------------------------------------------------

// CRC-32C one bit at a time: the definition the table and SSE4.2 paths
// must reproduce.
std::uint32_t crc32c_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
  }
  return ~c;
}

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xF]);
  }
  return out;
}

// True for every status the taxonomy names.
bool typed(Status s) {
  return std::string_view(status_name(s)) != "unknown_status";
}

TEST(ServeWire, Crc32cKnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(crc32c_table(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  EXPECT_EQ(crc32c_table(nullptr, 0), 0u);
  if (cpu_has_sse42()) {
    EXPECT_EQ(crc32c_sse42(check.data(), check.size()), 0xE3069283u);
    EXPECT_EQ(crc32c_sse42(nullptr, 0), 0u);
  }
}

// Every length 0..1031 at every start offset mod 8: covers the SSE4.2
// path's 8-byte body and its byte tail, aligned and not.
TEST(ServeWire, Crc32cPathsMatchBitwiseReference) {
  std::vector<std::uint8_t> buf(1031 + 8);
  std::uint32_t s = 0x12345678u;
  for (auto& b : buf) {
    s = s * 1664525u + 1013904223u;
    b = std::uint8_t(s >> 24);
  }
  const bool sse = cpu_has_sse42();
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 1031; ++len) {
      const std::uint8_t* p = buf.data() + off;
      const std::uint32_t ref = crc32c_bitwise(p, len);
      ASSERT_EQ(crc32c_table(p, len), ref) << "offset " << off << " len " << len;
      if (sse) {
        ASSERT_EQ(crc32c_sse42(p, len), ref)
            << "offset " << off << " len " << len;
      }
      ASSERT_EQ(crc32c(p, len), ref) << "offset " << off << " len " << len;
    }
  }
}

// The Data body is the bulk of every frame; its bytes are pinned so a codec
// change cannot move them (recorded from the per-byte encoder of wire v1).
TEST(ServeWire, DataBodyBytesArePinned) {
  DataHeader h;
  h.scenario_id = 0x01020304;
  h.m = 75;
  h.phi_seed = 0x0123456789ABCDEFULL;
  h.node_id = 99999;
  h.epoch_index = 12;
  const std::vector<double> y = {1.5,  -2.25e-6, 0.0,       -0.0,
                                 1e300, 5e-324,  -1.0 / 3.0};
  const auto body = encode_data(h, y.data(), y.size());
  EXPECT_EQ(hex(body),
            "040302014b000000efcdab8967452301"
            "9f860100000000000c00000000000000"
            "0700000000000000000000000000f83f"
            "3fabcc94d6dfc2be0000000000000000"
            "00000000000000809c7500883ce4377e"
            "0100000000000000555555555555d5bf");

  // The frame: u32 length, magic "ESRV", version 2, type, status, then the
  // body's CRC-32C in the low half of the u64 checksum field.
  const auto frame = encode_frame(FrameType::kData, Status::kOk, body);
  ASSERT_EQ(frame.size(), 4 + kHeaderBytes + body.size());
  const std::uint32_t crc = crc32c_bitwise(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size());
  std::string crc_le;
  for (int i = 0; i < 4; ++i) crc_le.push_back(char((crc >> (8 * i)) & 0xFF));
  EXPECT_EQ(hex(frame.substr(0, 4 + kHeaderBytes)),
            "70000000" "56525345" "02" "03" "0000" + hex(crc_le) + "00000000");
  EXPECT_EQ(frame.substr(4 + kHeaderBytes), body);
}

TEST(ServeWire, HelloRoundTrip) {
  const Hello h{7, 1, 4096};
  const auto frame = encode_frame(FrameType::kHello, Status::kOk,
                                  encode_hello(h));
  // Skip the u32 length prefix, as the server does after read_frame.
  ParsedFrame parsed;
  ASSERT_EQ(parse_frame(
                reinterpret_cast<const std::uint8_t*>(frame.data()) + 4,
                frame.size() - 4, &parsed),
            Status::kOk);
  EXPECT_EQ(parsed.type, FrameType::kHello);
  const auto back = decode_hello(parsed.body, parsed.body_len);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tenant_id, 7u);
  EXPECT_EQ(back->scenario_id, 1u);
  EXPECT_EQ(back->node_count, 4096u);
}

TEST(ServeWire, DataRoundTripBitExact) {
  DataHeader h;
  h.scenario_id = 1;
  h.m = 75;
  h.phi_seed = 0xDEADBEEFCAFEULL;
  h.node_id = 99999;
  h.epoch_index = 12;
  std::vector<double> y = {1.5, -2.25e-6, 0.0, -0.0, 1e300, 5e-324};
  const auto body = encode_data(h, y.data(), y.size());
  Status why = Status::kOk;
  const auto back = decode_data(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size(), &why);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header.phi_seed, h.phi_seed);
  EXPECT_EQ(back->header.node_id, h.node_id);
  ASSERT_EQ(back->y.size(), y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    // Bitwise, not ==: -0.0 and denormals must survive the wire.
    EXPECT_EQ(std::memcmp(&back->y[i], &y[i], sizeof(double)), 0) << i;
  }
}

TEST(ServeWire, DetectionErrorByeAckRoundTrips) {
  Detection d;
  d.node_id = 3;
  d.epoch_index = 8;
  d.score = 0.62521;
  d.n_samples = 1152;
  d.detected = 1;
  const auto db = encode_detection(d);
  const auto d2 = decode_detection(
      reinterpret_cast<const std::uint8_t*>(db.data()), db.size());
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(std::memcmp(&d2->score, &d.score, sizeof(double)), 0);
  EXPECT_EQ(d2->detected, 1);

  const ErrorBody e{5, 6, "tenant decode queue full"};
  const auto eb = encode_error(e);
  const auto e2 = decode_error(
      reinterpret_cast<const std::uint8_t*>(eb.data()), eb.size());
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e2->message, e.message);

  const ByeAck b{10, 9, 1};
  const auto bb = encode_bye_ack(b);
  const auto b2 = decode_bye_ack(
      reinterpret_cast<const std::uint8_t*>(bb.data()), bb.size());
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->frames_accepted, 10u);
  EXPECT_EQ(b2->frames_rejected, 1u);
}

TEST(ServeWire, MalformedFramesEarnTypedStatuses) {
  const auto frame =
      encode_frame(FrameType::kHello, Status::kOk, encode_hello({1, 0, 8}));
  std::vector<std::uint8_t> raw(frame.begin() + 4, frame.end());
  ParsedFrame out;

  auto corrupt = raw;
  corrupt[0] ^= 0xFF;  // magic
  EXPECT_EQ(parse_frame(corrupt.data(), corrupt.size(), &out),
            Status::kBadMagic);

  corrupt = raw;
  corrupt[4] = 99;  // version
  EXPECT_EQ(parse_frame(corrupt.data(), corrupt.size(), &out),
            Status::kBadVersion);

  corrupt = raw;
  corrupt[4] = 1;  // a wire-v1 peer: typed refusal, no fallback
  EXPECT_EQ(parse_frame(corrupt.data(), corrupt.size(), &out),
            Status::kBadVersion);

  corrupt = raw;
  corrupt[5] = 200;  // unknown frame type
  EXPECT_EQ(parse_frame(corrupt.data(), corrupt.size(), &out),
            Status::kBadFrameType);

  corrupt = raw;
  corrupt.back() ^= 0x01;  // body bit flip -> crc mismatch
  EXPECT_EQ(parse_frame(corrupt.data(), corrupt.size(), &out),
            Status::kBadCrc);

  corrupt = raw;
  corrupt[8] ^= 0x01;  // crc field itself
  EXPECT_EQ(parse_frame(corrupt.data(), corrupt.size(), &out),
            Status::kBadCrc);

  corrupt = raw;
  corrupt[15] ^= 0x80;  // high half of the crc field must stay zero
  EXPECT_EQ(parse_frame(corrupt.data(), corrupt.size(), &out),
            Status::kBadCrc);

  EXPECT_EQ(parse_frame(raw.data(), kHeaderBytes - 1, &out),
            Status::kTruncated);
  EXPECT_EQ(parse_frame(raw.data(), 0, &out), Status::kTruncated);
}

TEST(ServeWire, DataCountLiesAreTruncatedOrOversize) {
  DataHeader h;
  h.m = 2;
  std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  auto body = encode_data(h, y.data(), y.size());
  auto* bytes = reinterpret_cast<std::uint8_t*>(body.data());
  Status why = Status::kOk;

  // Declared count beyond the actual payload.
  bytes[32] = 200;
  EXPECT_FALSE(decode_data(bytes, body.size(), &why).has_value());
  EXPECT_EQ(why, Status::kTruncated);

  // Declared count beyond the whole-protocol cap.
  std::uint32_t huge = 0x7FFFFFFF;
  std::memcpy(bytes + 32, &huge, sizeof huge);
  EXPECT_FALSE(decode_data(bytes, body.size(), &why).has_value());
  EXPECT_EQ(why, Status::kOversize);

  // Shorter than even the fixed header.
  EXPECT_FALSE(decode_data(bytes, 10, &why).has_value());
  EXPECT_EQ(why, Status::kTruncated);
}

// Sanitizer chow: every single-byte corruption and every truncation of a
// real frame (a small CS one and a serve_raw-sized 1152-double one) must
// parse to a typed status without reading out of bounds. A byte flip is a
// burst of at most 8 bits, which CRC-32C always detects, so each byte's
// flip has exactly one right answer; only the status field is unchecked.
TEST(ServeWire, FuzzBitflipsAndTruncationsNeverCrash) {
  const auto flip_status = [](std::size_t i) {
    if (i < 4) return Status::kBadMagic;
    if (i == 4) return Status::kBadVersion;
    if (i == 5) return Status::kBadFrameType;
    if (i < 8) return Status::kOk;
    return Status::kBadCrc;
  };
  for (const std::size_t count : {std::size_t(9), std::size_t(1152)}) {
    DataHeader h;
    h.m = 3;
    std::vector<double> y(count);
    for (std::size_t i = 0; i < count; ++i) y[i] = 0.125 - 1e-5 * double(i);
    const auto frame = encode_frame(FrameType::kData, Status::kOk,
                                    encode_data(h, y.data(), y.size()));
    const std::vector<std::uint8_t> raw(frame.begin() + 4, frame.end());

    auto mutant = raw;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      mutant[i] ^= 0x5A;
      ParsedFrame out;
      const Status st = parse_frame(mutant.data(), mutant.size(), &out);
      ASSERT_EQ(st, flip_status(i)) << count << " doubles, byte " << i;
      if (st == Status::kOk) {
        Status why = Status::kTruncated;
        EXPECT_TRUE(decode_data(out.body, out.body_len, &why).has_value());
        EXPECT_EQ(why, Status::kOk);
      }
      mutant[i] = raw[i];
    }
    for (std::size_t len = 0; len <= raw.size(); ++len) {
      // An exact-size copy, so a read past `len` is an ASan error.
      const std::vector<std::uint8_t> cut(raw.begin(),
                                          raw.begin() + std::ptrdiff_t(len));
      ParsedFrame out;
      const Status st = parse_frame(cut.data(), cut.size(), &out);
      ASSERT_TRUE(typed(st)) << count << " doubles, length " << len;
      if (len < kHeaderBytes) {
        ASSERT_EQ(st, Status::kTruncated);
      }
      if (st == Status::kOk) {
        Status why = Status::kOk;
        const bool whole = decode_data(out.body, out.body_len, &why).has_value();
        ASSERT_TRUE(typed(why));
        ASSERT_EQ(whole, len == raw.size()) << "length " << len;
      }
    }
  }
}

TEST(ServeWire, StatusTaxonomy) {
  EXPECT_TRUE(status_retryable(Status::kRetryBusy));
  EXPECT_TRUE(status_retryable(Status::kRetryBudget));
  EXPECT_TRUE(status_retryable(Status::kDraining));
  EXPECT_FALSE(status_retryable(Status::kBadCrc));
  EXPECT_FALSE(status_retryable(Status::kUnknownScenario));
  EXPECT_STREQ(status_name(Status::kBadMagic), "bad_magic");
  EXPECT_STREQ(status_name(Status::kInternal), "internal_error");
  EXPECT_FALSE(status_retryable(Status::kNonFinite));
  EXPECT_STREQ(status_name(Status::kNonFinite), "non_finite");
}

// --- Backpressure primitives ------------------------------------------------

TEST(ServeQueue, ByteBudgetChargesAndReleases) {
  ByteBudget b(100);
  EXPECT_TRUE(b.try_charge(60));
  EXPECT_TRUE(b.try_charge(40));
  EXPECT_FALSE(b.try_charge(1));
  b.release(40);
  EXPECT_TRUE(b.try_charge(30));
  EXPECT_EQ(b.used(), 90u);
  EXPECT_EQ(b.cap(), 100u);
}

TEST(ServeQueue, BoundedPushAndRoundRobinPop) {
  TenantQueues<int> q(2);
  EXPECT_EQ(q.push(1, 10), TenantQueues<int>::Push::kAccepted);
  EXPECT_EQ(q.push(1, 11), TenantQueues<int>::Push::kAccepted);
  EXPECT_EQ(q.push(1, 12), TenantQueues<int>::Push::kQueueFull);
  EXPECT_EQ(q.push(2, 20), TenantQueues<int>::Push::kAccepted);
  EXPECT_EQ(q.push(3, 30), TenantQueues<int>::Push::kAccepted);
  EXPECT_EQ(q.depth(), 4u);

  // Fair rotation across tenants regardless of arrival counts.
  EXPECT_EQ(q.pop().value(), 10);
  EXPECT_EQ(q.pop().value(), 20);
  EXPECT_EQ(q.pop().value(), 30);
  EXPECT_EQ(q.pop().value(), 11);
}

TEST(ServeQueue, CloseDrainsBacklogThenEnds) {
  TenantQueues<int> q(8);
  q.push(1, 1);
  q.push(1, 2);
  q.close();
  EXPECT_EQ(q.push(1, 3), TenantQueues<int>::Push::kClosed);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(ServeQueue, PopBlocksUntilPush) {
  TenantQueues<int> q(4);
  std::atomic<int> got{0};
  std::thread popper([&] { got = q.pop().value(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.push(5, 77);
  popper.join();
  EXPECT_EQ(got.load(), 77);
}

// --- Status heartbeat -------------------------------------------------------

TEST(ServeStatus, JsonRoundTrip) {
  ServeStatus s;
  s.updated_unix_s = 1754550000.25;
  s.interval_s = 5.0;
  s.uptime_s = 12.5;
  s.draining = true;
  s.complete = false;
  s.frames_in = 100;
  s.frames_accepted = 90;
  s.frames_rejected = 10;
  s.detections_out = 88;
  s.queued_bytes = 4096;
  s.qps_ewma = 123.5;
  s.stages.push_back({"decode", {}});
  s.stages.back().stats.count = 42;
  s.stages.back().stats.p99 = 0.015;

  const auto parsed = parse_serve_status(serve_status_to_json(s));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frames_in, 100u);
  EXPECT_EQ(parsed->frames_rejected, 10u);
  EXPECT_TRUE(parsed->draining);
  EXPECT_FALSE(parsed->complete);
  EXPECT_DOUBLE_EQ(parsed->qps_ewma, 123.5);
  ASSERT_EQ(parsed->stages.size(), 1u);
  EXPECT_EQ(parsed->stages[0].name, "decode");
  EXPECT_EQ(parsed->stages[0].stats.count, 42u);
  EXPECT_DOUBLE_EQ(parsed->stages[0].stats.p99, 0.015);

  EXPECT_FALSE(parse_serve_status("{\"noise\": true}").has_value());
}

TEST(ServeStatus, PrometheusSiblingPath) {
  EXPECT_EQ(prometheus_path_for("serve.status.json"), "serve.status.prom");
  EXPECT_EQ(prometheus_path_for("x/heartbeat"), "x/heartbeat.prom");
  EXPECT_EQ(prometheus_path_for(""), "");
}

// --- Scenario-backed pipeline and server ------------------------------------

// One shared scenario context for every decode-path test: the same small
// spec as examples/scenario_serve_smoke.json, so the detector blob caches
// across test runs and CI lanes.
class ServePipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (ctx_ != nullptr) return;
    const char* spec = R"({
      "name": "serve-smoke",
      "architecture": "auto",
      "axes": [{"name": "cs_m", "values": [0, 75]}],
      "eval": {"residual_tol": 0.02},
      "sweep": {"segments": 2, "train_segments": 4, "seed": 919}
    })";
    ctx_ = run::make_scenario_context(arch::scenario_from_json(spec))
               .release();
    pipeline_ = new DecodePipeline({ctx_});
  }

  static EpochRequest make_request(std::uint32_t m, std::uint64_t node_id,
                                   std::uint64_t phi_seed = 101) {
    EpochRequest req;
    req.header.scenario_id = 0;
    req.header.m = m;
    req.header.phi_seed = phi_seed;
    req.header.node_id = node_id;
    req.header.epoch_index = node_id % 5;
    const auto n_phi = std::size_t(ctx_->base.cs_n_phi);
    const std::size_t frames =
        (pipeline_->min_epoch_samples(0) + n_phi - 1) / n_phi;
    req.y.resize(frames * (m > 0 ? m : n_phi));
    std::uint64_t s = 0x9E3779B97F4A7C15ULL ^ (node_id + 1);
    for (auto& v : req.y) {
      s ^= s >> 12;
      s ^= s << 25;
      s ^= s >> 27;
      v = (double((s * 0x2545F4914F6CDD1DULL) >> 11) / double(1ULL << 53) -
           0.5) *
          2e-4;
    }
    return req;
  }

  /// One session of 8 epochs (CS and raw): every detection bitwise equal
  /// to DecodePipeline::decode on the same request, then a clean bye.
  static void stream_bit_exact(Client& client) {
    const auto ack = client.hello({1, 0, 8});
    EXPECT_GT(ack.session_id, 0u);
    EXPECT_EQ(ack.decode_threads, 2u);

    std::vector<EpochRequest> reqs;
    for (std::uint64_t node = 0; node < 8; ++node) {
      reqs.push_back(make_request(node % 3 == 2 ? 0 : 75, node));
    }
    for (const auto& r : reqs) {
      client.send_data(r.header, r.y.data(), r.y.size());
    }
    for (std::size_t got = 0; got < reqs.size(); ++got) {
      const auto resp = client.recv();
      ASSERT_TRUE(resp.has_value());
      ASSERT_EQ(resp->type, FrameType::kDetection);
      ASSERT_TRUE(resp->detection.has_value());
      const auto& det = *resp->detection;
      const auto& req = reqs[det.node_id];
      const auto oracle = pipeline_->decode(req);
      EXPECT_EQ(std::memcmp(&det.score, &oracle.score, sizeof(double)), 0);
      EXPECT_EQ(det.detected != 0, oracle.detected);
      EXPECT_EQ(det.n_samples, oracle.n_samples);
      EXPECT_EQ(det.epoch_index, req.header.epoch_index);
    }
    const auto bye = client.bye();
    EXPECT_EQ(bye.frames_accepted, reqs.size());
    EXPECT_EQ(bye.detections_sent, reqs.size());
    EXPECT_EQ(bye.frames_rejected, 0u);
  }

  static void expect_clean_stop(const ServeStats& stats) {
    EXPECT_EQ(stats.detections_out, 8u);
    EXPECT_EQ(stats.frames_rejected, 0u);
    EXPECT_EQ(stats.queued_bytes, 0u);
    EXPECT_EQ(stats.sessions_open, 0u);
  }

  static ServerConfig test_config(const std::string& uds) {
    ServerConfig c;
    c.uds_path = uds;
    c.tcp_port = -1;
    c.decode_threads = 2;
    c.status_path = "";
    return c;
  }

  static run::ScenarioContext* ctx_;
  static DecodePipeline* pipeline_;
};

run::ScenarioContext* ServePipelineTest::ctx_ = nullptr;
DecodePipeline* ServePipelineTest::pipeline_ = nullptr;

TEST_F(ServePipelineTest, ValidateRejectsUnservableRequests) {
  EXPECT_EQ(pipeline_->validate(make_request(75, 1)), Status::kOk);
  EXPECT_EQ(pipeline_->validate(make_request(0, 1)), Status::kOk);

  auto req = make_request(75, 1);
  req.header.scenario_id = 9;
  EXPECT_EQ(pipeline_->validate(req), Status::kUnknownScenario);

  req = make_request(75, 1);
  req.header.m = std::uint32_t(ctx_->base.cs_n_phi) + 1;
  EXPECT_EQ(pipeline_->validate(req), Status::kBadM);

  req = make_request(75, 1);
  req.y.pop_back();  // no longer a whole number of frames
  EXPECT_EQ(pipeline_->validate(req), Status::kBadM);

  req = make_request(75, 1);
  req.y.resize(75);  // one frame: far below one detector epoch
  EXPECT_EQ(pipeline_->validate(req), Status::kShortEpoch);

  req = make_request(75, 1);
  req.y.clear();
  EXPECT_EQ(pipeline_->validate(req), Status::kTruncated);
}

TEST_F(ServePipelineTest, NonFiniteMeasurementsAreRejectedAndSessionContinues) {
  const auto uds = scratch_uds("nonfinite");
  auto config = test_config(uds);
  // Room for exactly one in-flight frame: a charge leaked by a rejected
  // frame would turn the valid frame after it into kRetryBudget.
  const auto good = make_request(75, 6);
  config.session_budget_bytes = kHeaderBytes + 48 + good.y.size() * 8 + 64;
  Server server(pipeline_, config);
  server.start();
  {
    auto client = Client::connect_unix(uds);
    client.hello({1, 0, 1});
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      for (const std::uint32_t m : {std::uint32_t(75), std::uint32_t(0)}) {
        auto req = make_request(m, 6);
        req.y[req.y.size() / 2] = bad;
        EXPECT_EQ(pipeline_->validate(req), Status::kNonFinite);
      }
      auto req = good;
      req.y[req.y.size() / 2] = bad;
      client.send_data(req.header, req.y.data(), req.y.size());
      const auto resp = client.recv();
      ASSERT_TRUE(resp.has_value());
      EXPECT_EQ(resp->type, FrameType::kError);
      EXPECT_EQ(resp->status, Status::kNonFinite);
    }
    client.send_data(good.header, good.y.data(), good.y.size());
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->type, FrameType::kDetection);
    ASSERT_TRUE(resp->detection.has_value());
    const auto oracle = pipeline_->decode(good);
    EXPECT_EQ(std::memcmp(&resp->detection->score, &oracle.score,
                          sizeof(double)),
              0);
    EXPECT_EQ(resp->detection->n_samples, oracle.n_samples);
    const auto bye = client.bye();
    EXPECT_EQ(bye.frames_rejected, 2u);
    EXPECT_EQ(bye.frames_accepted, 1u);
  }
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.queued_bytes, 0u) << "rejected frames leaked budget";
  EXPECT_EQ(stats.frames_rejected, 2u);
}

TEST_F(ServePipelineTest, DecodeIsDeterministicBitwise) {
  for (const std::uint32_t m : {std::uint32_t(75), std::uint32_t(0)}) {
    const auto req = make_request(m, 42);
    const auto a = pipeline_->decode(req);
    const auto b = pipeline_->decode(req);
    EXPECT_EQ(std::memcmp(&a.score, &b.score, sizeof(double)), 0);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.n_samples, b.n_samples);
    EXPECT_GT(a.n_samples, 0u);
  }
}

TEST_F(ServePipelineTest, ServerStreamsBitExactDetections) {
  const auto uds = scratch_uds("stream");
  Server server(pipeline_, test_config(uds));
  server.start();
  {
    auto client = Client::connect_unix(uds);
    stream_bit_exact(client);
  }
  server.stop();
  expect_clean_stop(server.stats());
}

// The same stream over loopback TCP: listen_tcp on an ephemeral port,
// connect_tcp through Client::connect_inet, TCP_NODELAY on both ends.
TEST_F(ServePipelineTest, TcpTransportStreamsBitExactDetections) {
  auto config = test_config("");
  config.tcp_port = 0;
  Server server(pipeline_, config);
  server.start();
  ASSERT_GT(server.bound_tcp_port(), 0);
  {
    auto client = Client::connect_inet("127.0.0.1", server.bound_tcp_port());
    stream_bit_exact(client);
  }
  server.stop();
  expect_clean_stop(server.stats());
}

TEST_F(ServePipelineTest, FullQueueRejectsRetryablyAndRecovers) {
  const auto uds = scratch_uds("busy");
  auto config = test_config(uds);
  config.decode_threads = 1;
  config.queue_capacity = 1;
  config.decode_delay_ms = 40;
  Server server(pipeline_, config);
  server.start();

  auto client = Client::connect_unix(uds);
  client.hello({1, 0, 4});
  const auto req = make_request(0, 1);
  const std::size_t burst = 6;
  for (std::size_t i = 0; i < burst; ++i) {
    client.send_data(req.header, req.y.data(), req.y.size());
  }
  std::size_t detections = 0, busy = 0;
  for (std::size_t i = 0; i < burst; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    if (resp->type == FrameType::kDetection) {
      ++detections;
    } else {
      ASSERT_EQ(resp->type, FrameType::kError);
      EXPECT_EQ(resp->status, Status::kRetryBusy);
      EXPECT_TRUE(status_retryable(resp->status));
      ++busy;
    }
  }
  EXPECT_EQ(detections + busy, burst);
  EXPECT_GE(detections, 1u);
  EXPECT_GE(busy, 1u) << "a 1-deep queue must push back on a burst of 6";

  // The rejection is retryable: the same frame goes through afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  client.send_data(req.header, req.y.data(), req.y.size());
  const auto retry = client.recv();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->type, FrameType::kDetection);
  client.bye();
  server.stop();
  EXPECT_EQ(server.stats().queued_bytes, 0u);
}

TEST_F(ServePipelineTest, BudgetExhaustionRejectsWithoutLeaking) {
  const auto uds = scratch_uds("budget");
  auto config = test_config(uds);
  config.decode_threads = 1;
  config.decode_delay_ms = 40;
  // Big enough for exactly one in-flight raw frame.
  const auto req = make_request(0, 1);
  config.session_budget_bytes = kHeaderBytes + 48 + req.y.size() * 8 + 64;
  Server server(pipeline_, config);
  server.start();

  auto client = Client::connect_unix(uds);
  client.hello({1, 0, 2});
  client.send_data(req.header, req.y.data(), req.y.size());
  client.send_data(req.header, req.y.data(), req.y.size());
  std::size_t detections = 0, budget_rejects = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    if (resp->type == FrameType::kDetection) {
      ++detections;
    } else {
      EXPECT_EQ(resp->status, Status::kRetryBudget);
      ++budget_rejects;
    }
  }
  EXPECT_EQ(detections, 1u);
  EXPECT_EQ(budget_rejects, 1u);
  client.bye();
  server.stop();
  EXPECT_EQ(server.stats().queued_bytes, 0u) << "budget leaked";
}

TEST_F(ServePipelineTest, DataBeforeHelloIsRejectedAndClosed) {
  const auto uds = scratch_uds("nohello");
  Server server(pipeline_, test_config(uds));
  server.start();
  auto client = Client::connect_unix(uds);
  const auto req = make_request(0, 1);
  client.send_data(req.header, req.y.data(), req.y.size());
  const auto resp = client.recv();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, FrameType::kError);
  EXPECT_EQ(resp->status, Status::kNotHello);
  EXPECT_FALSE(client.recv().has_value()) << "server should close the session";
  server.stop();
}

TEST_F(ServePipelineTest, MalformedIngressGetsTypedErrorThenClose) {
  const auto uds = scratch_uds("malformed");
  Server server(pipeline_, test_config(uds));
  server.start();

  {  // Bad magic.
    auto client = Client::connect_unix(uds);
    client.hello({1, 0, 1});
    auto frame = encode_frame(FrameType::kData, Status::kOk, "");
    frame[4] = char(frame[4] ^ 0xFF);
    client.send_raw(frame);
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::kBadMagic);
    EXPECT_FALSE(client.recv().has_value());
  }
  {  // Corrupted body -> bad crc.
    auto client = Client::connect_unix(uds);
    client.hello({1, 0, 1});
    const auto req = make_request(75, 3);
    auto frame = encode_frame(FrameType::kData, Status::kOk,
                              encode_data(req.header, req.y.data(),
                                          req.y.size()));
    frame.back() = char(frame.back() ^ 0x01);
    client.send_raw(frame);
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::kBadCrc);
    EXPECT_FALSE(client.recv().has_value());
  }
  {  // Oversize length prefix: rejected before any allocation.
    auto client = Client::connect_unix(uds);
    client.hello({1, 0, 1});
    const std::uint32_t huge = 0x40000000;
    std::string prefix(reinterpret_cast<const char*>(&huge), 4);
    client.send_raw(prefix);
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::kOversize);
    EXPECT_FALSE(client.recv().has_value());
  }
  {  // Unknown scenario id: typed semantic rejection, session survives.
    auto client = Client::connect_unix(uds);
    client.hello({1, 0, 1});
    auto req = make_request(75, 4);
    req.header.scenario_id = 7;
    client.send_data(req.header, req.y.data(), req.y.size());
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::kUnknownScenario);
    req.header.scenario_id = 0;
    client.send_data(req.header, req.y.data(), req.y.size());
    const auto ok = client.recv();
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->type, FrameType::kDetection);
    client.bye();
  }
  {  // Oversize M: typed rejection.
    auto client = Client::connect_unix(uds);
    client.hello({1, 0, 1});
    auto req = make_request(75, 5);
    req.header.m = std::uint32_t(ctx_->base.cs_n_phi) * 2;
    client.send_data(req.header, req.y.data(), req.y.size());
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, Status::kBadM);
    client.bye();
  }
  server.stop();
  EXPECT_EQ(server.stats().queued_bytes, 0u);
}

TEST_F(ServePipelineTest, MidSessionDisconnectReleasesBudget) {
  const auto uds = scratch_uds("vanish");
  auto config = test_config(uds);
  config.decode_threads = 1;
  config.decode_delay_ms = 30;
  Server server(pipeline_, config);
  server.start();
  {
    auto client = Client::connect_unix(uds);
    client.hello({1, 0, 4});
    const auto req = make_request(0, 1);
    for (int i = 0; i < 3; ++i) {
      client.send_data(req.header, req.y.data(), req.y.size());
    }
    // Vanish with everything in flight.
  }
  // A fresh session must still be served and the budget fully recovered.
  auto client = Client::connect_unix(uds);
  client.hello({2, 0, 1});
  const auto req = make_request(0, 9);
  client.send_data(req.header, req.y.data(), req.y.size());
  const auto resp = client.recv();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, FrameType::kDetection);
  client.bye();
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.queued_bytes, 0u) << "disconnect leaked budget";
  EXPECT_EQ(stats.sessions_open, 0u);
}

TEST_F(ServePipelineTest, DrainFinishesInFlightAndRejectsNewWork) {
  const auto uds = scratch_uds("drain");
  auto config = test_config(uds);
  config.decode_threads = 1;
  config.decode_delay_ms = 50;
  config.status_path =
      (std::filesystem::temp_directory_path() /
       ("effi_serve_drain_" + std::to_string(::getpid()) + ".status.json"))
          .string();
  Server server(pipeline_, config);
  server.start();

  auto client = Client::connect_unix(uds);
  client.hello({1, 0, 2});
  const auto req = make_request(0, 1);
  client.send_data(req.header, req.y.data(), req.y.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  server.begin_drain();
  // New work during the drain earns the retryable kDraining (admission is
  // checked before decode, so this lands even while the worker sleeps).
  client.send_data(req.header, req.y.data(), req.y.size());

  std::size_t detections = 0, draining = 0;
  for (int i = 0; i < 2; ++i) {
    const auto resp = client.recv();
    if (!resp) break;
    if (resp->type == FrameType::kDetection) {
      ++detections;
    } else if (resp->status == Status::kDraining) {
      ++draining;
    }
  }
  EXPECT_EQ(detections, 1u) << "in-flight work must finish during drain";
  EXPECT_EQ(draining, 1u);

  server.stop();
  const auto status = read_serve_status(config.status_path);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->complete);
  EXPECT_TRUE(status->draining);
  EXPECT_EQ(status->detections_out, 1u);
  EXPECT_TRUE(
      std::filesystem::exists(prometheus_path_for(config.status_path)));
  std::filesystem::remove(config.status_path);
  std::filesystem::remove(prometheus_path_for(config.status_path));
}

TEST_F(ServePipelineTest, ManySessionsConcurrently) {
  const auto uds = scratch_uds("many");
  auto config = test_config(uds);
  config.decode_threads = 4;
  Server server(pipeline_, config);
  server.start();

  const std::size_t kSessions = 6, kPerSession = 4;
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::connect_unix(uds);
      client.hello({std::uint32_t(t), 0, kPerSession});
      for (std::size_t i = 0; i < kPerSession; ++i) {
        const auto req = make_request(i % 2 ? 0 : 75, t * 100 + i);
        client.send_data(req.header, req.y.data(), req.y.size());
      }
      for (std::size_t i = 0; i < kPerSession; ++i) {
        const auto resp = client.recv();
        if (resp && resp->type == FrameType::kDetection) ok.fetch_add(1);
      }
      const auto bye = client.bye();
      EXPECT_EQ(bye.detections_sent, kPerSession);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kSessions * kPerSession);
  server.stop();
  EXPECT_EQ(server.stats().sessions_opened, kSessions);
  EXPECT_EQ(server.stats().queued_bytes, 0u);
}

}  // namespace
