#pragma once
// Open-loop load generation for the serve_* workloads: a seeded Poisson
// arrival schedule over a fixed payload pool, multiplexed over a few
// sessions. Exposed for bench_e2e --self-test.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

struct Arrival {
  std::int64_t offset_ns = 0;  ///< scheduled send time since phase start
  std::uint32_t payload = 0;   ///< index into the payload pool
  std::uint32_t session = 0;
};

/// Poisson arrivals at `rate_per_s` over `duration_s`; payloads drawn
/// uniformly from `pool_size`, sessions round-robin. Same seed, same list.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double duration_s, std::size_t pool_size,
                                   std::size_t sessions);

}  // namespace e2e
