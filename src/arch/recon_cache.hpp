#pragma once
// Cross-point reconstructor cache. Building a cs::Reconstructor is the
// expensive part of evaluating a CS design point: basis synthesis, the
// effective-dictionary product and (in Batch-OMP mode) the Gram matrix.
// All of that depends only on the sensing-matrix draw (Phi seed + shape),
// the nominal charge-sharing gains and the reconstruction config — NOT on
// the mismatch/noise seeds a Monte-Carlo run varies or on the sweep axes
// that leave the CS front-end alone. One cache entry therefore serves every
// window of every Monte-Carlo instance of a design point, and every sweep
// point sharing the CS configuration.
//
// Entries are shared_ptr<const Reconstructor>, so a cached reconstructor
// stays valid with concurrent readers even if the LRU evicts it mid-use.
// Hits/misses are visible as obs counters omp/cache_hits, omp/cache_misses.

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/chain.hpp"

namespace efficsense::arch {

/// The cache key: every input that changes the dictionary or solver state
/// (Phi seed, M, N, s, encoder style + nominal gains, basis id and solver
/// config). Doubles are written in shortest round-trip form, so designs
/// that differ in any bit get different keys. In-memory only, never
/// persisted.
std::string reconstructor_cache_key(const power::DesignParams& design,
                                    const ChainSeeds& seeds,
                                    const cs::ReconstructorConfig& config);

class ReconstructorCache {
 public:
  /// Process-wide cache. Capacity comes from EFFICSENSE_RECON_CACHE
  /// (default 16 entries; 0 disables caching entirely).
  static ReconstructorCache& instance();

  /// Return the reconstructor for (design, seeds, config), building it on a
  /// miss. Builds run outside the lock so concurrent misses on different
  /// keys do not serialize; on a duplicate build the first insert wins.
  std::shared_ptr<const cs::Reconstructor> get(
      const power::DesignParams& design, const ChainSeeds& seeds,
      const cs::ReconstructorConfig& config);

  void clear();
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  ReconstructorCache();

  struct Entry {
    std::string key;
    std::shared_ptr<const cs::Reconstructor> recon;
  };

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t capacity_ = 16;
};

}  // namespace efficsense::arch
