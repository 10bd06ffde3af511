#pragma once
// A tiny content-addressed file cache. The figure benches (Fig. 7-10) share
// one parameter sweep, exactly as the paper derives all four figures from a
// single search-space evaluation; the first bench to run stores the results
// and the rest reuse them.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace efficsense {

/// FNV-1a 64-bit offset basis: the state of a chain that has seen no bytes.
inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

/// Incremental FNV-1a 64: fold `n` bytes into a running state.
std::uint64_t fnv1a_update(std::uint64_t state, const void* data,
                           std::size_t n);

/// FNV-1a 64-bit hash, used to turn a config description into a cache key.
std::uint64_t fnv1a(const std::string& data);

class FileCache {
 public:
  /// `dir` is created on first store if missing.
  explicit FileCache(std::string dir);

  /// Look up the blob stored under `key` (any descriptive string).
  std::optional<std::string> load(const std::string& key) const;

  /// Store `blob` under `key` (atomic rename, safe against partial writes).
  void store(const std::string& key, const std::string& blob) const;

  /// Remove an entry if present.
  void erase(const std::string& key) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string path_for(const std::string& key) const;
  std::string dir_;
};

/// Default cache location shared by the benches (repo-local `.cache/`).
FileCache default_cache();

}  // namespace efficsense
