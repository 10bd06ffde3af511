#include "util/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/atomic_io.hpp"

namespace fs = std::filesystem;

namespace efficsense {

std::uint64_t fnv1a_update(std::uint64_t state, const void* data,
                           std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= 0x100000001B3ULL;
  }
  return state;
}

std::uint64_t fnv1a(const std::string& data) {
  return fnv1a_update(kFnvOffset, data.data(), data.size());
}

FileCache::FileCache(std::string dir) : dir_(std::move(dir)) {}

std::string FileCache::path_for(const std::string& key) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.blob",
                static_cast<unsigned long long>(fnv1a(key)));
  return dir_ + "/" + name;
}

std::optional<std::string> FileCache::load(const std::string& key) const {
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream blob;
  blob << in.rdbuf();
  return blob.str();
}

void FileCache::store(const std::string& key, const std::string& blob) const {
  try {
    atomic_write_file(path_for(key), blob);
  } catch (const std::exception&) {
    // best effort; cache is advisory
  }
}

void FileCache::erase(const std::string& key) const {
  std::error_code ec;
  fs::remove(path_for(key), ec);
}

FileCache default_cache() { return FileCache(".cache"); }

}  // namespace efficsense
