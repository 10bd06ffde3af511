#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace e2e {

namespace detail {
std::atomic<bool> g_ledger_on{false};
}

namespace {

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> open;  // stack of open span indices
};

std::mutex g_buffers_mutex;
// Buffers outlive their threads (pool workers may exit before collection).
std::vector<std::shared_ptr<Buffer>> g_buffers;
thread_local std::shared_ptr<Buffer> t_buffer;

Buffer& thread_buffer() {
  if (!t_buffer) {
    t_buffer = std::make_shared<Buffer>();
    std::lock_guard lock(g_buffers_mutex);
    g_buffers.push_back(t_buffer);
    t_buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *t_buffer;
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string(name);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void ledger_enable(bool on) {
  detail::g_ledger_on.store(on, std::memory_order_relaxed);
}

void Span::begin(const char* name, std::uint64_t corr) {
  Buffer& b = thread_buffer();
  SpanRecord r;
  r.name = name;
  r.parent = b.open.empty() ? -1 : b.open.back();
  r.corr = corr != 0 || r.parent < 0 ? corr : b.spans[r.parent].corr;
  r.tid = b.tid;
  index_ = static_cast<std::int64_t>(b.spans.size());
  b.open.push_back(index_);
  r.start_ns = now_ns();
  b.spans.push_back(r);
}

void Span::end() {
  Buffer& b = *t_buffer;
  b.spans[index_].end_ns = now_ns();
  b.open.pop_back();
}

std::vector<ThreadSpans> ledger_collect() {
  std::lock_guard lock(g_buffers_mutex);
  std::vector<ThreadSpans> out;
  for (const auto& b : g_buffers) {
    if (b->spans.empty()) continue;
    out.push_back({b->tid, std::move(b->spans)});
    b->spans.clear();
    b->open.clear();
  }
  return out;
}

double LedgerTotals::self_sum_s() const {
  double s = 0.0;
  for (const auto& [layer, v] : layer_self_s) s += v;
  return s;
}

LedgerTotals ledger_totals(const std::vector<ThreadSpans>& spans) {
  LedgerTotals t;
  for (const auto& th : spans) {
    if (th.spans.empty()) continue;
    ++t.threads;
    std::vector<std::int64_t> child_ns(th.spans.size(), 0);
    for (const auto& s : th.spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < th.spans.size(); ++i) {
      const auto& s = th.spans[i];
      const double dur = double(s.end_ns - s.start_ns) * 1e-9;
      const double self = double(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
      t.layer_self_s[layer_of(s.name)] += self;
      t.name_total_s[s.name] += dur;
      ++t.name_count[s.name];
    }
  }
  return t;
}

void add_totals(LedgerTotals& into, const LedgerTotals& t) {
  for (const auto& [k, v] : t.layer_self_s) into.layer_self_s[k] += v;
  for (const auto& [k, v] : t.name_total_s) into.name_total_s[k] += v;
  for (const auto& [k, v] : t.name_count) into.name_count[k] += v;
}

double mean_span(const LedgerTotals& t, const std::string& name,
                 double scale) {
  const auto total = t.name_total_s.find(name);
  const auto count = t.name_count.find(name);
  if (total == t.name_total_s.end() || count == t.name_count.end() ||
      count->second == 0) {
    return 0.0;
  }
  return total->second / double(count->second) * scale;
}

void write_trace(const std::string& path,
                 const std::vector<ThreadSpans>& spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << chrome_trace_json(spans, 400000);
  if (!out) throw std::runtime_error("bench_e2e: cannot write " + path);
}

std::string chrome_trace_json(const std::vector<ThreadSpans>& spans,
                              std::size_t max_events) {
  // Span ids are "<block>:<index>", block = position in `spans`: one thread
  // can appear in several blocks (one per collected phase).
  struct Ref {
    const ThreadSpans* th;
    std::size_t block;
    std::size_t i;
  };
  std::vector<Ref> refs;
  std::int64_t t0 = 0;
  bool first = true;
  for (std::size_t b = 0; b < spans.size(); ++b) {
    const auto& th = spans[b];
    for (std::size_t i = 0; i < th.spans.size(); ++i) {
      refs.push_back({&th, b, i});
      if (first || th.spans[i].start_ns < t0) t0 = th.spans[i].start_ns;
      first = false;
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.th->spans[a.i].start_ns < b.th->spans[b.i].start_ns;
  });
  if (refs.size() > max_events) refs.resize(max_events);

  std::ostringstream os;
  os.precision(3);
  os << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t k = 0; k < refs.size(); ++k) {
    const auto& s = refs[k].th->spans[refs[k].i];
    os << (k ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
       << layer_of(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << double(s.start_ns - t0) * 1e-3
       << ",\"dur\":" << double(s.end_ns - s.start_ns) * 1e-3
       << ",\"args\":{\"id\":\"" << refs[k].block << ":" << refs[k].i
       << "\",\"parent\":\"";
    if (s.parent >= 0) os << refs[k].block << ":" << s.parent;
    os << "\",\"corr\":\"" << hex16(s.corr) << "\"}}";
  }
  os << "\n]}\n";
  return os.str();
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double median_of_group_quantiles(const std::vector<double>& v,
                                 const std::vector<std::uint32_t>& group,
                                 double q, std::size_t min_samples) {
  std::map<std::uint32_t, std::vector<double>> by_group;
  for (std::size_t i = 0; i < v.size() && i < group.size(); ++i) {
    by_group[group[i]].push_back(v[i]);
  }
  std::vector<double> per_group;
  for (auto& [g, values] : by_group) {
    if (values.size() >= min_samples) per_group.push_back(quantile(values, q));
  }
  if (per_group.empty()) {
    std::vector<double> all = v;
    return quantile(all, q);
  }
  return median(per_group);
}

std::uint64_t fnv1a_doubles(const std::vector<double>& v) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace e2e
