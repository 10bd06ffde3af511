#pragma once
// The benchmark's own span recorder and the helpers every workload shares.
//
// Spans are taken from outside the library: the benchmark wraps its calls to
// each module's public functions in an e2e::Span named "<layer>.<op>". Each
// span records start, end, its parent (the enclosing span on the same thread)
// and a correlation id (sweep point hash, MC design/lane group, serve
// node/epoch), inherited from the parent when not given. Spans stay in
// thread-local memory until ledger_collect(); nothing is recorded while the
// ledger is disabled, so an untraced run pays one relaxed load per span site.
//
// Self time = span duration - time covered by its child spans. A layer's
// self time is the sum over its spans; ledger.coverage compares the sum over
// layers with the thread-seconds of the phase.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the span and load-generator timebase).
std::int64_t now_ns();
double seconds_since(Clock::time_point t0);

struct SpanRecord {
  const char* name = "";   ///< "<layer>.<op>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the same thread's records
  std::uint64_t corr = 0;
  std::uint32_t tid = 0;
};

/// All spans of one thread, in start order.
struct ThreadSpans {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
};

namespace detail {
extern std::atomic<bool> g_ledger_on;
}

/// Turn recording on or off (process-wide).
void ledger_enable(bool on);
inline bool ledger_on() {
  return detail::g_ledger_on.load(std::memory_order_relaxed);
}

/// Move every recorded span out of the per-thread buffers. Call only while
/// no span is open (between phases: pools idle, bench threads joined).
std::vector<ThreadSpans> ledger_collect();

class Span {
 public:
  explicit Span(const char* name, std::uint64_t corr = 0) {
    if (ledger_on()) begin(name, corr);
  }
  ~Span() {
    if (index_ >= 0) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name, std::uint64_t corr);
  void end();
  std::int64_t index_ = -1;
};

/// Per-layer and per-span-name totals of one collected phase.
struct LedgerTotals {
  std::map<std::string, double> layer_self_s;  ///< layer -> self seconds
  std::map<std::string, double> name_total_s;  ///< span name -> duration sum
  std::map<std::string, std::uint64_t> name_count;
  std::size_t threads = 0;  ///< threads that recorded at least one span
  double self_sum_s() const;
};
LedgerTotals ledger_totals(const std::vector<ThreadSpans>& spans);
/// Add `t`'s sums and counts into `into` (`threads` is not merged).
void add_totals(LedgerTotals& into, const LedgerTotals& t);

/// Mean duration of the spans named `name` in seconds times `scale` (1e3
/// for ms, 1e6 for us); 0 when there are none.
double mean_span(const LedgerTotals& t, const std::string& name, double scale);

/// Chrome trace_event JSON ({"traceEvents":[...]}, complete "X" events with
/// parent and correlation id in args). At most `max_events` spans, earliest
/// first.
std::string chrome_trace_json(const std::vector<ThreadSpans>& spans,
                              std::size_t max_events);
/// Write chrome_trace_json (capped at 400k events) to `path`.
void write_trace(const std::string& path, const std::vector<ThreadSpans>& spans);

/// Exact order statistic with linear interpolation between closest ranks
/// (numpy "linear", Python statistics.quantiles(method="inclusive")).
/// 0 for an empty sample. Sorts `v` in place.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Median over groups (1 s windows of a serve phase, laps of a sweep) of
/// each group's q-quantile, so a host stall confined to one group moves the
/// result by at most one rank. Groups with fewer than `min_samples` values
/// are skipped; with none left this is the plain quantile of `v`.
double median_of_group_quantiles(const std::vector<double>& v,
                                 const std::vector<std::uint32_t>& group,
                                 double q, std::size_t min_samples);

/// FNV-1a64 over raw double bits, in order.
std::uint64_t fnv1a_doubles(const std::vector<double>& v);
std::string hex16(std::uint64_t v);

/// Peak resident set size of this process (VmHWM) in MiB; 0 if unknown.
double peak_rss_mb();

}  // namespace e2e
