#include "run/durable.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <chrono>
#include <map>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "run/telemetry.hpp"
#include "util/cache.hpp"
#include "util/error.hpp"

namespace efficsense::run {

namespace {

struct AttemptOutcome {
  bool ok = false;
  bool timed_out = false;
  core::EvalMetrics metrics;
  std::string error;
};

/// One evaluation attempt. With no timeout the function runs inline; with
/// one it runs on its own thread and, past the deadline, is abandoned
/// (detached — it finishes into a shared block that outlives it and is
/// then discarded).
AttemptOutcome eval_once(const DurableSweeper::EvalFn& eval,
                         const power::DesignParams& design, double timeout_s) {
  AttemptOutcome out;
  if (timeout_s <= 0.0) {
    try {
      out.metrics = eval(design);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }

  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    core::EvalMetrics metrics;
    std::string error;
  };
  auto shared = std::make_shared<Shared>();
  std::thread worker([shared, eval, design]() {
    bool ok = false;
    core::EvalMetrics metrics;
    std::string error;
    try {
      metrics = eval(design);
      ok = true;
    } catch (const std::exception& e) {
      error = e.what();
    }
    {
      std::lock_guard lock(shared->m);
      shared->ok = ok;
      shared->metrics = std::move(metrics);
      shared->error = std::move(error);
      shared->done = true;
    }
    shared->cv.notify_all();
  });

  std::unique_lock lock(shared->m);
  const bool finished =
      shared->cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                          [&] { return shared->done; });
  if (finished) {
    out.ok = shared->ok;
    out.metrics = std::move(shared->metrics);
    out.error = std::move(shared->error);
    lock.unlock();
    worker.join();
    return out;
  }
  lock.unlock();
  worker.detach();
  out.timed_out = true;
  out.error = "evaluation exceeded the " + std::to_string(timeout_s) +
              " s per-point wall-clock timeout";
  return out;
}

}  // namespace

DurableSweeper::DurableSweeper(const core::Evaluator* evaluator,
                               RunOptions options)
    : options_(std::move(options)) {
  EFF_REQUIRE(evaluator != nullptr, "durable sweeper needs an evaluator");
  eval_ = [evaluator](const power::DesignParams& d) {
    return evaluator->evaluate(d);
  };
  if (options_.config_digest == 0) {
    options_.config_digest = evaluator->config_digest();
  }
}

DurableSweeper::DurableSweeper(EvalFn eval, RunOptions options)
    : eval_(std::move(eval)), options_(std::move(options)) {
  EFF_REQUIRE(static_cast<bool>(eval_),
              "durable sweeper needs an evaluation function");
}

JournalHeader make_header(const RunOptions& options,
                          const power::DesignParams& base,
                          const arch::DesignSpace& space) {
  JournalHeader h;
  // The header digest covers the caller's evaluator digest plus the base
  // design the point overrides apply to; the space digest rides separately.
  std::string bytes = "run-header-v1;";
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(
        static_cast<char>((options.config_digest >> shift) & 0xFF));
  }
  bytes += base.cache_key();
  h.config_digest = fnv1a(bytes);
  h.space_digest = space.digest();
  h.total_points = space.size();
  h.shard = options.shard;
  return h;
}

RunOutcome DurableSweeper::run(const power::DesignParams& base,
                               const arch::DesignSpace& space,
                               ThreadPool* pool,
                               const Progress& progress) const {
  EFFICSENSE_SPAN("run/sweep");
  const std::size_t total = space.size();
  const Shard shard = options_.shard;
  const std::uint32_t max_attempts = std::max<std::uint32_t>(
      1, options_.max_attempts);
  const JournalHeader header = make_header(options_, base, space);

  std::vector<std::uint64_t> owned;
  owned.reserve(shard.whole() ? total : total / shard.count + 1);
  // Position of each owned point index in the owned enumeration — the
  // telemetry frontier is contiguous over these positions, not raw indices.
  std::vector<std::uint64_t> owned_pos(total, 0);
  for (std::uint64_t i = 0; i < total; ++i) {
    if (shard.owns(i)) {
      owned_pos[i] = owned.size();
      owned.push_back(i);
    }
  }

  const auto run_start = std::chrono::steady_clock::now();
  const auto elapsed_s = [run_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         run_start)
        .count();
  };
  TelemetryState telemetry;
  telemetry.configure(header, owned.size(), options_.journal_path);

  RunOutcome outcome;
  std::vector<std::optional<core::SweepResult>> results(total);
  std::vector<QuarantinedPoint> quarantined;
  std::vector<char> settled(total, 0);

  // Resume: adopt every valid journal record, refusing journals written
  // under a different configuration, space, shard or point hashing.
  std::optional<JournalWriter> writer;
  if (!options_.journal_path.empty()) {
    if (auto existing = read_journal(options_.journal_path)) {
      EFF_REQUIRE(existing->header.compatible_with(header) &&
                      existing->header.shard.index == shard.index &&
                      existing->header.shard.count == shard.count,
                  "journal " + options_.journal_path +
                      " was written under a different configuration; "
                      "refusing to resume (delete it to start fresh)");
      for (const auto& rec : existing->records) {
        EFF_REQUIRE(rec.index < total && shard.owns(rec.index),
                    "journal record outside this shard's slice; refusing "
                    "to resume: " + options_.journal_path);
        EFF_REQUIRE(rec.point_hash == arch::hash_point(space.point(rec.index)),
                    "journal point hash does not match the design space; "
                    "refusing to resume: " + options_.journal_path);
        if (settled[rec.index]) continue;  // duplicate record: first wins
        if (rec.status == PointStatus::Ok) {
          results[rec.index] = core::parse_sweep_row(rec.payload, base);
          settled[rec.index] = 1;
        } else {
          quarantined.push_back({rec.index, space.point(rec.index),
                                 rec.payload, rec.attempts});
          settled[rec.index] = 1;
        }
        ++outcome.points_resumed;
        telemetry.on_settled(owned_pos[rec.index], /*resumed=*/true,
                             rec.status == PointStatus::Quarantined,
                             rec.attempts);
      }
      writer.emplace(JournalWriter::resume(options_.journal_path,
                                           existing->valid_bytes));
      EFFICSENSE_LOG_INFO("resuming sweep from journal",
                          {{"path", options_.journal_path},
                           {"resumed", obs::logv(outcome.points_resumed)},
                           {"owned", obs::logv(owned.size())}});
    } else {
      writer.emplace(JournalWriter::create(options_.journal_path, header));
    }
  }
  obs::counter("run/points_resumed").inc(outcome.points_resumed);

  // Heartbeat: background status.json writer, resolved from the options /
  // environment. Journal-less runs have nothing to anchor the path to.
  std::optional<StatusWriter> status;
  {
    const std::string status_path =
        !options_.status_path.empty() && !options_.journal_path.empty()
            ? options_.status_path
            : status_path_for(options_.journal_path);
    if (!status_path.empty()) {
      const double interval = options_.status_interval_s > 0.0
                                  ? options_.status_interval_s
                                  : status_interval_s_from_env();
      status.emplace(status_path, interval, &telemetry);
    }
  }

  std::vector<std::uint64_t> pending;
  pending.reserve(owned.size());
  for (const auto idx : owned) {
    if (!settled[idx]) pending.push_back(idx);
  }
  // Every pending point "enters the queue" when the work list is built —
  // evaluation order decides how long it waits there.
  const double queued_at_s = elapsed_s();

  auto& evaluated_counter = obs::counter("run/points_evaluated");
  auto& retried_counter = obs::counter("run/points_retried");
  auto& quarantined_counter = obs::counter("run/points_quarantined");
  auto& point_eval_hist = obs::histogram("run/point_eval_s");
  // Stage histograms the provenance events split evaluation time across.
  // Sum deltas around each evaluation are exact single-threaded and an
  // overlap-inflated approximation under a thread pool (see PointEvent).
  auto& sim_hist = obs::histogram("time/block_run");
  auto& decode_hist = obs::histogram("time/omp_solve");
  auto& detect_hist = obs::histogram("time/detect_score");
  const bool record_events = writer.has_value() && options_.record_events;

  std::atomic<std::size_t> done{owned.size() - pending.size()};
  std::atomic<std::uint64_t> evaluated{0}, retried{0};
  std::mutex sink_mutex;  // guards writer, quarantined, last_reported
  std::size_t last_reported = 0;
  if (progress && outcome.points_resumed > 0) {
    last_reported = done.load();
    progress(last_reported, owned.size());
  }

  auto evaluate_one = [&](std::size_t k) {
    EFFICSENSE_SPAN("run/point");
    const std::uint64_t idx = pending[k];
    const auto point = space.point(idx);
    const auto design = arch::apply_point(base, point);

    JournalRecord rec;
    rec.index = idx;
    rec.point_hash = arch::hash_point(point);
    bool ok = false;
    core::EvalMetrics metrics;
    std::string error;
    std::uint32_t attempt = 1;
    PointEvent ev;
    ev.index = idx;
    ev.t_queue_s = queued_at_s;
    ev.t_eval_start_s = elapsed_s();
    const double sim0 = sim_hist.sum();
    const double decode0 = decode_hist.sum();
    const double detect0 = detect_hist.sum();
    for (;; ++attempt) {
      auto res = eval_once(eval_, design, options_.point_timeout_s);
      if (res.ok) {
        ok = true;
        metrics = std::move(res.metrics);
        break;
      }
      error = std::move(res.error);
      if (res.timed_out || attempt >= max_attempts) break;
      retried.fetch_add(1, std::memory_order_relaxed);
      retried_counter.inc();
      EFFICSENSE_LOG_WARN("point evaluation failed; retrying",
                          {{"index", obs::logv(idx)},
                           {"attempt", obs::logv(attempt)},
                           {"error", error}});
    }
    ev.t_eval_end_s = elapsed_s();
    ev.block_sim_s = std::max(0.0, sim_hist.sum() - sim0);
    ev.decode_s = std::max(0.0, decode_hist.sum() - decode0);
    ev.detect_s = std::max(0.0, detect_hist.sum() - detect0);
    ev.attempts = attempt;
    ev.status = ok ? PointStatus::Ok : PointStatus::Quarantined;
    ev.cause = error;  // empty on a clean first-attempt success
    point_eval_hist.observe(ev.eval_s());
    rec.attempts = attempt;
    if (ok) {
      core::SweepResult r;
      r.point = point;
      r.design = design;
      r.metrics = std::move(metrics);
      rec.status = PointStatus::Ok;
      rec.payload = core::sweep_result_to_row(r);
      results[idx] = std::move(r);
      evaluated.fetch_add(1, std::memory_order_relaxed);
      evaluated_counter.inc();
    } else {
      rec.status = PointStatus::Quarantined;
      rec.payload = error;
      quarantined_counter.inc();
      EFFICSENSE_LOG_WARN("point quarantined",
                          {{"index", obs::logv(idx)},
                           {"attempts", obs::logv(attempt)},
                           {"error", error}});
    }
    {
      std::lock_guard lock(sink_mutex);
      if (!ok) quarantined.push_back({idx, point, error, attempt});
      if (writer) {
        writer->append(rec);
        if (record_events) {
          ev.t_journal_s = elapsed_s();
          writer->append_event(ev);
        }
      }
    }
    telemetry.on_settled(owned_pos[idx], /*resumed=*/false, !ok, attempt);
    done.fetch_add(1, std::memory_order_acq_rel);
    if (progress) {
      const std::size_t snapshot = done.load(std::memory_order_acquire);
      std::lock_guard lock(sink_mutex);
      if (snapshot > last_reported) {
        last_reported = snapshot;
        progress(snapshot, owned.size());
      }
    }
  };

  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(pending.size(), evaluate_one);
  } else {
    for (std::size_t k = 0; k < pending.size(); ++k) evaluate_one(k);
  }

  telemetry.mark_complete();
  if (status) status->stop();  // final write carries complete=true

  outcome.points_evaluated = evaluated.load();
  outcome.points_retried = retried.load();

  for (const auto idx : owned) {
    if (results[idx]) outcome.results.push_back(std::move(*results[idx]));
  }
  std::sort(quarantined.begin(), quarantined.end(),
            [](const QuarantinedPoint& a, const QuarantinedPoint& b) {
              return a.index < b.index;
            });
  outcome.quarantined = std::move(quarantined);
  return outcome;
}

RunOutcome merge_journals(const std::vector<std::string>& paths,
                          const power::DesignParams& base,
                          const std::string& out_path) {
  EFFICSENSE_SPAN("run/merge");
  EFF_REQUIRE(!paths.empty(), "merge needs at least one journal");
  std::vector<JournalContents> journals;
  journals.reserve(paths.size());
  for (const auto& p : paths) {
    auto j = read_journal(p);
    EFF_REQUIRE(j.has_value(), "missing or unreadable journal: " + p);
    journals.push_back(std::move(*j));
  }
  const JournalHeader& h0 = journals.front().header;
  for (std::size_t i = 1; i < journals.size(); ++i) {
    EFF_REQUIRE(journals[i].header.compatible_with(h0),
                "journal " + paths[i] +
                    " disagrees with " + paths.front() +
                    " on configuration; refusing to merge");
  }

  const std::uint64_t total = h0.total_points;
  std::vector<std::optional<JournalRecord>> by_index(total);
  // Which journal contributed each point — its provenance events ride along
  // into the merged journal. Duplicate records keep the journal that sorts
  // first by path, NOT the one listed first: concurrently streaming workers
  // finish in arbitrary order, and the merged bytes must not depend on who
  // finished (or was globbed) first.
  std::vector<std::size_t> canonical(journals.size());
  for (std::size_t j = 0; j < canonical.size(); ++j) canonical[j] = j;
  std::sort(canonical.begin(), canonical.end(),
            [&paths](std::size_t a, std::size_t b) {
              return paths[a] < paths[b];
            });
  std::vector<std::size_t> source(total, 0);
  for (const std::size_t j : canonical) {
    for (auto& rec : journals[j].records) {
      EFF_REQUIRE(rec.index < total, "journal record index out of range in " +
                                         paths[j]);
      if (by_index[rec.index]) {
        const auto& prev = *by_index[rec.index];
        EFF_REQUIRE(prev.status == rec.status &&
                        prev.point_hash == rec.point_hash &&
                        prev.payload == rec.payload,
                    "conflicting records for point " +
                        std::to_string(rec.index) + "; refusing to merge");
        continue;
      }
      source[rec.index] = j;
      by_index[rec.index] = std::move(rec);
    }
  }

  std::uint64_t missing = 0;
  for (const auto& slot : by_index) {
    if (!slot) ++missing;
  }
  EFF_REQUIRE(missing == 0, "merge is incomplete: " + std::to_string(missing) +
                                " of " + std::to_string(total) +
                                " points missing");

  RunOutcome out;
  out.points_resumed = total;
  for (const auto& slot : by_index) {
    const auto& rec = *slot;
    if (rec.status == PointStatus::Ok) {
      out.results.push_back(core::parse_sweep_row(rec.payload, base));
    } else {
      // The merged view has no DesignSpace to decode coordinates from;
      // the index + error are what the record preserves.
      out.quarantined.push_back({rec.index, {}, rec.payload, rec.attempts});
    }
  }

  if (!out_path.empty()) {
    // Events from the contributing journal follow their point record, in
    // journal-time order, so a merged journal reads like a single run's.
    std::vector<std::map<std::uint64_t, std::vector<const PointEvent*>>>
        events_by_journal(journals.size());
    for (std::size_t j = 0; j < journals.size(); ++j) {
      for (const auto& ev : journals[j].events) {
        if (ev.index < total) events_by_journal[j][ev.index].push_back(&ev);
      }
    }
    JournalHeader merged = h0;
    merged.shard = Shard{};
    // The merged journal is derived data — regenerable from the source
    // journals — so group commit applies regardless of EFFICSENSE_FSYNC:
    // per-record fsyncs would only slow the merge down.
    auto writer = JournalWriter::create(out_path, merged, SyncMode::Group);
    for (const auto& slot : by_index) {
      writer.append(*slot);
      auto& per_point = events_by_journal[source[slot->index]];
      const auto evs = per_point.find(slot->index);
      if (evs == per_point.end()) continue;
      std::vector<const PointEvent*> ordered = evs->second;
      std::sort(ordered.begin(), ordered.end(),
                [](const PointEvent* a, const PointEvent* b) {
                  return a->t_journal_s < b->t_journal_s;
                });
      for (const auto* ev : ordered) writer.append_event(*ev);
    }
    writer.flush();
  }
  obs::counter("run/journals_merged").inc(paths.size());
  return out;
}

core::SweepExec journaled_sweep_exec(std::string dir,
                                     RunOptions base_options) {
  if (base_options.shard.whole()) base_options.shard = shard_from_env();
  return [dir = std::move(dir), base_options](
             const core::Evaluator& evaluator,
             const power::DesignParams& base, const arch::DesignSpace& space,
             const std::string& name, ThreadPool* pool,
             const std::function<void(std::size_t, std::size_t)>& progress) {
    RunOptions options = base_options;
    options.journal_path = dir + "/" + name + ".jsonl";
    if (options.config_digest == 0) {
      options.config_digest = evaluator.config_digest();
    }
    const DurableSweeper sweeper(&evaluator, options);
    auto outcome = sweeper.run(base, space, pool, progress);
    return std::move(outcome.results);
  };
}

}  // namespace efficsense::run
