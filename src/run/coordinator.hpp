#pragma once
// The fleet coordinator: owns the DesignSpace, hands out contiguous point
// ranges as leases to whatever workers register in the spool directory, and
// folds their journals into one merged result set bitwise-identical to an
// unsharded serial run. Coordination is file-only (see run/fleet.hpp): the
// coordinator never talks to a worker, it watches heartbeats and journals.
//
// Scheduling, in order, every poll:
//  * expiry — a worker whose heartbeat is older than the lease TTL is
//    presumed dead: its lease file is deleted (revocation, in case it is
//    merely slow) and the uncommitted remainder of its range goes back to
//    the front of the pending queue for reassignment;
//  * retirement — a lease whose whole range is durably journaled is closed;
//  * grants — each fresh idle worker gets a guided self-scheduling chunk,
//    ceil(pending / (2 * fresh_workers)), off the front of the pending
//    queue;
//  * stealing — when the pending queue is empty, an idle worker splits the
//    largest outstanding lease: the victim's lease is shrunk in place
//    (same id, version+1) at a midpoint above its last reported `next`, and
//    the upper half is granted to the thief.
//
// The journals are the only commit truth (a heartbeat is a hint, a journal
// record is a fact), so every transition is crash-safe: duplicated work is
// possible across a steal or expiry, lost work is not, and duplicates are
// benign because evaluation is deterministic — merge_journals dedups
// identical records and refuses conflicting ones.
//
// Progress telemetry rides the PR 6 machinery: a TelemetryState tracks the
// committed count and the GVT-style contiguous frontier over the whole
// grid, and a StatusWriter heartbeats <spool>/coordinator.status.json.
//
// Obs counters: run/leases_granted, run/leases_stolen, run/leases_expired,
// run/leases_reassigned.

#include <cstdint>
#include <string>
#include <vector>

#include "arch/design_space.hpp"
#include "power/tech.hpp"
#include "run/durable.hpp"
#include "run/fleet.hpp"

namespace efficsense::run {

struct CoordinatorOptions {
  std::string spool_dir;
  /// Caller-side configuration digest (Evaluator::config_digest()); pinned
  /// into the manifest so every worker proves it runs the same scenario.
  std::uint64_t config_digest = 0;
  /// Heartbeat age past which a worker is presumed dead; <= 0 resolves
  /// EFFICSENSE_LEASE_TTL (default 10 s).
  double lease_ttl_s = 0.0;
  /// Spool poll cadence.
  double poll_interval_s = 0.05;
  /// Smallest lease worth granting or creating by a steal-split.
  std::uint64_t min_lease_points = 1;
  /// coordinator.status.json cadence; <= 0 = EFFICSENSE_STATUS_INTERVAL.
  double status_interval_s = 0.0;
  /// Give up when no live worker exists and nothing commits for this long;
  /// 0 waits forever (workers may join at any time).
  double stall_timeout_s = 0.0;
};

struct FleetStats {
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_stolen = 0;      ///< created by splitting a live lease
  std::uint64_t leases_expired = 0;     ///< revoked on heartbeat timeout
  std::uint64_t leases_reassigned = 0;  ///< grants covering an expired range
  std::uint64_t workers_seen = 0;       ///< distinct worker names registered
  std::uint64_t duplicate_points = 0;   ///< benign re-evaluations observed
};

struct CoordinatorOutcome {
  /// Merged across all worker journals, results in enumeration order —
  /// bitwise-identical (modulo attempts/provenance) to a serial run.
  RunOutcome merged;
  FleetStats stats;
  std::vector<std::string> worker_journals;  ///< canonical (sorted) order
};

class Coordinator {
 public:
  Coordinator(power::DesignParams base, arch::DesignSpace space,
              CoordinatorOptions options);

  /// Clear the spool's control state (manifest, done marker, lease files)
  /// while keeping worker journals for resume. Call before launching
  /// workers when reusing a spool; run() also does it on entry.
  static void reset_spool(const std::string& spool_dir);

  /// Drive the fleet until every point of the grid is durably committed,
  /// then write done.json (workers exit on it) and merge the worker
  /// journals into <spool>/merged.jsonl. Pre-existing journal records are
  /// adopted, so an interrupted fleet resumes. `progress` follows the
  /// Sweeper contract: (committed, total), strictly increasing.
  CoordinatorOutcome run(const DurableSweeper::Progress& progress = {});

 private:
  power::DesignParams base_;
  arch::DesignSpace space_;
  CoordinatorOptions options_;
};

}  // namespace efficsense::run
