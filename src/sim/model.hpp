#pragma once
// The model graph: blocks wired port-to-port, scheduled topologically and
// executed once per run. Unconnected output ports become the model outputs
// (scopes); blocks without inputs are sources.
//
// One execution path: the topological schedule and the port-routing table
// are compiled once into a StepPlan (invalidated by add()/connect()), and
// run_batch(K) walks it with every port carried as a K-lane LaneBank. A
// scalar run() is run_batch(1): a single lane, where every bank a source
// emits is uniform and each block's default process_batch() runs its scalar
// process() once.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/block.hpp"
#include "sim/report.hpp"
#include "sim/waveform.hpp"

namespace efficsense::sim {

using BlockId = std::size_t;

/// Per-block execution accounting accumulated across runs: how many
/// times each block ran, how many samples it emitted and how much wall time
/// it took. The runtime twin of PowerReport — where the *simulation* cost
/// goes, next to where the modeled energy goes.
struct RunStats {
  struct BlockStats {
    std::string name;
    std::uint64_t runs = 0;
    std::uint64_t samples_out = 0;
    double seconds = 0.0;
  };
  std::uint64_t runs = 0;       ///< completed run() / run_batch() calls
  double total_seconds = 0.0;   ///< wall time inside them
  std::vector<BlockStats> blocks;  ///< in block-id order

  /// Aligned per-block table with time shares (mirrors PowerReport::to_string).
  std::string to_string() const;
};

struct PortRef {
  BlockId block = 0;
  std::size_t port = 0;
  friend bool operator<(const PortRef& a, const PortRef& b) {
    return a.block != b.block ? a.block < b.block : a.port < b.port;
  }
  friend bool operator==(const PortRef& a, const PortRef& b) {
    return a.block == b.block && a.port == b.port;
  }
};

class Model {
 public:
  /// Takes ownership; block names must be unique within the model.
  BlockId add(BlockPtr block);

  /// Convenience: construct the block in place and return a typed reference.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto ptr = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *ptr;
    add(std::move(ptr));
    return ref;
  }

  std::size_t num_blocks() const { return blocks_.size(); }
  Block& block(BlockId id);
  const Block& block(BlockId id) const;
  /// Lookup by unique name; throws if absent.
  Block& block(const std::string& name);
  const Block& block(const std::string& name) const;
  BlockId id_of(const std::string& name) const;
  bool has_block(const std::string& name) const;

  /// Wire src output port -> dst input port. Each input accepts exactly one
  /// driver; outputs may fan out.
  void connect(BlockId src, std::size_t src_port, BlockId dst, std::size_t dst_port);
  /// Shorthand for single-port blocks.
  void connect(BlockId src, BlockId dst) { connect(src, 0, dst, 0); }
  void connect(const std::string& src, const std::string& dst);

  /// Chain a sequence of single-port blocks in order.
  void chain(const std::vector<BlockId>& ids);

  /// Execute the model once: run_batch(1), returning lane 0 of every
  /// unconnected output port in (block-id, port) order. Every input port
  /// must be driven.
  std::vector<Waveform> run();

  /// Execute the model across `lanes` Monte-Carlo lanes in lockstep: the
  /// cached StepPlan is walked once and each block advances all lanes via
  /// process_batch() (structure-of-arrays LaneBanks). Returns pointers to
  /// the unconnected output ports' banks in (block-id, port) order; they
  /// stay valid until the next run()/run_batch()/reset(). Lane k of every
  /// bank is bit-identical to what a one-lane run would produce for the
  /// scalar instance the lane was seeded as (see Block::process_batch).
  std::vector<const LaneBank*> run_batch(std::size_t lanes);

  /// Bank observed on a specific output port during the last run()/
  /// run_batch() (tap / scope support, also for connected ports).
  const LaneBank& probe(const std::string& block_name,
                        std::size_t port = 0) const;

  /// Reset all block state (does not clear wiring or the cached schedule).
  void reset();

  /// Aggregate analytic power / area of all blocks.
  PowerReport power_report() const;
  AreaReport area_report() const;

  /// Execution accounting accumulated over every run since construction
  /// (or the last reset_run_stats()).
  const RunStats& run_stats() const { return run_stats_; }
  void reset_run_stats();

  /// Graphviz DOT rendering of the block diagram (nodes annotated with the
  /// analytic power), for documentation and debugging.
  std::string to_dot() const;

 private:
  /// One scheduled block execution: where its inputs come from and where
  /// its outputs go, resolved to dense slot indices.
  struct StepPlan {
    BlockId id = 0;
    std::vector<std::size_t> input_slots;  ///< driver slot per input port
    std::size_t first_output_slot = 0;
    std::string time_hist_name;            ///< "time/block/<name>"
  };

  /// Rebuild the schedule/routing cache if wiring changed since last run.
  void ensure_plan();

  std::vector<BlockPtr> blocks_;
  std::map<std::string, BlockId> by_name_;
  std::map<PortRef, PortRef> input_driver_;           // dst input -> src output
  std::map<PortRef, std::vector<PortRef>> fanout_;    // src output -> dst inputs
  RunStats run_stats_;

  // Cached execution plan; invalidated by add()/connect().
  bool plan_valid_ = false;
  std::vector<StepPlan> plan_;
  std::vector<std::size_t> slot_of_block_;   // block id -> first output slot
  std::vector<std::size_t> model_output_slots_;  // unconnected outputs
  std::size_t num_slots_ = 0;

  // Output banks by slot, from the last run.
  std::vector<LaneBank> bank_slots_;
  std::size_t bank_slots_written_ = 0;       // slots valid for probe()

  std::vector<BlockId> topological_order() const;
};

}  // namespace efficsense::sim
