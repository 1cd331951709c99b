// The benchmark's four workloads, each a long-lived serving session.
//
// A Session is built once per run (graph generation, replica upload,
// engine construction and one untimed warm-up batch) and then driven in a
// closed loop: one client, one batch in flight. Layers are measured from
// outside: a batch times its call into the public entry point and reads
// public counters (BatchStats, last_schedule(), device totals, timeline
// op counts, GpuRunStats); nothing under src/ is changed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line switches that shape a run.
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every input so the benchmark's own test runs in seconds.
  bool tiny = false;
  /// Test hooks: flip one value of an answer of this batch before it is
  /// checked, or throw in place of this batch's engine call. -1 = off.
  std::int64_t corrupt_batch = -1;
  std::int64_t throw_batch = -1;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

/// Additive device counters, summed over every member of a session.
struct Counters {
  std::uint64_t launches = 0;
  std::uint64_t warps = 0;
  std::uint64_t active_lane_ops = 0;
  std::uint64_t possible_lane_ops = 0;
  std::uint64_t global_transactions = 0;
  std::uint64_t global_requests = 0;
  std::uint64_t atomic_conflicts = 0;
  std::uint64_t busy_cycles = 0;
  std::uint64_t elapsed_cycles = 0;
  double copy_ms = 0.0;
  double delay_ms = 0.0;
  std::uint64_t timeline_ops = 0;
  std::uint64_t peak_device_bytes = 0;

  /// Memberwise difference for the additive fields; timeline_ops and
  /// peak_device_bytes keep this snapshot's (end-of-window) value.
  Counters since(const Counters& earlier) const;
};

/// What one timed batch did, read from the public counters after it.
struct BatchRecord {
  double host_ms = 0.0;          ///< wall time of the engine call alone
  double makespan_ms = 0.0;      ///< modeled group makespan of the batch
  double modeled_ms = 0.0;       ///< Σ per-member modeled makespans
  double serial_ms = 0.0;        ///< the same ops back to back
  std::uint32_t ops = 0;
  std::uint32_t ok = 0;
  std::uint32_t degraded = 0;
  bool threw = false;
  std::string error;             ///< what the engine call threw
  std::uint32_t members = 1;
  std::uint32_t units = 0;
  std::uint32_t retries = 0;
  std::uint32_t isolated_groups = 0;
  std::uint32_t fallback_queries = 0;
  std::uint32_t steals = 0;
  double steal_idle_absorbed_ms = 0.0;
  std::uint32_t migrations = 0;
  std::uint32_t checkpoint_resumes = 0;
  std::uint32_t probes = 0;
  std::uint32_t probe_failures = 0;
  std::uint32_t restorations = 0;
  /// observed_cost_ms ÷ estimated_cost of every unit that ran.
  std::vector<double> estimate_ratios;
  std::uint32_t pagerank_iterations = 0;
  std::uint32_t pagerank_recovery_retries = 0;
};

/// Host milliseconds of the set-up phases, and the whole set-up in s
/// with the reference loop's time around it (both filled by the caller).
struct SetupTimes {
  double graph_ms = 0.0;
  double engine_ms = 0.0;
  double warmup_ms = 0.0;
  double total_s = 0.0;
  double reference_ms = 0.0;
};

/// Receives the set-up phase boundaries (the traced run records spans).
class PhaseSink {
 public:
  virtual ~PhaseSink() = default;
  virtual void begin(const char* name) = 0;
  virtual void end() = 0;
};

/// Scoped phase: begins on construction, ends on scope exit (throws too).
class Phase {
 public:
  Phase(PhaseSink& sink, const char* name) : sink_(sink) { sink_.begin(name); }
  ~Phase() { sink_.end(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  PhaseSink& sink_;
};

class Session {
 public:
  virtual ~Session() = default;

  /// Runs timed batch `id` against the long-lived engine. A throwing
  /// engine call counts the whole batch as failed; it never escapes.
  virtual BatchRecord run_batch(std::uint32_t id) = 0;

  /// Checks every OK answer of the last batch run (warm-up included)
  /// against the host reference. Returns an empty string when all match,
  /// else a description of the first mismatch.
  virtual std::string check_last() = 0;

  virtual Counters counters() = 0;
  /// Health transitions logged by the device group so far.
  virtual std::size_t health_transitions() const = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Timed batches a run of `opts` makes: a fixed function of the workload,
/// --seconds and --tiny, so the same arguments give the same batches.
std::uint32_t planned_batches(const Options& opts);

/// Builds the workload's session from opts.seed: graph, engine, warm-up.
/// Throws std::invalid_argument for an unknown workload.
std::unique_ptr<Session> make_session(const Options& opts, SetupTimes& times,
                                      PhaseSink& phases);

}  // namespace perfbench
