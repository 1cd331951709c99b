#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "algorithms/cpu_reference.hpp"
#include "algorithms/pagerank_gpu.hpp"
#include "algorithms/query_engine.hpp"
#include "algorithms/sssp_gpu.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "simt/fault.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace maxwarp;
using algorithms::Query;
using algorithms::QueryEngine;
using algorithms::QueryEngineOptions;
using algorithms::QueryResult;
using Scheduling = algorithms::ResiliencePolicy::Scheduling;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Independent seed streams derived from the one workload seed, so the
/// graph, the query sources and each member's fault plan never share
/// random numbers.
enum class Stream : std::uint64_t { kGraph = 1, kSources = 2, kFaults = 3 };

/// Seeds the warm-up batch's sources. They are the same at every workload
/// seed, so the set-up of a fixed-shape graph (Grid) does the same work at
/// every seed and setup_s varies only with the code and the machine.
constexpr std::uint64_t kWarmupSourceSeed = 0x5eed;

std::uint64_t derive(std::uint64_t seed, Stream stream, std::uint64_t k = 0) {
  util::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL +
                       static_cast<std::uint64_t>(stream) * 1000003ULL + k);
  return mix.next();
}

/// One value of an answer changed by one (a level, a distance, or a whole
/// unit of rank): the test hook that proves a wrong answer fails the run.
template <typename T>
void corrupt(std::vector<T>& value) {
  if (!value.empty()) value[0] += T{1};
}

void add_counters(Counters& c, gpu::Device& dev) {
  const simt::KernelStats& k = dev.kernel_totals();
  c.launches += k.launches;
  c.warps += k.warps;
  c.active_lane_ops += k.counters.active_lane_ops;
  c.possible_lane_ops += k.counters.possible_lane_ops;
  c.global_transactions += k.counters.global_transactions;
  c.global_requests += k.counters.global_requests;
  c.atomic_conflicts += k.counters.atomic_conflicts;
  c.busy_cycles += k.busy_cycles;
  c.elapsed_cycles += k.elapsed_cycles;
  c.copy_ms += dev.transfer_totals().modeled_ms;
  c.delay_ms += dev.delay_total_ms();
  c.timeline_ops += dev.timeline().op_count();
  c.peak_device_bytes += dev.memory_totals().peak_bytes;
}

// ---------------------------------------------------------------------------
// QueryEngine workloads: social_bfs, road_mixed, faulty_fleet.

struct QueryConfig {
  std::string dataset;
  double scale = 1.0;
  bool weighted = false;
  std::size_t devices = 1;
  Scheduling scheduling = Scheduling::kBalanced;
  std::uint32_t bfs_group_size = 32;
  std::uint32_t bfs_per_batch = 0;
  std::uint32_t sssp_per_batch = 0;
  bool faults = false;
  /// Device-wide kernel watchdog (modeled ms); 0 = none.
  double watchdog_ms = 0.0;
};

constexpr std::uint32_t kWarmupId = 0xffffffffu;

std::string batch_label(std::uint32_t id) {
  return id == kWarmupId ? "warm-up" : std::to_string(id);
}

class QuerySession final : public Session {
 public:
  QuerySession(const Options& opts, const QueryConfig& cfg,
               SetupTimes& times, PhaseSink& phases)
      : opts_(opts), cfg_(cfg), sources_(derive(opts.seed, Stream::kSources)) {
    auto t = Clock::now();
    {
      Phase p(phases, "setup.graph");
      graph::Csr g = graph::make_dataset(cfg.dataset, cfg.scale,
                                         derive(opts.seed, Stream::kGraph));
      if (cfg.weighted) graph::assign_hash_weights(g, 20);
      host_ = std::make_shared<const graph::Csr>(std::move(g));
    }
    times.graph_ms = ms_since(t);

    t = Clock::now();
    {
      Phase p(phases, "setup.engine");
      simt::SimConfig sim;
      sim.default_watchdog_ms = cfg.watchdog_ms;
      group_ = std::make_unique<gpu::DeviceGroup>(cfg.devices, sim);
      if (cfg.faults) arm_faults();
      replicas_ =
          std::make_unique<algorithms::ReplicatedGraph>(*group_, host_);
      QueryEngineOptions eo;
      eo.bfs_group_size = cfg.bfs_group_size;
      eo.kernel.mapping = algorithms::Mapping::kAdaptive;
      eo.resilience.scheduling = cfg.scheduling;
      engine_ = std::make_unique<QueryEngine>(*replicas_, eo);
    }
    times.engine_ms = ms_since(t);

    // The warm-up batch runs the lazy kAdaptive calibration. It is not
    // timed; a throw here is tolerated like a timed batch's would be.
    t = Clock::now();
    {
      Phase p(phases, "setup.warmup");
      (void)run_batch(kWarmupId);
    }
    times.warmup_ms = ms_since(t);
  }

  BatchRecord run_batch(std::uint32_t id) override {
    BatchRecord r;
    last_id_ = id;
    queries_ = make_batch(id == kWarmupId ? warmup_sources_ : sources_);
    r.ops = static_cast<std::uint32_t>(queries_.size());
    r.members = static_cast<std::uint32_t>(group_->size());
    std::vector<double> serial_before(group_->size());
    for (std::size_t i = 0; i < group_->size(); ++i) {
      serial_before[i] = group_->device(i).total_modeled_ms();
    }

    const auto t0 = Clock::now();
    try {
      if (static_cast<std::int64_t>(id) == opts_.throw_batch) {
        throw std::runtime_error("injected batch failure");
      }
      results_ = engine_->run(queries_);
      r.host_ms = ms_since(t0);
    } catch (const std::exception& e) {
      r.host_ms = ms_since(t0);
      r.threw = true;
      r.error = e.what();
      results_.clear();
      // No BatchStats for a batch that threw: charge it the longest
      // per-member serial-model advance, an upper bound on its makespan.
      for (std::size_t i = 0; i < group_->size(); ++i) {
        const double d = group_->device(i).total_modeled_ms() -
                         serial_before[i];
        r.makespan_ms = std::max(r.makespan_ms, d);
        r.modeled_ms += d;
        r.serial_ms += d;
      }
      return r;
    }

    const algorithms::BatchStats& s = engine_->last_batch_stats();
    r.makespan_ms = s.group_makespan_ms;
    r.modeled_ms = s.modeled_ms;
    r.serial_ms = s.serial_ms;
    r.retries = s.retries;
    r.isolated_groups = s.isolated_groups;
    r.fallback_queries = s.fallback_queries;
    r.steals = s.steals;
    r.steal_idle_absorbed_ms = s.steal_idle_absorbed_ms;
    r.migrations = s.migrations;
    r.checkpoint_resumes = s.checkpoint_resumes;
    r.probes = s.probes;
    r.probe_failures = s.probe_failures;
    r.restorations = s.restorations;
    std::set<std::uint32_t> units;
    for (const algorithms::UnitPlacement& p : engine_->last_schedule()) {
      units.insert(p.unit);
      if (p.executed_on >= 0 && p.observed_cost_ms > 0 &&
          p.estimated_cost > 0) {
        r.estimate_ratios.push_back(p.observed_cost_ms / p.estimated_cost);
      }
    }
    r.units = static_cast<std::uint32_t>(units.size());
    for (const QueryResult& q : results_) {
      if (q.ok()) ++r.ok;
      if (q.degraded) ++r.degraded;
    }
    return r;
  }

  std::string check_last() override {
    if (static_cast<std::int64_t>(last_id_) == opts_.corrupt_batch) {
      for (QueryResult& q : results_) {
        if (q.ok()) {
          corrupt(q.value);
          break;
        }
      }
    }
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const QueryResult& q = results_[i];
      if (!q.ok()) continue;
      const graph::NodeId src = q.query.source;
      bool match = true;
      if (q.query.kind == Query::Kind::kBfs) {
        match = q.value == algorithms::bfs_cpu(*host_, src);
      } else {
        const auto ref = algorithms::sssp_cpu(*host_, src);
        match = q.value.size() == ref.size();
        for (std::size_t v = 0; match && v < ref.size(); ++v) {
          const std::uint64_t want = ref[v] == algorithms::kUnreachedDist
                                         ? algorithms::kInfDist
                                         : ref[v];
          match = q.value[v] == want;
        }
      }
      if (!match) {
        return "batch " + batch_label(last_id_) + " query " +
               std::to_string(i) +
               (q.query.kind == Query::Kind::kBfs ? " (bfs" : " (sssp") +
               " from " + std::to_string(src) + ", path " +
               algorithms::to_string(q.path) +
               ") differs from the host reference";
      }
    }
    return {};
  }

  Counters counters() override {
    Counters c;
    for (std::size_t i = 0; i < group_->size(); ++i) {
      add_counters(c, group_->device(i));
    }
    return c;
  }

  std::size_t health_transitions() const override {
    return group_->health_log().size();
  }

 private:
  /// Every member gets a background fault rate seeded from the workload
  /// seed; member 1 also dies for good after its 300th launch (a sticky
  /// launch fault that stops after 9 fires, so probes can restore it).
  void arm_faults() {
    for (std::size_t i = 0; i < group_->size(); ++i) {
      std::string plan =
          "ecc-fatal:p=0.003:max=0;launch:p=0.005:max=0;"
          "hang:p=0.0002:max=0";
      if (i == 1) plan += ";launch:nth=300+:max=9";
      plan += ";seed=" + std::to_string(derive(opts_.seed, Stream::kFaults, i));
      group_->arm(i, simt::FaultPlan::parse(plan));
    }
  }

  /// BFS sources first (fused in input order), then SSSP singles; all
  /// drawn uniformly from `sources`.
  std::vector<Query> make_batch(util::Rng& sources) {
    std::vector<Query> q;
    const std::uint32_t n = host_->num_nodes();
    for (std::uint32_t i = 0; i < cfg_.bfs_per_batch; ++i) {
      q.push_back(Query::bfs(
          static_cast<graph::NodeId>(sources.next_below(n))));
    }
    for (std::uint32_t i = 0; i < cfg_.sssp_per_batch; ++i) {
      q.push_back(Query::sssp(
          static_cast<graph::NodeId>(sources.next_below(n))));
    }
    return q;
  }

  Options opts_;
  QueryConfig cfg_;
  util::Rng sources_;
  util::Rng warmup_sources_{kWarmupSourceSeed};
  std::shared_ptr<const graph::Csr> host_;
  std::unique_ptr<gpu::DeviceGroup> group_;
  std::unique_ptr<algorithms::ReplicatedGraph> replicas_;
  std::unique_ptr<QueryEngine> engine_;
  std::vector<Query> queries_;
  std::vector<QueryResult> results_;
  std::uint32_t last_id_ = kWarmupId;
};

// ---------------------------------------------------------------------------
// pagerank_rmat: whole-graph pull sweeps outside the QueryEngine.

class PageRankSession final : public Session {
 public:
  PageRankSession(const Options& opts, double scale, SetupTimes& times,
                  PhaseSink& phases)
      : opts_(opts), phases_(phases) {
    auto t = Clock::now();
    {
      Phase p(phases, "setup.graph");
      host_ = std::make_shared<const graph::Csr>(graph::make_dataset(
          "RMAT", scale, derive(opts.seed, Stream::kGraph)));
    }
    times.graph_ms = ms_since(t);

    t = Clock::now();
    {
      Phase p(phases, "setup.engine");
      graph_ = std::make_unique<algorithms::GpuGraph>(device_, host_);
      kernel_.mapping = algorithms::Mapping::kAdaptive;
      params_.iterations = 20;
    }
    times.engine_ms = ms_since(t);

    // The warm-up run builds the reverse CSR and its adaptive state.
    t = Clock::now();
    {
      Phase p(phases, "setup.warmup");
      (void)run_batch(kWarmupId);
    }
    times.warmup_ms = ms_since(t);
  }

  BatchRecord run_batch(std::uint32_t id) override {
    BatchRecord r;
    r.ops = 1;
    last_id_ = id;
    const double serial_before = device_.total_modeled_ms();
    const auto t0 = Clock::now();
    try {
      if (static_cast<std::int64_t>(id) == opts_.throw_batch) {
        throw std::runtime_error("injected batch failure");
      }
      algorithms::GpuPageRankResult res = [&] {
        Phase op(phases_, "op.pagerank");
        return algorithms::pagerank_gpu(*graph_, params_, kernel_);
      }();
      r.host_ms = ms_since(t0);
      rank_ = std::move(res.rank);
      r.ok = 1;
      r.pagerank_iterations = res.stats.iterations;
      r.pagerank_recovery_retries = res.stats.recovery.retries;
    } catch (const std::exception& e) {
      r.host_ms = ms_since(t0);
      r.threw = true;
      r.error = e.what();
      rank_.clear();
    }
    const double makespan = device_.modeled_makespan_ms();
    r.makespan_ms = makespan - makespan_before_;
    r.modeled_ms = r.makespan_ms;
    r.serial_ms = device_.total_modeled_ms() - serial_before;
    makespan_before_ = makespan;
    return r;
  }

  std::string check_last() override {
    if (rank_.empty()) return {};
    if (static_cast<std::int64_t>(last_id_) == opts_.corrupt_batch) {
      corrupt(rank_);
    }
    if (reference_.empty()) {
      reference_ = algorithms::pagerank_cpu(*host_, params_.damping,
                                            params_.iterations);
    }
    constexpr double kTolerance = 2e-4;
    for (std::size_t v = 0; v < reference_.size(); ++v) {
      if (v >= rank_.size() ||
          !(std::fabs(rank_[v] - reference_[v]) <= kTolerance)) {
        return "pagerank run " + batch_label(last_id_) + " rank of node " +
               std::to_string(v) +
               " differs from the host reference by more than 2e-4";
      }
    }
    return {};
  }

  Counters counters() override {
    Counters c;
    add_counters(c, device_);
    return c;
  }

  std::size_t health_transitions() const override { return 0; }

 private:
  Options opts_;
  PhaseSink& phases_;
  std::shared_ptr<const graph::Csr> host_;
  gpu::Device device_;
  std::unique_ptr<algorithms::GpuGraph> graph_;
  algorithms::KernelOptions kernel_;
  algorithms::PageRankParams params_;
  std::vector<float> rank_;
  std::vector<double> reference_;
  double makespan_before_ = 0.0;
  std::uint32_t last_id_ = kWarmupId;
};

QueryConfig query_config(const std::string& name, bool tiny) {
  QueryConfig c;
  if (name == "social_bfs") {
    c.dataset = "LiveJournal*";
    c.scale = tiny ? 1.0 / 16 : 1.0;
    c.devices = 2;
    c.bfs_per_batch = tiny ? 16 : 64;
  } else if (name == "road_mixed") {
    c.dataset = "Grid";
    c.scale = tiny ? 1.0 / 32 : 0.25;
    c.weighted = true;
    c.devices = 2;
    c.bfs_per_batch = tiny ? 2 : 8;
    c.sssp_per_batch = tiny ? 1 : 2;
  } else if (name == "faulty_fleet") {
    c.dataset = "LiveJournal*";
    c.scale = tiny ? 1.0 / 16 : 0.5;
    c.devices = 4;
    c.scheduling = Scheduling::kBalancedStealing;
    c.bfs_group_size = 4;
    c.bfs_per_batch = tiny ? 16 : 32;
    c.faults = true;
    // Without a watchdog an injected hang is charged a 1000 ms fallback,
    // which alone would outweigh every other batch of the run.
    c.watchdog_ms = 1.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return c;
}

}  // namespace

Counters Counters::since(const Counters& e) const {
  Counters d = *this;
  d.launches -= e.launches;
  d.warps -= e.warps;
  d.active_lane_ops -= e.active_lane_ops;
  d.possible_lane_ops -= e.possible_lane_ops;
  d.global_transactions -= e.global_transactions;
  d.global_requests -= e.global_requests;
  d.atomic_conflicts -= e.atomic_conflicts;
  d.busy_cycles -= e.busy_cycles;
  d.elapsed_cycles -= e.elapsed_cycles;
  d.copy_ms -= e.copy_ms;
  d.delay_ms -= e.delay_ms;
  return d;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "social_bfs", "road_mixed", "faulty_fleet", "pagerank_rmat"};
  return names;
}

std::uint32_t planned_batches(const Options& opts) {
  if (opts.tiny) return 12;
  // Batches per second of --seconds, from the host time of one batch at
  // the parent commit on a 4-core x86 machine. The floor keeps at least
  // ten batches beyond the reported tail percentile.
  double per_second = 0.0;
  if (opts.workload == "social_bfs") per_second = 6.0;
  else if (opts.workload == "road_mixed") per_second = 3.0;
  else if (opts.workload == "faulty_fleet") per_second = 4.8;
  else if (opts.workload == "pagerank_rmat") per_second = 3.0;
  else throw std::invalid_argument("unknown workload: " + opts.workload);
  const auto n = static_cast<std::uint32_t>(std::lround(opts.seconds * per_second));
  return std::max<std::uint32_t>(n, 30);
}

std::unique_ptr<Session> make_session(const Options& opts, SetupTimes& times,
                                      PhaseSink& phases) {
  if (opts.workload == "pagerank_rmat") {
    return std::make_unique<PageRankSession>(
        opts, opts.tiny ? 1.0 / 16 : 1.0, times, phases);
  }
  return std::make_unique<QuerySession>(
      opts, query_config(opts.workload, opts.tiny), times, phases);
}

}  // namespace perfbench
