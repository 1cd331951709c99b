// maxwarp_perfbench — one workload, one seed, one long-lived engine.
//
//   maxwarp_perfbench --workload social_bfs --seed 42 --seconds 10 --trace 0
//
// Builds the workload's session (see workloads.hpp) several times to
// measure set-up, keeps the last one, and drives it in a closed loop for
// a fixed number of batches derived from --seconds; after the loop it
// sets the workload up a few more times, so the set-up samples span the
// whole run rather than its first second. Each set-up is bracketed by a
// fixed reference loop that gauges the machine's current speed (see
// reference_ms). Every OK answer is
// checked against the host reference outside the timed region. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, holding the end-to-end metrics with --trace 0 and the
// per-layer metrics with --trace 1.
//
// A traced run (--trace 1) first makes the untraced run, then runs the
// same batches again recording spans from this file (set-up phases, one
// `batch` span per batch, `batch.verify`, `op.pagerank`) with the device
// counters read at each batch boundary. The spans stay in memory and are
// written to --trace-out at exit as Chrome trace-event JSON. The traced
// pass must reproduce the untraced pass's modeled numbers exactly; its
// host-time excess is reported as trace_overhead_pct.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "simt/config.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups before the timed loop (the last one is kept and driven) and
/// after it (thrown away once their warm-up answers are checked). The
/// host clock of a shared machine runs slow for seconds at a time, so
/// setup_s is the median of samples taken at both ends of the run.
constexpr int kSetupsBefore = 8;
constexpr int kSetupsAfter = 7;

/// reference_ms() on a quiet 4-core 2.1 GHz Xeon KVM guest (Release).
/// setup_s is reported at this reference speed.
constexpr double kReferenceMs = 25.0;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

volatile std::uint64_t reference_sink = 0;

/// Host ms of a fixed loop of xorshift steps, branches and dependent
/// reads from a 256 KiB table: work of the simulator's kind that no
/// change to the library can speed up. Neighbours on a shared host slow
/// it and a set-up alike, so a set-up's host time scaled by
/// kReferenceMs / reference_ms() measures the code rather than the
/// machine's load at that moment.
double reference_ms() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 16);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    return t;
  }();
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  std::uint32_t idx = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    idx = table[(idx ^ static_cast<std::uint32_t>(x)) & 0xffffu];
    if (idx & 1u) {
      acc += idx;
    } else {
      acc ^= x >> 3;
    }
  }
  reference_sink = acc;
  return us_between(t0, Clock::now()) / 1e3;
}

// ---------------------------------------------------------------------------
// Spans.

class NullSink final : public PhaseSink {
 public:
  void begin(const char*) override {}
  void end() override {}
};

/// In-memory span recorder. Spans nest by call order; each carries its
/// parent's index and, for batch spans, the batch id plus the counters
/// read at the batch's boundaries.
class Tracer final : public PhaseSink {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void begin(const char* name) override {
    Span s;
    s.name = name;
    s.start_us = us_between(origin_, Clock::now());
    s.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    open_.push_back(spans_.size());
    spans_.push_back(std::move(s));
  }

  void end() override {
    Span& s = spans_[open_.back()];
    s.dur_us = us_between(origin_, Clock::now()) - s.start_us;
    open_.pop_back();
  }

  /// Attaches a numeric argument to the innermost open span.
  void arg(const std::string& key, double value) {
    spans_[open_.back()].args.emplace_back(key, value);
  }

  void write(const std::string& path) const {
    const std::filesystem::path p(path);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
    std::ofstream out(p);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[256];
      std::snprintf(head, sizeof head,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%ld",
                    i ? ",\n" : "\n", s.name.c_str(), s.start_us, s.dur_us, i,
                    s.parent);
      out << head;
      for (const auto& [k, v] : s.args) {
        char buf[128];
        std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", k.c_str(), v);
        out << buf;
      }
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    long parent = -1;
    std::vector<std::pair<std::string, double>> args;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ---------------------------------------------------------------------------
// One pass: set-up repeats, the timed closed loop, more set-up repeats.

struct PassResult {
  std::vector<SetupTimes> setups;
  std::vector<BatchRecord> batches;
  Counters window;              ///< counters over the timed batches
  std::size_t transitions = 0;  ///< health transitions in the window
  std::string mismatch;         ///< first wrong answer; empty when none
};

PassResult run_pass(const Options& opts, Tracer* tracer) {
  NullSink null_sink;
  PhaseSink& sink = tracer ? static_cast<PhaseSink&>(*tracer) : null_sink;
  PassResult pass;
  // Builds one session and records its set-up time, with the reference
  // loop's time as the mean of one run just before and one just after.
  const auto set_up = [&]() {
    const double reference_before = reference_ms();
    const Clock::time_point t0 = Clock::now();
    SetupTimes times;
    std::unique_ptr<Session> built;
    {
      Phase p(sink, "setup");
      built = make_session(opts, times, sink);
    }
    times.total_s = us_between(t0, Clock::now()) / 1e6;
    times.reference_ms = (reference_before + reference_ms()) / 2;
    pass.setups.push_back(times);
    return built;
  };
  std::unique_ptr<Session> session;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    session.reset();
    session = set_up();
  }
  pass.mismatch = session->check_last();  // the warm-up batch's answers
  if (!pass.mismatch.empty()) return pass;

  const std::uint32_t n = planned_batches(opts);
  const Counters start = session->counters();
  const std::size_t transitions_start = session->health_transitions();
  Counters before = start;
  for (std::uint32_t b = 0; b < n; ++b) {
    BatchRecord r;
    if (tracer) {
      Phase p(*tracer, "batch");
      tracer->arg("batch", b);
      r = session->run_batch(b);
      const Counters after = session->counters();
      const Counters d = after.since(before);
      tracer->arg("ok", r.ok);
      tracer->arg("threw", r.threw);
      tracer->arg("makespan_ms", r.makespan_ms);
      tracer->arg("host_ms", r.host_ms);
      tracer->arg("launches", static_cast<double>(d.launches));
      tracer->arg("warps", static_cast<double>(d.warps));
      tracer->arg("copy_ms", d.copy_ms);
      tracer->arg("delay_ms", d.delay_ms);
      tracer->arg("timeline_ops", static_cast<double>(after.timeline_ops));
      before = after;
    } else {
      r = session->run_batch(b);
    }
    if (r.threw) {
      std::fprintf(stderr, "batch %u threw: %s\n", b, r.error.c_str());
    }
    {
      Phase p(sink, "batch.verify");
      if (tracer) tracer->arg("batch", b);
      pass.mismatch = session->check_last();
    }
    pass.batches.push_back(std::move(r));
    if (!pass.mismatch.empty()) break;
  }
  pass.window = session->counters().since(start);
  pass.transitions = session->health_transitions() - transitions_start;
  if (!pass.mismatch.empty()) return pass;

  session.reset();
  for (int rep = 0; rep < kSetupsAfter && pass.mismatch.empty(); ++rep) {
    pass.mismatch = set_up()->check_last();
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Tail {
  int percentile = 50;
  double value = 0.0;
};

/// The highest whole percentile with at least ten samples beyond it
/// (nearest-rank); the median when there are fewer than 20 samples.
Tail tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 20) return {50, median(v)};
  const int p = static_cast<int>(100 * (n - 10) / n);
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
  return {p, v[rank - 1]};
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t thrown = 0;
  double host_ms = 0.0;
  double makespan_ms = 0.0;
};

Totals totals(const PassResult& pass) {
  Totals t;
  for (const BatchRecord& r : pass.batches) {
    t.attempted += r.ops;
    t.ok += r.ok;
    t.degraded += r.degraded;
    t.thrown += r.threw;
    t.host_ms += r.host_ms;
    t.makespan_ms += r.makespan_ms;
  }
  return t;
}

std::vector<double> column(const PassResult& pass,
                           double BatchRecord::*field) {
  std::vector<double> v;
  for (const BatchRecord& r : pass.batches) v.push_back(r.*field);
  return v;
}

std::vector<Metric> end_to_end(const PassResult& pass, Tail* modeled_tail) {
  const Totals t = totals(pass);
  const std::vector<double> makespan = column(pass, &BatchRecord::makespan_ms);
  std::vector<double> setup;
  for (const SetupTimes& s : pass.setups) {
    setup.push_back(s.total_s * kReferenceMs / s.reference_ms);
  }
  *modeled_tail = tail(makespan);
  const double attempted = static_cast<double>(t.attempted);
  return {
      {"modeled_ops_per_s", static_cast<double>(t.ok) / (t.makespan_ms / 1e3),
       "ops/s"},
      {"modeled_batch_ms_p50", median(makespan), "ms"},
      {"modeled_batch_ms_tail", modeled_tail->value, "ms"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"ok_rate", static_cast<double>(t.ok) / attempted, "fraction"},
      {"fast_path_rate", 1.0 - static_cast<double>(t.degraded) / attempted,
       "fraction"},
  };
}

/// Set-up, throughput and batch latency on the raw host clock. They drift
/// with the load of a shared machine by more than any bound the benchmark
/// could gate on, so they are reported in the per-layer ledger (README.md).
std::vector<Metric> host_clock(const PassResult& pass, Tail* host_tail) {
  const Totals t = totals(pass);
  const std::vector<double> host = column(pass, &BatchRecord::host_ms);
  *host_tail = tail(host);
  std::vector<double> setup;
  for (const SetupTimes& s : pass.setups) setup.push_back(s.total_s);
  return {
      {"setup_host_s", median(setup), "s"},
      {"host_ops_per_s", static_cast<double>(t.ok) / (t.host_ms / 1e3),
       "ops/s"},
      {"host_batch_ms_p50", median(host), "ms"},
      {"host_batch_ms_tail", host_tail->value, "ms"},
  };
}

std::vector<Metric> per_layer(const PassResult& traced,
                              const PassResult& untraced) {
  const Totals t = totals(traced);
  const Counters& c = traced.window;
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.batches.size()));
  const maxwarp::simt::SimConfig cfg;  // every device runs the default machine shape

  std::vector<double> graph_ms, upload_ms, warmup_ms;
  for (const SetupTimes& s : traced.setups) {
    graph_ms.push_back(s.graph_ms);
    upload_ms.push_back(s.engine_ms);
    warmup_ms.push_back(s.warmup_ms);
  }
  const std::vector<double> host = column(traced, &BatchRecord::host_ms);
  double first = 0.0;  // mean host ms of the first and last tenth
  double last = 0.0;
  if (!host.empty()) {
    const auto tenth = static_cast<long>(std::max<std::size_t>(1, host.size() / 10));
    first = mean({host.begin(), host.begin() + tenth});
    last = mean({host.end() - tenth, host.end()});
  }

  double overlap_gain = 0, member_makespan = 0, modeled = 0;
  double retries = 0, isolated = 0, fallback = 0, steals = 0, absorbed = 0;
  double migrations = 0, resumes = 0, probes = 0, probe_failures = 0;
  double restorations = 0, units = 0, unit_ops = 0, pr_iters = 0;
  double pr_retries = 0;
  std::vector<double> ratios;
  for (const BatchRecord& r : traced.batches) {
    overlap_gain += r.serial_ms - r.modeled_ms;
    modeled += r.modeled_ms;
    member_makespan += r.members * r.makespan_ms;
    retries += r.retries;
    isolated += r.isolated_groups;
    fallback += r.fallback_queries;
    steals += r.steals;
    absorbed += r.steal_idle_absorbed_ms;
    migrations += r.migrations;
    resumes += r.checkpoint_resumes;
    probes += r.probes;
    probe_failures += r.probe_failures;
    restorations += r.restorations;
    if (r.units > 0) {
      units += r.units;
      unit_ops += r.ops;
    }
    pr_iters += r.pagerank_iterations;
    pr_retries += r.pagerank_recovery_retries;
    ratios.insert(ratios.end(), r.estimate_ratios.begin(),
                  r.estimate_ratios.end());
  }
  double ratio_cv = 0.0;
  if (ratios.size() > 1) {
    const double m = mean(ratios);
    double var = 0.0;
    for (double x : ratios) var += (x - m) * (x - m);
    ratio_cv = std::sqrt(var / static_cast<double>(ratios.size())) / m;
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double untraced_host = totals(untraced).host_ms;
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, t.attempted));
  constexpr double kMiB = 1024.0 * 1024.0;

  return {
      {"graph.generate_ms", median(graph_ms), "ms"},
      {"gpu.upload_host_ms", median(upload_ms), "ms"},
      {"warp.adaptive_warmup_host_ms", median(warmup_ms), "ms"},
      {"gpu.launches", static_cast<double>(c.launches) / n, "count"},
      {"gpu.copy_modeled_ms", c.copy_ms / n, "ms"},
      {"gpu.delay_modeled_ms", c.delay_ms / n, "ms"},
      {"gpu.overlap_gain_ms", overlap_gain / n, "ms"},
      {"gpu.peak_device_mb", static_cast<double>(c.peak_device_bytes) / kMiB,
       "MiB"},
      {"simt.timeline_ops", static_cast<double>(c.timeline_ops), "count"},
      {"simt.host_growth", ratio(last, first), "ratio"},
      {"simt.warps", static_cast<double>(c.warps) / n, "count"},
      {"simt.host_ns_per_warp", ratio(t.host_ms * 1e6, static_cast<double>(c.warps)),
       "ns"},
      {"simt.simd_utilization",
       ratio(static_cast<double>(c.active_lane_ops),
             static_cast<double>(c.possible_lane_ops)),
       "fraction"},
      {"simt.txn_per_request",
       ratio(static_cast<double>(c.global_transactions),
             static_cast<double>(c.global_requests)),
       "ratio"},
      {"simt.global_transactions",
       static_cast<double>(c.global_transactions) / n, "count"},
      {"simt.atomic_conflicts", static_cast<double>(c.atomic_conflicts) / n,
       "count"},
      {"simt.sm_balance",
       ratio(static_cast<double>(c.busy_cycles),
             static_cast<double>(cfg.num_sms) *
                 static_cast<double>(c.elapsed_cycles)),
       "fraction"},
      {"simt.launch_overhead_share",
       ratio(static_cast<double>(c.launches) *
                 static_cast<double>(cfg.kernel_launch_overhead_cycles),
             static_cast<double>(c.elapsed_cycles)),
       "fraction"},
      {"algorithms.query_engine.queries_per_unit", ratio(unit_ops, units),
       "ratio"},
      {"algorithms.query_engine.retries", retries / n, "count"},
      {"algorithms.query_engine.isolated_groups", isolated / n, "count"},
      {"algorithms.query_engine.fallback_queries", fallback / n, "count"},
      {"algorithms.query_engine.thrown_batches", static_cast<double>(t.thrown),
       "count"},
      {"algorithms.query_engine.estimate_ratio_cv", ratio_cv, "ratio"},
      {"algorithms.query_engine.group_efficiency",
       ratio(modeled, member_makespan), "fraction"},
      {"algorithms.query_engine.steals", steals / n, "count"},
      {"algorithms.query_engine.steal_idle_absorbed_ms", absorbed / n, "ms"},
      {"algorithms.query_engine.migrations", migrations / n, "count"},
      {"algorithms.query_engine.checkpoint_resumes", resumes / n, "count"},
      {"gpu.device_group.probes", probes, "count"},
      {"gpu.device_group.probe_failures", probe_failures, "count"},
      {"gpu.device_group.restorations", restorations, "count"},
      {"gpu.device_group.transitions", static_cast<double>(traced.transitions),
       "count"},
      {"algorithms.pagerank.iterations", pr_iters / n, "count"},
      {"algorithms.pagerank.recovery_retries", pr_retries / n, "count"},
      {"error_rate",
       static_cast<double>(t.attempted - t.ok) / attempted, "fraction"},
      {"degraded_rate", static_cast<double>(t.degraded) / attempted,
       "fraction"},
      {"trace_overhead_pct", (ratio(t.host_ms, untraced_host) - 1.0) * 100.0,
       "%"},
  };
}

/// First difference between two passes in anything the modeled clock or
/// the counters decide; empty when they agree exactly.
std::string modeled_difference(const PassResult& a, const PassResult& b) {
  if (a.batches.size() != b.batches.size()) return "batch counts differ";
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    const BatchRecord& x = a.batches[i];
    const BatchRecord& y = b.batches[i];
    if (x.makespan_ms != y.makespan_ms || x.modeled_ms != y.modeled_ms ||
        x.serial_ms != y.serial_ms || x.ok != y.ok ||
        x.degraded != y.degraded || x.threw != y.threw ||
        x.steals != y.steals || x.migrations != y.migrations ||
        x.probes != y.probes) {
      return "batch " + std::to_string(i) + " differs";
    }
  }
  if (a.window.launches != b.window.launches ||
      a.window.warps != b.window.warps ||
      a.window.timeline_ops != b.window.timeline_ops ||
      a.transitions != b.transitions) {
    return "device counters differ";
  }
  return {};
}

void print_result(bool correct, const Totals& t,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.attempted - t.ok));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-46s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: maxwarp_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--tiny] "
               "[--corrupt-batch B] [--throw-batch B]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      kv[a.substr(2)] = argv[++i];
    } else {
      usage(("unexpected argument " + a).c_str());
    }
  }
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") o.workload = v;
      else if (k == "seed") o.seed = std::stoull(v);
      else if (k == "seconds") o.seconds = std::stod(v);
      else if (k == "trace") o.trace = std::stoi(v) != 0;
      else if (k == "trace-out") o.trace_out = v;
      else if (k == "corrupt-batch") o.corrupt_batch = std::stoll(v);
      else if (k == "throw-batch") o.throw_batch = std::stoll(v);
      else usage(("unknown option --" + k).c_str());
    }
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!(o.seconds > 0)) usage("--seconds must be > 0");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  const Options opts = parse(argc, argv);

  const PassResult untraced = run_pass(opts, nullptr);
  Tail modeled_tail;
  Tail host_tail;
  const std::vector<Metric> e2e = end_to_end(untraced, &modeled_tail);
  std::vector<Metric> layers = host_clock(untraced, &host_tail);
  std::string failure = untraced.mismatch;

  if (opts.trace && failure.empty()) {
    Tracer tracer(process_start);
    const PassResult traced = run_pass(opts, &tracer);
    failure = traced.mismatch;
    if (failure.empty()) {
      const std::string diff = modeled_difference(untraced, traced);
      if (!diff.empty()) failure = "traced run changed the modeled run: " + diff;
    }
    const std::vector<Metric> traced_layers = per_layer(traced, untraced);
    layers.insert(layers.end(), traced_layers.begin(), traced_layers.end());
    if (!opts.trace_out.empty()) tracer.write(opts.trace_out);
  }

  const Totals t = totals(untraced);
  std::printf("workload %s seed %llu: %zu timed batches, %llu ops, %llu "
              "failed, %llu batches threw\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              untraced.batches.size(),
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.attempted - t.ok),
              static_cast<unsigned long long>(t.thrown));
  std::printf("tails: modeled p%d, host p%d over %zu batches\n",
              modeled_tail.percentile, host_tail.percentile,
              untraced.batches.size());
  std::vector<double> reference;
  for (const SetupTimes& s : untraced.setups) reference.push_back(s.reference_ms);
  std::printf("reference loop: median %.3f ms (%.1f ms at reference speed)\n",
              median(reference), kReferenceMs);
  print_metrics(e2e);
  print_metrics(layers);
  if (!failure.empty()) std::printf("ANSWER CHECK FAILED: %s\n", failure.c_str());
  const bool correct = failure.empty();
  print_result(correct, t, opts.trace ? layers : e2e);
  return correct ? 0 : 1;
}
