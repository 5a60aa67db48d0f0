// tdbench, the tdsim benchmark program: runs one workload for a fixed host time and
// prints its metrics. See perfbench/README.md for the workloads, the
// metrics and how to run it (perfbench/run.py builds this and calls it).
//
//   tdbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE] [--small] [--corrupt-reference]
//
// Untraced (--trace 0): the same-seed reference, one discarded warm-up
// repetition, then repetitions until S seconds of them have run, with cold
// set-up probes spread between them; prints the end-to-end metrics.
// Traced (--trace 1): repetitions alternating with and without spans, a
// worker-count sweep, calibration loops and the workload's extra probes;
// prints the per-layer metrics and writes the spans to FILE as Chrome
// trace-event JSON.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Every op (one simulation, or one fleet scenario) is checked against its
// reference and against the first op of the run with the same worker
// count; a mismatch, an exception or a kernel in Health::Failed counts as
// a failed op. The exit status is 0 when every op passed, 1 when one
// failed, 2 on a usage error.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "trace.h"

extern char** environ;

namespace perfbench {

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool small = false;
  bool corrupt_reference = false;
  bool setup_probe = false;
  std::string trace_out;
};

/// Cold set-up probes per untraced run, spread over the measured time.
constexpr int kSetupProbes = 11;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One cold set-up in a fresh process: this binary re-executed with
/// --setup-probe, which builds the workload once and prints the seconds it
/// took. The child pays what a one-shot user pays (first-touch of the
/// stack pool, Scheduler pool growth). Returns seconds, or a negative
/// value when the child failed.
double cold_setup(const Options& opt) {
  std::vector<std::string> args = {"tdbench", "--setup-probe", "--workload",
                                   opt.workload, "--seed",
                                   std::to_string(opt.seed)};
  if (opt.small) {
    args.push_back("--small");
  }
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    return -1;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[128];
  while (spawned == 0) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (spawned != 0) {
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return -1;
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    return -1;
  }
  return std::strtod(out.c_str(), nullptr);
}

/// Peak resident set of this process, from VmHWM: getrusage()'s
/// ru_maxrss survives exec on Linux, so it would report the launcher's
/// peak when that is larger than the workload's.
double peak_rss_mib() {
  double mib = 0;
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        mib = static_cast<double>(kib) / 1024.0;
        break;
      }
    }
    std::fclose(status);
  }
  return mib;
}

/// A metric as emitted: name, value, unit.
struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Batch& all, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += (all.failed == 0 && all.ops > 0) ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(all.ops);
  line += ", \"failed\": " + std::to_string(all.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + std::string(metrics[i].name) +
            "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_metric_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-42s %18.6g %s\n", m.name, m.value, m.unit);
  }
}

/// Timed repetitions of one kind.
struct Measurement {
  std::uint64_t items = 0;
  double seconds = 0;
  std::vector<double> rep_rates;  ///< items/s of each repetition

  /// Work completed per host second over all the repetitions.
  double rate() const { return ratio(static_cast<double>(items), seconds); }

  void print(const char* what) const {
    const auto [lo, hi] =
        std::minmax_element(rep_rates.begin(), rep_rates.end());
    std::printf("%s: %.6g items/s over %zu repetitions (%.3f s; per "
                "repetition min %.6g, median %.6g, max %.6g)\n",
                what, rate(), rep_rates.size(), seconds, *lo,
                median(rep_rates), *hi);
  }
};

/// Moves the calling thread to the next CPU it may use, round-robin, one
/// step per repetition, and restores its affinity when destroyed. On a
/// shared host each CPU's speed drifts on its own: a busy neighbour on
/// the same physical core slows fiber switching by up to 40% for seconds
/// at a time, while one thread left to the OS scheduler tends to stay on
/// one CPU for a whole run. Rotating gives every run of a single-threaded
/// workload the same mix of CPUs.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&original_);
    if (enabled && sched_getaffinity(0, sizeof original_, &original_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() {
    if (moved_) {
      sched_setaffinity(0, sizeof original_, &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof one, &one) == 0 || moved_;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;  ///< empty when disabled
  std::size_t next_ = 0;
  bool moved_ = false;
};

/// One timed repetition, checked: its ops go into `all`.
Batch timed_rep(Workload& workload, std::size_t workers, Measurement& into,
                Batch& all) {
  const auto start = std::chrono::steady_clock::now();
  const Batch batch = workload.run_batch(workers);
  const double seconds = seconds_since(start);
  into.items += batch.items;
  into.seconds += seconds;
  into.rep_rates.push_back(ratio(static_cast<double>(batch.items), seconds));
  all.add(batch);
  return batch;
}

std::vector<Metric> per_layer_metrics(const Batch& t, const Batch& probe,
                                      const UnitCosts& unit,
                                      double speedup, double trace_overhead,
                                      double error_rate) {
  using tdsim::SyncCause;
  const tdsim::KernelStats& k = t.counts.kernel;
  const Counts& c = t.counts;
  const double items = static_cast<double>(t.items);
  const double ops = static_cast<double>(t.ops);
  const auto per_item = [items](std::uint64_t n) {
    return ratio(static_cast<double>(n), items);
  };
  const auto per_op = [ops](std::uint64_t n) {
    return ratio(static_cast<double>(n), ops);
  };
  const std::map<std::string, SpanTotal> spans = Tracer::totals();
  const auto span_mean = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_ns();
  };
  const auto span_total = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  // Every op with spans has one "op" span around its kernel.run() calls.
  const double op_spans = spans.count("op") ? spans.at("op").count : 0;
  const double run_ns = ratio(span_total("kernel.run"), op_spans);
  const double fork_ns = span_mean("kernel.snapshot.fork");
  const double fleet_ns_per_scenario =
      ratio(span_total("fleet.supervisor.run"), ops);

  // Cost model of one op from counts x calibrated unit costs, against the
  // measured run time of the same ops (plus the fork that replays the warm
  // platform, where ops are forks). The hot or cold switch cost applies by
  // how many fibers an op spawns.
  const Batch& e = probe.ops > 0 ? probe : t;
  const double e_ops = static_cast<double>(e.ops);
  const tdsim::KernelStats& ek = e.counts.kernel;
  const double switch_ns =
      ratio(static_cast<double>(ek.processes_spawned), e_ops) > 1024
          ? unit.switch_cold_ns
          : unit.switch_hot_ns;
  const double modeled_ns =
      ratio(ek.context_switches * switch_ns +
                ek.method_activations * unit.method_ns +
                e.counts.fifo_accesses * unit.word_ns / 2 +
                e.counts.incs * unit.inc_ns,
            e_ops);

  return {
      {"kernel.process.switches_per_item", per_item(k.context_switches),
       "count/item"},
      {"kernel.process.switch_hot_ns", unit.switch_hot_ns, "ns"},
      {"kernel.process.switch_cold_ns", unit.switch_cold_ns, "ns"},
      {"kernel.process.spawns", per_op(k.processes_spawned), "count/op"},
      {"kernel.process.spawn_ns", unit.spawn_ns, "ns"},
      {"kernel.method_activations_per_item", per_item(k.method_activations),
       "count/item"},
      {"kernel.method_ns", unit.method_ns, "ns"},
      {"kernel.delta_cycles_per_item", per_item(k.delta_cycles), "count/item"},
      {"kernel.event_triggers_per_item", per_item(k.event_triggers),
       "count/item"},
      {"kernel.timed_notify_ns", unit.timed_notify_ns, "ns"},
      {"kernel.timed_waves_per_item", per_item(k.timed_waves), "count/item"},
      {"kernel.construct_ns", span_mean("kernel.construct"), "ns"},
      {"kernel.teardown_ns", span_mean("kernel.teardown"), "ns"},
      {"kernel.run_ns", run_ns, "ns"},
      {"kernel.sync_domain.sync_requests_per_item", per_item(k.sync_requests),
       "count/item"},
      {"kernel.sync_domain.elided_ratio",
       ratio(static_cast<double>(k.syncs_elided),
             static_cast<double>(k.sync_requests)),
       "ratio"},
      {"kernel.sync_domain.syncs_fifo_full",
       per_op(k.syncs(SyncCause::FifoFull)), "count/op"},
      {"kernel.sync_domain.syncs_fifo_empty",
       per_op(k.syncs(SyncCause::FifoEmpty)), "count/op"},
      {"kernel.sync_domain.inc_ns", unit.inc_ns, "ns"},
      {"kernel.sync_domain.syncs_quantum", per_op(k.syncs(SyncCause::Quantum)),
       "count/op"},
      {"core.smart_fifo.accesses_per_item", per_item(c.fifo_accesses),
       "count/item"},
      {"core.smart_fifo.word_ns", unit.word_ns, "ns"},
      {"kernel.scheduler.parallel_rounds", per_op(k.parallel_rounds),
       "count/op"},
      {"kernel.scheduler.horizon_waits", per_op(k.horizon_waits), "count/op"},
      {"kernel.scheduler.lookahead_advances", per_op(k.lookahead_advances),
       "count/op"},
      {"kernel.scheduler.lookahead_share",
       ratio(static_cast<double>(k.lookahead_advances),
             static_cast<double>(k.timed_waves)),
       "ratio"},
      {"kernel.scheduler.steals", per_op(k.steals), "count/op"},
      {"kernel.scheduler.speedup_w4", speedup, "x"},
      {"kernel.stack_pool.acquires", per_op(k.stack_acquires), "count/op"},
      {"kernel.stack_pool.recycle_ratio",
       ratio(static_cast<double>(k.stack_recycles),
             static_cast<double>(k.stack_acquires)),
       "ratio"},
      {"kernel.stack_pool.arena_reserved_bytes",
       per_op(k.arena_reserved_bytes), "bytes"},
      {"kernel.snapshot.snapshot_ns", span_mean("kernel.snapshot.snapshot"),
       "ns"},
      {"kernel.snapshot.fork_ns", fork_ns, "ns"},
      {"kernel.snapshot.fork_share", ratio(fork_ns, fleet_ns_per_scenario),
       "ratio"},
      {"fleet.supervisor.retries", static_cast<double>(c.retries), "count"},
      {"fleet.supervisor.quarantined", static_cast<double>(c.quarantined),
       "count"},
      {"noc.packets_per_item", per_item(c.noc_packets), "count/item"},
      {"soc.core_polls_per_item", per_item(c.core_polls), "count/item"},
      {"explained_share", ratio(modeled_ns, run_ns + fork_ns), "ratio"},
      {"trace_overhead", trace_overhead, "ratio"},
      {"error_rate", error_rate, "ratio"},
  };
}

void print_span_table() {
  std::printf("spans (busy time at each layer boundary):\n");
  std::printf("  %-28s %10s %14s %14s\n", "span", "count", "mean[ns]",
              "total[ms]");
  for (const auto& [name, total] : Tracer::totals()) {
    std::printf("  %-28s %10llu %14.0f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(total.count), total.mean_ns(),
                total.total_ns / 1e6);
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig5_pipeline|soc_casestudy|scale_mesh|"
               "fleet_fork --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--small] [--corrupt-reference]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (arg == "--small") {
      opt.small = true;
    } else if (arg == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else if (arg == "--setup-probe") {
      opt.setup_probe = true;
    } else {
      return usage(argv[0]);
    }
  }
  // Kernel(KernelConfig) would fill any unset field from TDSIM_*; every
  // field is pinned, but a stray variable still means the caller expects
  // a different workload than the one measured.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "TDSIM_", 6) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *env);
      return 2;
    }
  }
  const Params params{.seed = opt.seed, .small = opt.small};
  std::unique_ptr<Workload> workload;
  if (opt.workload == "fig5_pipeline") {
    workload = make_fig5(params);
  } else if (opt.workload == "soc_casestudy") {
    workload = make_soc(params);
  } else if (opt.workload == "scale_mesh") {
    workload = make_scale(params);
  } else if (opt.workload == "fleet_fork") {
    workload = make_fleet(params);
  } else {
    return usage(argv[0]);
  }
  if (!(opt.seconds > 0)) {
    return usage(argv[0]);
  }

  if (opt.setup_probe) {
    std::printf("%.9f\n", workload->setup_once());
    return 0;
  }

  std::printf("workload: %s  seed: %llu  inputs: %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              workload->describe().c_str());
  std::printf("item: %s\n", workload->item_name());

  workload->prepare();
  if (opt.corrupt_reference) {
    workload->checker().corrupt();
  }
  const std::size_t workers = workload->workers();
  Batch all;
  all.add(workload->run_batch(workers));  // warm-up: checked, not timed
  std::printf("config: %s\n", config_json(workload->resolved_config()).c_str());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    Measurement m;
    std::vector<double> setups;
    CpuRotation rotation(workers <= 1);
    while (m.rep_rates.size() < 3 || m.seconds < opt.seconds) {
      rotation.next();
      timed_rep(*workload, workers, m, all);
      const int due = static_cast<int>(
          std::min(1.0, m.seconds / opt.seconds) * kSetupProbes);
      while (static_cast<int>(setups.size()) < due) {
        setups.push_back(cold_setup(opt));
      }
    }
    while (setups.size() < kSetupProbes) {
      setups.push_back(cold_setup(opt));
    }
    if (*std::min_element(setups.begin(), setups.end()) < 0) {
      all.ops++;
      all.fail("a cold set-up probe failed");
    }
    m.print("items_per_s");
    std::printf("setup_s: median of %zu cold set-ups in fresh processes\n",
                setups.size());
    metrics = {{"items_per_s", m.rate(), "items/s"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mb", peak_rss_mib(), "MiB"}};
    print_metric_table("end-to-end metrics:", metrics);
    std::printf("  %-42s %18.6g %s\n", "error_rate",
                ratio(static_cast<double>(all.failed),
                      static_cast<double>(all.ops)),
                "ratio");
  } else {
    // Untraced and traced repetitions alternate, so both see the same
    // machine; their ratio is the cost of recording spans.
    Measurement plain;
    Measurement traced;
    Batch traced_ops;
    {
      CpuRotation rotation(workers <= 1);
      while (traced.rep_rates.size() < 2 ||
             plain.seconds + traced.seconds < opt.seconds * 0.6) {
        rotation.next();
        timed_rep(*workload, workers, plain, all);
        Tracer::enable(true);
        traced_ops.add(timed_rep(*workload, workers, traced, all));
        Tracer::enable(false);
      }
    }
    plain.print("untraced");
    traced.print("traced");
    const double trace_overhead = ratio(plain.rate(), traced.rate()) - 1;

    Measurement w1;
    Measurement wn;
    for (int i = 0; i < (opt.small ? 1 : 3); ++i) {
      timed_rep(*workload, 1, w1, all);
      timed_rep(*workload, capped_workers(4), wn, all);
    }
    const double speedup = ratio(wn.rate(), w1.rate());

    const UnitCosts unit = calibrate(opt.small);
    Tracer::enable(true);
    const Batch probe = workload->traced_probe();
    Tracer::enable(false);
    all.add(probe);

    metrics = per_layer_metrics(
        traced_ops, probe, unit, speedup, trace_overhead,
        ratio(static_cast<double>(all.failed), static_cast<double>(all.ops)));
    print_span_table();
    print_metric_table("per-layer metrics:", metrics);
    if (!opt.trace_out.empty()) {
      if (Tracer::write_chrome(opt.trace_out)) {
        std::printf("spans written to %s\n", opt.trace_out.c_str());
      } else {
        all.ops++;
        all.fail("could not write " + opt.trace_out);
      }
    }
  }

  std::printf("ops: %llu attempted, %llu failed%s%s\n",
              static_cast<unsigned long long>(all.ops),
              static_cast<unsigned long long>(all.failed),
              all.first_error.empty() ? "" : "; first failure: ",
              all.first_error.c_str());
  std::printf("deterministic digest: %016llx\n",
              static_cast<unsigned long long>(workload->checker().digest()));
  print_result(all, metrics);
  std::fflush(stdout);
  return all.failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
