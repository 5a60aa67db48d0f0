// fleet_fork: one platform of three producer/consumer pipelines (Smart
// FIFOs across concurrent domains) is warmed once through Kernel::build(),
// snapshotted, and fleet::Supervisor forks scenario variants from the
// snapshot in interleaved batches of 4 on the shared Scheduler (workers
// min(2, hardware threads)). Each variant grafts one more pipeline at the
// warm point. An op is one scenario; its reference is a cold rebuild of
// the same scenario in a standalone kernel, which must reach the same end
// date, delta count, checksum and word count.
//
// Generated from the seed: every scenario's grafted pipeline (its length
// and the per-word costs of its producer and consumer).
#include <chrono>
#include <map>
#include <memory>

#include "bench.h"
#include "core/smart_fifo.h"
#include "fleet/supervisor.h"
#include "kernel/snapshot.h"
#include "kernel/sync_domain.h"
#include "trace.h"

namespace perfbench {

namespace {

using tdsim::Kernel;
using tdsim::SmartFifo;
using tdsim::Snapshot;
using tdsim::SyncDomain;
using tdsim::ThreadOptions;
using tdsim::Time;
using tdsim::fleet::FleetOptions;
using tdsim::fleet::ScenarioOutcome;
using tdsim::fleet::ScenarioSpec;
using tdsim::fleet::ScenarioStatus;
using tdsim::fleet::Supervisor;
using namespace tdsim::time_literals;

struct PipeSpec {
  int words = 0;
  std::uint64_t producer_ps = 3000;  ///< base per-word producer cost
  std::uint64_t consumer_ps = 4000;  ///< base per-word consumer cost
};

/// Per-kernel model state, looked up by kernel address so that build
/// steps replayed into forks construct fresh state. A kernel's entry is
/// dropped before the kernel dies: FIFO destructors touch the kernel.
struct PipeState {
  std::unique_ptr<SmartFifo<int>> fifo;
  std::uint32_t checksum = 0;
  std::uint64_t consumed = 0;
};

std::map<const Kernel*, std::map<std::string, PipeState>> g_models;

void drop_model(const Kernel& kernel) { g_models.erase(&kernel); }

/// A producer/consumer pair over a depth-4 Smart FIFO in two concurrent
/// domains, recorded as one replayable build step.
void build_pipeline(Kernel& k, const std::string& tag, PipeSpec spec) {
  k.build([tag, spec](Kernel& kk) {
    PipeState& state = g_models[&kk][tag];
    SyncDomain& prod = kk.create_domain(
        {.name = tag + "_prod", .quantum = 40_ns, .concurrent = true});
    SyncDomain& cons = kk.create_domain(
        {.name = tag + "_cons", .quantum = 300_ns, .concurrent = true});
    state.fifo = std::make_unique<SmartFifo<int>>(kk, tag + "_fifo", 4);
    SmartFifo<int>* fifo = state.fifo.get();
    ThreadOptions popts;
    popts.domain = &prod;
    kk.spawn_thread(tag + "_producer", [&kk, fifo, spec] {
      for (int i = 0; i < spec.words; ++i) {
        kk.current_domain().inc(
            Time::from_ps(static_cast<std::uint64_t>(i % 5 + 1) *
                          spec.producer_ps));
        fifo->write(i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = &cons;
    kk.spawn_thread(tag + "_consumer", [&kk, fifo, &state, spec] {
      for (int i = 0; i < spec.words; ++i) {
        state.checksum =
            state.checksum * 31 + static_cast<std::uint32_t>(fifo->read());
        state.consumed++;
        kk.current_domain().inc(
            Time::from_ps(static_cast<std::uint64_t>(i % 3 + 1) *
                          spec.consumer_ps));
      }
    }, copts);
  });
}

constexpr int kPlatformWords = 64;
constexpr Time kWarmSlice = 300_ns;
constexpr Time kWindow = 800_ns;
constexpr std::size_t kBatch = 4;

void build_platform(Kernel& k) {
  build_pipeline(k, "cpu", {.words = kPlatformWords});
  build_pipeline(k, "dma", {.words = kPlatformWords / 2});
  build_pipeline(k, "io", {.words = kPlatformWords / 4});
}

/// End date, delta count, and the checksum and word count over every
/// pipeline: the fields a fork must share with its cold rebuild.
Fingerprint scenario_fields(const Kernel& k) {
  std::uint64_t checksum = 0;
  std::uint64_t consumed = 0;
  for (const auto& [tag, state] : g_models[&k]) {
    checksum = checksum * 16777619u + state.checksum;
    consumed += state.consumed;
  }
  return {k.now().ps(), k.stats().delta_cycles, checksum, consumed};
}

/// The kernel's counts, plus what the pipelines did: one Smart-FIFO write
/// and read, and one inc() on each side, per consumed word.
void add_counts(Counts& counts, const Kernel& k) {
  counts.add(k.stats());
  const std::uint64_t consumed = scenario_fields(k)[3];
  counts.fifo_accesses += 2 * consumed;
  counts.incs += 2 * consumed;
}

class Fleet : public Workload {
 public:
  explicit Fleet(const Params& params) {
    Rng rng(params.seed);
    scenarios_.resize(params.small ? 16 : 256);
    for (PipeSpec& spec : scenarios_) {
      spec.words = static_cast<int>(rng.between(12, 40));
      spec.producer_ps = 1000 * rng.between(2, 4);
      spec.consumer_ps = 1000 * rng.between(3, 5);
    }
  }

  ~Fleet() override {
    if (warm_) {
      drop_model(*warm_);
    }
  }

  const char* item_name() const override { return "verified scenario"; }
  std::size_t workers() const override { return capped_workers(2); }
  const tdsim::KernelConfig& resolved_config() const override {
    return resolved_;
  }

  std::string describe() const override {
    std::uint64_t words = 0;
    for (const PipeSpec& spec : scenarios_) {
      words += static_cast<std::uint64_t>(spec.words);
    }
    return "{\"reference\":\"cold rebuild\",\"platform_pipelines\":3,"
           "\"scenarios_per_fleet\":" +
           std::to_string(scenarios_.size()) +
           ",\"batch\":" + std::to_string(kBatch) +
           ",\"scenario_words\":" + std::to_string(words) + "}";
  }

  double setup_once() override {
    const auto start = std::chrono::steady_clock::now();
    Kernel warm(pinned_config(workers()));
    build_platform(warm);
    warm.run(kWarmSlice);
    const Snapshot snapshot = warm.snapshot();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    drop_model(warm);
    return seconds;
  }

  void prepare() override {
    warm_ = std::make_unique<Kernel>(pinned_config(workers()));
    build_platform(*warm_);
    warm_->run(kWarmSlice);
    snapshot_ = warm_->snapshot();
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      Kernel cold(pinned_config(workers()));
      build_platform(cold);
      std::string error = run_traced(cold, kWarmSlice);
      build_pipeline(cold, tag_of(i), scenarios_[i]);
      if (error.empty()) {
        error = run_traced(cold);
      }
      Fingerprint reference = scenario_fields(cold);
      if (!error.empty()) {
        reference.clear();
      }
      checker_.set_reference(i, reference);
      drop_model(cold);
    }
  }

  Batch run_batch(std::size_t workers) override {
    std::vector<ScenarioSpec> specs(scenarios_.size());
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      specs[i].name = std::to_string(i);
      specs[i].fork.config.workers = workers;
      specs[i].fork.diverge = [i, spec = scenarios_[i]](Kernel& k) {
        build_pipeline(k, tag_of(i), spec);
      };
    }
    std::vector<std::string> errors(scenarios_.size(), "not completed");
    Batch batch;
    Supervisor supervisor(snapshot_, {},
                          FleetOptions{.batch = kBatch, .windows = {kWindow}});
    std::vector<ScenarioOutcome> outcomes;
    {
      Span span("fleet.supervisor.run", "fleet");
      outcomes = supervisor.run(
          specs,
          [&](Kernel& kernel, const ScenarioSpec& spec,
              const ScenarioOutcome&) {
            const std::size_t i = std::stoul(spec.name);
            resolved_ = kernel.config();
            const Fingerprint cross = scenario_fields(kernel);
            errors[i] = checker_.check(i, workers, cross,
                                       with_stats(cross, kernel.stats()));
            add_counts(batch.counts, kernel);
            drop_model(kernel);
          },
          [](Kernel* kernel, const ScenarioSpec&, const tdsim::FailureReport&) {
            if (kernel != nullptr) {
              drop_model(*kernel);
            }
          });
      span.arg("scenarios", specs.size());
      span.arg("retries", supervisor.retries());
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      batch.ops++;
      if (outcomes[i].status != ScenarioStatus::Completed) {
        batch.fail("scenario " + std::to_string(i) + " " +
                   tdsim::fleet::to_string(outcomes[i].status));
      } else if (!errors[i].empty()) {
        batch.fail(errors[i]);
      } else {
        batch.items++;
      }
    }
    batch.counts.retries += supervisor.retries();
    batch.counts.quarantined += supervisor.quarantined();
    return batch;
  }

  /// The calls the Supervisor makes internally, made here in the open so
  /// spans can time them: snapshot(), bare construction, and fork() with
  /// the scenario's run windows and teardown (each fork is an op).
  Batch traced_probe() override {
    constexpr std::size_t kProbes = 16;
    for (std::size_t n = 0; n < kProbes; ++n) {
      Span span("kernel.snapshot.snapshot", "kernel.snapshot");
      const Snapshot snapshot = warm_->snapshot();
      span.arg("log_entries", snapshot.log.size());
    }
    for (std::size_t n = 0; n < kProbes; ++n) {
      std::unique_ptr<Kernel> kernel;
      {
        Span span("kernel.construct", "kernel");
        kernel = std::make_unique<Kernel>(pinned_config(workers()));
      }
      kernel.reset();
    }
    Batch batch;
    for (std::size_t n = 0; n < kProbes && n < scenarios_.size(); ++n) {
      Span op("op", "bench");
      tdsim::ForkOptions options;
      options.diverge = [n, spec = scenarios_[n]](Kernel& k) {
        build_pipeline(k, tag_of(n), spec);
      };
      std::unique_ptr<Kernel> kernel;
      {
        Span span("kernel.snapshot.fork", "kernel.snapshot");
        kernel = Kernel::fork(snapshot_, std::move(options));
      }
      std::string error = run_traced(*kernel, kWindow);
      if (error.empty()) {
        error = run_traced(*kernel);
      }
      if (error.empty()) {
        const Fingerprint cross = scenario_fields(*kernel);
        error = checker_.check(n, workers(), cross,
                               with_stats(cross, kernel->stats()));
      }
      batch.ops++;
      if (error.empty()) {
        batch.items++;
      } else {
        batch.fail(error);
      }
      add_counts(batch.counts, *kernel);
      Span span("kernel.teardown", "kernel");
      drop_model(*kernel);
      kernel.reset();
    }
    return batch;
  }

 private:
  static std::string tag_of(std::size_t scenario) {
    return "scn" + std::to_string(scenario);
  }

  std::vector<PipeSpec> scenarios_;
  std::unique_ptr<Kernel> warm_;
  Snapshot snapshot_;
  tdsim::KernelConfig resolved_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(const Params& params) {
  return std::make_unique<Fleet>(params);
}

}  // namespace perfbench
