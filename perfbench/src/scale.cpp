// scale_mesh: 100 concurrent SyncDomains joined by mesh-declared decoupled
// links (1 us minimum latency, so they stay independent concurrency groups
// with per-group lookahead over the whole link graph), 10k worker
// processes per generation, 3 generations respawned by one manager per
// domain, pooled fiber stacks, workers min(4, hardware threads). Each op
// is one simulation; its reference is the same platform at workers 0,
// which must give identical dates, checksums and deterministic counters.
//
// Generated from the seed: every process's step count and the spin work
// it does per step.
#include <chrono>
#include <cmath>
#include <memory>

#include "bench.h"
#include "kernel/sync_domain.h"
#include "trace.h"

namespace perfbench {

namespace {

using tdsim::Kernel;
using tdsim::SyncDomain;
using tdsim::ThreadOptions;
using tdsim::Time;
using namespace tdsim::time_literals;

struct ScaleConfig {
  std::uint64_t seed = 0;
  std::size_t domains = 100;
  std::size_t procs = 10'000;  ///< worker processes per generation
  std::uint64_t lives = 3;     ///< generations per worker slot
  std::uint64_t min_steps = 50;
  std::uint64_t max_steps = 150;
  std::uint64_t max_work = 32;  ///< spin iterations per step, at most
  std::size_t stack_bytes = 128 * 1024;
  Time step = 10_ns;
  Time quantum = 100_ns;

  std::size_t slots_of(std::size_t c) const {
    return procs / domains + (c < procs % domains ? 1 : 0);
  }
};

/// One process's generated inputs.
struct ProcSpec {
  std::uint64_t steps;
  std::uint64_t work;
};

ProcSpec spec_of(const ScaleConfig& config, std::size_t c, std::size_t slot,
                 std::uint64_t gen) {
  Rng rng(config.seed ^ ((c * 0x10003ULL + slot) * 0x3f1ULL + gen) *
                            0xd1342543de82ef95ULL);
  const std::uint64_t steps = rng.between(config.min_steps, config.max_steps);
  return {steps, rng.between(0, config.max_work)};
}

/// Deterministic per-step computation, folded into the domain checksum.
std::uint64_t spin_work(std::uint64_t x, std::uint64_t iters) {
  x += 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

/// The platform, elaborated into a kernel; lives as long as the kernel.
class Mesh {
 public:
  Mesh(Kernel& kernel, const ScaleConfig& config)
      : kernel_(kernel), config_(config), clusters_(config.domains) {
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      clusters_[c].domain = &kernel.create_domain(
          {.name = "cl" + std::to_string(c),
           .quantum = config.quantum,
           .concurrent = true});
    }
    const std::size_t rows = static_cast<std::size_t>(
        std::floor(std::sqrt(static_cast<double>(config.domains))));
    const std::size_t cols = (config.domains + rows - 1) / rows;
    for (std::size_t c = 0; c < config.domains; ++c) {
      if ((c % cols) + 1 < cols && c + 1 < config.domains) {
        kernel.link_domains(*clusters_[c].domain, *clusters_[c + 1].domain,
                            1_us, "mesh_x");
      }
      if (c + cols < config.domains) {
        kernel.link_domains(*clusters_[c].domain,
                            *clusters_[c + cols].domain, 1_us, "mesh_y");
      }
    }
    const Time life_span = config.step * config.max_steps;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      const std::size_t slots = config.slots_of(c);
      for (std::size_t slot = 0; slot < slots; ++slot) {
        spawn_worker(c, slot, 0);
      }
      if (config.lives > 1 && slots > 0) {
        ThreadOptions opts;
        opts.domain = clusters_[c].domain;
        kernel.spawn_thread(
            "mgr" + std::to_string(c),
            [this, c, slots, life_span] {
              for (std::uint64_t gen = 1; gen < config_.lives; ++gen) {
                kernel_.wait(life_span);
                for (std::size_t slot = 0; slot < slots; ++slot) {
                  spawn_worker(c, slot, gen);
                }
              }
            },
            opts);
      }
    }
  }

  std::uint64_t checksum() const {
    std::uint64_t h = 0;
    for (const Cluster& cluster : clusters_) {
      h = h * 1099511628211ULL + cluster.sink;
    }
    return h;
  }

  std::uint64_t steps_done() const {
    std::uint64_t total = 0;
    for (const Cluster& cluster : clusters_) {
      total += cluster.steps;
    }
    return total;
  }

 private:
  struct Cluster {
    SyncDomain* domain = nullptr;
    std::uint64_t sink = 0;   ///< group-serialized checksum
    std::uint64_t steps = 0;  ///< steps executed by the domain's processes
  };

  void spawn_worker(std::size_t c, std::size_t slot, std::uint64_t gen) {
    Cluster& cluster = clusters_[c];
    const ProcSpec spec = spec_of(config_, c, slot, gen);
    ThreadOptions opts;
    opts.domain = cluster.domain;
    opts.stack_size = config_.stack_bytes;
    const std::uint64_t seed = (c * 0x10003ULL + slot) * 0x3f1ULL + gen;
    Span span("kernel.process.spawn", "kernel.process");
    kernel_.spawn_thread(
        "c" + std::to_string(c) + "_w" + std::to_string(slot) + "_g" +
            std::to_string(gen),
        [this, &cluster, spec, seed] {
          std::uint64_t acc = seed;
          for (std::uint64_t s = 0; s < spec.steps; ++s) {
            acc = spin_work(acc, spec.work);
            kernel_.current_domain().inc_and_sync_if_needed(config_.step);
          }
          cluster.sink = cluster.sink * 31 + acc;
          cluster.steps += spec.steps;
        },
        opts);
  }

  Kernel& kernel_;
  const ScaleConfig& config_;
  std::vector<Cluster> clusters_;
};

class Scale : public Workload {
 public:
  explicit Scale(const Params& params) {
    config_.seed = params.seed;
    if (params.small) {
      config_.domains = 9;
      config_.procs = 450;
      config_.lives = 2;
    }
    for (std::size_t c = 0; c < config_.domains; ++c) {
      for (std::size_t slot = 0; slot < config_.slots_of(c); ++slot) {
        for (std::uint64_t gen = 0; gen < config_.lives; ++gen) {
          expected_steps_ += spec_of(config_, c, slot, gen).steps;
        }
      }
    }
  }

  const char* item_name() const override { return "process step"; }
  std::size_t workers() const override { return capped_workers(4); }
  const tdsim::KernelConfig& resolved_config() const override {
    return resolved_;
  }

  std::string describe() const override {
    return "{\"reference\":\"workers 0\",\"domains\":" +
           std::to_string(config_.domains) +
           ",\"topology\":\"mesh\",\"procs\":" +
           std::to_string(config_.procs) +
           ",\"lives\":" + std::to_string(config_.lives) +
           ",\"steps\":" + std::to_string(expected_steps_) + "}";
  }

  double setup_once() override {
    const auto start = std::chrono::steady_clock::now();
    Kernel kernel(pinned_config(workers()));
    Mesh mesh(kernel, config_);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  void prepare() override {
    Kernel kernel(pinned_config(0));
    Mesh mesh(kernel, config_);
    const std::string error = run_traced(kernel);
    Fingerprint reference = invariant_fields(kernel, mesh);
    if (!error.empty() || mesh.steps_done() != expected_steps_) {
      reference.clear();
    }
    checker_.set_reference(0, reference);
  }

  Batch run_batch(std::size_t workers) override {
    Batch batch;
    Span op("op", "bench");
    std::unique_ptr<Kernel> kernel;
    {
      Span span("kernel.construct", "kernel");
      kernel = std::make_unique<Kernel>(pinned_config(workers));
    }
    resolved_ = kernel->config();
    std::unique_ptr<Mesh> mesh;
    {
      Span span("model.elaborate", "model");
      mesh = std::make_unique<Mesh>(*kernel, config_);
    }
    std::string error = run_traced(*kernel);
    if (error.empty() && mesh->steps_done() != expected_steps_) {
      error = "processes executed " + std::to_string(mesh->steps_done()) +
              " steps, generated " + std::to_string(expected_steps_);
    }
    const Fingerprint cross = invariant_fields(*kernel, *mesh);
    if (error.empty()) {
      error = checker_.check(0, workers, cross,
                             with_stats(cross, kernel->stats()));
    }
    batch.ops = 1;
    if (error.empty()) {
      batch.items = expected_steps_;
    } else {
      batch.fail(error);
    }
    batch.counts.add(kernel->stats());
    batch.counts.incs += expected_steps_;
    {
      Span span("kernel.teardown", "kernel");
      mesh.reset();
      kernel.reset();
    }
    return batch;
  }

 private:
  /// What the worker count must not change: the end date, the checksum
  /// and every counter the parallel scheduler keeps bit-identical.
  static Fingerprint invariant_fields(const Kernel& kernel, const Mesh& mesh) {
    const tdsim::KernelStats& s = kernel.stats();
    Fingerprint f = {kernel.now().ps(),  mesh.checksum(),
                     mesh.steps_done(),  s.context_switches,
                     s.delta_cycles,     s.processes_spawned,
                     s.stack_acquires,   s.arena_reserved_bytes,
                     s.sync_requests,    s.syncs_elided};
    f.insert(f.end(), s.syncs_by_cause.begin(), s.syncs_by_cause.end());
    return f;
  }

  ScaleConfig config_;
  std::uint64_t expected_steps_ = 0;
  tdsim::KernelConfig resolved_;
};

}  // namespace

std::unique_ptr<Workload> make_scale(const Params& params) {
  return std::make_unique<Scale>(params);
}

}  // namespace perfbench
