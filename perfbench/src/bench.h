// Shared pieces of the tdbench program: seeded input generation, the
// pinned kernel configuration, per-op checking against a same-seed
// reference, and the interface the four workloads implement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/kernel.h"

namespace perfbench {

/// splitmix64: the only source of generated inputs. The same seed gives
/// the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

/// Every KernelConfig field set explicitly, so no TDSIM_* variable can
/// reach the workload (tdbench also refuses to start when one is set).
tdsim::KernelConfig pinned_config(std::size_t workers);
/// The resolved Kernel::config() as a JSON object.
std::string config_json(const tdsim::KernelConfig& config);

/// kernel.run(until) inside a "kernel.run" span that carries the kernel's
/// counts. Returns why the run failed (an exception, or the kernel landed
/// in Health::Failed), or "" on success.
std::string run_traced(tdsim::Kernel& kernel,
                       tdsim::Time until = tdsim::Time::max());

/// min(n, hardware threads), at least 1.
std::size_t capped_workers(std::size_t n);

/// Per-layer counts, summed over the ops of a batch.
struct Counts {
  tdsim::KernelStats kernel;  ///< summed with tdsim::accumulate
  /// Counted by the workloads from public model accessors.
  std::uint64_t fifo_accesses = 0;
  std::uint64_t noc_packets = 0;
  std::uint64_t core_polls = 0;
  /// inc() / inc_and_sync_if_needed() annotations the model code issues.
  std::uint64_t incs = 0;
  /// fleet::Supervisor's sequential retries and quarantined scenarios.
  std::uint64_t retries = 0;
  std::uint64_t quarantined = 0;

  void add(const tdsim::KernelStats& s) { tdsim::accumulate(kernel, s); }
  void add(const Counts& o);
};

/// The outcome of one repetition: one simulation, or one fleet of
/// scenarios.
struct Batch {
  std::uint64_t items = 0;  ///< work completed (see Workload::item_name)
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  Counts counts;
  std::string first_error;

  void add(const Batch& o);
  void fail(const std::string& why);
};

/// Deterministic fields of one op.
using Fingerprint = std::vector<std::uint64_t>;

/// `fields` followed by the kernel counters an op must repeat exactly:
/// switches, method activations, delta cycles, timed waves, spawns, stack
/// acquires, per-cause syncs and the rest the kernel keeps deterministic.
/// steals and stack_recycles depend on timing in parallel mode and are
/// left out.
Fingerprint with_stats(Fingerprint fields, const tdsim::KernelStats& s);

/// Checks one op: `cross` against the same-seed reference model (a
/// different model, so only the fields both must agree on), `repeat`
/// against the first op of the run with the same key and worker count.
class Checker {
 public:
  void set_reference(std::size_t key, Fingerprint cross);
  /// Flips one bit of every reference (the self-test's broken reference).
  void corrupt();
  /// Empty string when the op passes, else why it failed.
  std::string check(std::size_t key, std::size_t workers,
                    const Fingerprint& cross, const Fingerprint& repeat);
  /// FNV digest over the deterministic fields of every first op.
  std::uint64_t digest() const;

 private:
  std::vector<std::optional<Fingerprint>> reference_;
  std::map<std::pair<std::size_t, std::size_t>, Fingerprint> first_;
};

struct Params {
  std::uint64_t seed = 1;
  bool small = false;  ///< self-test sizes
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What one item is, for the report.
  virtual const char* item_name() const = 0;
  /// Worker quota of the measured ops.
  virtual std::size_t workers() const = 0;
  /// The generated inputs, for the report.
  virtual std::string describe() const = 0;
  /// One cold set-up, in a fresh process: Kernel(KernelConfig)
  /// construction through elaboration to the first run(). Seconds.
  virtual double setup_once() = 0;
  /// Computes the same-seed reference (not timed).
  virtual void prepare() = 0;
  /// One repetition at `workers`, every op checked.
  virtual Batch run_batch(std::size_t workers) = 0;
  /// Extra traced calls a workload's layers need beyond run_batch (spans
  /// only; returns the ops that carry "op" spans, if any).
  virtual Batch traced_probe() { return {}; }
  /// The resolved config of the last measured kernel.
  virtual const tdsim::KernelConfig& resolved_config() const = 0;
  Checker& checker() { return checker_; }

 protected:
  Checker checker_;
};

std::unique_ptr<Workload> make_fig5(const Params& params);
std::unique_ptr<Workload> make_soc(const Params& params);
std::unique_ptr<Workload> make_scale(const Params& params);
std::unique_ptr<Workload> make_fleet(const Params& params);

}  // namespace perfbench
