#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench.h"
#include "core/smart_fifo.h"
#include "kernel/event.h"
#include "kernel/sync_domain.h"

namespace perfbench {

namespace {

using tdsim::Event;
using tdsim::Kernel;
using tdsim::KernelStats;
using tdsim::MethodOptions;
using tdsim::ThreadOptions;
using namespace tdsim::time_literals;

constexpr int kBatches = 5;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Median over kBatches of ns per op. `batch` builds a fresh kernel, runs
/// it, and returns {seconds, ops}.
double median_ns(const std::function<std::pair<double, double>()>& batch) {
  std::vector<double> ns;
  for (int i = 0; i < kBatches; ++i) {
    const auto [seconds, ops] = batch();
    ns.push_back(ops > 0 ? seconds * 1e9 / ops : 0.0);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Runs `kernel` and returns {run seconds, counter(stats)}.
std::pair<double, double> timed_run(
    Kernel& kernel, std::uint64_t (*counter)(const KernelStats&)) {
  const auto start = std::chrono::steady_clock::now();
  kernel.run();
  const double seconds = seconds_since(start);
  return {seconds, static_cast<double>(counter(kernel.stats()))};
}

std::uint64_t switches(const KernelStats& s) { return s.context_switches; }
std::uint64_t activations(const KernelStats& s) { return s.method_activations; }

}  // namespace

UnitCosts calibrate(bool small) {
  const std::uint64_t n = small ? 1 << 12 : 1 << 16;
  UnitCosts costs;

  costs.switch_hot_ns = median_ns([n] {
    Kernel kernel(pinned_config(0));
    Event ping(kernel, "ping");
    Event pong(kernel, "pong");
    kernel.spawn_thread("a", [&] {
      for (std::uint64_t i = 0; i < n; ++i) {
        ping.notify_delta();
        tdsim::wait(pong);
      }
    });
    kernel.spawn_thread("b", [&] {
      for (std::uint64_t i = 0; i < n; ++i) {
        tdsim::wait(ping);
        pong.notify_delta();
      }
    });
    return timed_run(kernel, switches);
  });

  costs.switch_cold_ns = median_ns([small] {
    const std::size_t fibers = 4096;
    const int rounds = small ? 2 : 8;
    Kernel kernel(pinned_config(0));
    ThreadOptions opts;
    opts.stack_size = 64 * 1024;
    for (std::size_t f = 0; f < fibers; ++f) {
      kernel.spawn_thread("f" + std::to_string(f), [rounds] {
        for (int r = 0; r < rounds; ++r) {
          tdsim::wait_delta();
        }
      }, opts);
    }
    return timed_run(kernel, switches);
  });

  costs.method_ns = median_ns([n] {
    Kernel kernel(pinned_config(0));
    std::uint64_t remaining = n;
    kernel.spawn_method("ticker", [&] {
      if (--remaining > 0) {
        tdsim::next_trigger(1_ns);
      }
    });
    return timed_run(kernel, activations);
  });

  costs.timed_notify_ns = median_ns([n] {
    Kernel kernel(pinned_config(0));
    Event tick(kernel, "tick");
    std::uint64_t remaining = n;
    MethodOptions opts;
    opts.sensitivity.push_back(&tick);
    kernel.spawn_method("notifier", [&] {
      if (remaining > 0) {
        remaining--;
        tick.notify(1_ns);
      }
    }, opts);
    const auto start = std::chrono::steady_clock::now();
    kernel.run();
    return std::make_pair(seconds_since(start), static_cast<double>(n));
  });

  costs.inc_ns = median_ns([n] {
    Kernel kernel(pinned_config(0));
    const std::uint64_t calls = n * 16;
    double seconds = 0;
    kernel.spawn_thread("annotator", [&] {
      tdsim::SyncDomain& domain = kernel.current_domain();
      const auto start = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < calls; ++i) {
        domain.inc(1_ns);
      }
      seconds = seconds_since(start);
    });
    kernel.run();
    return std::make_pair(seconds, static_cast<double>(calls));
  });

  costs.word_ns = median_ns([n] {
    const std::size_t depth = 4096;
    const std::uint64_t rounds = std::max<std::uint64_t>(1, 4 * n / depth);
    Kernel kernel(pinned_config(0));
    tdsim::SmartFifo<std::uint32_t> fifo(kernel, "deep", depth);
    double seconds = 0;
    bool intact = true;
    kernel.spawn_thread("loopback", [&] {
      const auto start = std::chrono::steady_clock::now();
      for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::size_t w = 0; w < depth; ++w) {
          fifo.write(static_cast<std::uint32_t>(w));
        }
        for (std::size_t w = 0; w < depth; ++w) {
          const bool in_order = fifo.read() == w;
          intact = intact && in_order;
        }
      }
      seconds = seconds_since(start);
    });
    kernel.run();
    // A FIFO that lost or reordered words reports 0 ns.
    return std::make_pair(seconds,
                          intact ? static_cast<double>(rounds * depth) : 0.0);
  });

  costs.spawn_ns = median_ns([small] {
    const std::size_t spawns = small ? 512 : 4096;
    Kernel kernel(pinned_config(0));
    ThreadOptions opts;
    opts.stack_size = 64 * 1024;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < spawns; ++i) {
      kernel.spawn_thread("p" + std::to_string(i), [] {}, opts);
    }
    const double seconds = seconds_since(start);
    kernel.run();
    return std::make_pair(seconds, static_cast<double>(spawns));
  });

  return costs;
}

}  // namespace perfbench
