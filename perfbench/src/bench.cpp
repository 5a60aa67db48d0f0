#include "bench.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "trace.h"

namespace perfbench {

tdsim::KernelConfig pinned_config(std::size_t workers) {
  return tdsim::KernelConfig{.workers = workers,
                             .default_chunk_capacity = 0,
                             .adaptive_quantum = false,
                             .quantum_trace_depth = 8,
                             .lookahead_limit = 64,
                             .delta_cycle_limit = 0,
                             .wall_limit_ms = 0,
                             .pooled_stacks = true,
                             .stack_guard = true};
}

std::string config_json(const tdsim::KernelConfig& c) {
  const auto num = [](const auto& v) {
    return v.has_value() ? std::to_string(*v) : std::string("null");
  };
  const auto flag = [](const std::optional<bool>& v) {
    return v.has_value() ? std::string(*v ? "true" : "false")
                         : std::string("null");
  };
  return "{\"workers\":" + num(c.workers) +
         ",\"default_chunk_capacity\":" + num(c.default_chunk_capacity) +
         ",\"adaptive_quantum\":" + flag(c.adaptive_quantum) +
         ",\"quantum_trace_depth\":" + num(c.quantum_trace_depth) +
         ",\"lookahead_limit\":" + num(c.lookahead_limit) +
         ",\"delta_cycle_limit\":" + num(c.delta_cycle_limit) +
         ",\"wall_limit_ms\":" + num(c.wall_limit_ms) +
         ",\"pooled_stacks\":" + flag(c.pooled_stacks) +
         ",\"stack_guard\":" + flag(c.stack_guard) + "}";
}

std::string run_traced(tdsim::Kernel& kernel, tdsim::Time until) {
  Span span("kernel.run", "kernel");
  try {
    kernel.run(until);
  } catch (const std::exception& e) {
    return std::string("run failed: ") + e.what();
  }
  const tdsim::KernelStats& s = kernel.stats();
  span.arg("context_switches", s.context_switches);
  span.arg("method_activations", s.method_activations);
  span.arg("delta_cycles", s.delta_cycles);
  span.arg("timed_waves", s.timed_waves);
  span.arg("sync_requests", s.sync_requests);
  span.arg("processes_spawned", s.processes_spawned);
  if (kernel.health() == tdsim::Health::Failed) {
    return "kernel failed: " + kernel.failure()->to_string();
  }
  return "";
}

std::size_t capped_workers(std::size_t n) {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, hw == 0 ? 1 : std::min(n, hw));
}

void Counts::add(const Counts& o) {
  tdsim::accumulate(kernel, o.kernel);
  fifo_accesses += o.fifo_accesses;
  noc_packets += o.noc_packets;
  core_polls += o.core_polls;
  incs += o.incs;
  retries += o.retries;
  quarantined += o.quarantined;
}

void Batch::add(const Batch& o) {
  items += o.items;
  ops += o.ops;
  failed += o.failed;
  counts.add(o.counts);
  if (first_error.empty()) {
    first_error = o.first_error;
  }
}

void Batch::fail(const std::string& why) {
  failed++;
  if (first_error.empty()) {
    first_error = why;
  }
}

Fingerprint with_stats(Fingerprint f, const tdsim::KernelStats& s) {
  f.insert(f.end(), {s.context_switches, s.method_activations,
                     s.delta_cycles, s.timed_waves, s.event_triggers,
                     s.processes_spawned, s.lookahead_advances,
                     s.stack_acquires, s.arena_reserved_bytes, s.failures,
                     s.sync_requests, s.syncs_elided, s.method_rearms});
  f.insert(f.end(), s.syncs_by_cause.begin(), s.syncs_by_cause.end());
  return f;
}

void Checker::set_reference(std::size_t key, Fingerprint cross) {
  if (reference_.size() <= key) {
    reference_.resize(key + 1);
  }
  reference_[key] = std::move(cross);
}

void Checker::corrupt() {
  for (auto& reference : reference_) {
    if (reference.has_value() && !reference->empty()) {
      reference->front() ^= 1;
    }
  }
}

std::string Checker::check(std::size_t key, std::size_t workers,
                           const Fingerprint& cross,
                           const Fingerprint& repeat) {
  if (key >= reference_.size() || !reference_[key].has_value()) {
    return "no reference for op " + std::to_string(key);
  }
  const Fingerprint& reference = *reference_[key];
  if (reference.empty()) {
    return "the reference run for op " + std::to_string(key) + " failed";
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (i >= cross.size() || cross[i] != reference[i]) {
      return "op " + std::to_string(key) + ": field " + std::to_string(i) +
             " differs from the reference (" +
             (i < cross.size() ? std::to_string(cross[i]) : "missing") +
             " vs " + std::to_string(reference[i]) + ")";
    }
  }
  const auto [first, inserted] = first_.try_emplace({key, workers}, repeat);
  if (inserted || first->second == repeat) {
    return "";
  }
  for (std::size_t i = 0; i < repeat.size(); ++i) {
    if (i >= first->second.size() || first->second[i] != repeat[i]) {
      return "op " + std::to_string(key) + ": deterministic field " +
             std::to_string(i) + " changed between repetitions";
    }
  }
  return "op " + std::to_string(key) + ": deterministic fields changed";
}

std::uint64_t Checker::digest() const {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a
  for (const auto& [key, first] : first_) {
    for (std::uint64_t v : first) {
      h = (h ^ v) * 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace perfbench
