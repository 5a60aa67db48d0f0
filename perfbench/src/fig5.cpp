// fig5_pipeline: the paper's Fig. 5 chain (source -> transmitter -> sink
// over two FIFOs of depth 4, varying data rates), timed with temporal
// decoupling and Smart FIFOs (TDfull). Each op is one simulation; its
// reference is the same generated chain timed with wait() and FIFOs that
// synchronize at every access (TDless), whose dates must be identical.
//
// Generated from the seed: the size of every block and the phase of the
// rate cycle (block b runs the source at x{1,2,3}[(b + phase) % 3] and the
// sink in counter-phase).
#include <chrono>
#include <memory>

#include "bench.h"
#include "core/smart_fifo.h"
#include "core/sync_fifo.h"
#include "kernel/sync_domain.h"
#include "trace.h"

namespace perfbench {

namespace {

using tdsim::Kernel;
using tdsim::Time;
using namespace tdsim::time_literals;

struct ChainConfig {
  std::size_t depth = 4;
  std::vector<std::uint64_t> block_words;
  std::uint64_t phase = 0;
  Time source_per_word = 3_ns;
  Time transmit_per_word = 2_ns;
  Time sink_per_word = 3_ns;
  Time per_block = 20_ns;

  std::uint64_t total_words() const {
    std::uint64_t total = 0;
    for (std::uint64_t words : block_words) {
      total += words;
    }
    return total;
  }
};

enum class Timing { TDless, TDfull };

constexpr std::uint64_t kRateCycle[3] = {1, 2, 3};

class Chain {
 public:
  Chain(Kernel& kernel, const ChainConfig& config, Timing timing)
      : kernel_(kernel), config_(config), timing_(timing) {
    fifo_a_ = make_fifo("fig5.fifo_a");
    fifo_b_ = make_fifo("fig5.fifo_b");
    spawn("fig5.source", [this] { source(); });
    spawn("fig5.transmit", [this] { transmit(); });
    spawn("fig5.sink", [this] { sink(); });
  }

  bool done() const { return sink_done_; }
  std::uint32_t checksum() const { return checksum_; }
  std::uint64_t incs() const { return incs_; }
  std::uint64_t fifo_accesses() const {
    return fifo_a_->total_writes() + fifo_a_->total_reads() +
           fifo_b_->total_writes() + fifo_b_->total_reads();
  }

  /// Dates every stage finished at (local dates under TDfull, which the
  /// paper's claim makes equal to the TDless kernel dates) and the sink's
  /// checksum: the fields both timings must agree on.
  Fingerprint dates_and_checksum() const {
    return {source_done_.ps(), transmit_done_.ps(), sink_done_date_.ps(),
            checksum_};
  }

  std::uint32_t expected_checksum() const {
    std::uint32_t c = 0;
    const std::uint64_t total = config_.total_words();
    for (std::uint64_t i = 0; i < total; ++i) {
      c = c * 31 + (static_cast<std::uint32_t>(i) ^ 0xA5A5A5A5u);
    }
    return c;
  }

 private:
  std::unique_ptr<tdsim::FifoInterface<std::uint32_t>> make_fifo(
      const char* name) {
    if (timing_ == Timing::TDfull) {
      return std::make_unique<tdsim::SmartFifo<std::uint32_t>>(kernel_, name,
                                                               config_.depth);
    }
    return std::make_unique<tdsim::SyncFifo<std::uint32_t>>(kernel_, name,
                                                           config_.depth);
  }

  void spawn(const char* name, std::function<void()> body) {
    Span span("kernel.process.spawn", "kernel.process");
    kernel_.spawn_thread(name, std::move(body));
  }

  void delay(Time duration) {
    if (timing_ == Timing::TDfull) {
      kernel_.current_domain().inc(duration);
      incs_++;
    } else {
      kernel_.wait(duration);
    }
  }

  Time date() const {
    return timing_ == Timing::TDfull
               ? kernel_.current_domain().local_time_stamp()
               : kernel_.now();
  }

  std::uint64_t rate(std::uint64_t block, bool source) const {
    const std::uint64_t slot = (block + config_.phase) % 3;
    return source ? kRateCycle[slot] : kRateCycle[2 - slot];
  }

  void source() {
    std::uint32_t word = 0;
    for (std::size_t b = 0; b < config_.block_words.size(); ++b) {
      delay(config_.per_block);
      const Time per_word = config_.source_per_word * rate(b, true);
      for (std::uint64_t w = 0; w < config_.block_words[b]; ++w) {
        delay(per_word);
        fifo_a_->write(word++);
      }
    }
    source_done_ = date();
  }

  void transmit() {
    const std::uint64_t total = config_.total_words();
    for (std::uint64_t i = 0; i < total; ++i) {
      const std::uint32_t word = fifo_a_->read();
      delay(config_.transmit_per_word);
      fifo_b_->write(word ^ 0xA5A5A5A5u);
    }
    transmit_done_ = date();
  }

  void sink() {
    for (std::size_t b = 0; b < config_.block_words.size(); ++b) {
      delay(config_.per_block);
      const Time per_word = config_.sink_per_word * rate(b, false);
      for (std::uint64_t w = 0; w < config_.block_words[b]; ++w) {
        checksum_ = checksum_ * 31 + fifo_b_->read();
        delay(per_word);
      }
    }
    sink_done_date_ = date();
    sink_done_ = true;
  }

  Kernel& kernel_;
  const ChainConfig& config_;
  Timing timing_;
  std::unique_ptr<tdsim::FifoInterface<std::uint32_t>> fifo_a_;
  std::unique_ptr<tdsim::FifoInterface<std::uint32_t>> fifo_b_;
  std::uint32_t checksum_ = 0;
  std::uint64_t incs_ = 0;
  Time source_done_;
  Time transmit_done_;
  Time sink_done_date_;
  bool sink_done_ = false;
};

class Fig5 : public Workload {
 public:
  explicit Fig5(const Params& params) {
    Rng rng(params.seed);
    const std::uint64_t blocks = params.small ? 20 : 200;
    const std::uint64_t mean = params.small ? 100 : 1000;
    config_.phase = rng.between(0, 2);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      config_.block_words.push_back(rng.between(mean / 2, mean * 3 / 2));
    }
  }

  const char* item_name() const override { return "word consumed by the sink"; }
  std::size_t workers() const override { return 0; }
  const tdsim::KernelConfig& resolved_config() const override {
    return resolved_;
  }

  std::string describe() const override {
    return "{\"model\":\"TDfull\",\"reference\":\"TDless\",\"depth\":" +
           std::to_string(config_.depth) +
           ",\"blocks\":" + std::to_string(config_.block_words.size()) +
           ",\"words\":" + std::to_string(config_.total_words()) +
           ",\"rate_phase\":" + std::to_string(config_.phase) + "}";
  }

  double setup_once() override {
    const auto start = std::chrono::steady_clock::now();
    Kernel kernel(pinned_config(workers()));
    Chain chain(kernel, config_, Timing::TDfull);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  void prepare() override {
    Kernel kernel(pinned_config(0));
    Chain chain(kernel, config_, Timing::TDless);
    const std::string error = run_traced(kernel);
    Fingerprint reference = chain.dates_and_checksum();
    if (!error.empty() || !chain.done()) {
      reference.clear();  // every op then fails: the reference is broken
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
    std::unique_ptr<Chain> chain;
    {
      Span span("model.elaborate", "model");
      chain = std::make_unique<Chain>(*kernel, config_, Timing::TDfull);
    }
    std::string error = run_traced(*kernel);
    if (error.empty() && !chain->done()) {
      error = "sink did not finish";
    }
    if (error.empty() && chain->checksum() != chain->expected_checksum()) {
      error = "sink checksum differs from the transferred words";
    }
    const Fingerprint cross = chain->dates_and_checksum();
    if (error.empty()) {
      error = checker_.check(0, workers, cross,
                             with_stats(cross, kernel->stats()));
    }
    batch.ops = 1;
    if (error.empty()) {
      batch.items = config_.total_words();
    } else {
      batch.fail(error);
    }
    batch.counts.add(kernel->stats());
    batch.counts.fifo_accesses += chain->fifo_accesses();
    batch.counts.incs += chain->incs();
    {
      Span span("kernel.teardown", "kernel");
      chain.reset();
      kernel.reset();
    }
    return batch;
  }

 private:
  ChainConfig config_;
  tdsim::KernelConfig resolved_;
};

}  // namespace

std::unique_ptr<Workload> make_fig5(const Params& params) {
  return std::make_unique<Fig5>(params);
}

}  // namespace perfbench
