// soc_casestudy: the paper's SIV.C SoC (accelerator streams over Smart
// FIFOs and a 4x4 stream NoC, one control core polling them over the TLM
// bus), 16 streams, FIFO depth 16, 16-word packets, workers 0. Each op is
// one simulation of the Smart-FIFO flavour; its reference is the
// sync-per-access flavour of the same generated platform, whose dates must
// be identical (the paper's accuracy claim).
//
// Generated from the seed: the stream length, the accelerators' progress
// block size, and the NoC's router header latency and link depth, which
// change how the streams' packets interleave and queue in the mesh. The
// accelerator stage costs stay at the paper's 3/2/3 ns: they decide which
// stage blocks, and with it the work per word, which would make
// throughput incomparable across seeds. Every generated delay stays a
// whole number of nanoseconds, the grid the control core's polls are
// offset from (see ControlCore::Config::poll_phase).
#include <chrono>
#include <memory>

#include "bench.h"
#include "soc/soc_platform.h"
#include "trace.h"

namespace perfbench {

namespace {

using tdsim::Kernel;
using tdsim::Time;
using tdsim::soc::FifoFlavor;
using tdsim::soc::SocConfig;
using tdsim::soc::SocPlatform;
using namespace tdsim::time_literals;

class Soc : public Workload {
 public:
  explicit Soc(const Params& params) {
    Rng rng(params.seed);
    config_.mesh_columns = 4;
    config_.mesh_rows = 4;
    config_.streams = 16;
    config_.fifo_depth = 16;
    config_.packet_words = 16;
    const std::uint64_t packets = params.small ? 16 : 1024;
    config_.words_per_stream =
        config_.packet_words * rng.between(packets * 7 / 8, packets * 9 / 8);
    config_.block_words = rng.between(192, 320);
    config_.router_timing.header_latency =
        Time::from_ps(1000 * rng.between(4, 6));
    config_.noc_link_depth = rng.between(2, 4);
  }

  const char* item_name() const override {
    return "word consumed by a stream sink";
  }
  std::size_t workers() const override { return 0; }
  const tdsim::KernelConfig& resolved_config() const override {
    return resolved_;
  }

  std::string describe() const override {
    return "{\"model\":\"Smart\",\"reference\":\"Sync\",\"mesh\":\"4x4\","
           "\"streams\":" +
           std::to_string(config_.streams) +
           ",\"words_per_stream\":" + std::to_string(config_.words_per_stream) +
           ",\"fifo_depth\":" + std::to_string(config_.fifo_depth) +
           ",\"packet_words\":" + std::to_string(config_.packet_words) +
           ",\"block_words\":" + std::to_string(config_.block_words) +
           ",\"router_header_ps\":" +
           std::to_string(config_.router_timing.header_latency.ps()) +
           ",\"noc_link_depth\":" + std::to_string(config_.noc_link_depth) +
           "}";
  }

  double setup_once() override {
    const auto start = std::chrono::steady_clock::now();
    Kernel kernel(pinned_config(workers()));
    SocPlatform platform(kernel, config_);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  void prepare() override {
    SocConfig sync = config_;
    sync.flavor = FifoFlavor::Sync;
    Kernel kernel(pinned_config(0));
    SocPlatform platform(kernel, sync);
    const std::string error = run_traced(kernel);
    Fingerprint reference = dates_and_checksums(kernel, platform);
    if (!error.empty() || !platform.all_streams_correct()) {
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
    std::unique_ptr<SocPlatform> platform;
    {
      Span span("model.elaborate", "model");
      platform = std::make_unique<SocPlatform>(*kernel, config_);
      span.arg("processes", kernel->processes().size());
    }
    std::string error = run_traced(*kernel);
    if (error.empty() && !platform->all_streams_correct()) {
      error = "a stream sink checksum differs from its source stream";
    }
    const Fingerprint cross = dates_and_checksums(*kernel, *platform);
    Fingerprint repeat = with_stats(cross, kernel->stats());
    repeat.push_back(platform->total_fifo_accesses());
    repeat.push_back(platform->mesh().total_forwarded());
    repeat.push_back(platform->core().polls());
    if (error.empty()) {
      error = checker_.check(0, workers, cross, repeat);
    }
    batch.ops = 1;
    if (error.empty()) {
      batch.items = config_.streams * config_.words_per_stream;
    } else {
      batch.fail(error);
    }
    batch.counts.add(kernel->stats());
    batch.counts.fifo_accesses += platform->total_fifo_accesses();
    batch.counts.noc_packets += platform->mesh().total_forwarded();
    batch.counts.core_polls += platform->core().polls();
    // One inc() per word in each of a stream's three accelerators.
    batch.counts.incs += 3 * config_.streams * config_.words_per_stream;
    {
      Span span("kernel.teardown", "kernel");
      platform.reset();
      kernel.reset();
    }
    return batch;
  }

 private:
  /// The kernel's end date, the date the core saw every accelerator done,
  /// and every sink's checksum: the fields both flavours must agree on.
  Fingerprint dates_and_checksums(const Kernel& kernel,
                                  SocPlatform& platform) const {
    Fingerprint f = {kernel.now().ps(), platform.core().all_done_date().ps()};
    for (std::size_t s = 0; s < config_.streams; ++s) {
      f.push_back(platform.sink_checksum(s));
    }
    return f;
  }

  SocConfig config_;
  tdsim::KernelConfig resolved_;
};

}  // namespace

std::unique_ptr<Workload> make_soc(const Params& params) {
  return std::make_unique<Soc>(params);
}

}  // namespace perfbench
