// Unit costs of the kernel primitives, from calibration loops on the
// public API (traced runs only). Each is the median over a few batches of
// wall time divided by the number of operations the kernel counted.
#pragma once

namespace perfbench {

struct UnitCosts {
  /// Two thread processes handing over by delta notification; per
  /// counted context switch.
  double switch_hot_ns = 0;
  /// 4096 thread processes each waiting a delta, round-robin; per counted
  /// context switch (the fibers' stacks no longer fit in cache).
  double switch_cold_ns = 0;
  /// Method re-triggering itself 1 ns later; per activation.
  double method_ns = 0;
  /// Method notifying its own sensitivity event 1 ns later; per notify.
  double timed_notify_ns = 0;
  /// SyncDomain::inc() from a thread process; per call.
  double inc_ns = 0;
  /// Non-blocking write then read of one word through a deep Smart FIFO.
  double word_ns = 0;
  /// Kernel::spawn_thread() during elaboration; per call.
  double spawn_ns = 0;
};

UnitCosts calibrate(bool small);

}  // namespace perfbench
