// Trace replay harness over an emulated KVSSD.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/sim_clock.hpp"
#include "kvssd/device.hpp"
#include "workload/trace.hpp"

namespace rhik::workload {

struct ReplayOptions {
  std::uint32_t key_size = 16;
  /// Submit through the async queue. The run installs its own
  /// completion sink on the device and clears it at the end.
  bool async = false;
  std::uint32_t async_batch = 64;  ///< drain() every N submissions
  bool verify_values = false;      ///< check returned bytes on gets
};

struct ReplayResult {
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;       ///< statuses other than Ok/NotFound
  std::uint64_t not_found = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  SimTime elapsed = 0;                ///< simulated device time
  double throughput_mib() const;
  double throughput_ops() const;
};

/// Replays a trace; keys come from key_for_id, values from fill_value.
ReplayResult replay(kvssd::KvssdDevice& device, const Trace& trace,
                    const ReplayOptions& opts);

}  // namespace rhik::workload
