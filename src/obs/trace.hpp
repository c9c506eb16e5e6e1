// Per-op trace spans and the bounded trace ring.
//
// Every device command (when ObsConfig::metrics is on) carries an
// OpTrace down the submit → drain → index → flash path. Stage scopes
// accumulate sim-clock time per stage (queue wait, index probing, data-
// log flash, GC interference) and the device stamps flash-read deltas at
// completion, giving per-op read amplification. Completed traces feed
// the device's plain stage histograms (always; exported as
// `op.<verb>.<stage>`) and a bounded ring of recent traces (every
// `trace_sample_every`-th op) for postmortem inspection.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_clock.hpp"
#include "common/status.hpp"

namespace rhik::obs {

/// Observability knobs (kvssd::DeviceConfig::obs).
struct ObsConfig {
  /// Master switch for per-op stage metrics and tracing. The component
  /// counters (NandStats, IndexOpStats, …) are always maintained; this
  /// gates only the obs layer's per-op work.
  bool metrics = true;
  /// Record every Nth completed op into the trace ring; 0 disables the
  /// ring entirely (stage timers still aggregate).
  std::uint32_t trace_sample_every = 32;
  /// Bounded ring of recent traces (oldest evicted first).
  std::size_t trace_ring_capacity = 1024;
  /// >0: fire the device's metrics-dump hook every this many sim-clock
  /// nanoseconds (see KvssdDevice::set_metrics_dump).
  SimTime dump_period_ns = 0;
};

enum class OpKind : std::uint8_t { kPut, kGet, kDel, kExist };

[[nodiscard]] const char* to_string(OpKind k) noexcept;

/// Stages an op passes through; indexes OpTrace::stage_ns.
enum class Stage : std::uint8_t {
  kIndex = 0,  ///< index probe/update (includes its metadata flash I/O)
  kFlash = 1,  ///< data-log reads/writes (FlashKvStore)
  kGc = 2,     ///< foreground GC charged to this op
  kCount = 3,
};

[[nodiscard]] const char* to_string(Stage s) noexcept;

/// One command's record. Stage times overlap is possible (index flash
/// reads are inside the index stage, not the flash stage) and stages
/// need not sum to total_ns (command overhead, bookkeeping).
struct OpTrace {
  std::uint64_t seq = 0;  ///< per-device op sequence number
  OpKind kind = OpKind::kGet;
  Status status = Status::kOk;
  SimTime start_ns = 0;    ///< sim time at execution start
  SimTime queue_ns = 0;    ///< submit → execution start (async only)
  SimTime total_ns = 0;    ///< execution start → completion
  std::array<SimTime, static_cast<std::size_t>(Stage::kCount)> stage_ns{};
  std::uint64_t flash_reads = 0;        ///< NAND page reads this op (read amp)
  std::uint64_t index_flash_reads = 0;  ///< metadata subset of the above

  // Baselines captured at op start (not part of the exported record).
  std::uint64_t nand_reads_at_start = 0;
  std::uint64_t index_reads_at_start = 0;

  [[nodiscard]] SimTime stage(Stage s) const noexcept {
    return stage_ns[static_cast<std::size_t>(s)];
  }

  /// One-line rendering for dumps/debugging.
  [[nodiscard]] std::string to_string() const;
};

/// RAII span: adds elapsed sim time to one stage of the active trace.
/// Null trace → no-op, so un-instrumented call sites cost one branch.
class StageScope {
 public:
  StageScope(OpTrace* t, Stage s, const SimClock& clock) noexcept
      : t_(t), clock_(&clock), s_(s), t0_(t ? clock.now() : 0) {}
  ~StageScope() {
    if (t_ != nullptr) {
      t_->stage_ns[static_cast<std::size_t>(s_)] += clock_->now() - t0_;
    }
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  OpTrace* t_;
  const SimClock* clock_;
  Stage s_;
  SimTime t0_;
};

/// Bounded ring of recent traces. Pushes come from the device's owner
/// thread; reads (tests, exporters) may come from elsewhere, so access
/// is mutex-guarded — pushes are already down-sampled, so the lock is
/// uncontended in steady state.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {}

  void push(const OpTrace& t) {
    std::lock_guard lk(mu_);
    if (ring_.size() < cap_) {
      ring_.push_back(t);
    } else {
      ring_[head_] = t;
      head_ = (head_ + 1) % cap_;
    }
    recorded_++;
  }

  /// Copies out the retained traces, oldest first.
  [[nodiscard]] std::vector<OpTrace> recent() const {
    std::lock_guard lk(mu_);
    std::vector<OpTrace> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lk(mu_);
    return ring_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  /// Total traces ever pushed (recorded - size == evicted).
  [[nodiscard]] std::uint64_t recorded() const {
    std::lock_guard lk(mu_);
    return recorded_;
  }

  void clear() {
    std::lock_guard lk(mu_);
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
  }

 private:
  mutable std::mutex mu_;
  std::size_t cap_;
  std::size_t head_ = 0;  ///< oldest element once the ring is full
  std::uint64_t recorded_ = 0;
  std::vector<OpTrace> ring_;
};

}  // namespace rhik::obs
