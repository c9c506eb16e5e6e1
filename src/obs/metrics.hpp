// Metrics subsystem: named counters, gauges and Histogram-backed
// timers, and the one snapshot every exporter speaks.
//
//  - MetricsSnapshot is the single whole-backend read-out. It is a
//    plain value object: counters sum on merge, gauges merge by a
//    per-gauge mode (sum, or max for sim-clock-style values), timers
//    merge their histograms. merge_from() is the only merge in the
//    tree; ShardedKvssd reports one array view by merging per-shard
//    snapshots with it.
//  - Single-threaded owners keep plain fields. A device and its
//    components (DeviceStats, NandStats, IndexOpStats, the per-op stage
//    histograms, ...) are touched only by the thread that owns the
//    device, so they count into plain members and publish them into a
//    snapshot at read-out time (see each header's `publish()`).
//  - MetricsRegistry is for counters that threads really share (the
//    serving layer, its tenants, the shard front end's `frontend.*`).
//    Counter increments are striped across cache-line-padded relaxed
//    atomics (one stripe per thread, assigned round-robin on first use)
//    and Timer::record is a handful of relaxed atomic adds into the
//    shared Histogram bucket layout, so writers never take a lock.
//  - Exportable. to_json() / from_json() round-trip the snapshot
//    (including histogram buckets, so percentiles survive).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/histogram.hpp"
#include "common/sim_clock.hpp"
#include "common/status.hpp"

namespace rhik::obs {

/// How a gauge combines across shards when snapshots merge.
enum class MergeMode : std::uint8_t {
  kSum,  ///< additive quantity (live bytes, key count)
  kMax,  ///< high-water / clock quantity (sim time, stall time)
  kMin,
};

/// Monotonic counter, striped so concurrent writers (shard workers,
/// producer threads) never contend on a cache line. Increments are
/// relaxed atomic adds on the calling thread's stripe; value() sums the
/// stripes (a racing read may miss in-flight increments, which is fine
/// for monitoring — quiesce first for exact totals).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    slots_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static constexpr std::size_t kStripes = 16;
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };

  /// Stable per-thread stripe, assigned round-robin on first use; shared
  /// by every Counter so one thread_local covers them all.
  static std::size_t stripe_index() noexcept;

  std::array<Slot, kStripes> slots_{};
};

/// Point-in-time value (queue depth, occupancy, clock). Single atomic —
/// gauges are set/adjusted rarely compared to counter increments.
class Gauge {
 public:
  explicit Gauge(MergeMode mode = MergeMode::kSum) : mode_(mode) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] MergeMode mode() const noexcept { return mode_; }

 private:
  std::atomic<std::int64_t> v_{0};
  MergeMode mode_;
};

/// Histogram-backed timer (or any distribution: flash reads per op, …).
/// Lock-free: shares Histogram's bucket layout but keeps the buckets as
/// relaxed atomics; snapshot() rebuilds a plain Histogram.
class Timer {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void record(std::uint64_t v) noexcept {
    buckets_[Histogram::bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    atomic_floor(min_, v);
    atomic_ceil(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  /// Materializes the distribution recorded so far.
  [[nodiscard]] Histogram snapshot() const;

 private:
  static void atomic_floor(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_ceil(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, Histogram::bucket_count()> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Plain-value snapshot of a registry plus anything components publish
/// into it. Mergeable and serializable; the unit every exporter speaks.
struct MetricsSnapshot {
  struct GaugeValue {
    std::int64_t value = 0;
    MergeMode mode = MergeMode::kSum;
  };

  /// Sim-clock capture time; maxed on merge (array time is the slowest
  /// shard's clock).
  SimTime captured_at_ns = 0;
  std::map<std::string, std::uint64_t> counters;  ///< summed on merge
  std::map<std::string, GaugeValue> gauges;       ///< merged per mode
  std::map<std::string, Histogram> timers;        ///< histogram-merged

  /// Accumulates into the named counter (additive, so repeated publishes
  /// of distinct sources compose).
  void add_counter(std::string name, std::uint64_t v) {
    counters[std::move(name)] += v;
  }
  void set_gauge(std::string name, std::int64_t v,
                 MergeMode mode = MergeMode::kSum) {
    gauges[std::move(name)] = GaugeValue{v, mode};
  }
  /// Merges the histogram into the named timer.
  void add_timer(std::string name, const Histogram& h) {
    timers[std::move(name)].merge(h);
  }

  [[nodiscard]] std::uint64_t counter(std::string_view name,
                                      std::uint64_t fallback = 0) const;
  [[nodiscard]] std::int64_t gauge(std::string_view name,
                                   std::int64_t fallback = 0) const;
  /// nullptr when absent.
  [[nodiscard]] const Histogram* timer(std::string_view name) const;

  /// Merges another snapshot: counters sum, gauges combine per their
  /// mode, timers merge histograms, captured_at_ns maxes.
  void merge_from(const MetricsSnapshot& other);

  /// Full JSON document:
  ///   {"captured_at_ns":..,"counters":{..},"gauges":{..},"timers":{..}}
  /// Timer values use Histogram::to_json(); gauge values carry their
  /// merge mode so a parsed snapshot merges identically.
  [[nodiscard]] std::string to_json() const;

  /// Parses a document produced by to_json(). Percentile fields are
  /// recomputed from the buckets, so to_json(from_json(s)) is stable.
  [[nodiscard]] static Result<MetricsSnapshot> from_json(std::string_view json);
};

/// Named-metric registry. Registration/lookup take a mutex (cold path);
/// the returned references are stable for the registry's lifetime and
/// their mutation paths are lock-free (see Counter/Gauge/Timer).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric with this name, creating it on first use.
  Counter& counter(std::string_view name);
  /// `mode` only applies on creation; later lookups keep the original.
  Gauge& gauge(std::string_view name, MergeMode mode = MergeMode::kSum);
  Timer& timer(std::string_view name);

  /// Merges every registered metric into `out` (names collide additively
  /// with what is already there).
  void snapshot_into(MetricsSnapshot& out) const;
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

}  // namespace rhik::obs
