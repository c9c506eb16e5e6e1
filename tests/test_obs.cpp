// Unit tests for the observability subsystem (src/obs): metrics
// registry, striped counters under threads, trace ring bounds/sampling,
// snapshot merge semantics, JSON round-trip, and the device integration
// (per-op stage timers, read amplification, periodic dump hook).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "kvssd/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/keygen.hpp"

namespace rhik {
namespace {

// -- Registry -------------------------------------------------------------------

TEST(MetricsRegistry, LookupReturnsSameInstance) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x.count");
  obs::Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  obs::Timer& t1 = reg.timer("x.lat");
  obs::Timer& t2 = reg.timer("x.lat");
  EXPECT_EQ(&t1, &t2);
  obs::Gauge& g1 = reg.gauge("x.depth", obs::MergeMode::kMax);
  obs::Gauge& g2 = reg.gauge("x.depth");  // mode only applies on creation
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(g2.mode(), obs::MergeMode::kMax);
}

TEST(MetricsRegistry, KindsAreIndependentNamespaces) {
  obs::MetricsRegistry reg;
  reg.counter("dual").inc(3);
  reg.gauge("dual").set(-7);
  reg.timer("dual").record(9);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("dual"), 3u);
  EXPECT_EQ(snap.gauge("dual"), -7);
  ASSERT_NE(snap.timer("dual"), nullptr);
  EXPECT_EQ(snap.timer("dual")->count(), 1u);
}

// -- Striped counter / atomic timer under threads -------------------------------

TEST(ObsCounter, ExactUnderConcurrentIncrements) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsTimer, CountAndBoundsUnderConcurrentRecords) {
  obs::Timer timer;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timer, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        timer.record(static_cast<std::uint64_t>(t) * 1000 + (i % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  const Histogram h = timer.snapshot();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 3099u);
}

// -- Trace ring -----------------------------------------------------------------

TEST(TraceRing, BoundedAndOldestFirst) {
  obs::TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::OpTrace t;
    t.seq = i;
    ring.push(t);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  const auto recent = ring.recent();
  ASSERT_EQ(recent.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(recent[i].seq, 6 + i);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.recorded(), 0u);
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  obs::TraceRing ring(0);
  obs::OpTrace t;
  ring.push(t);
  ring.push(t);
  EXPECT_EQ(ring.size(), 1u);
}

// -- Snapshot merge semantics ---------------------------------------------------

TEST(MetricsSnapshot, MergeSumsCountersAndHonorsGaugeModes) {
  obs::MetricsSnapshot a, b;
  a.captured_at_ns = 100;
  b.captured_at_ns = 250;
  a.add_counter("ops", 10);
  b.add_counter("ops", 32);
  a.set_gauge("live", 5, obs::MergeMode::kSum);
  b.set_gauge("live", 7, obs::MergeMode::kSum);
  a.set_gauge("clock", 100, obs::MergeMode::kMax);
  b.set_gauge("clock", 90, obs::MergeMode::kMax);
  a.set_gauge("floor", 4, obs::MergeMode::kMin);
  b.set_gauge("floor", 2, obs::MergeMode::kMin);
  Histogram h1, h2;
  h1.record(1);
  h2.record(100);
  a.add_timer("lat", h1);
  b.add_timer("lat", h2);

  a.merge_from(b);
  EXPECT_EQ(a.captured_at_ns, 250u);  // array time = slowest shard
  EXPECT_EQ(a.counter("ops"), 42u);
  EXPECT_EQ(a.gauge("live"), 12);
  EXPECT_EQ(a.gauge("clock"), 100);
  EXPECT_EQ(a.gauge("floor"), 2);
  ASSERT_NE(a.timer("lat"), nullptr);
  EXPECT_EQ(a.timer("lat")->count(), 2u);
  EXPECT_EQ(a.timer("lat")->max(), 100u);
}

TEST(MetricsSnapshot, LookupFallbacks) {
  obs::MetricsSnapshot snap;
  EXPECT_EQ(snap.counter("absent"), 0u);
  EXPECT_EQ(snap.counter("absent", 17), 17u);
  EXPECT_EQ(snap.gauge("absent", -3), -3);
  EXPECT_EQ(snap.timer("absent"), nullptr);
}

// -- JSON round-trip ------------------------------------------------------------

TEST(MetricsSnapshot, JsonRoundTrip) {
  obs::MetricsSnapshot snap;
  snap.captured_at_ns = 123456789;
  snap.add_counter("device.puts", 42);
  snap.add_counter("nand.page_reads", 7);
  snap.set_gauge("clock.now_ns", 123456789, obs::MergeMode::kMax);
  snap.set_gauge("device.live_bytes", -1, obs::MergeMode::kSum);
  Histogram h;
  for (std::uint64_t v = 0; v < 200; ++v) h.record(v * 37);
  snap.add_timer("op.get.total_ns", h);

  const std::string json = snap.to_json();
  auto parsed = obs::MetricsSnapshot::from_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->captured_at_ns, snap.captured_at_ns);
  EXPECT_EQ(parsed->counters, snap.counters);
  ASSERT_EQ(parsed->gauges.size(), snap.gauges.size());
  EXPECT_EQ(parsed->gauge("clock.now_ns"), 123456789);
  EXPECT_EQ(parsed->gauge("device.live_bytes"), -1);
  EXPECT_EQ(parsed->gauges.at("clock.now_ns").mode, obs::MergeMode::kMax);
  ASSERT_NE(parsed->timer("op.get.total_ns"), nullptr);
  EXPECT_EQ(parsed->timer("op.get.total_ns")->count(), h.count());
  EXPECT_EQ(parsed->timer("op.get.total_ns")->max(), h.max());
  // Percentiles are recomputed from buckets, so a second round-trip is
  // byte-stable.
  EXPECT_EQ(parsed->to_json(), json);
}

TEST(MetricsSnapshot, FromJsonRejectsGarbage) {
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("").has_value());
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("not json").has_value());
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("{\"counters\":").has_value());
}

TEST(MetricsSnapshot, JsonEscapesNames) {
  obs::MetricsSnapshot snap;
  snap.add_counter("weird\"name\\with\tescapes", 1);
  const std::string json = snap.to_json();
  auto parsed = obs::MetricsSnapshot::from_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->counter("weird\"name\\with\tescapes"), 1u);
}

// -- Device integration ---------------------------------------------------------

kvssd::DeviceConfig small_device_config() {
  kvssd::DeviceConfig cfg;
  cfg.geometry = flash::Geometry::with_capacity(64ull << 20);
  cfg.rhik.anticipated_keys = 2000;
  return cfg;
}

TEST(DeviceObs, SnapshotCarriesStageTimersAndReadAmp) {
  kvssd::DeviceConfig cfg = small_device_config();
  cfg.obs.trace_sample_every = 1;
  kvssd::KvssdDevice dev(cfg);

  Bytes value(256);
  for (std::uint64_t id = 0; id < 500; ++id) {
    workload::fill_value(id, value);
    ASSERT_TRUE(ok(dev.put(workload::key_for_id(id, 16), value)));
  }
  // Flush the RAM write buffer so every get below pays a data-page read.
  ASSERT_TRUE(ok(dev.flush()));
  Bytes out;
  for (std::uint64_t id = 0; id < 500; ++id) {
    ASSERT_TRUE(ok(dev.get(workload::key_for_id(id, 16), &out)));
  }

  const obs::MetricsSnapshot snap = dev.metrics_snapshot();
  // Per-stage timers exist and counted every op.
  for (const char* name :
       {"op.put.total_ns", "op.put.index_ns", "op.put.flash_ns", "op.put.gc_ns",
        "op.get.total_ns", "op.get.index_ns", "op.get.flash_ns",
        "op.get.flash_reads", "op.get.index_flash_reads"}) {
    ASSERT_NE(snap.timer(name), nullptr) << name;
  }
  EXPECT_EQ(snap.timer("op.put.total_ns")->count(), 500u);
  EXPECT_EQ(snap.timer("op.get.total_ns")->count(), 500u);
  // Every cached get costs at least the data-page read.
  EXPECT_GE(snap.timer("op.get.flash_reads")->min(), 1u);
  // Component stats publish through the same snapshot.
  EXPECT_EQ(snap.counter("device.puts"), 500u);
  EXPECT_EQ(snap.counter("device.gets"), 500u);
  EXPECT_GT(snap.counter("nand.page_reads"), 0u);
  EXPECT_EQ(snap.gauge("device.key_count"), 500);
  EXPECT_EQ(snap.gauge("clock.now_ns"),
            static_cast<std::int64_t>(dev.clock().now()));
  // Stage sim time is attributed: a get spends its time in flash reads.
  EXPECT_GT(snap.timer("op.get.flash_ns")->max(), 0u);
}

TEST(DeviceObs, TraceRingSamplesEveryNth) {
  kvssd::DeviceConfig cfg = small_device_config();
  cfg.obs.trace_sample_every = 10;
  cfg.obs.trace_ring_capacity = 8;
  kvssd::KvssdDevice dev(cfg);

  Bytes value(64);
  for (std::uint64_t id = 0; id < 100; ++id) {
    workload::fill_value(id, value);
    ASSERT_TRUE(ok(dev.put(workload::key_for_id(id, 16), value)));
  }
  // 100 ops, 1-in-10 sampling: 10 recorded, last 8 retained.
  EXPECT_EQ(dev.trace_ring().recorded(), 10u);
  EXPECT_EQ(dev.trace_ring().size(), 8u);
  for (const obs::OpTrace& t : dev.trace_ring().recent()) {
    EXPECT_EQ(t.seq % 10, 0u);
    EXPECT_EQ(t.kind, obs::OpKind::kPut);
    EXPECT_GT(t.total_ns, 0u);
  }
}

TEST(DeviceObs, MetricsOffDisablesObsLayer) {
  kvssd::DeviceConfig cfg = small_device_config();
  cfg.obs.metrics = false;
  kvssd::KvssdDevice dev(cfg);
  Bytes value(64);
  for (std::uint64_t id = 0; id < 50; ++id) {
    workload::fill_value(id, value);
    ASSERT_TRUE(ok(dev.put(workload::key_for_id(id, 16), value)));
  }
  EXPECT_EQ(dev.trace_ring().recorded(), 0u);
  const obs::MetricsSnapshot snap = dev.metrics_snapshot();
  EXPECT_EQ(snap.timer("op.put.total_ns"), nullptr);
  // Component stats still publish — only the per-op layer is gated.
  EXPECT_EQ(snap.counter("device.puts"), 50u);
}

TEST(DeviceObs, PeriodicDumpFiresOnSimClock) {
  kvssd::DeviceConfig cfg = small_device_config();
  cfg.obs.dump_period_ns = 1 * kMillisecond;
  kvssd::KvssdDevice dev(cfg);

  std::vector<SimTime> fired;
  dev.set_metrics_dump([&](SimTime now, const obs::MetricsSnapshot& snap) {
    fired.push_back(now);
    EXPECT_EQ(now, snap.captured_at_ns);
  });

  Bytes value(256);
  std::uint64_t id = 0;
  while (dev.clock().now() < 5 * kMillisecond) {
    workload::fill_value(id, value);
    ASSERT_TRUE(ok(dev.put(workload::key_for_id(id++, 16), value)));
  }
  // ~5 ms of simulated time with a 1 ms period: several dumps. The
  // schedule advances on period boundaries (not from the actual fire
  // time), so a late fire followed by an on-time one can land slightly
  // closer together than a full period — but never closer than half.
  EXPECT_GE(fired.size(), 3u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GT(fired[i], fired[i - 1]);
    EXPECT_GE(fired[i] - fired[i - 1], cfg.obs.dump_period_ns / 2);
  }
}

TEST(DeviceObs, AsyncDrainRecordsQueueWait) {
  kvssd::DeviceConfig cfg = small_device_config();
  cfg.obs.trace_sample_every = 1;
  kvssd::KvssdDevice dev(cfg);

  Bytes value(128);
  for (std::uint64_t id = 0; id < 64; ++id) {
    workload::fill_value(id, value);
    dev.submit(
        {api::Command::Op::kPut, id, workload::key_for_id(id, 16), value});
  }
  dev.drain();

  const obs::MetricsSnapshot snap = dev.metrics_snapshot();
  ASSERT_NE(snap.timer("op.put.queue_ns"), nullptr);
  // All 64 ops were enqueued at sim time 0 and executed serially during
  // the drain, so later ops waited strictly longer than the first.
  EXPECT_EQ(snap.timer("op.put.queue_ns")->count(), 64u);
  EXPECT_GT(snap.timer("op.put.queue_ns")->max(), 0u);
}

}  // namespace
}  // namespace rhik
