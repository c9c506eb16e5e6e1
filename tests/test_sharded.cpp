// ShardedKvssd front-end: routing, sync/async verbs, cross-shard
// drain/flush barriers, the control-op ordering contract, metrics
// aggregation and single-shard parity with a raw device.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_kvssd.hpp"
#include "workload/keygen.hpp"

namespace rhik::shard {
namespace {

using kvssd::KvssdDevice;

ShardedConfig make_config(std::uint32_t shards) {
  ShardedConfig sc;
  sc.device.geometry = flash::Geometry::tiny(128);  // 8 MiB per shard
  sc.device.dram_cache_bytes = 64 * 1024;
  sc.num_shards = shards;
  sc.ring_capacity = 256;
  return sc;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }
Bytes owned(const std::string& s) { return Bytes(s.begin(), s.end()); }

api::Command put_cmd(std::uint64_t id, const std::string& value) {
  return {api::Command::Op::kPut, id, workload::key_for_id(id, 16),
          owned(value)};
}

TEST(Sharded, SyncRoundTripAcrossShards) {
  ShardedKvssd arr(make_config(4));
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    const std::string k = "key-" + std::to_string(i);
    ASSERT_EQ(arr.put(key(k), key("value-" + std::to_string(i))), Status::kOk);
  }
  for (int i = 0; i < kKeys; ++i) {
    const std::string k = "key-" + std::to_string(i);
    Bytes v;
    ASSERT_EQ(arr.get(key(k), &v), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(v), "value-" + std::to_string(i));
    EXPECT_EQ(arr.exist(key(k)), Status::kOk);
  }
  EXPECT_EQ(arr.key_count(), static_cast<std::uint64_t>(kKeys));

  for (int i = 0; i < kKeys; i += 2) {
    ASSERT_EQ(arr.del(key("key-" + std::to_string(i))), Status::kOk);
  }
  EXPECT_EQ(arr.key_count(), static_cast<std::uint64_t>(kKeys / 2));
  Bytes v;
  EXPECT_EQ(arr.get(key("key-0"), &v), Status::kNotFound);
  EXPECT_EQ(arr.get(key("key-1"), &v), Status::kOk);
}

TEST(Sharded, KeysSpreadAcrossAllShards) {
  ShardedKvssd arr(make_config(4));
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(arr.put(workload::key_for_id(i, 16), key("v")), Status::kOk);
  }
  arr.drain();
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < arr.num_shards(); ++s) {
    const std::uint64_t n = arr.shard_device(s).key_count();
    EXPECT_GT(n, 0u) << "shard " << s << " got no keys";
    total += n;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kKeys));

  // Routing is deterministic and consistent with the stored placement.
  for (int i = 0; i < kKeys; ++i) {
    const Bytes k = workload::key_for_id(i, 16);
    Bytes v;
    EXPECT_EQ(arr.shard_device(arr.shard_of(k)).get(k, &v), Status::kOk);
  }
}

TEST(Sharded, AsyncCallbacksAndDrainBarrier) {
  ShardedKvssd arr(make_config(4));
  constexpr int kOps = 300;
  std::atomic<int> acks{0};
  std::atomic<int> get_acks{0};
  arr.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    for (const auto& c : done) {
      EXPECT_EQ(c.status, Status::kOk);
      if (c.op == api::Command::Op::kGet) {
        EXPECT_EQ(rhik::to_string(c.value), "v");
        get_acks.fetch_add(1, std::memory_order_relaxed);
      } else {
        acks.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int i = 0; i < kOps; ++i) arr.submit(put_cmd(i, "v"));
  arr.drain();
  EXPECT_EQ(acks.load(), kOps);
  EXPECT_EQ(arr.key_count(), static_cast<std::uint64_t>(kOps));
  // Everything already completed: a second barrier completes nothing.
  EXPECT_EQ(arr.drain(), 0u);

  for (int i = 0; i < kOps; ++i) {
    arr.submit({api::Command::Op::kGet, static_cast<std::uint64_t>(i),
                workload::key_for_id(i, 16), {}});
  }
  arr.drain();
  EXPECT_EQ(get_acks.load(), kOps);
}

TEST(Sharded, FlushBarrierCoversAllShards) {
  ShardedKvssd arr(make_config(3));
  constexpr int kOps = 150;
  for (int i = 0; i < kOps; ++i) arr.submit(put_cmd(i, "v"));
  ASSERT_EQ(arr.flush(), Status::kOk);
  // flush() implies the drain barrier: every queued put completed on its
  // shard before the flush, so everything reads back immediately...
  EXPECT_EQ(arr.metrics_snapshot().counter("device.puts"),
            static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(arr.key_count(), static_cast<std::uint64_t>(kOps));
  Bytes v;
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(arr.get(workload::key_for_id(i, 16), &v), Status::kOk) << i;
  }
  // ...and every shard persisted index state (its dirty record pages hit
  // flash during the flush).
  arr.drain();
  for (std::uint32_t s = 0; s < arr.num_shards(); ++s) {
    EXPECT_GT(arr.shard_device(s).index().op_stats().flash_writes, 0u)
        << "shard " << s;
  }
}

TEST(Sharded, StatsAggregationMergesCountersAndHistograms) {
  ShardedKvssd arr(make_config(4));
  constexpr int kPuts = 120;
  constexpr int kGets = 80;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_EQ(arr.put(workload::key_for_id(i, 16), key("value")), Status::kOk);
  }
  Bytes v;
  for (int i = 0; i < kGets; ++i) {
    ASSERT_EQ(arr.get(workload::key_for_id(i, 16), &v), Status::kOk);
  }
  EXPECT_EQ(arr.get(key("absent"), &v), Status::kNotFound);

  const obs::MetricsSnapshot agg = arr.metrics_snapshot();
  EXPECT_EQ(agg.counter("device.puts"), static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(agg.counter("device.gets"), static_cast<std::uint64_t>(kGets));
  EXPECT_EQ(agg.counter("device.not_found"), 1u);
  // Histograms merge: one latency sample per put/get across the array.
  ASSERT_NE(agg.timer("op.put.total_ns"), nullptr);
  ASSERT_NE(agg.timer("op.get.total_ns"), nullptr);
  EXPECT_EQ(agg.timer("op.put.total_ns")->count(),
            static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(agg.timer("op.get.total_ns")->count(),
            static_cast<std::uint64_t>(kGets + 1));

  // Array time is the max across shard clocks (shards run concurrently).
  arr.drain();
  SimTime max_clock = 0;
  for (std::uint32_t s = 0; s < arr.num_shards(); ++s) {
    max_clock = std::max(max_clock, arr.shard_device(s).clock().now());
  }
  EXPECT_EQ(arr.sim_time(), max_clock);
}

TEST(Sharded, MetricsSnapshotEqualsMergeOfPerShardSnapshots) {
  ShardedKvssd arr(make_config(4));
  constexpr int kPuts = 150;
  constexpr int kGets = 100;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_EQ(arr.put(workload::key_for_id(i, 16), key("value")), Status::kOk);
  }
  Bytes v;
  for (int i = 0; i < kGets; ++i) {
    ASSERT_EQ(arr.get(workload::key_for_id(i, 16), &v), Status::kOk);
  }
  arr.drain();  // quiesce: both barriers below must see identical state

  const obs::MetricsSnapshot merged = arr.metrics_snapshot();
  obs::MetricsSnapshot manual;
  const auto per_shard = arr.shard_metrics_snapshots();
  ASSERT_EQ(per_shard.size(), 4u);
  for (const obs::MetricsSnapshot& s : per_shard) manual.merge_from(s);

  // The merged view is exactly the merge of the per-shard snapshots plus
  // the front-end's own frontend.* overlay — nothing dropped, nothing
  // double-counted.
  EXPECT_EQ(merged.captured_at_ns, manual.captured_at_ns);
  for (const auto& [name, value] : manual.counters) {
    EXPECT_EQ(merged.counter(name), value) << name;
  }
  for (const auto& [name, gv] : manual.gauges) {
    EXPECT_EQ(merged.gauge(name), gv.value) << name;
  }
  for (const auto& [name, h] : manual.timers) {
    const Histogram* mh = merged.timer(name);
    ASSERT_NE(mh, nullptr) << name;
    EXPECT_EQ(mh->count(), h.count()) << name;
    EXPECT_EQ(mh->max(), h.max()) << name;
    EXPECT_DOUBLE_EQ(mh->percentile(99), h.percentile(99)) << name;
  }
  // Everything the merged view adds on top is front-end-scoped.
  for (const auto& [name, value] : merged.counters) {
    if (manual.counters.count(name) == 0) {
      EXPECT_EQ(name.rfind("frontend.", 0), 0u) << name;
      (void)value;
    }
  }

  // Whole-array totals line up with the workload and the front-end's own
  // accounting (sync verbs counted once each).
  EXPECT_EQ(merged.counter("device.puts"), static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(merged.counter("device.gets"), static_cast<std::uint64_t>(kGets));
  EXPECT_EQ(merged.counter("frontend.puts"), static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(merged.counter("frontend.gets"), static_cast<std::uint64_t>(kGets));
  EXPECT_EQ(merged.gauge("frontend.shards"), 4);
  EXPECT_EQ(merged.timer("op.put.total_ns")->count(),
            static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(merged.timer("op.get.total_ns")->count(),
            static_cast<std::uint64_t>(kGets));

  // Acceptance: the JSON export of a sharded run carries per-stage
  // percentiles and flash reads per op for get and put.
  const std::string json = merged.to_json();
  for (const char* name :
       {"op.get.total_ns", "op.get.index_ns", "op.get.flash_ns",
        "op.get.flash_reads", "op.put.total_ns", "op.put.flash_reads"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  auto parsed = obs::MetricsSnapshot::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counter("device.puts"), merged.counter("device.puts"));
}

TEST(Sharded, MetricsStableUnderConcurrentDrains) {
  ShardedKvssd arr(make_config(4));
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;

  // Producers submit while other threads hammer drain() and
  // metrics_snapshot() barriers concurrently: the metrics path must not
  // drop or double-count ops.
  std::atomic<bool> stop{false};
  std::vector<std::thread> drainers;
  drainers.reserve(2);
  for (int d = 0; d < 2; ++d) {
    drainers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        arr.drain();
        (void)arr.metrics_snapshot();
      }
    });
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        arr.submit(put_cmd(p * kPerProducer + i, "value"));
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : drainers) t.join();
  arr.drain();

  const obs::MetricsSnapshot snap = arr.metrics_snapshot();
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(snap.counter("device.puts"), kTotal);
  EXPECT_EQ(snap.counter("frontend.puts"), kTotal);
  EXPECT_EQ(snap.timer("op.put.total_ns")->count(), kTotal);
  EXPECT_EQ(arr.key_count(), kTotal);
}

TEST(Sharded, SyncVerbsObserveEarlierAsyncSubmits) {
  // Sync verbs, snapshot reads and iterators are control ops: each runs
  // only after its shard drained every command submitted before it, so
  // no drain() is needed between an async submit and a sync read.
  ShardedConfig cfg = make_config(4);
  cfg.device.prefix_signatures = true;
  ShardedKvssd arr(cfg);
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t i = 0; i < kKeys; ++i) arr.submit(put_cmd(i, "old"));

  Bytes v;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(arr.get(workload::key_for_id(i, 16), &v), Status::kOk) << i;
    EXPECT_EQ(rhik::to_string(v), "old");
  }

  // Overwrite every key and delete the odd ones asynchronously, then
  // read through every synchronous path at once.
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    arr.submit(put_cmd(i, "new"));
    if (i % 2 == 1) {
      arr.submit({api::Command::Op::kDel, i, workload::key_for_id(i, 16), {}});
    }
  }
  EXPECT_EQ(arr.exist(workload::key_for_id(1, 16)), Status::kNotFound);
  EXPECT_EQ(arr.exist(workload::key_for_id(0, 16)), Status::kOk);

  auto snap = arr.open_snapshot();
  ASSERT_TRUE(snap);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const Status want = i % 2 == 1 ? Status::kNotFound : Status::kOk;
    EXPECT_EQ(arr.read_at(*snap, workload::key_for_id(i, 16), &v), want) << i;
    if (ok(want)) {
      EXPECT_EQ(rhik::to_string(v), "new");
    }
  }

  // All ids share the key bytes "k000", the iterator's prefix class.
  arr.submit({api::Command::Op::kDel, 0, workload::key_for_id(0, 16), {}});
  auto iter = arr.kvs_open_iterator(Bytes{'k', '0', '0', '0'}, nullptr);
  ASSERT_TRUE(iter);
  std::set<Bytes> listed;
  std::vector<Bytes> batch;
  while (arr.kvs_iterator_next(*iter, 16, &batch) == Status::kOk) {
    listed.insert(batch.begin(), batch.end());
  }
  ASSERT_EQ(arr.kvs_close_iterator(*iter), Status::kOk);
  EXPECT_EQ(listed.size(), kKeys / 2 - 1);
  EXPECT_EQ(listed.count(workload::key_for_id(0, 16)), 0u);
  EXPECT_EQ(listed.count(workload::key_for_id(2, 16)), 1u);

  EXPECT_EQ(arr.del(workload::key_for_id(2, 16)), Status::kOk);
  EXPECT_EQ(arr.get(workload::key_for_id(2, 16), &v), Status::kNotFound);
  EXPECT_EQ(arr.release_snapshot(*snap), Status::kOk);
  EXPECT_EQ(arr.key_count(), kKeys / 2 - 2);
}

TEST(Sharded, SingleShardMatchesRawDevice) {
  const auto cfg = make_config(1);
  ShardedKvssd arr(cfg);
  KvssdDevice raw(cfg.device);

  workload::KeyIdStream ids(workload::KeyPattern::kUniform, 60, /*seed=*/5);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t id = ids.next();
    const Bytes k = workload::key_for_id(id, 16);
    if (i % 3 == 0) {
      Bytes va, vb;
      EXPECT_EQ(arr.get(k, &va), raw.get(k, &vb));
      EXPECT_EQ(va, vb);
    } else if (i % 7 == 0) {
      EXPECT_EQ(arr.del(k), raw.del(k));
    } else {
      Bytes v(40);
      workload::fill_value(id, v);
      EXPECT_EQ(arr.put(k, v), raw.put(k, v));
    }
  }
  EXPECT_EQ(arr.key_count(), raw.key_count());
  // An array sync verb is the shard device's own sync verb, so the
  // device clocks agree to the nanosecond.
  EXPECT_EQ(arr.sim_time(), raw.clock().now());
}

TEST(Sharded, SingleShardRoutesEverythingToShardZero) {
  ShardedKvssd arr(make_config(1));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(arr.shard_of(workload::key_for_id(i, 16)), 0u);
  }
}

}  // namespace
}  // namespace rhik::shard
