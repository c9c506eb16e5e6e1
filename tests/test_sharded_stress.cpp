// ThreadSanitizer-targeted stress: concurrent submitter threads driving
// a ShardedKvssd while another thread issues drain/metrics barriers.
// Build with -DRHIK_SANITIZE=thread and run via `ctest -L stress` to get
// the TSan tier; in a plain build it doubles as a race smoke test.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "shard/sharded_kvssd.hpp"
#include "workload/keygen.hpp"

namespace rhik::shard {
namespace {

TEST(ShardedStress, ConcurrentSubmittersAndDrainBarriers) {
  ShardedConfig sc;
  sc.device.geometry = flash::Geometry::tiny(128);
  sc.device.dram_cache_bytes = 64 * 1024;
  sc.num_shards = 4;
  sc.ring_capacity = 64;  // small ring: exercise producer back-pressure
  ShardedKvssd arr(sc);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  constexpr std::uint64_t kKeyspace = 256;
  std::atomic<std::uint64_t> acks{0};
  std::atomic<bool> submitting{true};
  arr.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    acks.fetch_add(done.size(), std::memory_order_relaxed);
  });

  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Bytes value(24);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t id =
            (static_cast<std::uint64_t>(t) * 7919 + i) % kKeyspace;
        api::Command cmd;
        cmd.key = workload::key_for_id(id, 16);
        switch (i % 3) {
          case 0:
            workload::fill_value(id, value);
            cmd.op = api::Command::Op::kPut;
            cmd.value = value;
            break;
          case 1:
            cmd.op = api::Command::Op::kGet;
            break;
          case 2:
            cmd.op = api::Command::Op::kDel;
            break;
        }
        arr.submit(std::move(cmd));
        if (i % 128 == 0) {  // sprinkle sync ops between async bursts
          Bytes v;
          arr.get(workload::key_for_id(id, 16), &v);
        }
      }
    });
  }

  // Drain/metrics barriers race with the submitters on purpose.
  std::thread drainer([&] {
    while (submitting.load(std::memory_order_acquire)) {
      arr.drain();
      const obs::MetricsSnapshot agg = arr.metrics_snapshot();
      EXPECT_LE(agg.counter("device.puts"),
                static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
      std::this_thread::yield();
    }
  });

  for (auto& t : submitters) t.join();
  submitting.store(false, std::memory_order_release);
  drainer.join();
  arr.drain();

  EXPECT_EQ(acks.load(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  ASSERT_EQ(arr.flush(), Status::kOk);

  // The array is consistent after the storm: every present key reads
  // back with the deterministic value pattern.
  std::uint64_t present = 0;
  Bytes v;
  for (std::uint64_t id = 0; id < kKeyspace; ++id) {
    const Status s = arr.get(workload::key_for_id(id, 16), &v);
    if (ok(s)) {
      EXPECT_TRUE(workload::check_value(id, v)) << "key id " << id;
      present++;
    }
  }
  EXPECT_EQ(arr.key_count(), present);
}

// TSan-targeted MVCC stress: snapshot scans racing mutation churn across
// the array. Scanners open a pinned iterator (explicit snapshot on one
// thread, iterator-internal pin on the other) while churn threads
// overwrite and delete/reinsert the same keyspace. The scan must stay a
// consistent cut: every key the iterator yields resolves via read_at on
// the SAME snapshot to a well-formed generation value — never a torn
// buffer, never kNotFound (a key listed at the pinned epoch must exist
// at it). kSnapshotTooOld is the one legitimate failure: the retention
// budget may expire a pin mid-scan, and the scanner then abandons the
// snapshot, not the invariant.
TEST(ShardedStress, SnapshotScansUnderChurn) {
  ShardedConfig sc;
  sc.device.geometry = flash::Geometry::tiny(128);
  sc.device.dram_cache_bytes = 64 * 1024;
  sc.device.prefix_signatures = true;  // iterator class filter needs them
  sc.num_shards = 4;
  ShardedKvssd arr(sc);

  constexpr std::uint64_t kKeyspace = 160;
  constexpr std::uint64_t kGens = 8;
  constexpr std::size_t kValueSize = 48;
  // All ids < 16^12 share the first four key bytes ("k000") — the
  // iterator's prefix class filter hashes exactly that window.
  const Bytes prefix{'k', '0', '0', '0'};

  // Seed generation 0 so early snapshots see a full cut.
  Bytes value(kValueSize);
  for (std::uint64_t id = 0; id < kKeyspace; ++id) {
    workload::fill_value(id * kGens, value);
    ASSERT_EQ(arr.put(workload::key_for_id(id, 16), value), Status::kOk);
  }

  std::atomic<bool> stop{false};
  // Async puts in flight per churner (tag = churner index).
  std::atomic<std::uint64_t> inflight[2] = {0, 0};
  arr.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    for (const auto& c : done) {
      inflight[c.tag].fetch_sub(1, std::memory_order_relaxed);
    }
  });
  std::atomic<std::uint64_t> scans_completed{0};
  std::atomic<std::uint64_t> scans_expired{0};

  // A value is untorn iff it matches SOME generation of its key.
  const auto untorn = [](std::uint64_t id, ByteSpan v) {
    for (std::uint64_t g = 0; g < kGens; ++g) {
      if (workload::check_value(id * kGens + g, v)) return true;
    }
    return false;
  };
  const auto id_of = [](const Bytes& key) {
    std::uint64_t id = 0;
    for (std::size_t i = 1; i < key.size() && i <= 15; ++i) {
      const char c = static_cast<char>(key[i]);
      id = id * 16 + static_cast<std::uint64_t>(
                         c <= '9' ? c - '0' : 10 + (c - 'a'));
    }
    return id;
  };

  std::vector<std::thread> churners;
  for (int t = 0; t < 2; ++t) {
    churners.emplace_back([&, t] {
      Bytes v(kValueSize);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t id = (t * 7919 + i) % kKeyspace;
        Bytes key = workload::key_for_id(id, 16);
        if (t == 1 && i % 5 == 0) {
          // Delete/reinsert lane: exercises tombstone retention.
          arr.del(key);
          workload::fill_value(id * kGens, v);
          arr.put(std::move(key), v);
        } else {
          workload::fill_value(id * kGens + (i % kGens), v);
          inflight[t].fetch_add(1, std::memory_order_relaxed);
          arr.submit({api::Command::Op::kPut, static_cast<std::uint64_t>(t),
                      std::move(key), v});
        }
        if (++i % 64 == 0) arr.drain();
      }
      arr.drain();
      EXPECT_EQ(inflight[t].load(), 0u);
    });
  }

  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&, t] {
      const bool explicit_snap = (t == 0);
      for (int round = 0; round < 25; ++round) {
        api::SnapshotHandle snap{};
        if (explicit_snap) {
          auto s = arr.open_snapshot();
          ASSERT_TRUE(static_cast<bool>(s));
          snap = *s;
        }
        auto it = arr.kvs_open_iterator(prefix,
                                        explicit_snap ? &snap : nullptr);
        ASSERT_TRUE(static_cast<bool>(it));
        std::vector<Bytes> keys;
        bool expired = false;
        for (;;) {
          std::vector<Bytes> batch;
          const Status s = arr.kvs_iterator_next(*it, 17, &batch);
          for (auto& k : batch) keys.push_back(std::move(k));
          if (s == Status::kNotFound) break;
          if (s == Status::kSnapshotTooOld) {
            expired = true;
            break;
          }
          ASSERT_EQ(s, Status::kOk);
        }
        if (explicit_snap && !expired) {
          // Cut check: every listed key must read back untorn at the
          // same snapshot.
          for (const Bytes& key : keys) {
            Bytes v;
            const Status s = arr.read_at(snap, key, &v);
            if (s == Status::kSnapshotTooOld) {
              expired = true;
              break;
            }
            ASSERT_EQ(s, Status::kOk)
                << "iterator listed a key read_at cannot see";
            EXPECT_TRUE(untorn(id_of(key), v)) << "torn value under churn";
          }
        }
        EXPECT_EQ(arr.kvs_close_iterator(*it), Status::kOk);
        if (explicit_snap) arr.release_snapshot(snap);
        (expired ? scans_expired : scans_completed).fetch_add(1);
      }
    });
  }

  for (auto& t : scanners) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : churners) t.join();
  arr.drain();

  // The churn must not have been able to expire every scan: defaults
  // give the retention budget room for this working set.
  EXPECT_GT(scans_completed.load(), 0u);

  // Quiesced array is intact: every surviving key reads untorn.
  Bytes v;
  for (std::uint64_t id = 0; id < kKeyspace; ++id) {
    const Status s = arr.get(workload::key_for_id(id, 16), &v);
    if (ok(s)) {
      EXPECT_TRUE(untorn(id, v)) << "key id " << id;
    }
  }
  // No leaked pins: scanners released everything they opened.
  EXPECT_EQ(arr.snapshots().registry.open_pins(), 0u);
}

}  // namespace
}  // namespace rhik::shard
