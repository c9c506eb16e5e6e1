// Tests for the SNIA-style host API wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/kvs.hpp"

namespace rhik::api {
namespace {

KvsDeviceOptions small_opts() {
  KvsDeviceOptions opts;
  opts.capacity_bytes = 64ull << 20;  // 64 MiB emulated device
  opts.dram_cache_bytes = 1 << 20;
  return opts;
}

/// Streams a whole prefix through the handle iterator.
KvsResult scan(KvsDevice& dev, std::string_view prefix,
               std::vector<std::string>* keys_out) {
  std::uint64_t it = 0;
  if (const KvsResult r = dev.kvs_open_iterator(prefix, &it);
      r != KvsResult::KVS_SUCCESS) {
    return r;
  }
  keys_out->clear();
  std::vector<std::string> batch;
  KvsResult r;
  while ((r = dev.kvs_iterator_next(it, 16, &batch)) ==
         KvsResult::KVS_SUCCESS) {
    keys_out->insert(keys_out->end(), batch.begin(), batch.end());
  }
  (void)dev.kvs_close_iterator(it);
  return r == KvsResult::KVS_ERR_KEY_NOT_EXIST ? KvsResult::KVS_SUCCESS : r;
}

TEST(KvsApi, StatusMappingExhaustive) {
  // Every Status has a deliberate KvsResult; a new Status enumerator
  // must be added here (and to from_status) or this table goes stale.
  const struct {
    Status in;
    KvsResult want;
  } kTable[] = {
      {Status::kOk, KvsResult::KVS_SUCCESS},
      {Status::kNotFound, KvsResult::KVS_ERR_KEY_NOT_EXIST},
      {Status::kAlreadyExists, KvsResult::KVS_ERR_OPTION_INVALID},
      {Status::kDeviceFull, KvsResult::KVS_ERR_CONT_FULL},
      {Status::kIndexFull, KvsResult::KVS_ERR_CONT_FULL},
      {Status::kCollisionAbort, KvsResult::KVS_ERR_UNCORRECTIBLE},
      {Status::kInvalidArgument, KvsResult::KVS_ERR_KEY_LENGTH_INVALID},
      {Status::kCorruption, KvsResult::KVS_ERR_SYS_IO},
      {Status::kIoError, KvsResult::KVS_ERR_SYS_IO},
      {Status::kBusy, KvsResult::KVS_ERR_DEV_BUSY},
      {Status::kUnsupported, KvsResult::KVS_ERR_ITERATOR_NOT_SUPPORTED},
      {Status::kQueueFull, KvsResult::KVS_ERR_QUEUE_FULL},
      {Status::kIteratorMax, KvsResult::KVS_ERR_ITERATOR_MAX},
      {Status::kSnapshotTooOld, KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD},
  };
  for (const auto& row : kTable) {
    EXPECT_EQ(from_status(row.in), row.want)
        << "status " << static_cast<int>(row.in);
  }
}

TEST(KvsApi, ResultStringsExhaustive) {
  const KvsResult kAll[] = {
      KvsResult::KVS_SUCCESS,
      KvsResult::KVS_ERR_KEY_NOT_EXIST,
      KvsResult::KVS_ERR_KEY_LENGTH_INVALID,
      KvsResult::KVS_ERR_VALUE_LENGTH_INVALID,
      KvsResult::KVS_ERR_CONT_FULL,
      KvsResult::KVS_ERR_UNCORRECTIBLE,
      KvsResult::KVS_ERR_DEV_BUSY,
      KvsResult::KVS_ERR_SYS_IO,
      KvsResult::KVS_ERR_OPTION_INVALID,
      KvsResult::KVS_ERR_ITERATOR_NOT_SUPPORTED,
      KvsResult::KVS_ERR_QUEUE_FULL,
      KvsResult::KVS_ERR_ITERATOR_MAX,
      KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD,
  };
  std::set<std::string> seen;
  for (const KvsResult r : kAll) {
    const char* s = to_string(r);
    ASSERT_NE(s, nullptr);
    EXPECT_STRNE(s, "KVS_ERR_UNKNOWN") << static_cast<int>(r);
    EXPECT_TRUE(seen.insert(s).second) << "duplicate string " << s;
  }
  EXPECT_STREQ(to_string(KvsResult::KVS_SUCCESS), "KVS_SUCCESS");
  EXPECT_STREQ(to_string(KvsResult::KVS_ERR_KEY_NOT_EXIST),
               "KVS_ERR_KEY_NOT_EXIST");
  EXPECT_STREQ(to_string(KvsResult::KVS_ERR_QUEUE_FULL),
               "KVS_ERR_QUEUE_FULL");
  EXPECT_STREQ(to_string(KvsResult::KVS_ERR_ITERATOR_MAX),
               "KVS_ERR_ITERATOR_MAX");
  EXPECT_STREQ(to_string(KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD),
               "KVS_ERR_SNAPSHOT_TOO_OLD");
}

TEST(KvsApi, StoreRetrieveRemove) {
  KvsDevice dev(small_opts());
  EXPECT_EQ(dev.store("user:1", "alice"), KvsResult::KVS_SUCCESS);
  Bytes value;
  EXPECT_EQ(dev.retrieve("user:1", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(value), "alice");
  EXPECT_EQ(dev.exist("user:1"), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(dev.remove("user:1"), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(dev.retrieve("user:1", &value), KvsResult::KVS_ERR_KEY_NOT_EXIST);
  EXPECT_EQ(dev.exist("user:1"), KvsResult::KVS_ERR_KEY_NOT_EXIST);
}

TEST(KvsApi, InvalidKeyRejected) {
  KvsDevice dev(small_opts());
  EXPECT_EQ(dev.store("", "v"), KvsResult::KVS_ERR_KEY_LENGTH_INVALID);
}

TEST(KvsApi, IteratorDisabledAtOpenIsOptionInvalid) {
  // The array *could* iterate, the caller just didn't ask for it at
  // open — a missing option, not a missing capability.
  KvsDeviceOptions opts = small_opts();
  opts.capacity_bytes = 512ull << 20;  // 32 8-MiB blocks per shard
  opts.num_shards = 2;
  KvsDevice dev(opts);
  std::vector<std::string> keys;
  EXPECT_EQ(scan(dev, "user", &keys), KvsResult::KVS_ERR_OPTION_INVALID);
}

TEST(KvsApi, IteratorEnumeratesPrefix) {
  KvsDeviceOptions opts = small_opts();
  opts.enable_iterator = true;
  KvsDevice dev(opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(dev.store("sess:" + std::to_string(i), "s"), KvsResult::KVS_SUCCESS);
    ASSERT_EQ(dev.store("blob:" + std::to_string(i), "b"), KvsResult::KVS_SUCCESS);
  }
  std::vector<std::string> keys;
  ASSERT_EQ(scan(dev, "sess", &keys), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(keys.size(), 10u);
  for (const auto& k : keys) EXPECT_EQ(k.substr(0, 5), "sess:");
}

TEST(KvsApi, MlHashBackendSelectable) {
  KvsDeviceOptions opts = small_opts();
  opts.use_rhik = false;
  opts.anticipated_keys = 10000;
  KvsDevice dev(opts);
  EXPECT_EQ(dev.store("a", "1"), KvsResult::KVS_SUCCESS);
  Bytes value;
  EXPECT_EQ(dev.retrieve("a", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(value), "1");
}

TEST(KvsApi, AnticipatedKeysSizesRhik) {
  KvsDeviceOptions opts = small_opts();
  opts.anticipated_keys = 100000;
  KvsDevice dev(opts);
  // Eq. 2: 100000 keys / (32768/17 = 1927 records per 32 KiB page) ->
  // 52 pages -> 64 directory entries.
  EXPECT_GE(dev.metrics_snapshot().gauge("index.capacity"), 100000);
}

TEST(KvsApi, IntrospectionWithoutRawDevice) {
  KvsDevice dev(small_opts());
  ASSERT_EQ(dev.store("x", "y"), KvsResult::KVS_SUCCESS);
  const auto snap = dev.metrics_snapshot();
  EXPECT_EQ(snap.gauge("device.key_count"), 1);
  EXPECT_GT(snap.gauge("clock.now_ns"), 0);
  EXPECT_EQ(snap.counter("device.puts"), 1u);
}

TEST(KvsApi, ShardedIterateMergesShards) {
  KvsDeviceOptions opts = small_opts();
  opts.capacity_bytes = 1ull << 30;  // 32 8-MiB blocks per shard
  opts.enable_iterator = true;
  opts.num_shards = 4;
  KvsDevice dev(opts);
  ASSERT_TRUE(dev.sharded());
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(dev.store("sess:" + std::to_string(i), "s"),
              KvsResult::KVS_SUCCESS);
    ASSERT_EQ(dev.store("blob:" + std::to_string(i), "b"),
              KvsResult::KVS_SUCCESS);
  }
  std::vector<std::string> keys;
  ASSERT_EQ(scan(dev, "sess", &keys), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(keys.size(), 32u);
  for (const auto& k : keys) EXPECT_EQ(k.substr(0, 5), "sess:");
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(), 32u);
}

TEST(KvsApi, AsyncStoreRetrievePoll) {
  KvsDevice dev(small_opts());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(dev.store_async("k" + std::to_string(i),
                                  "v" + std::to_string(i)));
  }
  std::vector<KvsCompletion> done;
  while (done.size() < ids.size()) {
    ASSERT_GT(dev.poll_completions(&done), 0u);
  }
  ASSERT_EQ(done.size(), ids.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].id, ids[i]);  // single device completes in order
    EXPECT_EQ(done[i].op, KvsCompletion::Op::kStore);
    EXPECT_EQ(done[i].result, KvsResult::KVS_SUCCESS);
  }

  const std::uint64_t gid = dev.retrieve_async("k3");
  const std::uint64_t did = dev.remove_async("k5");
  done.clear();
  while (done.size() < 2) ASSERT_GT(dev.poll_completions(&done), 0u);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, gid);
  EXPECT_EQ(done[0].op, KvsCompletion::Op::kRetrieve);
  EXPECT_EQ(done[0].result, KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(done[0].value), "v3");
  EXPECT_EQ(done[1].id, did);
  EXPECT_EQ(done[1].op, KvsCompletion::Op::kRemove);
  EXPECT_EQ(done[1].result, KvsResult::KVS_SUCCESS);
  Bytes gone;
  EXPECT_EQ(dev.retrieve("k5", &gone), KvsResult::KVS_ERR_KEY_NOT_EXIST);
}

TEST(KvsApi, AsyncOnShardedArray) {
  KvsDeviceOptions opts = small_opts();
  opts.capacity_bytes = 512ull << 20;  // 32 8-MiB blocks per shard
  opts.num_shards = 2;
  KvsDevice dev(opts);
  std::set<std::uint64_t> pending;
  for (int i = 0; i < 16; ++i) {
    pending.insert(dev.store_async("k" + std::to_string(i), "v"));
  }
  std::vector<KvsCompletion> done;
  while (done.size() < 16) dev.poll_completions(&done);
  for (const auto& c : done) {
    EXPECT_EQ(c.result, KvsResult::KVS_SUCCESS);
    EXPECT_EQ(pending.erase(c.id), 1u);
  }
  EXPECT_TRUE(pending.empty());
}

TEST(KvsApi, CheckpointDisabledIsOptionInvalid) {
  KvsDevice dev(small_opts());
  EXPECT_EQ(dev.checkpoint(), KvsResult::KVS_ERR_OPTION_INVALID);
}

TEST(KvsApi, CheckpointRestartRoundTrip) {
  KvsDeviceOptions opts = small_opts();
  // The checkpoint tail reserves 4 of the device's 8-MiB blocks; leave
  // plenty for data + GC headroom.
  opts.capacity_bytes = 512ull << 20;
  opts.enable_checkpoints = true;
  KvsDevice dev(opts);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(dev.store("k" + std::to_string(i), "v" + std::to_string(i)),
              KvsResult::KVS_SUCCESS);
  }
  ASSERT_EQ(dev.checkpoint(), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.recover(), KvsResult::KVS_SUCCESS);
  const auto snap = dev.metrics_snapshot();
  EXPECT_EQ(snap.counter("recovery.checkpoint_restored"), 1u);
  EXPECT_EQ(snap.counter("recovery.full_scan_fallback"), 0u);
  for (int i = 0; i < 200; ++i) {
    Bytes value;
    ASSERT_EQ(dev.retrieve("k" + std::to_string(i), &value),
              KvsResult::KVS_SUCCESS);
    EXPECT_EQ(rhik::to_string(value), "v" + std::to_string(i));
  }
}

TEST(KvsApi, CheckpointRestartRoundTripSharded) {
  KvsDeviceOptions opts = small_opts();
  opts.capacity_bytes = 1ull << 30;  // each shard reserves its own ckpt tail
  opts.enable_checkpoints = true;
  opts.num_shards = 2;
  KvsDevice dev(opts);
  ASSERT_TRUE(dev.sharded());
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(dev.store("k" + std::to_string(i), "v" + std::to_string(i)),
              KvsResult::KVS_SUCCESS);
  }
  ASSERT_EQ(dev.checkpoint(), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.recover(), KvsResult::KVS_SUCCESS);
  const auto snap = dev.metrics_snapshot();
  // Merged across both shards.
  EXPECT_EQ(snap.counter("recovery.checkpoint_restored"), 2u);
  EXPECT_EQ(snap.counter("recovery.full_scan_fallback"), 0u);
  for (int i = 0; i < 200; ++i) {
    Bytes value;
    ASSERT_EQ(dev.retrieve("k" + std::to_string(i), &value),
              KvsResult::KVS_SUCCESS);
    EXPECT_EQ(rhik::to_string(value), "v" + std::to_string(i));
  }
}

// -- MVCC snapshots + handle iterators (DESIGN.md §13) -------------------------

TEST(KvsApiSnapshot, RetrieveAtSeesPinnedVersions) {
  KvsDevice dev(small_opts());
  ASSERT_EQ(dev.store("k", "old"), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.store("doomed", "d"), KvsResult::KVS_SUCCESS);
  SnapshotHandle snap;
  ASSERT_EQ(dev.open_snapshot(&snap), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.store("k", "new"), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.remove("doomed"), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.store("later", "l"), KvsResult::KVS_SUCCESS);

  Bytes value;
  EXPECT_EQ(dev.retrieve_at(snap, "k", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(value), "old");
  EXPECT_EQ(dev.retrieve_at(snap, "doomed", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(value), "d");
  // A key born after the pin is invisible at the pinned epoch.
  EXPECT_EQ(dev.retrieve_at(snap, "later", &value),
            KvsResult::KVS_ERR_KEY_NOT_EXIST);
  // Live reads are unaffected by the pin.
  EXPECT_EQ(dev.retrieve("k", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(value), "new");
  EXPECT_EQ(dev.retrieve("doomed", &value), KvsResult::KVS_ERR_KEY_NOT_EXIST);

  ASSERT_EQ(dev.release_snapshot(snap), KvsResult::KVS_SUCCESS);
  // A released pin is a stale handle, not a live view.
  EXPECT_EQ(dev.retrieve_at(snap, "k", &value),
            KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD);
}

TEST(KvsApiSnapshot, HandleIteratorStreamsInBatches) {
  KvsDeviceOptions opts = small_opts();
  opts.enable_iterator = true;
  KvsDevice dev(opts);
  std::vector<std::string> expect;
  for (int i = 0; i < 50; ++i) {
    const std::string k = "scan:" + std::to_string(i);
    ASSERT_EQ(dev.store(k, "v"), KvsResult::KVS_SUCCESS);
    expect.push_back(k);
  }
  std::uint64_t it = 0;
  ASSERT_EQ(dev.kvs_open_iterator("scan", &it), KvsResult::KVS_SUCCESS);
  std::vector<std::string> got;
  std::vector<std::string> batch;
  KvsResult r;
  while ((r = dev.kvs_iterator_next(it, 7, &batch)) ==
         KvsResult::KVS_SUCCESS) {
    EXPECT_LE(batch.size(), 7u);
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(r, KvsResult::KVS_ERR_KEY_NOT_EXIST);  // exhaustion, not error
  ASSERT_EQ(dev.kvs_close_iterator(it), KvsResult::KVS_SUCCESS);
  // A closed handle is dead.
  EXPECT_NE(dev.kvs_iterator_next(it, 7, &batch), KvsResult::KVS_SUCCESS);
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
}

TEST(KvsApiSnapshot, OpenIteratorWithoutOptionIsOptionInvalid) {
  KvsDevice dev(small_opts());
  std::uint64_t it = 0;
  EXPECT_EQ(dev.kvs_open_iterator("p", &it), KvsResult::KVS_ERR_OPTION_INVALID);
}

TEST(KvsApiSnapshot, SnapshotBoundIteratorIgnoresLaterChurn) {
  KvsDeviceOptions opts = small_opts();
  opts.enable_iterator = true;
  KvsDevice dev(opts);
  std::vector<std::string> expect;
  for (int i = 0; i < 16; ++i) {
    const std::string k = "pin:" + std::to_string(i);
    ASSERT_EQ(dev.store(k, "v0"), KvsResult::KVS_SUCCESS);
    expect.push_back(k);
  }
  SnapshotHandle snap;
  ASSERT_EQ(dev.open_snapshot(&snap), KvsResult::KVS_SUCCESS);
  std::uint64_t it = 0;
  ASSERT_EQ(dev.kvs_open_iterator("pin:", &it, &snap), KvsResult::KVS_SUCCESS);
  // Churn after the pin: new keys, overwrites, a delete. None of it may
  // leak into the pinned scan.
  for (int i = 16; i < 32; ++i) {
    ASSERT_EQ(dev.store("pin:" + std::to_string(i), "late"),
              KvsResult::KVS_SUCCESS);
  }
  ASSERT_EQ(dev.store("pin:0", "v1"), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.remove("pin:1"), KvsResult::KVS_SUCCESS);

  std::vector<std::string> got;
  std::vector<std::string> batch;
  KvsResult r;
  while ((r = dev.kvs_iterator_next(it, 5, &batch)) == KvsResult::KVS_SUCCESS) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(r, KvsResult::KVS_ERR_KEY_NOT_EXIST);
  ASSERT_EQ(dev.kvs_close_iterator(it), KvsResult::KVS_SUCCESS);
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
  // Closing a caller-pinned iterator must NOT release the caller's
  // snapshot — it is still readable.
  Bytes value;
  EXPECT_EQ(dev.retrieve_at(snap, "pin:1", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(value), "v0");
  ASSERT_EQ(dev.release_snapshot(snap), KvsResult::KVS_SUCCESS);
}

TEST(KvsApiSnapshot, ShardedSnapshotIsOneConsistentCut) {
  KvsDeviceOptions opts = small_opts();
  opts.capacity_bytes = 1ull << 30;
  opts.enable_iterator = true;
  opts.num_shards = 4;
  KvsDevice dev(opts);
  ASSERT_TRUE(dev.sharded());
  std::vector<std::string> expect;
  for (int i = 0; i < 32; ++i) {
    const std::string k = "cut:" + std::to_string(i);
    ASSERT_EQ(dev.store(k, "before"), KvsResult::KVS_SUCCESS);
    expect.push_back(k);
  }
  SnapshotHandle snap;
  ASSERT_EQ(dev.open_snapshot(&snap), KvsResult::KVS_SUCCESS);
  // Overwrite everything and add more, hitting every shard.
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(dev.store("cut:" + std::to_string(i), "after"),
              KvsResult::KVS_SUCCESS);
  }
  // Point reads at the pin return the pre-churn values on every shard.
  for (int i = 0; i < 32; ++i) {
    Bytes value;
    ASSERT_EQ(dev.retrieve_at(snap, "cut:" + std::to_string(i), &value),
              KvsResult::KVS_SUCCESS);
    EXPECT_EQ(rhik::to_string(value), "before") << i;
  }
  Bytes value;
  EXPECT_EQ(dev.retrieve_at(snap, "cut:40", &value),
            KvsResult::KVS_ERR_KEY_NOT_EXIST);
  // A pinned scan sees exactly the 32 pre-churn keys.
  std::uint64_t it = 0;
  ASSERT_EQ(dev.kvs_open_iterator("cut:", &it, &snap), KvsResult::KVS_SUCCESS);
  std::vector<std::string> got;
  std::vector<std::string> batch;
  KvsResult r;
  while ((r = dev.kvs_iterator_next(it, 9, &batch)) == KvsResult::KVS_SUCCESS) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(r, KvsResult::KVS_ERR_KEY_NOT_EXIST);
  ASSERT_EQ(dev.kvs_close_iterator(it), KvsResult::KVS_SUCCESS);
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
  ASSERT_EQ(dev.release_snapshot(snap), KvsResult::KVS_SUCCESS);
}

TEST(KvsApiSnapshot, RetentionBudgetExpiresOldestPin) {
  KvsDeviceOptions opts = small_opts();
  opts.snapshot_retention_bytes = 4096;  // two overwritten values bust it
  KvsDevice dev(opts);
  const std::string big(2048, 'x');
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(dev.store("hot" + std::to_string(i), big), KvsResult::KVS_SUCCESS);
  }
  SnapshotHandle snap;
  ASSERT_EQ(dev.open_snapshot(&snap), KvsResult::KVS_SUCCESS);
  // Overwrite the pinned versions: each dead version is retained for the
  // pin until the budget trips and expires it. (Overwriting one key
  // repeatedly would retain only its first dead version: the later ones
  // are stamped after the pin, which cannot read them.)
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(dev.store("hot" + std::to_string(i), big), KvsResult::KVS_SUCCESS);
  }
  Bytes value;
  EXPECT_EQ(dev.retrieve_at(snap, "hot0", &value),
            KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD);
  // Expired is still released normally; a fresh pin works again.
  EXPECT_EQ(dev.release_snapshot(snap), KvsResult::KVS_SUCCESS);
  SnapshotHandle fresh;
  ASSERT_EQ(dev.open_snapshot(&fresh), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(dev.retrieve_at(fresh, "hot0", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(dev.release_snapshot(fresh), KvsResult::KVS_SUCCESS);
}

TEST(KvsApiSnapshot, PinDroppedAcrossPowerCycleErrorsNotTears) {
  KvsDevice dev(small_opts());
  ASSERT_EQ(dev.store("k", "v"), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.flush(), KvsResult::KVS_SUCCESS);
  SnapshotHandle snap;
  ASSERT_EQ(dev.open_snapshot(&snap), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.recover(), KvsResult::KVS_SUCCESS);
  // Pins are in-memory state: the handle did not survive the power
  // cycle, and even if its pin id gets recycled the epoch cross-check
  // rejects it — an error, never a view at the wrong epoch.
  Bytes value;
  EXPECT_EQ(dev.retrieve_at(snap, "k", &value),
            KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD);
  EXPECT_EQ(dev.retrieve("k", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(value), "v");
}

TEST(KvsApi, RecoverWithoutCheckpointFallsBackToScan) {
  KvsDevice dev(small_opts());
  ASSERT_EQ(dev.store("a", "1"), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.flush(), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(dev.recover(), KvsResult::KVS_SUCCESS);
  const auto snap = dev.metrics_snapshot();
  EXPECT_EQ(snap.counter("recovery.full_scan_fallback"), 1u);
  EXPECT_EQ(snap.counter("recovery.checkpoint_restored"), 0u);
  Bytes value;
  EXPECT_EQ(dev.retrieve("a", &value), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(value), "1");
}

}  // namespace
}  // namespace rhik::api
