// Async submission-path semantics: value-carrying get completions,
// exactly-once delivery through the batch sink, sync/async status
// parity, and the index-aware (bucket-grouped) batch drain returning
// results identical to the strictly serial drain.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "index/rhik/rhik_index.hpp"
#include "kvssd/device.hpp"
#include "workload/keygen.hpp"

namespace rhik::kvssd {
namespace {

DeviceConfig small_config(bool grouped = true) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(256);  // 16 MiB
  cfg.dram_cache_bytes = 64 * 1024;
  cfg.batch_drain_grouping = grouped;
  return cfg;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }
Bytes owned(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(AsyncDrain, GetCallbackCarriesValue) {
  KvssdDevice dev(small_config());
  ASSERT_EQ(dev.put(key("alpha"), key("value-one")), Status::kOk);
  ASSERT_EQ(dev.put(key("beta"), key("value-two")), Status::kOk);

  std::vector<api::TaggedCompletion> done;
  dev.set_completion_sink([&](std::vector<api::TaggedCompletion>&& batch) {
    for (auto& c : batch) done.push_back(std::move(c));
  });
  dev.submit({api::Command::Op::kGet, 1, owned("alpha"), {}});
  dev.submit({api::Command::Op::kGet, 2, owned("beta"), {}});
  dev.submit({api::Command::Op::kGet, 3, owned("missing"), {}});
  EXPECT_EQ(dev.drain(), 3u);
  ASSERT_EQ(done.size(), 3u);
  for (const auto& c : done) {
    EXPECT_EQ(c.op, api::Command::Op::kGet);
    switch (c.tag) {
      case 1:
        EXPECT_EQ(c.status, Status::kOk);
        EXPECT_EQ(c.value, owned("value-one"));
        EXPECT_EQ(c.key, owned("alpha"));
        break;
      case 2:
        EXPECT_EQ(c.status, Status::kOk);
        EXPECT_EQ(c.value, owned("value-two"));
        break;
      default:
        EXPECT_EQ(c.tag, 3u);
        EXPECT_EQ(c.status, Status::kNotFound);
        EXPECT_TRUE(c.value.empty());
    }
  }
}

/// Deterministic randomized mixed workload: op kind + key id + value.
struct MixedOp {
  enum class Kind { kPut, kGet, kDel } kind;
  std::uint64_t id;
};

std::vector<MixedOp> make_workload(std::uint64_t seed, std::size_t n,
                                   std::uint64_t keyspace) {
  Rng rng(seed);
  std::vector<MixedOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t roll = rng.next_below(10);
    MixedOp op;
    op.kind = roll < 5   ? MixedOp::Kind::kPut
              : roll < 8 ? MixedOp::Kind::kGet
                         : MixedOp::Kind::kDel;
    op.id = rng.next_below(keyspace);
    ops.push_back(op);
  }
  return ops;
}

Bytes value_for(std::uint64_t id) {
  Bytes v(48);
  workload::fill_value(id, v);
  return v;
}

/// Runs the workload synchronously; returns per-op (status, value).
std::vector<std::pair<Status, Bytes>> run_sync(KvssdDevice& dev,
                                               const std::vector<MixedOp>& ops) {
  std::vector<std::pair<Status, Bytes>> out;
  out.reserve(ops.size());
  for (const MixedOp& op : ops) {
    const Bytes k = workload::key_for_id(op.id, 16);
    switch (op.kind) {
      case MixedOp::Kind::kPut:
        out.emplace_back(dev.put(k, value_for(op.id)), Bytes{});
        break;
      case MixedOp::Kind::kGet: {
        Bytes v;
        const Status s = dev.get(k, &v);
        out.emplace_back(s, std::move(v));
        break;
      }
      case MixedOp::Kind::kDel:
        out.emplace_back(dev.del(k), Bytes{});
        break;
    }
  }
  return out;
}

/// Runs the workload through the async queue (drained every
/// `batch` submissions, tag = op index); returns per-op (status, value)
/// plus a per-op completion count so exactly-once delivery is checkable.
std::vector<std::pair<Status, Bytes>> run_async(
    KvssdDevice& dev, const std::vector<MixedOp>& ops, std::size_t batch,
    std::vector<int>* fire_counts) {
  std::vector<std::pair<Status, Bytes>> out(ops.size(),
                                            {Status::kBusy, Bytes{}});
  fire_counts->assign(ops.size(), 0);
  dev.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    for (api::TaggedCompletion& c : done) {
      out[c.tag] = {c.status, std::move(c.value)};
      (*fire_counts)[c.tag]++;
    }
  });
  std::size_t queued = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const MixedOp& op = ops[i];
    api::Command cmd;
    cmd.tag = i;
    cmd.key = workload::key_for_id(op.id, 16);
    switch (op.kind) {
      case MixedOp::Kind::kPut:
        cmd.op = api::Command::Op::kPut;
        cmd.value = value_for(op.id);
        break;
      case MixedOp::Kind::kGet:
        cmd.op = api::Command::Op::kGet;
        break;
      case MixedOp::Kind::kDel:
        cmd.op = api::Command::Op::kDel;
        break;
    }
    dev.submit(std::move(cmd));
    if (++queued % batch == 0) dev.drain();
  }
  dev.drain();
  dev.set_completion_sink({});
  return out;
}

TEST(AsyncDrain, CallbacksFireOnceAndMatchSyncPath) {
  const auto ops = make_workload(/*seed=*/7, /*n=*/600, /*keyspace=*/80);

  KvssdDevice sync_dev(small_config());
  KvssdDevice async_dev(small_config());
  const auto expect = run_sync(sync_dev, ops);
  std::vector<int> fires;
  const auto got = run_async(async_dev, ops, /*batch=*/48, &fires);

  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(fires[i], 1) << "op " << i;
    EXPECT_EQ(got[i].first, expect[i].first) << "op " << i;
    EXPECT_EQ(got[i].second, expect[i].second) << "op " << i;
  }
  EXPECT_EQ(async_dev.key_count(), sync_dev.key_count());
}

TEST(AsyncDrain, GroupedDrainMatchesSerialDrain) {
  const auto ops = make_workload(/*seed=*/23, /*n=*/800, /*keyspace=*/120);

  KvssdDevice serial_dev(small_config(/*grouped=*/false));
  KvssdDevice grouped_dev(small_config(/*grouped=*/true));
  std::vector<int> serial_fires, grouped_fires;
  const auto serial = run_async(serial_dev, ops, /*batch=*/64, &serial_fires);
  const auto grouped = run_async(grouped_dev, ops, /*batch=*/64, &grouped_fires);

  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(grouped_fires[i], 1) << "op " << i;
    EXPECT_EQ(grouped[i].first, serial[i].first) << "op " << i;
    EXPECT_EQ(grouped[i].second, serial[i].second) << "op " << i;
  }
  EXPECT_EQ(grouped_dev.key_count(), serial_dev.key_count());
}

TEST(AsyncDrain, GroupingReducesIndexFlashReadsUnderCachePressure) {
  // Keyspace large enough that the RHIK directory holds many more record
  // pages than the cache (2 pages) can keep resident; random get order
  // then misses on nearly every op unless the drain groups by bucket.
  DeviceConfig cfg = small_config(/*grouped=*/false);
  cfg.dram_cache_bytes = 2 * cfg.geometry.page_size;
  constexpr std::uint64_t kKeys = 4000;
  constexpr std::size_t kGets = 2048;

  const auto run = [&](bool grouped) -> std::uint64_t {
    cfg.batch_drain_grouping = grouped;
    KvssdDevice dev(cfg);
    Bytes v(32);
    for (std::uint64_t id = 0; id < kKeys; ++id) {
      workload::fill_value(id, v);
      EXPECT_EQ(dev.put(workload::key_for_id(id, 16), v), Status::kOk);
    }
    dev.index().reset_op_stats();
    dev.set_completion_sink([](std::vector<api::TaggedCompletion>&& done) {
      for (const auto& c : done) EXPECT_EQ(c.status, Status::kOk);
    });
    Rng rng(99);  // same draw sequence for both devices
    for (std::size_t i = 0; i < kGets; ++i) {
      dev.submit({api::Command::Op::kGet, i,
                  workload::key_for_id(rng.next_below(kKeys), 16), {}});
    }
    EXPECT_EQ(dev.drain(), kGets);
    return dev.index().op_stats().flash_reads;
  };

  const std::uint64_t serial_reads = run(false);
  const std::uint64_t grouped_reads = run(true);
  // The whole batch is queued before one drain, so grouping loads each
  // bucket's record page about once while serial order thrashes.
  EXPECT_LT(grouped_reads * 2, serial_reads);
}

TEST(AsyncDrain, CallbackResubmissionDrainsInSameCall) {
  KvssdDevice dev(small_config());
  int second_fired = 0;
  dev.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    for (const auto& c : done) {
      EXPECT_EQ(c.status, Status::kOk);
      if (c.op == api::Command::Op::kPut) {
        // Follow-up submitted from the sink: the same drain() runs it.
        dev.submit({api::Command::Op::kGet, 2, owned("chain"), {}});
      } else {
        EXPECT_EQ(rhik::to_string(c.value), "v1");
        ++second_fired;
      }
    }
  });
  dev.submit({api::Command::Op::kPut, 1, owned("chain"), owned("v1")});
  EXPECT_EQ(dev.drain(), 2u);
  EXPECT_EQ(second_fired, 1);
}

}  // namespace
}  // namespace rhik::kvssd
