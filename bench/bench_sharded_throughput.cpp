// Sharded multi-device front-end scaling and index-aware batch drain.
//
// Part A: fixed-size array (capacity and DRAM split evenly) opened with
// 1/2/4/8 shards, driven with read-heavy and write-heavy async mixes.
// Two throughput figures per cell:
//   - wall clock: host ops/s. One worker thread per shard, so this
//     scales only with physical cores (on a 1-core host it stays flat).
//   - device clock: array ops/s on simulated time, where array time is
//     the MAX across shard clocks — shards are independent devices
//     advancing concurrently, so this is the whole-array throughput an
//     N-device deployment delivers.
// Part B: a single device under a skewed (zipfian) async read burst with
// a small index cache, drained with bucket-grouping off vs on; reports
// index flash reads per op for both orders.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "shard/sharded_kvssd.hpp"
#include "workload/keygen.hpp"

using namespace rhik;

namespace {

// -- Part A -------------------------------------------------------------------

constexpr std::uint64_t kArrayCapacity = 256ull << 20;  // whole array
constexpr std::uint64_t kArrayDram = 4ull << 20;
constexpr std::uint64_t kKeys = 20'000;
constexpr std::uint64_t kOps = 60'000;
constexpr std::uint32_t kValueSize = 1024;
constexpr std::size_t kDrainEvery = 512;

struct Throughput {
  double wall_mops = 0;  // host ops/s (millions)
  double sim_mops = 0;   // simulated array ops/s (millions)
};

shard::ShardedConfig make_array_config(std::uint32_t shards) {
  shard::ShardedConfig sc;
  sc.num_shards = shards;
  sc.device.geometry = bench::scaled_geometry(kArrayCapacity / shards);
  sc.device.dram_cache_bytes = kArrayDram / shards;
  sc.device.index_kind = kvssd::IndexKind::kRhik;
  sc.device.rhik.anticipated_keys = kKeys / shards;
  return sc;
}

Throughput run_mix(std::uint32_t shards, unsigned get_pct,
                   obs::MetricsSnapshot* snap_out = nullptr) {
  shard::ShardedKvssd arr(make_array_config(shards));

  // Completions cross from the shard workers in whole drained batches,
  // one sink call per batch.
  std::atomic<std::uint64_t> completed{0};
  arr.set_completion_sink(
      [&completed](std::vector<api::TaggedCompletion>&& batch) {
        completed.fetch_add(batch.size(), std::memory_order_relaxed);
      });

  Bytes value(kValueSize);
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    workload::fill_value(id, value);
    arr.submit(
        {api::Command::Op::kPut, id, workload::key_for_id(id, 16), value});
    if (id % kDrainEvery == 0) arr.drain();
  }
  arr.drain();

  Rng rng(42);
  const SimTime sim0 = arr.sim_time();
  const auto wall0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t id = rng.next_below(kKeys);
    if (rng.next_below(100) < get_pct) {
      arr.submit({api::Command::Op::kGet, i, workload::key_for_id(id, 16), {}});
    } else {
      workload::fill_value(id, value);
      arr.submit(
          {api::Command::Op::kPut, i, workload::key_for_id(id, 16), value});
    }
    if (i % kDrainEvery == 0) arr.drain();
  }
  arr.drain();
  const auto wall1 = std::chrono::steady_clock::now();
  const SimTime sim1 = arr.sim_time();

  if (snap_out) *snap_out = arr.metrics_snapshot();

  Throughput t;
  const double wall_s =
      std::chrono::duration<double>(wall1 - wall0).count();
  const double sim_s = static_cast<double>(sim1 - sim0) / 1e9;
  if (wall_s > 0) t.wall_mops = kOps / wall_s / 1e6;
  if (sim_s > 0) t.sim_mops = kOps / sim_s / 1e6;
  return t;
}

// -- Part B -------------------------------------------------------------------

constexpr std::uint64_t kDrainKeys = 40'000;
constexpr std::size_t kDrainBatch = 4096;

/// Queues one large zipfian get burst and drains it once; returns index
/// flash reads per op.
double run_drain(bool grouped) {
  kvssd::DeviceConfig cfg;
  cfg.geometry = bench::scaled_geometry(256ull << 20);
  cfg.dram_cache_bytes = 4 * cfg.geometry.page_size;  // 4-page index cache
  cfg.rhik.anticipated_keys = kDrainKeys;
  cfg.batch_drain_grouping = grouped;
  kvssd::KvssdDevice dev(cfg);
  bench::load_keys(dev, kDrainKeys, 256);

  workload::KeyIdStream ids(workload::KeyPattern::kZipfian, kDrainKeys,
                            /*seed=*/7);
  dev.index().reset_op_stats();
  for (std::size_t i = 0; i < kDrainBatch; ++i) {
    dev.submit(
        {api::Command::Op::kGet, i, workload::key_for_id(ids.next(), 16), {}});
  }
  dev.drain();
  return static_cast<double>(dev.index().op_stats().flash_reads) / kDrainBatch;
}

}  // namespace

int main() {
  bench::heading("Sharded array scaling + index-aware batch drain",
                 "multi-device front-end (§II-A array deployments)");

  const std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};
  bench::note("array: %llu MiB capacity / %llu MiB DRAM split across shards,",
              static_cast<unsigned long long>(kArrayCapacity >> 20),
              static_cast<unsigned long long>(kArrayDram >> 20));
  bench::note("%llu keys x %uB values preloaded, %llu async ops measured",
              static_cast<unsigned long long>(kKeys), kValueSize,
              static_cast<unsigned long long>(kOps));
  bench::note("device clock = simulated array time (max across shard clocks);");
  bench::note("wall clock adds host-side thread scaling (bounded by cores)");

  double one_shard_read = 0, four_shard_read = 0;
  obs::MetricsSnapshot array_snap;
  for (const unsigned get_pct : {95u, 5u}) {
    std::printf("\n%s mix (%u%% get / %u%% put)\n",
                get_pct >= 50 ? "read-heavy" : "write-heavy", get_pct,
                100 - get_pct);
    std::printf("%-8s %18s %18s %10s\n", "shards", "wall Mops/s",
                "device Mops/s", "scaling");
    double base_sim = 0;
    for (const std::uint32_t n : shard_counts) {
      const bool capture = get_pct == 95 && n == 4;
      const Throughput t =
          run_mix(n, get_pct, capture ? &array_snap : nullptr);
      if (n == 1) base_sim = t.sim_mops;
      const double scaling = base_sim > 0 ? t.sim_mops / base_sim : 0;
      std::printf("%-8u %18.3f %18.3f %9.2fx\n", n, t.wall_mops, t.sim_mops,
                  scaling);
      if (get_pct == 95 && n == 1) one_shard_read = t.sim_mops;
      if (get_pct == 95 && n == 4) four_shard_read = t.sim_mops;
    }
  }
  const double speedup =
      one_shard_read > 0 ? four_shard_read / one_shard_read : 0;
  std::printf("\n4-shard read-heavy speedup (device clock): %.2fx"
              " (target >= 2x)\n", speedup);

  std::printf("\nshard-merged array metrics (4 shards, read-heavy mix)\n");
  bench::print_stage_metrics(array_snap);
  bench::note("frontend.gets=%llu frontend.puts=%llu across %lld shards",
              static_cast<unsigned long long>(array_snap.counter("frontend.gets")),
              static_cast<unsigned long long>(array_snap.counter("frontend.puts")),
              static_cast<long long>(array_snap.gauge("frontend.shards")));
  bench::maybe_export_json(array_snap);

  std::printf("\nindex-aware batch drain — zipfian get burst of %zu on one"
              " device\n", kDrainBatch);
  bench::note("%llu keys, 4-page index cache: random completion order"
              " thrashes,", static_cast<unsigned long long>(kDrainKeys));
  bench::note("bucket-grouped order loads each record page ~once per drain");
  const double serial = run_drain(/*grouped=*/false);
  const double grouped = run_drain(/*grouped=*/true);
  std::printf("%-24s %12.3f index flash reads/op\n", "serial drain", serial);
  std::printf("%-24s %12.3f index flash reads/op\n", "grouped drain", grouped);
  std::printf("reduction: %.2fx fewer index flash reads/op\n",
              grouped > 0 ? serial / grouped : 0);
  return 0;
}
