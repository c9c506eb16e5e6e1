// Microbenchmarks of RHIK's hot primitives (google-benchmark): key
// hashing, hopscotch table ops, record-page codec, index and device ops.
// These report *host* time for the implementation itself, complementing
// the simulated-clock figure benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "api/kvs.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "ftl/gc.hpp"
#include "ftl/kv_store.hpp"
#include "hash/hopscotch.hpp"
#include "hash/murmur.hpp"
#include "index/rhik/record_page.hpp"
#include "index/rhik/rhik_index.hpp"
#include "kvssd/device.hpp"
#include "workload/keygen.hpp"

namespace {

using namespace rhik;

void BM_Murmur2_64(benchmark::State& state) {
  const Bytes key = workload::key_for_id(12345, static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::murmur2_64(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Murmur2_64)->Arg(16)->Arg(128)->Arg(1024);

void BM_Murmur3_128(benchmark::State& state) {
  const Bytes key = workload::key_for_id(12345, static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::murmur3_128(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Murmur3_128)->Arg(16)->Arg(128);

void BM_HopscotchInsertFind(benchmark::State& state) {
  const auto fill = static_cast<double>(state.range(0)) / 100.0;
  hash::HopscotchTable table(1927, 32);
  Rng rng(1);
  std::vector<std::uint64_t> sigs;
  while (table.occupancy() < fill) {
    const std::uint64_t sig = rng.next();
    if (ok(table.insert(sig, 1))) sigs.push_back(sig);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(sigs[i++ % sigs.size()]));
  }
}
BENCHMARK(BM_HopscotchInsertFind)->Arg(50)->Arg(80);

void BM_RecordPageEncode(benchmark::State& state) {
  index::RhikConfig cfg;
  index::RecordPageCodec codec(cfg, 32 * 1024);
  hash::HopscotchTable table = codec.make_table();
  Rng rng(2);
  while (table.occupancy() < 0.8) table.insert(rng.next(), 1);
  Bytes page(32 * 1024);
  for (auto _ : state) {
    codec.encode(table, page);
    benchmark::DoNotOptimize(page.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_RecordPageEncode);

void BM_RecordPageDecode(benchmark::State& state) {
  index::RhikConfig cfg;
  index::RecordPageCodec codec(cfg, 32 * 1024);
  hash::HopscotchTable table = codec.make_table();
  Rng rng(3);
  while (table.occupancy() < 0.8) table.insert(rng.next(), 1);
  Bytes page(32 * 1024);
  codec.encode(table, page);
  hash::HopscotchTable out = codec.make_table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(page, &out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_RecordPageDecode);

void BM_RecordPageFind(benchmark::State& state) {
  // The index-cache miss path's probe: one lookup on the encoded page
  // BM_RecordPageDecode rebuilds in full.
  index::RhikConfig cfg;
  index::RecordPageCodec codec(cfg, 32 * 1024);
  hash::HopscotchTable table = codec.make_table();
  Rng rng(3);
  std::vector<std::uint64_t> sigs;
  while (table.occupancy() < 0.8) {
    const std::uint64_t sig = rng.next();
    if (ok(table.insert(sig, 1))) sigs.push_back(sig);
  }
  Bytes page(32 * 1024);
  codec.encode(table, page);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.find(page, sigs[i++ % sigs.size()]));
  }
}
BENCHMARK(BM_RecordPageFind);

void BM_RhikCachedGet(benchmark::State& state) {
  SimClock clock;
  flash::NandDevice nand(flash::Geometry::with_capacity(256ull << 20),
                         flash::NandLatency::kvemu_defaults(), &clock);
  ftl::PageAllocator alloc(&nand, 4);
  index::RhikConfig cfg;
  cfg.anticipated_keys = 100'000;
  index::RhikIndex index(&nand, &alloc, cfg, 64ull << 20);
  Rng rng(4);
  std::vector<std::uint64_t> sigs;
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(index.put(sig, i))) sigs.push_back(sig);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.get(sigs[i++ % sigs.size()]));
  }
}
BENCHMARK(BM_RhikCachedGet);

void BM_RhikColdGet(benchmark::State& state) {
  // Miss path: 100 k keys over ~128 record pages behind a 2-page cache,
  // so nearly every get reads its record page and probes it. Preloaded
  // through a roomy cache, then reopened from the flushed directory.
  SimClock clock;
  flash::NandDevice nand(flash::Geometry::with_capacity(256ull << 20),
                         flash::NandLatency::kvemu_defaults(), &clock);
  ftl::PageAllocator alloc(&nand, 4);
  index::RhikConfig cfg;
  cfg.anticipated_keys = 100'000;
  std::vector<std::uint64_t> sigs;
  Bytes image;
  {
    index::RhikIndex loader(&nand, &alloc, cfg, 64ull << 20);
    Rng rng(4);
    for (int i = 0; i < 100'000; ++i) {
      const std::uint64_t sig = rng.next();
      if (ok(loader.put(sig, i))) sigs.push_back(sig);
    }
    if (!ok(loader.flush())) {
      state.SkipWithError("preload flush failed");
      return;
    }
    image = loader.serialize_directory();
  }
  index::RhikIndex index(&nand, &alloc, cfg, 2ull * nand.geometry().page_size);
  if (!ok(index.load_directory(image))) {
    state.SkipWithError("directory reload failed");
    return;
  }
  Rng pick(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.get(sigs[pick.next_below(sigs.size())]));
  }
  state.counters["miss_ratio"] = index.cache_stats().miss_ratio();
}
BENCHMARK(BM_RhikColdGet);

void BM_DevicePutSmall(benchmark::State& state) {
  kvssd::DeviceConfig cfg;
  cfg.geometry = flash::Geometry::with_capacity(1ull << 30);
  kvssd::KvssdDevice dev(cfg);
  Bytes value(256);
  std::uint64_t id = 0;
  for (auto _ : state) {
    workload::fill_value(id, value);
    benchmark::DoNotOptimize(dev.put(workload::key_for_id(id, 16), value));
    ++id;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_DevicePutSmall);

void BM_ZipfianDraw(benchmark::State& state) {
  Rng rng(5);
  Zipfian zipf(1'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_ZipfianDraw);

// -- Observability overhead guard ----------------------------------------------
// Runs the same read-heavy microbench with the obs layer fully on
// (per-op traces sampled every op) and fully off, and asserts the
// device-clock throughput delta stays under 5%. The obs layer charges no
// simulated time by design, so the sim-clock delta must be ~0; host
// wall-clock delta (the real bookkeeping cost) is reported alongside.
struct OverheadRun {
  double device_mops = 0;  ///< ops per simulated second (millions)
  double wall_mops = 0;    ///< ops per host second (millions)
};

OverheadRun run_read_heavy(bool metrics_on) {
  constexpr std::uint64_t kKeys = 20'000;
  constexpr std::uint64_t kOps = 100'000;
  kvssd::DeviceConfig cfg;
  cfg.geometry = flash::Geometry::with_capacity(256ull << 20);
  cfg.rhik.anticipated_keys = kKeys;
  cfg.obs.metrics = metrics_on;
  cfg.obs.trace_sample_every = 1;  // worst case: every op hits the ring
  kvssd::KvssdDevice dev(cfg);

  Bytes value(256);
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    workload::fill_value(id, value);
    if (!ok(dev.put(workload::key_for_id(id, 16), value))) break;
  }

  Rng rng(42);
  Bytes out;
  const SimTime sim0 = dev.clock().now();
  const auto wall0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t id = rng.next_below(kKeys);
    benchmark::DoNotOptimize(dev.get(workload::key_for_id(id, 16), &out));
  }
  const auto wall1 = std::chrono::steady_clock::now();
  const SimTime sim1 = dev.clock().now();

  OverheadRun r;
  const double sim_s = static_cast<double>(sim1 - sim0) / 1e9;
  const double wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  if (sim_s > 0) r.device_mops = kOps / sim_s / 1e6;
  if (wall_s > 0) r.wall_mops = kOps / wall_s / 1e6;
  return r;
}

/// Returns 0 when the guard passes, 1 when obs overhead breaks the budget.
int metrics_overhead_guard() {
  std::printf("\n-- metrics overhead guard (read-heavy sync gets) --\n");
  const OverheadRun off = run_read_heavy(/*metrics_on=*/false);
  const OverheadRun on = run_read_heavy(/*metrics_on=*/true);
  const double device_delta =
      off.device_mops > 0
          ? (off.device_mops - on.device_mops) / off.device_mops
          : 0.0;
  const double wall_delta =
      off.wall_mops > 0 ? (off.wall_mops - on.wall_mops) / off.wall_mops : 0.0;
  std::printf("metrics off: %8.3f device Mops/s  %8.3f wall Mops/s\n",
              off.device_mops, off.wall_mops);
  std::printf("metrics on:  %8.3f device Mops/s  %8.3f wall Mops/s"
              " (trace_sample_every=1)\n", on.device_mops, on.wall_mops);
  std::printf("device-clock delta: %+.2f%% (budget < 5%%)   host wall-clock"
              " delta: %+.2f%% (informational)\n",
              device_delta * 100, wall_delta * 100);
  if (device_delta >= 0.05) {
    std::printf("FAIL: obs layer costs simulated time — it must not\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

// -- Probe length --------------------------------------------------------------
// Mean/max candidate slots a find() touches in the hopscotch
// neighbourhood at representative fills: the figure the SIMD probe
// compresses (several candidates per vector compare instead of one per
// scalar step).
void probe_length_report() {
  std::printf("\n-- hopscotch probe length (capacity 1927, H=32, %s probe) --\n",
              hash::HopscotchTable::simd_backend());
  for (const int fill_pct : {50, 80}) {
    hash::HopscotchTable table(1927, 32);
    Rng rng(7);
    std::vector<std::uint64_t> sigs;
    while (table.occupancy() < fill_pct / 100.0) {
      const std::uint64_t sig = rng.next();
      if (ok(table.insert(sig, 1))) sigs.push_back(sig);
    }
    std::uint64_t total = 0;
    std::uint32_t max = 0;
    for (const std::uint64_t sig : sigs) {
      const std::uint32_t len = table.probe_length(sig);
      total += len;
      max = std::max(max, len);
    }
    std::printf("fill %2d%%: mean %.2f  max %u  (over %zu resident keys)\n",
                fill_pct, static_cast<double>(total) / sigs.size(), max,
                sigs.size());
  }
}

// -- Async completion-ring path ------------------------------------------------
// Drives the SNIA-style async verbs end to end: submissions flow through
// the device queue and completed batches cross into the caller-visible
// ring, harvested with poll_completions() — one ring pass per batch.
// The wall-clock ops/s line is the headline figure the ≥2x acceptance
// guard tracks; the device-clock line must not move when only host-side
// code changes.
int async_ring_throughput() {
  constexpr std::uint64_t kKeys = 20'000;
  constexpr std::uint64_t kOps = 100'000;
  constexpr std::uint32_t kValueSize = 256;
  constexpr std::uint64_t kPollEvery = 256;

  api::KvsDeviceOptions opts;
  opts.capacity_bytes = 256ull << 20;
  opts.dram_cache_bytes = 10ull << 20;
  opts.anticipated_keys = kKeys;
  api::KvsDevice dev(opts);

  Bytes value(kValueSize);
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    workload::fill_value(id, value);
    const Bytes key = workload::key_for_id(id, 16);
    const std::string k(reinterpret_cast<const char*>(key.data()), key.size());
    if (dev.store(k, ByteSpan{value}) != api::KvsResult::KVS_SUCCESS) return 1;
  }

  Rng rng(11);
  std::vector<api::KvsCompletion> done;
  done.reserve(kOps);
  const SimTime sim0 = dev.metrics_snapshot().captured_at_ns;
  const auto wall0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t id = rng.next_below(kKeys);
    const Bytes key = workload::key_for_id(id, 16);
    const std::string k(reinterpret_cast<const char*>(key.data()), key.size());
    if (i % 20 == 0) {
      Bytes v(kValueSize);
      workload::fill_value(id, v);
      dev.store_async(k, std::move(v));
    } else {
      dev.retrieve_async(k);
    }
    if (i % kPollEvery == kPollEvery - 1) dev.poll_completions(&done);
  }
  while (done.size() < kOps) {
    if (dev.poll_completions(&done) == 0 && done.size() < kOps) continue;
  }
  const auto wall1 = std::chrono::steady_clock::now();
  obs::MetricsSnapshot snap = dev.metrics_snapshot();
  const SimTime sim1 = snap.captured_at_ns;

  std::size_t failed = 0;
  for (const api::KvsCompletion& c : done) {
    failed += c.result != api::KvsResult::KVS_SUCCESS;
  }
  const double wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  const double sim_s = static_cast<double>(sim1 - sim0) / 1e9;
  std::printf("\n-- async completion ring (95%% retrieve / 5%% store, 256B"
              " values) --\n");
  std::printf("%llu ops, poll_completions every %llu submissions, %zu"
              " failures\n", static_cast<unsigned long long>(kOps),
              static_cast<unsigned long long>(kPollEvery), failed);
  std::printf("wall-clock:   %8.3f Mops/s  <- headline host-side figure\n",
              wall_s > 0 ? kOps / wall_s / 1e6 : 0.0);
  std::printf("device-clock: %8.3f Mops/s  (must hold under host-only"
              " changes)\n", sim_s > 0 ? kOps / sim_s / 1e6 : 0.0);
  bench::maybe_export_json(snap);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  probe_length_report();
  const int ring_rc = async_ring_throughput();
  const int guard_rc = metrics_overhead_guard();
  return ring_rc != 0 ? ring_rc : guard_rc;
}
