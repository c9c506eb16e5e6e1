// Ablations over RHIK's design choices (DESIGN.md §5):
//   1. hopinfo width H (Eq. 1 trades records-per-page vs collision room)
//   2. 64- vs 128-bit key signatures (§IV-A3 membership alternative)
//   3. DRAM cache budget (the Fig. 5 pressure knob)
//   4. stop-the-world vs incremental resize (§VI real-time scaling)
#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "ftl/gc.hpp"
#include "ftl/kv_store.hpp"
#include "hash/murmur.hpp"
#include "index/rhik/rhik_index.hpp"
#include "workload/keygen.hpp"

using namespace rhik;

namespace {

struct Rig {
  Rig(index::RhikConfig cfg, std::uint64_t cache_bytes)
      : nand(flash::Geometry::with_capacity(1ull << 30),
             flash::NandLatency::kvemu_defaults(), &clock),
        alloc(&nand, 4),
        store(&nand, &alloc),
        index(&nand, &alloc, cfg, cache_bytes),
        gc(&nand, &alloc, &store, &index, bench::kRigGc) {}
  void pump() {
    if (alloc.needs_gc()) gc.collect(alloc.gc_reserve() + 4);
    index.pump_maintenance(0);  // the device's background migration quantum
  }
  SimClock clock;
  flash::NandDevice nand;
  ftl::PageAllocator alloc;
  ftl::FlashKvStore store;
  index::RhikIndex index;
  ftl::GarbageCollector gc;
};

void ablate_hopinfo() {
  std::printf("\n[1] hopinfo width H (Eq. 1: R = p / (kh + ppa + H/8))\n");
  std::printf("%-6s %-16s %-14s %-14s\n", "H", "records/page", "collision%",
              "capacity@2^10dir");
  for (const std::uint32_t h : {8u, 16u, 32u}) {
    index::RhikConfig cfg;
    cfg.hop_range = h;
    Rig rig(cfg, 16ull << 20);
    Rng rng(7);
    const std::uint64_t n = 400'000;
    for (std::uint64_t i = 0; i < n; ++i) {
      rig.pump();
      rig.index.put(rng.next(), i);
    }
    const double coll =
        100.0 * static_cast<double>(rig.index.op_stats().collision_aborts) /
        static_cast<double>(n);
    std::printf("%-6u %-16u %-14.4f %-14llu\n", h,
                cfg.records_per_page(32 * 1024), coll,
                static_cast<unsigned long long>(
                    std::uint64_t{1024} * cfg.records_per_page(32 * 1024)));
  }
  bench::note("narrower hopinfo packs more records per page but collides");
  bench::note("earlier; H=32 (paper default) balances both.");
}

void ablate_signature_width() {
  std::printf("\n[2] signature width: empirical collision probability\n");
  std::printf("%-12s %-16s %-16s\n", "keys", "64-bit collisions",
              "128-bit collisions");
  for (const std::uint64_t n : {1'000'000ull, 4'000'000ull}) {
    std::unordered_set<std::uint64_t> s64;
    std::unordered_set<std::uint64_t> s128;  // lo ^ mixed hi: full width proxy
    s64.reserve(n * 2);
    s128.reserve(n * 2);
    std::uint64_t c64 = 0, c128 = 0;
    for (std::uint64_t id = 0; id < n; ++id) {
      const Bytes key = workload::key_for_id(id, 16);
      if (!s64.insert(hash::murmur2_64(key)).second) ++c64;
      const auto w = hash::murmur3_128(key);
      if (!s128.insert(w.lo ^ hash::mix64(w.hi)).second) ++c128;
    }
    std::printf("%-12llu %-16llu %-16llu\n", static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(c64),
                static_cast<unsigned long long>(c128));
  }
  bench::note("birthday bound: ~n^2/2^65 for 64-bit -> both ~0 at emulator");
  bench::note("scale; at the paper's billions of keys 64-bit needs the");
  bench::note("full-key recheck (kept), 128-bit would not (Eq. 1: R drops");
  bench::note("from 1927 to 1310 records/page).");
}

void ablate_cache_budget() {
  std::printf("\n[3] DRAM cache budget (zipfian reads over 400k keys)\n");
  std::printf("%-12s %-12s %-14s %-12s\n", "cache", "miss-ratio",
              "reads/lookup", "sim Mops/s");
  const std::uint64_t keys = 400'000;
  for (const std::uint64_t mb : {1ull, 2ull, 5ull, 10ull, 20ull}) {
    index::RhikConfig cfg;
    cfg.anticipated_keys = keys;
    Rig rig(cfg, mb << 20);
    Rng rng(9);
    for (std::uint64_t i = 0; i < keys; ++i) {
      rig.pump();
      rig.index.put(hash::mix64(i) | 1, i);
    }
    rig.index.reset_op_stats();
    Zipfian zipf(keys, 0.99);
    const std::uint64_t lookups = 500'000;
    const SimTime t0 = rig.clock.now();
    for (std::uint64_t i = 0; i < lookups; ++i) {
      (void)rig.index.lookup(hash::mix64(zipf.next(rng)) | 1);
    }
    const auto& st = rig.index.op_stats();
    const SimTime elapsed = rig.clock.now() - t0;
    char mops[24];
    if (elapsed == 0) {
      // Fully cached: zero simulated flash time, i.e. DRAM-speed.
      std::snprintf(mops, sizeof(mops), "DRAM-bound");
    } else {
      std::snprintf(mops, sizeof(mops), "%.3f", ops_per_sec(lookups, elapsed) / 1e6);
    }
    std::printf("%-12s %-12.3f %-14.3f %-12s\n",
                (std::to_string(mb) + "MB").c_str(),
                static_cast<double>(st.flash_reads) /
                    static_cast<double>(lookups),
                st.reads_per_lookup.mean(), mops);
  }
  bench::note("even at the smallest budget, reads/lookup never exceeds 1 —");
  bench::note("the cache only changes how often that single read happens.");
}

void ablate_local_overflow() {
  std::printf("\n[5] hyper-local overflow (§VI collision management)\n");
  std::printf("%-14s %-14s %-16s %-16s\n", "mode", "collision%",
              "overflow-recs", "reads/lookup-max");
  for (const bool overflow : {false, true}) {
    index::RhikConfig cfg;
    cfg.local_overflow = overflow;
    cfg.hop_range = 4;           // collide often enough to matter
    cfg.resize_threshold = 0.95; // resize late: stress local handling
    Rig rig(cfg, 16ull << 20);
    Rng rng(21);
    const std::uint64_t n = 300'000;
    for (std::uint64_t i = 0; i < n; ++i) {
      rig.pump();
      rig.index.put(rng.next(), i);
    }
    const auto& st = rig.index.op_stats();
    std::printf("%-14s %-14.4f %-16llu %-16llu\n",
                overflow ? "overflow" : "reject",
                100.0 * static_cast<double>(st.collision_aborts) /
                    static_cast<double>(n),
                static_cast<unsigned long long>(st.overflow_inserts),
                static_cast<unsigned long long>(st.reads_per_lookup.max()));
  }
  bench::note("overflow converts rejects into records at the cost of a");
  bench::note("second flash read on overflowed buckets (max 2 vs 1).");
}

void ablate_resize_mode() {
  std::printf("\n[4] stop-the-world vs incremental resize (§VI)\n");
  std::printf("%-16s %-12s %-14s %-14s %-12s\n", "mode", "resizes",
              "max-put(us)", "p99.9-put(us)", "stall(ms)");
  for (const bool incremental : {false, true}) {
    index::RhikConfig cfg;
    cfg.incremental_resize = incremental;
    Rig rig(cfg, 16ull << 20);
    Rng rng(11);
    Histogram put_ns;
    const std::uint64_t n = 600'000;
    for (std::uint64_t i = 0; i < n; ++i) {
      rig.pump();
      const SimTime t0 = rig.clock.now();
      rig.index.put(rng.next(), i);
      put_ns.record(rig.clock.now() - t0);
    }
    std::printf("%-16s %-12llu %-14.1f %-14.1f %-12.2f\n",
                incremental ? "incremental" : "stop-the-world",
                static_cast<unsigned long long>(rig.index.op_stats().resizes),
                static_cast<double>(put_ns.max()) / 1e3,
                put_ns.percentile(99.9) / 1e3,
                static_cast<double>(rig.clock.total_stall()) / 1e6);
  }
  bench::note("stop-the-world: worst put latency == the whole migration;");
  bench::note("incremental spreads it, cutting tail latency by orders of");
  bench::note("magnitude at zero stall (the paper's §VI future work).");
}

}  // namespace

int main() {
  bench::heading("RHIK design-choice ablations", "DESIGN.md §5 / paper §IV, §VI");
  ablate_hopinfo();
  ablate_signature_width();
  ablate_cache_budget();
  ablate_resize_mode();
  ablate_local_overflow();
  return 0;
}
