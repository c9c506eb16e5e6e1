// Fig. 8 — sensitivity analysis (paper §V-C):
//  (a) % of collisions vs number of keys, for 16 B vs 128 B keys —
//      collision trends are key-size independent;
//  (b) % of collisions vs index occupancy threshold (60/70/80/90%) —
//      collision handling degrades heavily above 80%.
//
// "Collision" is the paper's uncorrectable index-local collision
// (§IV-A1): a hopscotch insert whose displacement search fails, counted
// against all store attempts.
#include <cstdio>
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
  explicit Rig(index::RhikConfig cfg)
      : nand(flash::Geometry::with_capacity(1ull << 30),
             flash::NandLatency::kvemu_defaults(), &clock),
        alloc(&nand, 4),
        store(&nand, &alloc),
        // Cache big enough to keep the record layer resident: the
        // collision metric is cache-independent and this keeps the
        // multi-million-key sweep fast.
        index(&nand, &alloc, cfg, 64ull << 20),
        gc(&nand, &alloc, &store, &index, bench::kRigGc) {}
  void pump() {
    if (alloc.needs_gc()) gc.collect(alloc.gc_reserve() + 4);
  }
  SimClock clock;
  flash::NandDevice nand;
  ftl::PageAllocator alloc;
  ftl::FlashKvStore store;
  index::RhikIndex index;
  ftl::GarbageCollector gc;
};

/// Inserts up to `total` distinct keys of `key_size` bytes; reports the
/// cumulative collision percentage at each checkpoint.
std::vector<double> collision_curve(index::RhikConfig cfg, std::uint32_t key_size,
                                    const std::vector<std::uint64_t>& checkpoints) {
  Rig rig(cfg);
  std::vector<double> curve;
  std::uint64_t id = 0;
  std::uint64_t attempts = 0;
  for (const std::uint64_t target : checkpoints) {
    while (rig.index.size() < target) {
      rig.pump();
      const Bytes key = workload::key_for_id(id++, key_size);
      rig.index.put(hash::murmur2_64(key), id);
      ++attempts;
    }
    curve.push_back(100.0 *
                    static_cast<double>(rig.index.op_stats().collision_aborts) /
                    static_cast<double>(attempts));
  }
  return curve;
}

}  // namespace

int main() {
  bench::heading("Fig. 8 — collision sensitivity",
                 "RHIK paper Fig. 8a (key size) and 8b (occupancy threshold)");

  const std::vector<std::uint64_t> checkpoints{100'000, 250'000, 500'000,
                                               1'000'000, 2'000'000};

  // (a) key-size independence at the default 80% threshold.
  std::printf("\n(a) %% collisions vs keys in index (threshold 80%%)\n");
  std::printf("%-14s %-12s %-12s\n", "keys(million)", "16B keys", "128B keys");
  index::RhikConfig cfg;
  const auto c16 = collision_curve(cfg, 16, checkpoints);
  const auto c128 = collision_curve(cfg, 128, checkpoints);
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    std::printf("%-14.2f %-12.4f %-12.4f\n",
                static_cast<double>(checkpoints[i]) / 1e6, c16[i], c128[i]);
  }
  bench::note("expected: both curves flat and nearly identical (paper:");
  bench::note("~0.125-0.2%% regardless of key size).");

  // (b) occupancy-threshold sweep with 16 B keys.
  std::printf("\n(b) %% collisions vs occupancy threshold\n");
  const std::vector<double> thresholds{0.60, 0.70, 0.80, 0.90};
  const std::vector<std::uint64_t> cps{100'000, 300'000, 600'000, 1'000'000};
  std::printf("%-14s", "keys(million)");
  for (const double t : thresholds) std::printf("  %8.0f%%", t * 100);
  std::printf("\n");
  std::vector<std::vector<double>> curves;
  for (const double t : thresholds) {
    index::RhikConfig c;
    c.resize_threshold = t;
    curves.push_back(collision_curve(c, 16, cps));
  }
  for (std::size_t i = 0; i < cps.size(); ++i) {
    std::printf("%-14.2f", static_cast<double>(cps[i]) / 1e6);
    for (const auto& curve : curves) std::printf("  %8.4f", curve[i]);
    std::printf("\n");
  }
  bench::note("expected: <= 80%% thresholds stay near zero; 90%% degrades");
  bench::note("heavily (paper: collision handling degrades above 80%%).");
  return 0;
}
