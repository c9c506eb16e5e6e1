// Consistent scans and their cost to the foreground (DESIGN.md §13).
//
// Two sections. The first streams a full-prefix scan through the
// SNIA-style handle iterator and reports keys/s (sim clock) at several
// batch sizes — the streaming API's headline number. The second
// measures what a *pinned* scan costs everyone else: the same
// overwrite/get churn runs with no snapshot open (baseline) and then
// with a scan holding a pin across the whole churn (every overwrite of
// a scanned-epoch version is deferred to the retainer instead of freed,
// and the scan drains batches between op bursts). Acceptance guard:
// point-op p99 under the pinned scan stays within 2x the scan-free
// baseline — MVCC retention must price in as bookkeeping, not as a
// foreground stall.
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "kvssd/device.hpp"
#include "workload/keygen.hpp"

using namespace rhik;

namespace {

constexpr std::uint32_t kValueSize = 256;
constexpr std::uint32_t kKeySize = 16;

kvssd::DeviceConfig device_config() {
  kvssd::DeviceConfig cfg;
  cfg.geometry = bench::scaled_geometry(128ull << 20);
  cfg.dram_cache_bytes = 4ull << 20;
  cfg.prefix_signatures = true;  // iterator class filter needs them
  return cfg;
}

void guard(bool pass, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::printf("  guard: ");
  std::vprintf(fmt, args);
  std::printf(" — %s\n", pass ? "PASS" : "FAIL");
  va_end(args);
}

// All bench keys share the 4-byte class window "k000" (ids < 16^12).
const Bytes kPrefix{'k', '0', '0', '0'};

/// bench::load_keys with the failing op surfaced (a capacity-sizing
/// mistake should name itself, not print "load failed").
bool load_or_explain(kvssd::KvssdDevice& dev, std::uint64_t n) {
  Bytes value(kValueSize);
  for (std::uint64_t id = 0; id < n; ++id) {
    workload::fill_value(id, value);
    const Status s = dev.put(workload::key_for_id(id, kKeySize), value);
    if (!ok(s)) {
      std::printf("  load failed at key %llu/%llu: %.*s\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(n),
                  static_cast<int>(to_string(s).size()), to_string(s).data());
      return false;
    }
  }
  return true;
}

// -- Section 1: streaming scan throughput -------------------------------------

void scan_throughput(std::uint64_t num_keys, bool* all_pass) {
  bench::heading("Full-prefix streaming scan throughput",
                 "DESIGN.md §13 — handle iterator");
  bench::note("%llu keys, %uB values, fresh device per row; keys/s is",
              static_cast<unsigned long long>(num_keys), kValueSize);
  bench::note("simulated-device time for the whole drain (open..exhausted)");

  std::printf("\n  %-18s %-12s %-14s %-10s\n", "mode", "batch", "keys",
              "Mkeys/s(sim)");
  for (const std::size_t batch : {32ul, 256ul, 4096ul}) {
    kvssd::KvssdDevice dev(device_config());
    if (!load_or_explain(dev, num_keys)) {
      *all_pass = false;
      return;
    }
    const SimTime t0 = dev.clock().now();
    auto it = dev.kvs_open_iterator(kPrefix, nullptr);
    if (!it) {
      std::printf("  kvs_open_iterator failed\n");
      *all_pass = false;
      return;
    }
    std::uint64_t scanned = 0;
    std::vector<Bytes> keys;
    for (;;) {
      keys.clear();
      const Status s = dev.kvs_iterator_next(*it, batch, &keys);
      scanned += keys.size();
      if (s == Status::kNotFound) break;
      if (!ok(s)) {
        std::printf("  kvs_iterator_next: %.*s\n",
                    static_cast<int>(to_string(s).size()), to_string(s).data());
        *all_pass = false;
        return;
      }
    }
    dev.kvs_close_iterator(*it);
    const SimTime dt = dev.clock().now() - t0;
    const double mkeys_s =
        dt == 0 ? 0.0
                : static_cast<double>(scanned) * 1000.0 / static_cast<double>(dt);
    std::printf("  %-18s %-12zu %-14llu %-10.2f\n", "handle-iterator", batch,
                static_cast<unsigned long long>(scanned), mkeys_s);
    if (scanned != num_keys) {
      guard(false, "scan returned %llu of %llu keys",
            static_cast<unsigned long long>(scanned),
            static_cast<unsigned long long>(num_keys));
      *all_pass = false;
    }
  }
}

// -- Section 2: point-op tail under a pinned scan -----------------------------

struct ChurnResult {
  std::uint64_t p99_put_ns = 0;
  std::uint64_t p99_get_ns = 0;
  std::uint64_t scanned = 0;
  std::uint64_t retained_peak = 0;
  bool scan_completed = true;
  obs::MetricsSnapshot metrics;
};

/// Uniform overwrite/get churn over a preloaded keyspace; with
/// `pinned_scan`, a snapshot-bound iterator drains one batch every 64
/// ops, reopening at exhaustion so a pin is held for the WHOLE churn.
ChurnResult run_churn(std::uint64_t num_keys, std::uint64_t ops,
                      bool pinned_scan, bool* all_pass) {
  ChurnResult r;
  kvssd::KvssdDevice dev(device_config());
  if (!load_or_explain(dev, num_keys)) {
    *all_pass = false;
    return r;
  }

  api::SnapshotHandle snap{};
  std::uint64_t iter = 0;
  const auto reopen = [&]() -> bool {
    auto s = dev.open_snapshot();
    if (!s) return false;
    snap = *s;
    auto it = dev.kvs_open_iterator(kPrefix, &snap);
    if (!it) {
      dev.release_snapshot(snap);
      return false;
    }
    iter = *it;
    return true;
  };
  const auto close_scan = [&] {
    dev.kvs_close_iterator(iter);
    dev.release_snapshot(snap);
  };
  if (pinned_scan && !reopen()) {
    *all_pass = false;
    return r;
  }

  Rng rng(0x5ca9be9c);
  Bytes value(kValueSize);
  Bytes out;
  std::vector<Bytes> batch;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t id = rng.next_below(num_keys);
    if (i % 10 == 9) {
      dev.get(workload::key_for_id(id, kKeySize), &out);
    } else {
      workload::fill_value(id * 131 + i, value);
      const Status s = dev.put(workload::key_for_id(id, kKeySize), value);
      if (!ok(s)) {
        std::printf("  churn put: %.*s\n",
                    static_cast<int>(to_string(s).size()), to_string(s).data());
        *all_pass = false;
        break;
      }
    }
    if (pinned_scan && i % 64 == 63) {
      batch.clear();
      const Status s = dev.kvs_iterator_next(iter, 128, &batch);
      r.scanned += batch.size();
      if (s == Status::kNotFound) {
        close_scan();
        if (!reopen()) {
          r.scan_completed = false;
          break;
        }
      } else if (s == Status::kSnapshotTooOld) {
        // Retention evicted the pin: legitimate under pressure — note it
        // and re-pin rather than failing the run.
        close_scan();
        r.scan_completed = false;
        if (!reopen()) break;
      } else if (!ok(s)) {
        std::printf("  scan next: %.*s\n",
                    static_cast<int>(to_string(s).size()), to_string(s).data());
        *all_pass = false;
        break;
      }
      r.retained_peak =
          std::max(r.retained_peak, dev.snapshots().registry.retained_bytes());
    }
  }
  if (pinned_scan) close_scan();

  r.metrics = dev.metrics_snapshot();
  if (const Histogram* h = r.metrics.timer("op.put.total_ns")) {
    r.p99_put_ns = h->percentile(99);
  }
  if (const Histogram* h = r.metrics.timer("op.get.total_ns")) {
    r.p99_get_ns = h->percentile(99);
  }
  return r;
}

void scan_isolation(std::uint64_t num_keys, std::uint64_t ops,
                    bool* all_pass) {
  bench::heading("Point-op tail under a pinned scan",
                 "DESIGN.md §13 — retention prices in as bookkeeping");
  bench::note("%llu keys churned by %llu uniform ops (90%% overwrite /",
              static_cast<unsigned long long>(num_keys),
              static_cast<unsigned long long>(ops));
  bench::note("10%% get); scan arm drains a 128-key batch every 64 ops,");
  bench::note("re-pinning at exhaustion so retention never goes idle");

  const ChurnResult base = run_churn(num_keys, ops, /*pinned_scan=*/false,
                                     all_pass);
  const ChurnResult scan = run_churn(num_keys, ops, /*pinned_scan=*/true,
                                     all_pass);

  std::printf("\n  %-18s %-14s %-14s %-12s %-14s\n", "arm", "p99-put(us)",
              "p99-get(us)", "scanned", "peak-retained");
  std::printf("  %-18s %-14.1f %-14.1f %-12s %-14s\n", "no-scan",
              static_cast<double>(base.p99_put_ns) / 1000.0,
              static_cast<double>(base.p99_get_ns) / 1000.0, "-", "-");
  std::printf("  %-18s %-14.1f %-14.1f %-12llu %-14s\n", "pinned-scan",
              static_cast<double>(scan.p99_put_ns) / 1000.0,
              static_cast<double>(scan.p99_get_ns) / 1000.0,
              static_cast<unsigned long long>(scan.scanned),
              bench::size_label(scan.retained_peak).c_str());

  const bool put_ok = scan.p99_put_ns <= 2 * base.p99_put_ns;
  const bool get_ok = scan.p99_get_ns <= 2 * base.p99_get_ns;
  guard(put_ok, "p99 put %.1f us under pinned scan vs %.1f us baseline (<= 2x)",
        static_cast<double>(scan.p99_put_ns) / 1000.0,
        static_cast<double>(base.p99_put_ns) / 1000.0);
  guard(get_ok, "p99 get %.1f us under pinned scan vs %.1f us baseline (<= 2x)",
        static_cast<double>(scan.p99_get_ns) / 1000.0,
        static_cast<double>(base.p99_get_ns) / 1000.0);
  guard(scan.scanned > 0, "scan streamed %llu keys while churn ran",
        static_cast<unsigned long long>(scan.scanned));
  *all_pass = *all_pass && put_ok && get_ok && scan.scanned > 0;

  if (const Histogram* h = scan.metrics.timer("op.put.total_ns")) {
    (void)h;
    bench::print_stage_metrics(scan.metrics);
  }
  bench::maybe_export_json(scan.metrics);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  const std::uint64_t num_keys = smoke ? 8'000 : 60'000;
  const std::uint64_t churn_ops = smoke ? 30'000 : 300'000;

  bool all_pass = true;
  scan_throughput(num_keys, &all_pass);
  scan_isolation(num_keys, churn_ops, &all_pass);
  if (!all_pass) {
    std::printf("\n  RESULT: FAIL\n");
    return 1;
  }
  std::printf("\n  RESULT: PASS\n");
  return 0;
}
