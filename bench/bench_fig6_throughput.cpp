// Fig. 6 — I/O throughput across value sizes, write/read x async/sync,
// comparing the Samsung KVSSD (analytic PM983 model), the stock
// emulator behaviour (KVEMU ~ multi-level hash index) and RHIK
// (paper §V-B).
//
// The paper plots throughput normalized per system; we normalize each
// cell to the KVEMU baseline so "KVEMU = 1.0" and RHIK's factor is the
// paper's claimed win. Workload: sequential 1 GiB (scaled to 256 MiB)
// per configuration, 16 B keys, as in §V-B.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "kvssd/pm983_model.hpp"
#include "workload/keygen.hpp"

using namespace rhik;

namespace {

constexpr std::uint64_t kWorkloadBytes = 256ull << 20;

struct Cell {
  double kvssd_model = 0;  // MiB/s from the PM983 analytic model
  double kvemu = 0;        // emulated device, mlhash index
  double rhik = 0;         // emulated device, RHIK
};

kvssd::DeviceConfig make_config(bool rhik_index, std::uint64_t value_size) {
  kvssd::DeviceConfig cfg;
  cfg.geometry = flash::Geometry::with_capacity(1ull << 30);
  // Scarce device DRAM, as on hardware: the index does not fit, so its
  // flash reads show up in read throughput too.
  cfg.dram_cache_bytes = 512ull << 10;
  // PM983-class page timings (aggregate channel throughput folded into
  // per-page costs: ~2.4 GB/s reads, ~0.9 GB/s programs at 32 KiB pages)
  // so index flash work and data transfers carry realistic relative
  // weight in the simulated clock.
  cfg.latency = flash::NandLatency{13 * kMicrosecond, 35 * kMicrosecond,
                                   1 * kMillisecond, 0};
  if (rhik_index) {
    cfg.index_kind = kvssd::IndexKind::kRhik;
  } else {
    cfg.index_kind = kvssd::IndexKind::kMlHash;
    const std::uint64_t keys = kWorkloadBytes / std::max<std::uint64_t>(value_size, 1);
    cfg.mlhash =
        index::MlHashConfig::for_keys(keys * 2 + 1000, cfg.geometry.page_size);
  }
  return cfg;
}

/// Runs a sequential write phase then a sequential read phase; returns
/// {write MiB/s, read MiB/s} in the given submission mode.
std::pair<double, double> run(bool rhik_index, bool async,
                              std::uint64_t value_size) {
  kvssd::KvssdDevice dev(make_config(rhik_index, value_size));
  const std::uint64_t n = std::max<std::uint64_t>(kWorkloadBytes / value_size, 8);

  Bytes value(value_size);
  const SimTime w0 = dev.clock().now();
  for (std::uint64_t id = 0; id < n; ++id) {
    workload::fill_value(id, value);
    const Bytes key = workload::key_for_id(id, 16);
    if (async) {
      dev.submit({api::Command::Op::kPut, id, key, value});
      if (id % dev.config().queue_depth == 0) dev.drain();
    } else {
      dev.put(key, value);
    }
  }
  if (async) dev.drain();
  const double write_mib = mib_per_sec(n * value_size, dev.clock().now() - w0);

  Bytes out;
  const SimTime r0 = dev.clock().now();
  for (std::uint64_t id = 0; id < n; ++id) {
    const Bytes key = workload::key_for_id(id, 16);
    if (async) {
      dev.submit({api::Command::Op::kGet, id, key, {}});
      if (id % dev.config().queue_depth == 0) dev.drain();
    } else {
      dev.get(key, &out);
    }
  }
  if (async) dev.drain();
  const double read_mib = mib_per_sec(n * value_size, dev.clock().now() - r0);
  return {write_mib, read_mib};
}

void print_panel(const char* title, const std::vector<std::uint64_t>& sizes,
                 const std::vector<Cell>& cells) {
  std::printf("\n%s (normalized to KVEMU = 1.0)\n", title);
  std::printf("%-10s %12s %12s %12s\n", "value", "KVSSD", "KVEMU", "RHIK");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double base = cells[i].kvemu > 0 ? cells[i].kvemu : 1.0;
    std::printf("%-10s %12.2f %12.2f %12.2f\n",
                bench::size_label(sizes[i]).c_str(), cells[i].kvssd_model / base,
                1.0, cells[i].rhik / base);
  }
}

}  // namespace

int main() {
  bench::heading("Fig. 6 — throughput vs value size (write/read x async/sync)",
                 "RHIK paper Fig. 6a-6d (§V-B)");
  bench::note("workload %llu MiB sequential per cell (paper: 1 GB), 16 B keys",
              static_cast<unsigned long long>(kWorkloadBytes >> 20));
  bench::note("KVSSD series = analytic PM983 model (hardware substitution)");

  const std::vector<std::uint64_t> sizes{4ull << 10, 64ull << 10, 256ull << 10,
                                         2ull << 20};
  const kvssd::Pm983Model model;

  std::vector<Cell> wa(sizes.size()), ra(sizes.size()), ws(sizes.size()),
      rs(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::uint64_t vs = sizes[i];
    wa[i].kvssd_model = model.throughput_mib(kvssd::OpDir::kWrite, true, vs);
    ra[i].kvssd_model = model.throughput_mib(kvssd::OpDir::kRead, true, vs);
    ws[i].kvssd_model = model.throughput_mib(kvssd::OpDir::kWrite, false, vs);
    rs[i].kvssd_model = model.throughput_mib(kvssd::OpDir::kRead, false, vs);

    const auto ml_async = run(/*rhik=*/false, /*async=*/true, vs);
    const auto rk_async = run(/*rhik=*/true, /*async=*/true, vs);
    const auto ml_sync = run(/*rhik=*/false, /*async=*/false, vs);
    const auto rk_sync = run(/*rhik=*/true, /*async=*/false, vs);
    wa[i].kvemu = ml_async.first;
    wa[i].rhik = rk_async.first;
    ra[i].kvemu = ml_async.second;
    ra[i].rhik = rk_async.second;
    ws[i].kvemu = ml_sync.first;
    ws[i].rhik = rk_sync.first;
    rs[i].kvemu = ml_sync.second;
    rs[i].rhik = rk_sync.second;
  }

  print_panel("(a) async writes", sizes, wa);
  print_panel("(b) async reads", sizes, ra);
  print_panel("(c) sync writes", sizes, ws);
  print_panel("(d) sync reads", sizes, rs);

  std::printf("\nabsolute emulated throughput (MiB/s, simulated clock):\n");
  std::printf("%-10s %14s %14s %14s %14s\n", "value", "KVEMU w-async",
              "RHIK w-async", "KVEMU r-async", "RHIK r-async");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-10s %14.1f %14.1f %14.1f %14.1f\n",
                bench::size_label(sizes[i]).c_str(), wa[i].kvemu, wa[i].rhik,
                ra[i].kvemu, ra[i].rhik);
  }
  bench::note("expected shape: RHIK >= KVEMU across sizes, with the largest");
  bench::note("gains where index work dominates (small/medium values) and on");
  bench::note("reads of large values (single metadata read per lookup).");
  return 0;
}
