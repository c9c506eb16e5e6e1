// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints the rows/series of one table or figure from the
// paper. Absolute numbers come from the emulator's simulated clock and a
// scaled-down device (documented per bench); the *shape* — who wins, by
// what factor, where the knees fall — is the reproduction target
// (EXPERIMENTS.md records paper-vs-measured for each).
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "kvssd/device.hpp"
#include "obs/metrics.hpp"
#include "workload/keygen.hpp"

namespace rhik::bench {

/// The collector of the index-only rigs (fig7, fig8, ablation): greedy
/// victims on one data stream, reclaimed only when the bench calls
/// collect() — no background quanta and no wear pass.
inline constexpr ftl::GcConfig kRigGc{.policy = ftl::GcPolicy::kGreedy,
                                      .hot_cold_separation = false,
                                      .background_free_blocks = 0,
                                      .wear_leveling_threshold = 0.0};

inline void heading(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

inline void note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::printf("  # ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
}

/// Paper-style geometry (32 KiB pages) scaled to a small capacity with
/// proportionally smaller erase blocks, so the scaled device still has
/// enough blocks (>= ~32) for GC to operate the way it does at full
/// scale. Keeping the paper's 256 pages/block on a 64 MiB device would
/// leave 8 monolithic blocks and permanent GC thrash.
inline flash::Geometry scaled_geometry(std::uint64_t capacity_bytes,
                                       std::uint32_t pages_per_block = 64) {
  flash::Geometry g;
  g.pages_per_block = pages_per_block;
  const std::uint64_t blocks = capacity_bytes / g.block_bytes();
  g.num_blocks = blocks == 0 ? 1 : static_cast<std::uint32_t>(blocks);
  return g;
}

/// Human-readable byte size ("11B", "4KB", "2MB").
inline std::string size_label(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20) && bytes % (1u << 20) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluMB",
                  static_cast<unsigned long long>(bytes >> 20));
  } else if (bytes >= (1u << 10) && bytes % (1u << 10) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluKB",
                  static_cast<unsigned long long>(bytes >> 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

/// Prints one stage-timer row: count + p50/p90/p99 (sim-clock ns).
inline void metrics_row(const obs::MetricsSnapshot& snap, const char* name) {
  const Histogram* h = snap.timer(name);
  if (h == nullptr || h->count() == 0) return;
  std::printf("  %-28s n=%-10llu p50=%-10llu p90=%-10llu p99=%llu\n", name,
              static_cast<unsigned long long>(h->count()),
              static_cast<unsigned long long>(h->percentile(50)),
              static_cast<unsigned long long>(h->percentile(90)),
              static_cast<unsigned long long>(h->percentile(99)));
}

/// Per-stage latency/read-amp section the obs-wired benches print: for
/// each op kind, total + stage breakdown + flash reads per op.
inline void print_stage_metrics(const obs::MetricsSnapshot& snap) {
  std::printf("  -- per-op stage percentiles (sim ns / reads per op) --\n");
  for (const char* op : {"put", "get", "del"}) {
    const std::string base = std::string("op.") + op;
    metrics_row(snap, (base + ".total_ns").c_str());
    metrics_row(snap, (base + ".queue_ns").c_str());
    metrics_row(snap, (base + ".index_ns").c_str());
    metrics_row(snap, (base + ".flash_ns").c_str());
    metrics_row(snap, (base + ".gc_ns").c_str());
    metrics_row(snap, (base + ".flash_reads").c_str());
    metrics_row(snap, (base + ".index_flash_reads").c_str());
  }
}

/// Honors RHIK_METRICS_JSON: when set, writes the snapshot's JSON export
/// there ("-" = stdout). Lets any bench feed dashboards without flags.
inline void maybe_export_json(const obs::MetricsSnapshot& snap) {
  const char* path = std::getenv("RHIK_METRICS_JSON");
  if (path == nullptr || *path == '\0') return;
  const std::string doc = snap.to_json();
  if (std::string_view(path) == "-") {
    std::printf("%s\n", doc.c_str());
    return;
  }
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    note("metrics JSON written to %s", path);
  } else {
    note("could not open %s for metrics JSON", path);
  }
}

/// Loads `n` sequential keys of fixed value size into a device.
/// Returns false on device-full / index-full.
inline bool load_keys(kvssd::KvssdDevice& dev, std::uint64_t n,
                      std::uint32_t value_size, std::uint32_t key_size = 16) {
  Bytes value(value_size);
  for (std::uint64_t id = 0; id < n; ++id) {
    workload::fill_value(id, value);
    const Status s = dev.put(workload::key_for_id(id, key_size), value);
    if (!ok(s)) return false;
  }
  return true;
}

}  // namespace rhik::bench
