// MVCC snapshot machinery (DESIGN.md §13).
//
// Three cooperating pieces give the device epoch-versioned reads:
//
//   * EpochSource — a device-global monotonic epoch counter. Every
//     record-layer pair is stamped with the epoch current at write time;
//     the counter advances once per mutation batch (and once per
//     snapshot open), so an epoch names a prefix of the mutation
//     history. On a sharded array ONE source is shared by every shard:
//     a key's version order is per-shard anyway, and cross-shard
//     causality (client completes op on shard A, then issues to shard
//     B) is preserved because the second stamp reads the same atomic no
//     earlier than the first.
//
//   * SnapshotRegistry — the pin table. open() advances the epoch and
//     pins its pre-advance value; a mutation that overwrites a version
//     some pin can read (the newest pinned epoch is at or above the
//     version's stamp) hands the dying version to the retainer instead
//     of freeing it. The registry tracks the min-pinned-epoch watermark
//     ("floor") that reclamation honors, the max-pinned-epoch ("newest")
//     that capture checks, and the global retained-byte budget: when
//     deferred garbage exceeds the bound, the OLDEST pin is expired —
//     its holder gets kSnapshotTooOld on next use, never a torn view.
//
//     Memory ordering (why no cross-shard barrier is needed): open()
//     increments pin_count and publishes newest = kEpochMax, THEN
//     advances the epoch, all seq_cst; a mutation stamps the epoch
//     (seq_cst RMW) and then checks pin_count and newest. If the
//     mutation read pin_count == 0 or a newest below the dying
//     version's stamp, the pin's epoch-advance had not yet happened in
//     the seq_cst total order, so the pin's epoch is >= the mutation's
//     stamp and the NEW version is the one the snapshot reads —
//     skipping retention was safe.
//
//   * VersionRetainer — per-device (worker-thread-owned) table of
//     superseded versions kept alive for pinned snapshots. An entry is
//     a closed-open validity window [begin, end): `begin` is the
//     version's own stamp, `end` the stamp of the overwrite that killed
//     it; a pin at epoch e reads the entry iff begin <= e < end. The
//     stale-byte credit normally surrendered to the allocator at
//     overwrite time (FlashKvStore::note_stale) is deferred with the
//     entry and surrendered when the floor passes `end` — so GC victim
//     accounting never sees a pinned version as reclaimable space.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "flash/nand.hpp"
#include "obs/metrics.hpp"

namespace rhik::ftl {

/// Epochs start at 1; 0 is "never stamped" (pre-MVCC pages decode as 0,
/// visible to every snapshot). kEpochMax as a read cap means "current".
constexpr std::uint64_t kEpochMax = ~std::uint64_t{0};

class EpochSource {
 public:
  [[nodiscard]] std::uint64_t current() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }
  /// Advances to the next epoch; returns the NEW value. Called once per
  /// mutation batch, not per op — ops of one batch share a stamp.
  std::uint64_t advance() noexcept {
    return epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }
  /// Recovery: epochs must never regress across a power cycle, so the
  /// counter is raised past every epoch found stamped on flash.
  void raise_to(std::uint64_t e) noexcept {
    std::uint64_t cur = epoch_.load(std::memory_order_seq_cst);
    while (cur < e &&
           !epoch_.compare_exchange_weak(cur, e, std::memory_order_seq_cst)) {
    }
  }

 private:
  std::atomic<std::uint64_t> epoch_{1};
};

struct SnapshotStats {
  std::uint64_t opened = 0;
  std::uint64_t released = 0;
  std::uint64_t expired = 0;  ///< evicted by the retained-byte bound

  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("snapshot.opened", opened);
    snap.add_counter("snapshot.released", released);
    snap.add_counter("snapshot.expired", expired);
  }
};

class SnapshotRegistry {
 public:
  explicit SnapshotRegistry(EpochSource* epochs) : epochs_(epochs) {}

  /// Bytes of superseded versions retainers may hold before the oldest
  /// pin is expired. 0 = unbounded.
  void set_retention_bytes(std::uint64_t cap) noexcept {
    retention_cap_.store(cap, std::memory_order_relaxed);
  }

  struct Pin {
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;
  };

  /// Pins the current epoch and advances the source, so every mutation
  /// after open stamps strictly above the pinned epoch.
  Pin open();
  /// kOk when the pin existed (valid or already expired). With `epoch`
  /// nonzero the pin is released only if its pinned epoch matches —
  /// the stale-handle guard (see read_at). Pin ids are unique within
  /// the process, across power cycles too, so a pre-crash handle never
  /// names a pin of a recovered registry.
  Status release(std::uint64_t id, std::uint64_t epoch = 0);
  /// The pinned epoch, or kSnapshotTooOld if the id is unknown (stale
  /// handle / post-crash) or was expired by the retention bound.
  [[nodiscard]] Result<std::uint64_t> epoch_of(std::uint64_t id) const;

  /// Fast mutation-path check — zero means "no pin needs the dying
  /// version". seq_cst; see the header comment for the ordering
  /// argument.
  [[nodiscard]] std::uint64_t pin_count() const noexcept {
    return pin_count_.load(std::memory_order_seq_cst);
  }
  /// Reclamation watermark: the minimum VALID pinned epoch, or the
  /// current epoch when nothing is pinned. Entries whose window ends
  /// at-or-below the floor are invisible to every pin.
  [[nodiscard]] std::uint64_t floor() const;
  /// Capture watermark: the maximum VALID pinned epoch (0 when nothing
  /// is pinned; kEpochMax while an open() is in flight). A version
  /// stamped above it is invisible to every pin. seq_cst; see the
  /// header comment for the ordering argument.
  [[nodiscard]] std::uint64_t newest() const noexcept {
    return newest_.load(std::memory_order_seq_cst);
  }

  /// Retained-byte accounting (called by retainers). add() enforces the
  /// bound: pins are expired oldest-first until the budget fits again
  /// (their retainer entries unwind on the owners' next reclaim pass).
  void add_retained(std::uint64_t bytes);
  void sub_retained(std::uint64_t bytes) noexcept {
    retained_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retained_bytes() const noexcept {
    return retained_bytes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t open_pins() const;
  [[nodiscard]] SnapshotStats stats() const;

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    bool expired = false;
  };

  /// Refreshes floor_ and newest_ from the valid pins.
  void recompute_bounds_locked();

  EpochSource* epochs_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> pins_;
  /// Cached min valid pinned epoch (kEpochMax when none) so floor() is
  /// one load on the hot reclamation path.
  std::atomic<std::uint64_t> floor_{kEpochMax};
  /// Cached max valid pinned epoch (0 when none).
  std::atomic<std::uint64_t> newest_{0};
  std::atomic<std::uint64_t> pin_count_{0};
  std::atomic<std::uint64_t> retained_bytes_{0};
  std::atomic<std::uint64_t> retention_cap_{0};
  SnapshotStats stats_;
};

/// EpochSource + SnapshotRegistry bundle. One per device, or one shared
/// across every shard of an array (kvssd::DeviceConfig::snapshots).
struct SnapshotContext {
  EpochSource epochs;
  SnapshotRegistry registry{&epochs};
};

/// A superseded version kept alive for pinned snapshots.
struct RetainedVersion {
  flash::Ppa ppa = flash::kInvalidPpa;
  std::uint64_t begin_epoch = 0;  ///< the version's own stamp
  std::uint64_t end_epoch = 0;    ///< stamp of the overwrite that killed it
  std::uint64_t total_bytes = 0;  ///< deferred note_stale credit
};

struct RetainerStats {
  std::uint64_t captured = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t resolved = 0;      ///< snapshot reads served from here
  std::uint64_t repointed = 0;     ///< GC relocations of retained versions

  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("retainer.captured", captured);
    snap.add_counter("retainer.reclaimed", reclaimed);
    snap.add_counter("retainer.resolved", resolved);
    snap.add_counter("retainer.repointed", repointed);
  }
};

/// Per-device table of retained versions. Owned and touched only by the
/// device's (worker) thread — no locking; cross-shard coordination goes
/// through the shared SnapshotRegistry's atomics.
class VersionRetainer {
 public:
  explicit VersionRetainer(SnapshotRegistry* registry) : registry_(registry) {}

  /// Defers a dying version instead of freeing it. Called from the
  /// overwrite/delete path when a pin can read the version.
  void capture(std::uint64_t sig, const RetainedVersion& v);

  /// The retained version visible at epoch `e` (begin <= e < end), if
  /// any. At most one window can cover an epoch: windows of one sig are
  /// the key's contiguous version history.
  [[nodiscard]] const RetainedVersion* resolve(std::uint64_t sig,
                                               std::uint64_t e);

  /// GC liveness: true when `ppa` holds a retained version of `sig`.
  [[nodiscard]] bool is_retained(std::uint64_t sig,
                                 flash::Ppa ppa) const noexcept;
  /// Every retained version of `sig` located at `ppa` (GC relocates each
  /// of them — a victim page can hold several versions of one key).
  [[nodiscard]] std::vector<RetainedVersion> versions_at(
      std::uint64_t sig, flash::Ppa ppa) const;
  /// GC relocated a retained version: update its location.
  void repoint(std::uint64_t sig, std::uint64_t begin_epoch, flash::Ppa to);

  /// Visits (sig, version) for every entry visible at epoch `e` — the
  /// iterator's retained-candidate source.
  void for_each_covering(
      std::uint64_t e,
      const std::function<void(std::uint64_t, const RetainedVersion&)>& fn)
      const;

  /// Frees every entry invisible below the registry floor, surrendering
  /// its deferred stale credit through `note_stale(ppa, bytes)`. Called
  /// from the device's background tick.
  void reclaim(const std::function<void(flash::Ppa, std::uint64_t)>& note_stale);

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return total_versions_; }
  [[nodiscard]] const RetainerStats& stats() const noexcept { return stats_; }

 private:
  SnapshotRegistry* registry_;
  /// Versions per signature, ordered oldest-first (capture order).
  std::unordered_map<std::uint64_t, std::vector<RetainedVersion>> entries_;
  std::size_t total_versions_ = 0;
  RetainerStats stats_;
};

}  // namespace rhik::ftl
