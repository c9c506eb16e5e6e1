// Common interface for KVSSD key-to-physical-location index schemes.
//
// Both RHIK (the paper's contribution) and the baseline multi-level hash
// index implement this interface, so the device, GC, benches and tests
// are index-agnostic. All methods operate on fixed-size key signatures:
// the device layer hashes application keys (§IV-A) before touching the
// index, and performs the full-key recheck that defeats signature
// collisions (§IV-A3). Lookups (lookup(), and GC's gc_lookup()) carry a
// status: a metadata read failure is never reported as a miss.
//
// A scheme's DRAM directory has one durable copy: the image the device
// checkpoint stores (serialize_image()/load_image(), DESIGN.md §8) plus
// the journal records below. Without checkpointing, a restart rebuilds
// the index from the data log (kvssd/recovery.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "cache/lru_cache.hpp"
#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/status.hpp"
#include "flash/address.hpp"
#include "ftl/gc.hpp"
#include "obs/metrics.hpp"

namespace rhik::index {

struct IndexOpStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t flash_reads = 0;        ///< metadata flash reads
  std::uint64_t flash_writes = 0;       ///< metadata flash programs
  std::uint64_t collision_aborts = 0;   ///< uncorrectable hopscotch aborts
  std::uint64_t resizes = 0;
  /// Dirty-table write-backs that failed (device wedged full). Always 0
  /// in a healthy device; tests assert on it.
  std::uint64_t writeback_failures = 0;
  /// Records placed in per-bucket overflow pages (hyper-local scaling,
  /// §VI) instead of being rejected.
  std::uint64_t overflow_inserts = 0;
  /// Puts rejected because the directory reached its addressing limit
  /// (2^38 entries) and cannot double again.
  std::uint64_t index_full = 0;
  /// Flash reads needed per individual index lookup (paper Fig. 5b).
  Histogram reads_per_lookup;

  /// Registers these counters into a metrics snapshot (`index.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("index.puts", puts);
    snap.add_counter("index.gets", gets);
    snap.add_counter("index.erases", erases);
    snap.add_counter("index.flash_reads", flash_reads);
    snap.add_counter("index.flash_writes", flash_writes);
    snap.add_counter("index.collision_aborts", collision_aborts);
    snap.add_counter("index.resizes", resizes);
    snap.add_counter("index.writeback_failures", writeback_failures);
    snap.add_counter("index.overflow_inserts", overflow_inserts);
    snap.add_counter("index.index_full", index_full);
    snap.add_timer("index.reads_per_lookup", reads_per_lookup);
  }
};

/// One completed resize, for the Fig. 7 analysis.
struct ResizeEvent {
  std::uint64_t keys_before = 0;       ///< records migrated
  std::uint64_t capacity_before = 0;   ///< record capacity before doubling
  std::uint64_t duration_ns = 0;       ///< submission-queue stall time
};

/// Sink for index-delta records emitted on the write path (checkpoint
/// journaling, DESIGN.md §8). The index reports every durable mapping
/// change so that `checkpoint image + journal tail` reconstructs its
/// state without a device scan (deletions are journaled by the device,
/// once the tombstone landed, not by the index):
///  - journal_put: a signature's mapping changed (put, GC relocation);
///  - journal_repoint: a metadata-page slot moved to a new PPA (record
///    table write-back, GC relocation), keyed by the index's own slot id;
///  - journal_resize: a directory doubling began (new generation opened);
///    replay re-opens the same migration window before applying later
///    records;
///  - journal_migrated: one old-generation bucket finished migrating into
///    the new generation (its new-generation repoints precede this
///    record), so replay retires the old bucket exactly where the live
///    index did.
class IndexJournal {
 public:
  virtual ~IndexJournal() = default;
  virtual void journal_put(std::uint64_t sig, flash::Ppa ppa) = 0;
  virtual void journal_repoint(std::uint64_t slot_key, flash::Ppa ppa) = 0;
  virtual void journal_resize(std::uint32_t new_gen, std::uint32_t new_bits) {
    (void)new_gen;
    (void)new_bits;
  }
  virtual void journal_migrated(std::uint64_t old_slot_key) {
    (void)old_slot_key;
  }
};

class IIndex : public ftl::GcIndexHooks {
 public:
  ~IIndex() override = default;

  /// Maps `sig` to the pair's starting PPA (insert or update).
  virtual Status put(std::uint64_t sig, flash::Ppa ppa) = 0;

  /// Current mapping for `sig`: distinguishes "no mapping" (kOk +
  /// nullopt) from a metadata I/O failure (non-kOk), so a torn or
  /// unreadable metadata page surfaces as an error instead of a phantom
  /// miss that could overwrite live data. Counted as an index get.
  virtual Result<std::optional<flash::Ppa>> lookup(std::uint64_t sig) = 0;

  /// Removes the mapping. kNotFound if absent.
  virtual Status erase(std::uint64_t sig) = 0;

  /// Locality group of a signature: operations in the same group hit the
  /// same flash-resident metadata page(s), so executing a batch grouped
  /// by this value loads each page once per group instead of once per
  /// op. Schemes without such locality return a constant (grouping then
  /// degenerates to submission order).
  [[nodiscard]] virtual std::uint64_t locality_group(
      std::uint64_t sig) const noexcept {
    (void)sig;
    return 0;
  }

  [[nodiscard]] virtual std::uint64_t size() const = 0;
  /// Total record capacity at the current configuration.
  [[nodiscard]] virtual std::uint64_t capacity() const = 0;
  [[nodiscard]] double occupancy() const {
    const std::uint64_t cap = capacity();
    return cap == 0 ? 0.0 : static_cast<double>(size()) / static_cast<double>(cap);
  }

  /// DRAM-resident footprint of the scheme's always-in-memory structures
  /// (directories), excluding the shared page cache.
  [[nodiscard]] virtual std::uint64_t dram_bytes() const = 0;

  /// Writes back every dirty cached table (RHIK first drains an
  /// in-flight migration). Returns the first failed write-back's status,
  /// so a flush that left a table unpersisted never reports kOk.
  virtual Status flush() = 0;

  /// Full scan over every (signature, PPA) record. Loads record pages as
  /// needed (flash reads are charged); used by the iterator extension
  /// (§VI) and by consistency checks.
  virtual Status scan(
      const std::function<void(std::uint64_t sig, flash::Ppa ppa)>& fn) = 0;

  [[nodiscard]] virtual const IndexOpStats& op_stats() const = 0;
  virtual void reset_op_stats() = 0;

  /// Statistics of the scheme's DRAM page cache (the paper's "FTL cache").
  [[nodiscard]] virtual const cache::CacheStats& cache_stats() const = 0;

  // -- Checkpointing hooks (DESIGN.md §8) ----------------------------------
  /// Installs (or clears, with nullptr) the delta-record sink, which is
  /// then told every durable mapping change.
  virtual void set_journal(IndexJournal* journal) = 0;

  /// Serializes the scheme's DRAM-resident state (directories, metadata
  /// page PPAs) into `out`.
  virtual Status serialize_image(Bytes& out) = 0;

  /// Restores state produced by serialize_image(). The caller owns
  /// allocator liveness accounting; this only rebuilds DRAM structures.
  virtual Status load_image(ByteSpan image) = 0;

  /// Replays a journal_repoint record: rewrites the slot's PPA
  /// (last-writer-wins, idempotent). No allocator liveness side effects.
  /// When `data_durable` is provided, the repointed record page is decoded
  /// and the repoint is silently rejected (slot left unchanged, kOk) if
  /// any entry references a non-durable data location: a page written
  /// back under cache pressure may map signatures to extents that were
  /// still in the store's RAM buffer at a power cut. The rejected page's
  /// durable content is reconstructible — every mapping in it is either
  /// pre-checkpoint (in the image's page) or in the journal tail.
  virtual Status apply_journal_repoint(
      std::uint64_t slot_key, flash::Ppa ppa,
      const std::function<bool(flash::Ppa)>& data_durable = {}) = 0;

  /// True while a structural maintenance operation (incremental resize)
  /// is in flight; checkpoints are deferred until it completes.
  [[nodiscard]] virtual bool maintenance_active() const { return false; }

  /// Advances in-flight structural maintenance (incremental migration) by
  /// up to `budget` work units; 0 means the scheme's default quantum.
  /// Called from the device background pump (pump_background), so a
  /// quiescent device still drains a doubling. Returns true iff progress
  /// was made — callers stop pumping when it returns false, so a wedged
  /// migration (e.g. device full) must not report progress forever.
  virtual bool pump_maintenance(std::uint32_t budget = 0) {
    (void)budget;
    return false;
  }

  /// Replays a journal_resize record: re-opens the same migration window
  /// (old generation -> new generation with `new_bits` directory bits)
  /// the live index had when it journaled the doubling. kCorruption if
  /// the record is inconsistent with the restored image (caller falls
  /// back to the full scan).
  virtual Status apply_journal_resize(std::uint32_t new_gen,
                                      std::uint32_t new_bits) {
    (void)new_gen;
    (void)new_bits;
    return Status::kUnsupported;
  }

  /// Replays a journal_migrated record: retires one old-generation bucket
  /// whose new-generation repoints were already applied from earlier
  /// records in the same journal prefix.
  virtual Status apply_journal_migrate(std::uint64_t old_slot_key) {
    (void)old_slot_key;
    return Status::kUnsupported;
  }

  /// Replays a journal_put record. Unlike put(), replay must never
  /// trigger structural changes (resize, bucket migration): structural
  /// transitions replay only from explicit resize/migrate records, so a
  /// restored index matches the crashed one bucket for bucket. A scheme
  /// that cannot place the record without structural work returns non-kOk
  /// and the caller falls back to the full scan.
  virtual Status apply_journal_put(std::uint64_t sig, flash::Ppa ppa) {
    return put(sig, ppa);
  }

  /// Replays a deletion (a located-delete record or a ghost tombstone);
  /// idempotent: kNotFound is success.
  virtual Status apply_journal_erase(std::uint64_t sig) {
    const Status s = erase(sig);
    return s == Status::kNotFound ? Status::kOk : s;
  }

  /// Recomputes the live key count from actual table occupancy. Called
  /// once at the end of a checkpoint fast-restore: journal repoints can
  /// fast-forward directory slots to pages that already hold keys the
  /// put/erase overlay then re-applies as no-ops, so the incrementally
  /// maintained count drifts from the tables it summarizes. For a
  /// growing index the drift is load-bearing — a low count starves the
  /// resize trigger until inserts physically fail with collision aborts
  /// on a table the threshold said had headroom.
  virtual Status recount_keys() = 0;
};

}  // namespace rhik::index
