// Log-structured KV data path over the NAND array.
//
// Implements the paper's data layout (§IV-A5, Fig. 4): variable-length KV
// pairs are appended log-style. Small pairs share head pages through an
// open write buffer (as the device DRAM write buffer would); a pair too
// large for one page is written as a physically contiguous extent — head
// page plus raw continuation pages — inside a single erase block. The
// index stores only the extent's starting PPA.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "flash/nand.hpp"
#include "ftl/layout.hpp"
#include "ftl/page_allocator.hpp"
#include "obs/metrics.hpp"

namespace rhik::ftl {

class EpochSource;

/// Header + key of a stored pair, as needed by update/delete paths to
/// verify the key and account the stale bytes exactly.
struct PairMeta {
  Bytes key;
  std::uint32_t value_len = 0;
  std::uint64_t total_bytes = 0;  ///< header + key + value
  std::uint64_t epoch = 0;        ///< MVCC version stamp (0 = pre-MVCC)
  bool tombstone = false;         ///< durable deletion record
};

struct KvStoreStats {
  std::uint64_t pairs_written = 0;
  std::uint64_t pairs_read = 0;  ///< host reads only; GC relocation reads none
  std::uint64_t extents_written = 0;   ///< multi-page pairs
  std::uint64_t gc_pairs_written = 0;  ///< relocations (write amplification)
  std::uint64_t tombstones_written = 0;

  /// Registers these counters into a metrics snapshot (`store.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("store.pairs_written", pairs_written);
    snap.add_counter("store.pairs_read", pairs_read);
    snap.add_counter("store.extents_written", extents_written);
    snap.add_counter("store.gc_pairs_written", gc_pairs_written);
    snap.add_counter("store.tombstones_written", tombstones_written);
  }
};

class FlashKvStore {
 public:
  FlashKvStore(flash::NandDevice* nand, PageAllocator* alloc);

  FlashKvStore(const FlashKvStore&) = delete;
  FlashKvStore& operator=(const FlashKvStore&) = delete;

  /// Appends a pair to the log; returns its starting PPA.
  /// `for_gc` marks relocation writes (may use the GC block reserve).
  /// `epoch` is the MVCC version stamp recorded in the pair header — the
  /// current device epoch for fresh writes, the pair's ORIGINAL stamp
  /// for GC relocations (a relocation moves a version, it does not
  /// create one).
  Result<flash::Ppa> write_pair(std::uint64_t sig, ByteSpan key, ByteSpan value,
                                bool for_gc = false, std::uint64_t epoch = 0);

  /// Appends a tombstone — the durable deletion record crash recovery
  /// replays. Not indexed; GC keeps it until a newer version of the
  /// signature exists.
  Result<flash::Ppa> write_tombstone(std::uint64_t sig, ByteSpan key,
                                     bool for_gc = false,
                                     std::uint64_t epoch = 0);

  /// Reads the pair with signature `sig` starting at `start`. When a page
  /// holds several versions of the same signature, the newest by
  /// newer_in_page() wins. `epoch_out`, when given, receives the
  /// winner's version stamp.
  Status read_pair(flash::Ppa start, std::uint64_t sig, Bytes* key_out,
                   Bytes* value_out, std::uint64_t* epoch_out = nullptr);

  /// Snapshot read: the newest version of `sig` in the head page at
  /// `start` whose epoch stamp is <= `max_epoch`. Used only on the
  /// retained-version path, where the caller knows a version satisfying
  /// the cap lives at `start`. A tombstone resolving under the cap
  /// returns kOk with `*tombstone_out = true` and no value — the caller
  /// maps it to "key absent at this snapshot" after verifying the key.
  Status read_pair_at(flash::Ppa start, std::uint64_t sig,
                      std::uint64_t max_epoch, Bytes* key_out, Bytes* value_out,
                      bool* tombstone_out = nullptr);

  /// Reads only the header + key (update/delete verification path).
  Result<PairMeta> read_pair_meta(flash::Ppa start, std::uint64_t sig);

  /// The one copy step of every pair reader: copies the key and value of
  /// `p`, a pair parsed out of `page` (the image of the head page at
  /// `start`), reading only a spilling value's continuation pages from
  /// flash. GC relocation passes the victim page it already read.
  /// Either output may be null; `pairs_read` is its callers' to count.
  Status copy_pair(flash::Ppa start, ByteSpan page, const ParsedPair& p,
                   Bytes* key_out, Bytes* value_out);

  /// Marks a previously written pair stale (update/delete) so GC victim
  /// selection sees the reclaimed bytes.
  void note_stale(flash::Ppa start, std::uint64_t total_bytes);

  /// Programs the partially filled open pages (hot and cold), if any.
  /// Reads are served from the open buffers transparently, so this is
  /// only needed for power-cycle persistence.
  Status flush();

  /// Programs whichever open page (hot or cold) targets `block`, if any.
  /// GC calls this before scanning a victim so buffered pairs are seen
  /// and before erasing it so they are never destroyed.
  Status flush_block(std::uint32_t block);

  /// Programs the open page GC relocations are buffered in (the cold
  /// page under cold separation, otherwise the shared hot page). GC
  /// calls this before a victim erase so relocated pairs are never the
  /// only copy in RAM.
  Status flush_relocations();

  /// Programs the hot open page, if one is buffered. GC calls this
  /// before a victim erase when the victim holds the durable copy of a
  /// signature whose newer version still sits in the hot buffer — the
  /// erase must never destroy the only durable version of an
  /// acknowledged write.
  Status flush_hot();

  /// True if a pair or tombstone for `sig` is buffered (volatile) in
  /// the hot open page.
  [[nodiscard]] bool hot_buffer_contains(std::uint64_t sig) const noexcept {
    return hot_.ppa.has_value() && hot_.builder.contains(sig);
  }

  /// Hot/cold separation (HashKV-style): when on, `for_gc` writes —
  /// relocated survivors, by definition colder than fresh traffic — are
  /// packed into their own open page on the Stream::kCold append stream
  /// instead of re-mixing with fresh writes. Off until the collector
  /// applies GcConfig::hot_cold_separation (single open page).
  void set_cold_separation(bool on) noexcept { cold_separation_ = on; }

  /// Largest value storable with a key of `key_len` bytes (extent must
  /// fit one erase block).
  [[nodiscard]] std::uint64_t max_value_size(std::size_t key_len) const noexcept;

  /// Total bytes (header+key+value) a pair occupies in the log.
  [[nodiscard]] static std::uint64_t pair_bytes(std::size_t key_len,
                                                std::size_t value_len) noexcept {
    return PairHeader::kSize + key_len + value_len;
  }

  [[nodiscard]] const KvStoreStats& stats() const noexcept { return stats_; }
  /// The hot open page (fresh writes), if one is buffered.
  [[nodiscard]] std::optional<flash::Ppa> open_page() const noexcept {
    return hot_.ppa;
  }

  /// Head-page sequence counter (global pair ordering for recovery).
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  void set_next_seq(std::uint64_t seq) noexcept { next_seq_ = seq; }

  /// MVCC: when set, every programmed head page records the device
  /// epoch high-water in its spare (DataPageSpare::epoch_hw), which is
  /// how the checkpoint fast restore re-seeds the epoch counter.
  void set_epoch_source(const EpochSource* epochs) noexcept { epochs_ = epochs; }

 private:
  /// One buffered head page being filled (the device DRAM write buffer).
  /// The hot instance takes fresh writes on Stream::kData; the cold one
  /// takes GC relocations on Stream::kCold when cold separation is on.
  struct OpenPage {
    explicit OpenPage(std::uint32_t page_size) : builder(page_size) {}
    DataPageBuilder builder;
    std::optional<flash::Ppa> ppa;
    Stream stream = Stream::kData;
  };

  Result<flash::Ppa> write_internal(std::uint64_t sig, ByteSpan key, ByteSpan value,
                                    bool tombstone, bool for_gc,
                                    std::uint64_t epoch);
  /// The one locate step of every reader: finds `sig` in the head page
  /// at `start` — the newest copy, or with `max_epoch` below kEpochMax
  /// the newest stamped at or below it. Returns a zero-copy view of the
  /// page, straight into NAND page storage or into an open write buffer,
  /// with `*out` set; kNotFound when the page holds no such pair, or
  /// kCorruption. The view is valid until the next write / flush / erase
  /// touching the source — callers copy out what they keep.
  Result<ByteSpan> locate(flash::Ppa start, std::uint64_t sig,
                          std::uint64_t max_epoch, ParsedPair* out);

  Status program_open_page(OpenPage& open);
  /// The buffer a write of this class lands in under the current policy.
  OpenPage& open_for(bool for_gc) noexcept {
    return for_gc && cold_separation_ ? cold_ : hot_;
  }

  flash::NandDevice* nand_;
  PageAllocator* alloc_;
  OpenPage hot_;
  OpenPage cold_;
  bool cold_separation_ = false;
  std::uint64_t next_seq_ = 1;
  const EpochSource* epochs_ = nullptr;
  KvStoreStats stats_;
};

}  // namespace rhik::ftl
