// On-flash page layouts (paper Fig. 4).
//
// KVSSD stores variable-length KV pairs log-style. Each *head* data page
// carries, at the tail of its main area, a "key signature information
// area": a 2 B pair count plus one 8 B key signature per pair starting in
// the page. GC scans exactly this area to identify candidate pairs and
// validates them against the global index (§IV-B). Values larger than a
// page continue into physically consecutive *continuation* pages of the
// same erase block (extent-based packing; the index stores only the
// starting PPA, which is what removes the max-value-size limit, §IV-A5).
//
// The spare (out-of-band) area stores a page kind tag and the owning
// stream, mirroring how real FTLs use OOB bytes for GC and recovery.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "flash/geometry.hpp"

namespace rhik::ftl {

/// Allocation streams: KV data zone vs index zone (paper Fig. 3), plus a
/// cold data stream (HashKV-style hot/cold separation): GC-relocated
/// pairs — survivors of at least one reclaim cycle — are appended to
/// their own open block so update-churned hot pairs never re-mix with
/// them. Cold blocks are data blocks in every other respect (same page
/// layouts, same recovery scan).
enum class Stream : std::uint8_t { kData = 0, kIndex = 1, kCold = 2 };
constexpr std::size_t kNumStreams = 3;

/// Data-zone membership: pages of both the hot and the cold stream hold
/// the same head/continuation layouts and carry winners for recovery.
constexpr bool is_data_stream(Stream s) noexcept {
  return s == Stream::kData || s == Stream::kCold;
}

/// Page kind tag kept in the spare area.
enum class PageKind : std::uint8_t {
  kFree = 0xFF,        ///< erased / never written
  kDataHead = 0x01,    ///< data page holding pair starts + signature area
  kDataCont = 0x02,    ///< continuation page of a multi-page extent
  kIndexRecord = 0x11, ///< serialized record-layer hash table
  kIndexDir = 0x12,    ///< device checkpoint payload (reserved tail only)
  kCkptSuper = 0x21,   ///< checkpoint superblock (slot commit record)
  kCkptJournal = 0x22, ///< index-delta journal page
};

/// Spare-area encoding: [kind u8][stream u8]. The remaining spare bytes
/// model ECC / bad-block markers and are left 0xFF.
struct SpareTag {
  PageKind kind = PageKind::kFree;
  Stream stream = Stream::kData;

  void encode(MutByteSpan spare) const noexcept;
  static SpareTag decode(ByteSpan spare) noexcept;
  static constexpr std::size_t kEncodedSize = 2;
};

/// Per-pair record header preceding the key and value bytes in the data
/// area: [sig u64][key_len u16][val_len u32][epoch u64]. The top bit of
/// the key_len field marks a *tombstone* — the durable deletion record
/// that crash recovery needs (key lengths are capped at 255 by the
/// device, so the bit is always free). `epoch` is the MVCC version
/// stamp (DESIGN.md §13): the device-global epoch current when the pair
/// was written; GC relocations preserve the original stamp, so a pair's
/// epoch names its position in the key's version history wherever the
/// pair physically lives. 0 means "pre-MVCC" and is visible to every
/// snapshot.
struct PairHeader {
  std::uint64_t sig = 0;
  std::uint16_t key_len = 0;
  std::uint32_t val_len = 0;
  std::uint64_t epoch = 0;
  bool tombstone = false;

  static constexpr std::size_t kSize = 8 + 2 + 4 + 8;
  static constexpr std::uint16_t kTombstoneBit = 0x8000;

  [[nodiscard]] std::uint64_t pair_bytes() const noexcept {
    return kSize + key_len + val_len;
  }

  void encode(MutByteSpan dst, std::size_t off) const noexcept;
  static PairHeader decode(ByteSpan src, std::size_t off) noexcept;
};

/// Spare-area metadata of a data *head* page, after the generic tag:
/// a monotonically increasing sequence number. Pairs are globally
/// ordered by (page seq, in-page offset), which is what recovery uses to
/// pick the newest version of each signature.
///
/// `epoch_hw` is the device-global epoch HIGH-WATER at program time —
/// not the max of this page's pair stamps but the counter itself, so it
/// is monotone with program order on every stream (GC relocations carry
/// old PAIR stamps but a current page stamp). The checkpoint fast
/// restore reads the topmost head page of each data block anyway (ghost
/// scan); the max of those spare stamps bounds every durable pair epoch,
/// which is how the epoch source is restored without a journal record
/// per batch (DESIGN.md §13).
struct DataPageSpare {
  std::uint64_t seq = 0;
  std::uint64_t epoch_hw = 0;

  static constexpr std::size_t kEncodedSize = SpareTag::kEncodedSize + 16;

  void encode(MutByteSpan spare) const noexcept;
  static DataPageSpare decode(ByteSpan spare) noexcept;
};

/// Footer ("key signature information area") bookkeeping for a head page.
/// Layout, growing from the page end: ... [sig_n]..[sig_1][pair_count u16].
class PageFooter {
 public:
  static constexpr std::size_t kCountSize = 2;
  static constexpr std::size_t kSigSize = 8;

  /// Bytes the footer occupies for `n` pairs.
  static constexpr std::size_t size_for(std::size_t n) noexcept {
    return kCountSize + n * kSigSize;
  }

  /// Writes count + signatures into the tail of `page`.
  static void encode(MutByteSpan page, const std::vector<std::uint64_t>& sigs) noexcept;

  /// Reads the signature list back from a head page. Returns nullopt if
  /// the footer is structurally invalid for the page size.
  static std::optional<std::vector<std::uint64_t>> decode(ByteSpan page) noexcept;
};

/// Writable in-memory image of a head data page being filled.
///
/// Small pairs are appended until the page is full; a pair that cannot fit
/// in an *empty* page is a large extent and is laid out by
/// `plan_extent()`. Invariant relied on by the parser: a head page either
/// contains only fully-resident pairs, or exactly one pair that spills
/// into continuation pages.
class DataPageBuilder {
 public:
  explicit DataPageBuilder(std::uint32_t page_size);

  /// Bytes still available for pair data, accounting for footer growth
  /// (one more signature slot) if a pair is added.
  [[nodiscard]] std::size_t remaining() const noexcept;

  /// True if a pair of `pair_bytes` total size fits entirely.
  [[nodiscard]] bool fits(std::uint64_t pair_bytes) const noexcept;

  /// True if the pair fits in a completely empty page of this size.
  static bool fits_in_empty_page(std::uint32_t page_size, std::uint64_t pair_bytes) noexcept;

  /// Appends a fully-resident pair. Caller must have checked fits().
  /// Returns the byte offset of the pair within the page.
  std::size_t append(const PairHeader& hdr, ByteSpan key, ByteSpan value);

  /// Appends the head fragment of a spilling pair into an empty builder:
  /// header + key + leading `value_prefix` bytes. Page is full afterwards.
  void begin_extent(const PairHeader& hdr, ByteSpan key, ByteSpan value_prefix);

  [[nodiscard]] std::size_t pair_count() const noexcept { return sigs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sigs_.empty(); }

  /// True if a pair or tombstone with this signature is buffered here.
  [[nodiscard]] bool contains(std::uint64_t sig) const noexcept;

  /// Finalizes the footer and returns the full page image.
  [[nodiscard]] ByteSpan finalize();

  /// Raw in-progress image (for serving reads from the open page buffer).
  [[nodiscard]] ByteSpan image() const noexcept { return buf_; }

  void reset();

 private:
  Bytes buf_;
  std::vector<std::uint64_t> sigs_;
  std::size_t write_off_ = 0;
  std::uint32_t page_size_;
};

/// A pair located during a head-page parse.
struct ParsedPair {
  PairHeader header;
  std::size_t offset = 0;       ///< byte offset of the header in the page
  std::size_t in_page_bytes = 0;///< portion of the pair inside this page
  bool spills = false;          ///< continues into continuation pages
};

/// Parses the pairs of a head page. Returns nullopt on structural
/// corruption (footer count inconsistent with data area contents).
std::optional<std::vector<ParsedPair>> parse_head_page(ByteSpan page,
                                                       std::uint32_t page_size);

/// In-page version order (DESIGN.md §13): of two copies of a signature
/// in one page, `later` (appended after `earlier`) is the newer unless
/// its epoch is lower — GC may append a retained older version last.
[[nodiscard]] inline bool newer_in_page(const PairHeader& later,
                                        const PairHeader& earlier) noexcept {
  return later.epoch >= earlier.epoch;
}

/// Read-path fast scan: locates the newest pair matching `sig` in a head
/// page, by newer_in_page(), without materializing the pair list. The
/// footer signature area is scanned in place (no allocation —
/// parse_head_page allocates two vectors per call, which dominated the
/// hot get path), and headers are decoded only up to the match; a second
/// matching slot falls back to find_pair_in_page_at's full walk. A miss
/// is decided from the footer alone.
/// Structural validation covers the footer and the walked header prefix;
/// corruption past the match goes undetected here (the full parser and
/// the page CRC still catch it on GC/recovery scans).
enum class PageFind : std::uint8_t { kFound, kAbsent, kCorrupt };
PageFind find_pair_in_page(ByteSpan page, std::uint32_t page_size,
                           std::uint64_t sig, ParsedPair* out) noexcept;

/// Snapshot-read variant: the newest pair matching `sig` whose epoch
/// stamp is <= `max_epoch` — the version a snapshot at `max_epoch` must
/// see when it resolves here. Forward walk with full header decodes —
/// the snapshot path, not the hot get path.
PageFind find_pair_in_page_at(ByteSpan page, std::uint32_t page_size,
                              std::uint64_t sig, std::uint64_t max_epoch,
                              ParsedPair* out) noexcept;

/// Number of continuation pages a spilling pair needs after its head page.
std::uint32_t continuation_pages(const flash::Geometry& g, std::uint64_t pair_bytes);

/// Total pages (head + continuation) for a pair written as an extent.
std::uint32_t extent_pages(const flash::Geometry& g, std::uint64_t pair_bytes);

}  // namespace rhik::ftl
