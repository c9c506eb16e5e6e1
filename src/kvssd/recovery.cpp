#include "kvssd/recovery.hpp"

#include <algorithm>
#include <unordered_map>

#include "ftl/layout.hpp"

namespace rhik::kvssd {

using flash::Ppa;

namespace {

/// A torn page can hold arbitrary spare bytes; only these tag values can
/// have been written by the store or the index layer (the index zone
/// holds record pages only).
bool tag_sane(const ftl::SpareTag& tag) noexcept {
  const bool kind_ok = tag.kind == ftl::PageKind::kDataHead ||
                       tag.kind == ftl::PageKind::kDataCont ||
                       tag.kind == ftl::PageKind::kIndexRecord;
  const bool stream_ok = tag.stream == ftl::Stream::kData ||
                         tag.stream == ftl::Stream::kIndex ||
                         tag.stream == ftl::Stream::kCold;
  return kind_ok && stream_ok;
}

}  // namespace

Result<RecoveryStats> recover_from_flash(flash::NandDevice& nand,
                                         ftl::PageAllocator& alloc,
                                         ftl::FlashKvStore& store,
                                         index::IIndex& index) {
  const auto& g = nand.geometry();
  RecoveryStats stats;

  // Newest version of each signature seen so far in the log. Ordering is
  // epoch-major, (seq, offset)-minor: GC relocates snapshot-retained OLD
  // versions into fresh pages (preserving their original epoch stamps),
  // so a higher page seq alone no longer implies a newer version. Epochs
  // strictly increase across a key's mutations; ops of one batch share a
  // stamp and are ordered by (seq, offset) as before (pre-MVCC pages all
  // decode epoch 0 and keep the legacy pure-seq behavior).
  struct Winner {
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    std::size_t offset = 0;
    Ppa ppa = flash::kInvalidPpa;
    std::uint64_t pair_bytes = 0;
    std::uint64_t head_bytes = 0;  ///< portion resident in the head page
    bool tombstone = false;
  };
  std::unordered_map<std::uint64_t, Winner> winners;

  Bytes page(g.page_size);
  Bytes spare(g.spare_size());
  std::vector<std::uint32_t> adopted;

  // The controller-reserved checkpoint tail is not part of the log; its
  // pages carry their own formats and are scanned by the checkpoint
  // manager, never adopted here.
  const std::uint32_t scan_end = alloc.first_reserved_block();
  for (std::uint32_t block = 0; block < scan_end; ++block) {
    const std::uint32_t programmed = nand.pages_programmed(block);
    if (programmed == 0) continue;
    stats.blocks_adopted++;
    adopted.push_back(block);

    // The first page names the block's stream and carries the wear
    // stamp. If it is torn, the power cut hit the block's very first
    // program: nothing in the block was ever acknowledged, and it is
    // adopted with zero valid pages (pure GC fodder — it cannot rejoin
    // the free list with a non-zero write point).
    if (Status s = nand.read_page(flash::make_ppa(g, block, 0), page, spare); !ok(s)) {
      return s;
    }
    if (!flash::page_crc_ok(g, page, spare) || !tag_sane(ftl::SpareTag::decode(spare))) {
      stats.torn_pages_dropped += programmed;
      if (Status s = alloc.adopt_block(block, ftl::Stream::kData, 0); !ok(s)) return s;
      continue;
    }
    const ftl::SpareTag first = ftl::SpareTag::decode(spare);
    nand.restore_erase_count(block, flash::spare_wear_stamp(g, spare));
    stats.wear_blocks_restored++;

    if (!ftl::is_data_stream(first.stream)) {
      // Index zone: contents are all stale (the index is rebuilt), but
      // only the leading run of intact pages is adopted so GC never
      // tries to decode a torn tail.
      std::uint32_t valid = 1;
      while (valid < programmed) {
        if (Status s = nand.read_page(flash::make_ppa(g, block, valid), page, spare);
            !ok(s)) {
          return s;
        }
        if (!flash::page_crc_ok(g, page, spare)) break;
        ++valid;
      }
      stats.torn_pages_dropped += programmed - valid;
      if (Status s = alloc.adopt_block(block, first.stream, valid); !ok(s)) return s;
      continue;
    }

    // Data block (hot or cold stream — identical layout): walk pages in
    // programming order and truncate the
    // block's log at the first page that is torn (CRC), mis-tagged
    // (orphan continuation, foreign kind) or structurally inconsistent.
    // Everything after such a page postdates the power cut's victim and
    // was never acknowledged.
    std::uint32_t valid = 0;
    std::uint32_t pg = 0;
    while (pg < programmed) {
      const Ppa ppa = flash::make_ppa(g, block, pg);
      if (Status s = nand.read_page(ppa, page, spare); !ok(s)) return s;
      if (!flash::page_crc_ok(g, page, spare)) break;
      const ftl::SpareTag tag = ftl::SpareTag::decode(spare);
      if (tag.kind != ftl::PageKind::kDataHead) break;
      const auto pairs = ftl::parse_head_page(page, g.page_size);
      if (!pairs) break;
      const std::uint64_t seq = ftl::DataPageSpare::decode(spare).seq;

      // A spilling pair is durable only if its whole continuation chain
      // was programmed intact. A crash mid-extent leaves a perfectly
      // valid head whose winner would shadow an older, complete version
      // of the same key — so an incomplete extent drops the head too.
      std::uint32_t span = 1;
      if (!pairs->empty() && pairs->back().spills) {
        const std::uint32_t need =
            ftl::continuation_pages(g, pairs->back().header.pair_bytes());
        bool complete = pg + 1 + need <= programmed;
        for (std::uint32_t c = 1; complete && c <= need; ++c) {
          if (Status s = nand.read_page(ppa + c, page, spare); !ok(s)) return s;
          complete = flash::page_crc_ok(g, page, spare) &&
                     ftl::SpareTag::decode(spare).kind == ftl::PageKind::kDataCont;
        }
        if (!complete) {
          stats.incomplete_extents_dropped++;
          break;
        }
        span = 1 + need;
      }

      stats.data_pages_scanned++;
      if (seq > stats.max_seq) stats.max_seq = seq;
      for (const auto& p : *pairs) {
        stats.pairs_seen++;
        if (p.header.tombstone) stats.tombstones_seen++;
        const std::uint64_t e = p.header.epoch;
        if (e > stats.max_epoch) stats.max_epoch = e;
        Winner& w = winners[p.header.sig];
        if (w.ppa == flash::kInvalidPpa || e > w.epoch ||
            (e == w.epoch &&
             (seq > w.seq || (seq == w.seq && p.offset > w.offset)))) {
          w = Winner{e,
                     seq,
                     p.offset,
                     ppa,
                     p.header.pair_bytes(),
                     p.in_page_bytes,
                     p.header.tombstone};
        }
      }
      pg += span;
      valid = pg;
    }
    stats.torn_pages_dropped += programmed - valid;
    if (Status s = alloc.adopt_block(block, first.stream, valid); !ok(s)) return s;
  }

  // Credit liveness first: live pairs and tombstones pin their pages so
  // GC preserves them. Liveness is credited page by page along the
  // extent, so a block holding only continuation pages of a live value
  // is never left at zero live bytes (which would make pick_victim erase
  // it out from under the extent).
  for (const auto& [sig, w] : winners) {
    std::uint64_t remaining = w.pair_bytes;
    std::uint64_t chunk = std::min<std::uint64_t>(w.head_bytes, remaining);
    Ppa p = w.ppa;
    while (remaining > 0) {
      alloc.add_live(p, chunk);
      remaining -= chunk;
      ++p;
      chunk = std::min<std::uint64_t>(g.page_size, remaining);
    }
  }

  // Sweep dead weight BEFORE rebuilding the index. Every old index-zone
  // block is stale by construction (the index is rebuilt from the data
  // log below), and repeated crash cycles also accumulate sealed data
  // blocks whose every pair lost — torn tails, superseded versions. A
  // device that crashed often enough would otherwise run out of free
  // blocks for the rebuilt index's own record pages, and the index would
  // silently shed entries on failed write-backs. Erasing here is
  // idempotent across a crash-during-recovery: the data log is untouched
  // and wear counts were already restored above.
  for (const std::uint32_t block : adopted) {
    if (alloc.block_live_bytes(block) != 0) continue;
    if (Status s = alloc.reclaim_block(block); !ok(s)) return s;
    stats.dead_blocks_reclaimed++;
  }

  // Install the winners: live pairs enter the index (tombstones stay
  // out — their pinned deletion record on flash is their only trace).
  for (const auto& [sig, w] : winners) {
    if (w.tombstone) continue;
    if (Status s = index.put(sig, w.ppa); !ok(s)) return s;
    stats.keys_recovered++;
    stats.live_bytes += w.pair_bytes;
  }

  store.set_next_seq(stats.max_seq + 1);
  return stats;
}

}  // namespace rhik::kvssd
