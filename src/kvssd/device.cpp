#include "kvssd/device.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <unordered_map>

#include "ftl/layout.hpp"
#include "hash/murmur.hpp"
#include "index/mlhash/mlhash_index.hpp"
#include "index/rhik/rhik_index.hpp"
#include "kvssd/recovery.hpp"

namespace rhik::kvssd {

using flash::Ppa;

namespace {

/// Blocks withheld from host writes as GC relocation headroom.
constexpr std::uint32_t kGcReserveBlocks = 4;
/// Foreground GC reclaims until this many blocks are free.
constexpr std::uint32_t kGcTargetFreeBlocks = 6;

}  // namespace

KvssdDevice::KvssdDevice(DeviceConfig cfg)
    : KvssdDevice(cfg, std::unique_ptr<flash::NandDevice>()) {
  enable_journaling();
  if (ckpt_) ckpt_->init_from_flash();
}

KvssdDevice::KvssdDevice(DeviceConfig cfg, std::unique_ptr<flash::NandDevice> nand)
    : cfg_(cfg), trace_ring_(cfg.obs.trace_ring_capacity) {
  assert(cfg_.geometry.valid());
  if (nand) {
    nand_ = std::move(nand);
    nand_->rebind_clock(&clock_);
  } else {
    nand_ = std::make_unique<flash::NandDevice>(cfg_.geometry, cfg_.latency,
                                                &clock_);
  }
  alloc_ = std::make_unique<ftl::PageAllocator>(
      nand_.get(), kGcReserveBlocks,
      CheckpointManager::reserved_blocks(cfg_.checkpoint));
  store_ = std::make_unique<ftl::FlashKvStore>(nand_.get(), alloc_.get());
  switch (cfg_.index_kind) {
    case IndexKind::kRhik:
      index_ = std::make_unique<index::RhikIndex>(nand_.get(), alloc_.get(),
                                                  cfg_.rhik, cfg_.dram_cache_bytes);
      break;
    case IndexKind::kMlHash:
      index_ = std::make_unique<index::MlHashIndex>(
          nand_.get(), alloc_.get(), cfg_.mlhash, cfg_.dram_cache_bytes);
      break;
  }
  gc_ = std::make_unique<ftl::GarbageCollector>(nand_.get(), alloc_.get(),
                                                store_.get(), index_.get(),
                                                cfg_.gc);
  if (cfg_.snapshots != nullptr) {
    snaps_ = cfg_.snapshots;  // array-shared: one epoch across all shards
  } else {
    owned_snaps_ = std::make_unique<ftl::SnapshotContext>();
    snaps_ = owned_snaps_.get();
  }
  snaps_->registry.set_retention_bytes(cfg_.snapshot_retention_bytes);
  retainer_ = std::make_unique<ftl::VersionRetainer>(&snaps_->registry);
  store_->set_epoch_source(&snaps_->epochs);
  gc_->set_version_retainer(retainer_.get());
  iter_mgr_ = std::make_unique<IteratorManager>(index_.get(), store_.get(),
                                                &snaps_->registry,
                                                retainer_.get());
  if (cfg_.checkpoint.enabled) {
    ckpt_ = std::make_unique<CheckpointManager>(nand_.get(), index_.get(),
                                                store_.get(), alloc_.get(),
                                                cfg_.checkpoint, &live_bytes_);
    ckpt_->set_index_kind(static_cast<std::uint32_t>(cfg_.index_kind));
    ckpt_->set_epoch_source(&snaps_->epochs);
  }
  if (cfg_.obs.metrics) next_dump_ns_ = cfg_.obs.dump_period_ns;
}

KvssdDevice::~KvssdDevice() {
  // Clean shutdown takes a checkpoint so the next recover() restarts in
  // O(dirty). Best-effort: a failure just means a full scan later.
  if (ckpt_ && nand_) {
    (void)flush();
    (void)ckpt_->checkpoint_now();
  }
}

void KvssdDevice::enable_journaling() {
  if (!ckpt_) return;
  index_->set_journal(ckpt_.get());
  // A replayed journal record must never point into a block erased after
  // the record was produced: persist the buffer before any GC erase.
  alloc_->set_pre_erase_hook(
      [this](std::uint32_t) { (void)ckpt_->flush_journal(); });
}

Status KvssdDevice::checkpoint_now() {
  if (!ckpt_) return Status::kUnsupported;
  if (Status s = store_->flush(); !ok(s)) return s;
  return ckpt_->checkpoint_now();
}

Result<std::unique_ptr<KvssdDevice>> KvssdDevice::recover(
    DeviceConfig cfg, std::unique_ptr<flash::NandDevice> nand,
    RecoveryStats* stats_out) {
  if (!nand) return Status::kInvalidArgument;
  if (nand->geometry().capacity_bytes() != cfg.geometry.capacity_bytes() ||
      nand->geometry().page_size != cfg.geometry.page_size) {
    return Status::kInvalidArgument;
  }
  // Boot after power loss: volatile controller state (wear RAM, transfer
  // counters) is gone; the scan below re-derives wear from the spare
  // stamps. Also re-powers an attached fault injector.
  nand->power_cycle();
  std::unique_ptr<KvssdDevice> dev(new KvssdDevice(cfg, std::move(nand)));

  RecoveryStats stats;
  bool restored = false;
  if (dev->ckpt_) {
    if (auto found = CheckpointManager::find_newest(*dev->nand_, cfg.checkpoint)) {
      if (ok(dev->restore_from_checkpoint(*found, stats))) {
        restored = true;
      } else {
        // The fast path mutated index / allocator state before failing;
        // rebuild a fresh device over the same array and full-scan.
        auto array = dev->release_nand();
        dev.reset(new KvssdDevice(cfg, std::move(array)));
        stats = {};
      }
    }
  }
  if (!restored) {
    // Counted on every full-device scan, checkpointing or not, so the
    // restart path is always attributable from RecoveryStats alone.
    stats.full_scan_fallback = 1;
    if (dev->ckpt_) {
      // The scan's view of the log is about to become authoritative;
      // stale checkpoints and journal pages must not survive it (a crash
      // mid-scan would otherwise replay deltas onto the wrong base).
      dev->ckpt_->invalidate_checkpoints();
      dev->ckpt_->reset_journal();
    }
    auto scan = recover_from_flash(*dev->nand_, *dev->alloc_, *dev->store_,
                                   *dev->index_);
    if (!scan) return scan.status();
    scan->full_scan_fallback = stats.full_scan_fallback;
    stats = *scan;
  }
  stats.pages_read = dev->nand_->stats().page_reads;
  dev->live_bytes_ = stats.live_bytes;
  // Epochs must never regress across a restart: a reused stamp would make
  // two generations of a key indistinguishable to snapshot resolution.
  // Pins themselves do not survive the crash — their holders see
  // kSnapshotTooOld, never torn data.
  dev->snaps_->epochs.raise_to(stats.max_epoch);

  dev->enable_journaling();
  if (dev->ckpt_) {
    dev->ckpt_->init_from_flash();
    // Full-scan result: re-checkpoint immediately so the next restart is
    // O(dirty) again. Fast path: the restored state IS the checkpoint +
    // journal lineage; journaling just continues past the replayed tail.
    if (!restored) {
      (void)dev->ckpt_->checkpoint_now();
    } else {
      // Ghost pairs folded by the fast path exist only above the replayed
      // journal horizon. Append their records first, so any journal flush
      // this life (which advances the horizon past them) carries them.
      for (const auto& gh : dev->rejournal_) {
        if (gh.tombstone) {
          dev->ckpt_->journal_del_located(gh.sig, gh.ppa);
        } else {
          dev->ckpt_->journal_put(gh.sig, gh.ppa);
        }
      }
    }
    dev->rejournal_.clear();
  }
  dev->recovered_ = stats;
  if (stats_out) *stats_out = stats;
  return dev;
}

Status KvssdDevice::restore_from_checkpoint(const CheckpointManager::Found& found,
                                            RecoveryStats& stats) {
  const auto img = CheckpointManager::decode_payload(found.payload);
  if (!img) return Status::kCorruption;
  if (img->index_kind != static_cast<std::uint32_t>(cfg_.index_kind)) {
    return Status::kCorruption;
  }
  if (img->block_live.size() != alloc_->first_reserved_block()) {
    return Status::kCorruption;
  }
  if (Status s = index_->load_image(img->index_image); !ok(s)) return s;

  // Adopt every written block from its write point alone — no page-level
  // scan. Stream and wear come from the first page's spare; in-order,
  // program-once discipline means only the LAST programmed page of a
  // block can be torn, so dropping torn tails needs one read per block.
  const auto& g = nand_->geometry();
  Bytes page(g.page_size);
  Bytes spare(g.spare_size());
  std::vector<std::uint32_t> valid_pages(img->block_live.size(), 0);
  for (std::uint32_t block = 0; block < img->block_live.size(); ++block) {
    const std::uint32_t programmed = nand_->pages_programmed(block);
    if (programmed == 0) continue;
    stats.blocks_adopted++;
    ftl::Stream stream = ftl::Stream::kData;
    if (ok(nand_->read_page(flash::make_ppa(g, block, 0), page, spare)) &&
        flash::page_crc_ok(g, page, spare)) {
      stream = ftl::SpareTag::decode(spare).stream;
      nand_->restore_erase_count(block, flash::spare_wear_stamp(g, spare));
      stats.wear_blocks_restored++;
    }
    std::uint32_t valid = programmed;
    while (valid > 0) {
      const Status s =
          nand_->read_page(flash::make_ppa(g, block, valid - 1), page, spare);
      if (ok(s) && flash::page_crc_ok(g, page, spare)) break;
      stats.torn_pages_dropped++;
      --valid;
    }
    valid_pages[block] = valid;
    if (Status s = alloc_->adopt_block(block, stream, valid); !ok(s)) return s;
    // Live-byte credit is the checkpoint-time value: blocks (re)written
    // since are under-credited, which only skews victim selection — GC
    // validates every pair against the index before relocating, and
    // sub_live saturates at zero.
    if (img->block_live[block] > 0) {
      alloc_->add_live(flash::make_ppa(g, block, 0), img->block_live[block]);
    }
  }

  const auto tail =
      CheckpointManager::read_journal_tail(*nand_, cfg_.checkpoint,
                                           found.journal_mark);
  // A gap means part of the tail was erased (interrupted invalidation):
  // a full-scan condition.
  if (!tail.contiguous) return Status::kCorruption;

  // Journal pages flush on their own cadence, so a durable put record may
  // reference a data extent that was still in the store's RAM buffer at
  // the cut. Such an extent is detectable: its pages sit at-or-past the
  // block's adopted write point, or the head page doesn't parse to a pair
  // of this key.
  const auto extent_durable = [&](std::uint64_t sig, flash::Ppa ppa) -> bool {
    const std::uint32_t block = flash::ppa_block(g, ppa);
    const std::uint32_t pg = flash::ppa_page(g, ppa);
    if (block >= valid_pages.size() || pg >= valid_pages[block]) return false;
    if (!ok(nand_->read_page(ppa, page, spare))) return false;
    if (!flash::page_crc_ok(g, page, spare) ||
        ftl::SpareTag::decode(spare).kind != ftl::PageKind::kDataHead) {
      return false;
    }
    const auto pairs = ftl::parse_head_page(page, g.page_size);
    if (!pairs) return false;
    for (const auto& p : *pairs) {
      if (p.header.sig != sig) continue;
      if (!p.spills) return true;
      // The continuation chain programs right behind the head; it is
      // durable iff it fits under the adopted write point.
      const std::uint32_t need =
          ftl::continuation_pages(g, p.header.pair_bytes());
      return pg + need < valid_pages[block];
    }
    return false;
  };

  // Fold the tail into each key's final durable state, in record order.
  // Put/del records live in the signature namespace and fold to a
  // last-write-wins overlay, applied after the structural pass below. A
  // non-durable put is a no-op rather than an error: no flush can have
  // succeeded after it (flush persists the store buffer before the
  // journal), so the previous resolved state is still at-or-after the
  // key's durability floor. Folding the whole sequence matters for GC
  // chains — an early put's page may have been legitimately erased
  // before the cut, but the collector's pre-erase journal flush then
  // guarantees the superseding repoint record is in this same tail.
  //
  // Repoint / resize / migrate records key directory SLOTS (or the
  // directory itself) and are applied inline, in record order: a resize
  // re-opens the crashed migration window, subsequent generation-tagged
  // repoints land in whichever generation owns their bucket, and a
  // migrate record retires its source bucket only after the records for
  // its split products — the exact order the live index produced them.
  // A record page written back under cache pressure can reference data
  // still in the store's RAM buffer at the cut, so each repointed page
  // is vetted: any entry at-or-past its block's adopted write point
  // rejects the repoint (the image's page plus this tail reconstructs
  // the same durable mappings). Below the write point is sufficient —
  // the index never references an incomplete extent (puts ack only
  // after the store programs the whole extent).
  const auto page_durable = [&](flash::Ppa p) -> bool {
    const std::uint32_t block = flash::ppa_block(g, p);
    return block < valid_pages.size() &&
           flash::ppa_page(g, p) < valid_pages[block];
  };
  // Only a slot's LAST repoint is applied (at its position in the
  // order): an intermediate repoint's page may have been index-GC-erased
  // before the cut, and the pre-erase journal flush guarantees the
  // superseding record is in this same tail.
  std::unordered_map<std::uint64_t, std::size_t> last_repoint;
  for (std::size_t i = 0; i < tail.records.size(); ++i) {
    if (tail.records[i].kind == CheckpointManager::kRecRepoint) {
      last_repoint[tail.records[i].key] = i;
    }
  }
  struct Resolved {
    enum class From : std::uint8_t { kImage, kMapped, kAbsent };
    From from = From::kImage;
    flash::Ppa ppa = flash::kInvalidPpa;
  };
  std::unordered_map<std::uint64_t, Resolved> resolved;
  // Tombstone locations from kRecDelAt records: deletion-epoch evidence
  // for the ghost fold below (the index holds no epoch for absence).
  std::unordered_map<std::uint64_t, flash::Ppa> del_at;
  for (std::size_t i = 0; i < tail.records.size(); ++i) {
    const auto& rec = tail.records[i];
    switch (rec.kind) {
      case CheckpointManager::kRecPut:
        if (extent_durable(rec.key, rec.ppa)) {
          resolved[rec.key] = {Resolved::From::kMapped, rec.ppa};
        }
        break;
      case CheckpointManager::kRecRepoint:
        if (last_repoint[rec.key] != i) break;  // superseded in this tail
        if (Status s =
                index_->apply_journal_repoint(rec.key, rec.ppa, page_durable);
            !ok(s)) {
          return s;
        }
        break;
      case CheckpointManager::kRecResize:
        if (Status s = index_->apply_journal_resize(
                static_cast<std::uint32_t>(rec.key >> 32),
                static_cast<std::uint32_t>(rec.key & 0xFFFFFFFFu));
            !ok(s)) {
          return s;
        }
        break;
      case CheckpointManager::kRecMigrate:
        if (Status s = index_->apply_journal_migrate(rec.key); !ok(s)) {
          return s;
        }
        break;
      case CheckpointManager::kRecDelAt:
        // Durable record implies durable tombstone (store-first flush),
        // and GC relocates unmapped tombstones, so no revalidation: the
        // raw log agrees the key is gone.
        resolved[rec.key] = {Resolved::From::kAbsent, flash::kInvalidPpa};
        del_at[rec.key] = rec.ppa;
        break;
      default:
        return Status::kCorruption;
    }
  }
  // The put/del overlay replays through the non-structural appliers: a
  // replay-triggered resize or bucket migration would be unjournaled and
  // desynchronize this restore from the crashed index, so a record that
  // cannot be placed without structural work aborts to the full scan.
  for (const auto& [sig, r] : resolved) {
    switch (r.from) {
      case Resolved::From::kImage:
        break;  // keep the checkpoint image's mapping (or absence)
      case Resolved::From::kMapped:
        if (Status s = index_->apply_journal_put(sig, r.ppa); !ok(s)) return s;
        break;
      case Resolved::From::kAbsent: {
        // Idempotent; a racing flush may have persisted the erase into
        // the image already.
        if (Status s = index_->apply_journal_erase(sig); !ok(s)) return s;
        break;
      }
    }
  }

  // Unjournaled suffix ("ghosts"): data pairs whose pages were programmed
  // after the last durable journal page were acknowledged, but their
  // records died buffered in the cut. The full scan would adopt them —
  // they carry the newest sequence numbers — so the fast path must fold
  // them too, or a later fallback scan would resurrect writes this
  // restart chose to drop. Within a block sequence numbers ascend with
  // program order, so the ghost region is the page suffix at-or-above
  // the horizon; a block untouched since the last flush settles in one
  // spare read.
  const std::uint64_t horizon = std::max(img->next_seq, tail.max_next_seq);
  struct Ghost {
    std::uint64_t epoch;
    std::uint64_t seq;
    std::size_t offset;
    std::uint64_t sig;
    flash::Ppa ppa;
    bool tombstone;
  };
  std::vector<Ghost> ghosts;
  std::uint64_t max_durable_seq = 0;
  std::uint64_t max_epoch_hw = 0;
  for (std::uint32_t block = 0; block < valid_pages.size(); ++block) {
    for (std::uint32_t pg = valid_pages[block]; pg-- > 0;) {
      const flash::Ppa ppa = flash::make_ppa(g, block, pg);
      if (!ok(nand_->read_page(ppa, page, spare))) continue;  // extent gap
      if (!flash::page_crc_ok(g, page, spare)) continue;
      const ftl::SpareTag tag = ftl::SpareTag::decode(spare);
      if (tag.kind == ftl::PageKind::kDataCont) continue;  // judged at head
      if (tag.kind != ftl::PageKind::kDataHead) break;     // index/meta block
      const ftl::DataPageSpare dspare = ftl::DataPageSpare::decode(spare);
      const std::uint64_t seq = dspare.seq;
      // Sequence numbers ascend with page order, so this first head page
      // read per block carries the block's maximum durable sequence; its
      // epoch high-water likewise bounds every stamp in the block (both
      // are monotone in program order).
      max_durable_seq = std::max(max_durable_seq, seq);
      max_epoch_hw = std::max(max_epoch_hw, dspare.epoch_hw);
      if (seq < horizon) break;  // everything below is journal-covered
      const auto pairs = ftl::parse_head_page(page, g.page_size);
      if (!pairs) continue;
      // Same rule as the full scan: an incomplete trailing extent drops
      // its whole head page (it only ever sits at a block's very top).
      if (!pairs->empty() && pairs->back().spills) {
        const std::uint32_t need =
            ftl::continuation_pages(g, pairs->back().header.pair_bytes());
        if (pg + need >= valid_pages[block]) continue;
      }
      for (const auto& p : *pairs) {
        ghosts.push_back(Ghost{p.header.epoch, seq, p.offset, p.header.sig,
                               ppa, p.header.tombstone});
      }
    }
  }
  // Epoch-major, like the full scan's winner ordering: GC may have
  // relocated a snapshot-retained OLD version above the horizon (crash
  // between the relocation flush and the pre-erase journal flush), and
  // such a pair carries its ORIGINAL stamp with a top-of-log sequence.
  std::sort(ghosts.begin(), ghosts.end(), [](const Ghost& a, const Ghost& b) {
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    return a.seq != b.seq ? a.seq < b.seq : a.offset < b.offset;
  });
  rejournal_.clear();
  for (const Ghost& gh : ghosts) {
    // Every legitimately-unjournaled op postdates the checkpoint build
    // (the checkpoint's own flush pushed anything older below the
    // horizon), so its stamp exceeds the image's epoch high-water. A
    // ghost at-or-below it can only be a relocated old version — already
    // superseded somewhere in the durable log — and must not fold: a put
    // would resurrect, a tombstone is a no-op against its absent sig.
    if (gh.epoch <= img->epoch) continue;
    // Same hazard when the superseding write is journal-resolved: fold
    // only if the ghost is at least as new as the sig's current mapping
    // (or, for an unmapped sig, its kRecDelAt tombstone).
    const auto cur = index_->lookup(gh.sig);
    if (!cur) return cur.status();
    if (*cur) {
      const auto meta = store_->read_pair_meta(**cur, gh.sig);
      if (meta && meta->epoch > gh.epoch) continue;
    } else if (const auto del = del_at.find(gh.sig); del != del_at.end()) {
      const auto meta = store_->read_pair_meta(del->second, gh.sig);
      if (meta && meta->tombstone && meta->epoch > gh.epoch) continue;
    }
    if (gh.tombstone) {
      if (Status s = index_->apply_journal_erase(gh.sig); !ok(s)) return s;
    } else {
      if (Status s = index_->apply_journal_put(gh.sig, gh.ppa); !ok(s)) return s;
    }
    rejournal_.push_back(Rejournal{gh.sig, gh.ppa, gh.tombstone});
  }

  // Data-page sequence numbers advance without journal records; the
  // journaled horizon plus the page population bounds that advance ONLY
  // while every erase writes a journal page — but an erase whose victim
  // produced no records (e.g. only tombstone relocations) records
  // nothing, and incremental background GC makes such erases routine.
  // The ghost scan above read the topmost head page of every data block,
  // i.e. the true maximum durable sequence, so combine both: never
  // hand out a sequence number a durable page could shadow.
  store_->set_next_seq(std::max(std::max(img->next_seq, tail.max_next_seq) +
                                    g.pages_total(),
                                max_durable_seq) +
                       1);
  // Approximate (checkpoint-time) figure; ops journaled after it shift
  // the true value. Introspection only — liveness accounting is per
  // block and self-corrects through GC validation.
  stats.live_bytes = img->live_bytes;
  // The image's key count predates the journal tail, and the repoint
  // records above fast-forwarded directory slots to pages that already
  // hold the tail's keys — the put/del overlay re-applied those as
  // updates, not inserts, so the incremental count stayed at the
  // checkpoint's value. Recount from table occupancy: an undercount
  // starves the resize trigger until inserts physically fail.
  if (Status s = index_->recount_keys(); !ok(s)) return s;
  stats.keys_recovered = index_->size();
  stats.journal_pages_replayed = tail.pages;
  stats.journal_records_replayed = tail.records.size();
  stats.checkpoint_restored = 1;
  stats.checkpoint_version = found.version;
  stats.max_seq = store_->next_seq() - 1;
  // Epoch high-water: the payload's value covers an idle device, the
  // topmost spare per data block covers everything programmed since.
  stats.max_epoch = std::max(max_epoch_hw, img->epoch);
  return Status::kOk;
}

std::unique_ptr<flash::NandDevice> KvssdDevice::release_nand() {
  return std::move(nand_);
}

std::uint64_t KvssdDevice::signature_for(const DeviceConfig& cfg, ByteSpan key) {
  if (cfg.prefix_signatures) return hash::prefix_signature(key);
  return hash::murmur2_64(key);
}

std::uint64_t KvssdDevice::signature(ByteSpan key) const {
  return signature_for(cfg_, key);
}

void KvssdDevice::charge_command(bool async) {
  const SimTime cost =
      async ? cfg_.cmd_overhead_ns / std::max<std::uint32_t>(1, cfg_.queue_depth)
            : cfg_.cmd_overhead_ns;
  clock_.advance(cost);
}

void KvssdDevice::retire_version(std::uint64_t sig, Ppa ppa,
                                 std::uint64_t epoch,
                                 std::uint64_t total_bytes) {
  // A pin at epoch p reads the dying version [epoch, mutation_epoch_)
  // iff epoch <= p < mutation_epoch_, so it is kept only while the newest
  // pin is at or above its stamp; a version written after every pin is
  // freed now.
  // Both checks are racy only in the safe direction: open() bumps the
  // count and raises newest BEFORE advancing the epoch (all seq_cst), so
  // a read that skips retention means any concurrent pin lands
  // at-or-after this mutation's stamp and never needed the old version.
  // Same-stamp overwrites (one batch touching a key twice) have an empty
  // visibility window [e, e) — free immediately.
  const ftl::SnapshotRegistry& reg = snaps_->registry;
  if (reg.pin_count() != 0 && epoch < mutation_epoch_ && reg.newest() >= epoch) {
    retainer_->capture(sig,
                       ftl::RetainedVersion{ppa, epoch, mutation_epoch_,
                                            total_bytes});
  } else {
    store_->note_stale(ppa, total_bytes);
  }
}

bool KvssdDevice::pump_background() {
  // Best-effort: an IO failure here (powered-off injector, device full)
  // resurfaces on the next foreground op; the quantum itself must never
  // fail an already-completed command.
  bool did_work = false;
  (void)gc_->background_tick(&did_work);
  // An in-flight index doubling drains on the same quantum cadence as
  // GC, so foreground ops are never charged migration work.
  if (index_->pump_maintenance(0)) did_work = true;
  // Retained versions whose windows dropped below the pin floor become
  // ordinary stale bytes for GC to reclaim.
  if (!retainer_->empty()) {
    retainer_->reclaim(
        [this](Ppa p, std::uint64_t bytes) { store_->note_stale(p, bytes); });
  }
  return did_work;
}

Status KvssdDevice::reclaim() {
  stats_.gc_invocations++;
  obs::StageScope gc_span(active_trace_, obs::Stage::kGc, clock_);
  const Status s = gc_->collect(kGcTargetFreeBlocks);
  // kDeviceFull from GC means nothing reclaimable; the caller decides
  // whether the foreground operation can still proceed.
  return s == Status::kDeviceFull ? Status::kOk : s;
}

Status KvssdDevice::put_locked(ByteSpan key, ByteSpan value) {
  if (key.empty() || key.size() > kMaxKeySize) return Status::kInvalidArgument;
  if (value.size() > store_->max_value_size(key.size())) {
    return Status::kInvalidArgument;
  }
  if (alloc_->needs_gc()) {
    if (Status s = reclaim(); !ok(s)) return s;
  }

  const std::uint64_t sig = signature(key);

  // Key-exist check (§IV-A): if the signature maps to a stored pair we
  // must fetch its key — an update keeps the index entry, while a
  // different key with the same signature is an uncorrectable collision
  // the device rejects (§VI "Collision Management").
  const auto looked = [&] {
    obs::StageScope span(active_trace_, obs::Stage::kIndex, clock_);
    return index_->lookup(sig);
  }();
  // A metadata read failure must fail the put: treating it as "not found"
  // would let this write orphan a live pair under the same signature.
  if (!looked) return looked.status();
  const std::optional<Ppa> old_ppa = *looked;
  std::uint64_t old_total = 0;
  std::uint64_t old_epoch = 0;
  if (old_ppa) {
    obs::StageScope span(active_trace_, obs::Stage::kFlash, clock_);
    auto meta = store_->read_pair_meta(*old_ppa, sig);
    if (!meta) return meta.status();
    if (ByteSpan{meta->key} .size() != key.size() ||
        !std::equal(key.begin(), key.end(), meta->key.begin())) {
      stats_.collision_rejects++;
      return Status::kCollisionAbort;
    }
    old_total = meta->total_bytes;
    old_epoch = meta->epoch;
  }

  const auto timed_write = [&] {
    obs::StageScope span(active_trace_, obs::Stage::kFlash, clock_);
    return store_->write_pair(sig, key, value, /*for_gc=*/false,
                              mutation_epoch_);
  };
  auto new_ppa = timed_write();
  if (!new_ppa && new_ppa.status() == Status::kDeviceFull) {
    // Out of space mid-write: reclaim and retry once.
    if (Status s = reclaim(); !ok(s)) return s;
    new_ppa = timed_write();
  }
  if (!new_ppa) {
    if (new_ppa.status() == Status::kDeviceFull) stats_.device_full++;
    return new_ppa.status();
  }

  const Status ist = [&] {
    obs::StageScope span(active_trace_, obs::Stage::kIndex, clock_);
    return index_->put(sig, *new_ppa);
  }();
  if (!ok(ist)) {
    // The pair hit flash but the index rejected the record: undo the
    // liveness accounting so GC reclaims the orphan bytes.
    store_->note_stale(*new_ppa,
                       ftl::FlashKvStore::pair_bytes(key.size(), value.size()));
    if (ist == Status::kCollisionAbort) stats_.collision_rejects++;
    return ist;
  }
  if (old_ppa) {
    retire_version(sig, *old_ppa, old_epoch, old_total);
    live_bytes_ -= old_total;
  }
  live_bytes_ += ftl::FlashKvStore::pair_bytes(key.size(), value.size());
  stats_.puts++;
  stats_.bytes_put += value.size() + key.size();
  return Status::kOk;
}

Status KvssdDevice::get_locked(ByteSpan key, Bytes* value_out) {
  if (key.empty() || key.size() > kMaxKeySize) return Status::kInvalidArgument;
  const std::uint64_t sig = signature(key);
  const auto looked = [&] {
    obs::StageScope span(active_trace_, obs::Stage::kIndex, clock_);
    return index_->lookup(sig);
  }();
  if (!looked) return looked.status();  // I/O error, not a miss
  const std::optional<Ppa> ppa = *looked;
  if (!ppa) {
    stats_.not_found++;
    return Status::kNotFound;
  }
  Bytes stored_key;
  {
    obs::StageScope span(active_trace_, obs::Stage::kFlash, clock_);
    if (Status s = store_->read_pair(*ppa, sig, &stored_key, value_out);
        !ok(s)) {
      return s;
    }
  }
  // Full-key recheck defeats signature collisions (§IV-A3).
  if (stored_key.size() != key.size() ||
      !std::equal(key.begin(), key.end(), stored_key.begin())) {
    stats_.not_found++;
    if (value_out) value_out->clear();
    return Status::kNotFound;
  }
  stats_.gets++;
  if (value_out) stats_.bytes_got += value_out->size();
  return Status::kOk;
}

Status KvssdDevice::del_locked(ByteSpan key) {
  if (key.empty() || key.size() > kMaxKeySize) return Status::kInvalidArgument;
  const std::uint64_t sig = signature(key);
  const auto looked = [&] {
    obs::StageScope span(active_trace_, obs::Stage::kIndex, clock_);
    return index_->lookup(sig);
  }();
  if (!looked) return looked.status();  // I/O error, not a miss
  const std::optional<Ppa> ppa = *looked;
  if (!ppa) {
    stats_.not_found++;
    return Status::kNotFound;
  }
  // Fetch and match the key before deleting (§IV-A), as a signature
  // collision must not delete a different application's pair.
  auto meta = [&] {
    obs::StageScope span(active_trace_, obs::Stage::kFlash, clock_);
    return store_->read_pair_meta(*ppa, sig);
  }();
  if (!meta) return meta.status();
  if (ByteSpan{meta->key}.size() != key.size() ||
      !std::equal(key.begin(), key.end(), meta->key.begin())) {
    stats_.not_found++;
    return Status::kNotFound;
  }
  {
    obs::StageScope span(active_trace_, obs::Stage::kIndex, clock_);
    if (Status s = index_->erase(sig); !ok(s)) return s;
  }
  retire_version(sig, *ppa, meta->epoch, meta->total_bytes);
  live_bytes_ -= meta->total_bytes;

  // Durable deletion record (crash recovery replays it). The bytes just
  // freed make GC productive if the log is out of space; if even GC
  // cannot help (everything else live), the tiny tombstone may dip into
  // the GC reserve — deletion must always be possible on a full device.
  const auto timed_tombstone = [&](bool for_gc) {
    obs::StageScope span(active_trace_, obs::Stage::kFlash, clock_);
    return store_->write_tombstone(sig, key, for_gc, mutation_epoch_);
  };
  auto ts = timed_tombstone(/*for_gc=*/false);
  if (!ts && ts.status() == Status::kDeviceFull) {
    if (Status s = reclaim(); !ok(s)) return s;
    ts = timed_tombstone(/*for_gc=*/false);
    if (!ts && ts.status() == Status::kDeviceFull) {
      ts = timed_tombstone(/*for_gc=*/true);
    }
  }
  if (!ts) return ts.status();
  // The deletion's one journal record, appended only once the tombstone
  // landed: with flush_journal's store-first ordering, a durable record
  // implies a durable tombstone.
  if (ckpt_) ckpt_->journal_del_located(sig, *ts);
  stats_.deletes++;
  return Status::kOk;
}

Status KvssdDevice::put(ByteSpan key, ByteSpan value) {
  const SimTime t0 = clock_.now();
  charge_command(/*async=*/false);
  obs::OpTrace tr;
  const bool traced = obs_begin(tr, obs::OpKind::kPut, t0, /*enqueue_ns=*/t0);
  begin_mutation_batch();
  const Status s = put_locked(key, value);
  if (traced) obs_finish(tr, s);
  if (ckpt_) ckpt_->tick();
  (void)pump_background();
  return s;
}

Status KvssdDevice::get(ByteSpan key, Bytes* value_out) {
  const SimTime t0 = clock_.now();
  charge_command(/*async=*/false);
  obs::OpTrace tr;
  const bool traced = obs_begin(tr, obs::OpKind::kGet, t0, /*enqueue_ns=*/t0);
  const Status s = get_locked(key, value_out);
  if (traced) obs_finish(tr, s);
  return s;
}

Status KvssdDevice::del(ByteSpan key) {
  const SimTime t0 = clock_.now();
  charge_command(/*async=*/false);
  obs::OpTrace tr;
  const bool traced = obs_begin(tr, obs::OpKind::kDel, t0, /*enqueue_ns=*/t0);
  begin_mutation_batch();
  const Status s = del_locked(key);
  if (traced) obs_finish(tr, s);
  if (ckpt_) ckpt_->tick();
  (void)pump_background();
  return s;
}

Status KvssdDevice::exist(ByteSpan key) {
  if (key.empty() || key.size() > kMaxKeySize) return Status::kInvalidArgument;
  charge_command(/*async=*/false);
  stats_.exists++;
  // Signature-only membership (§IV-A3). A metadata read failure is the
  // lookup's error, never a "not found".
  const auto looked = index_->lookup(signature(key));
  if (!looked) return looked.status();
  return *looked ? Status::kOk : Status::kNotFound;
}

Result<api::SnapshotHandle> KvssdDevice::open_snapshot() {
  charge_command(/*async=*/false);
  const ftl::SnapshotRegistry::Pin pin = snaps_->registry.open();
  return api::SnapshotHandle{pin.id, pin.epoch};
}

Status KvssdDevice::release_snapshot(const api::SnapshotHandle& snap) {
  charge_command(/*async=*/false);
  return snaps_->registry.release(snap.id, snap.epoch);
}

Status KvssdDevice::read_at(const api::SnapshotHandle& snap, ByteSpan key,
                            Bytes* value_out) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::kInvalidArgument;
  }
  charge_command(/*async=*/false);
  const auto epoch = snaps_->registry.epoch_of(snap.id);
  if (!epoch) return epoch.status();  // expired / unknown pin
  // Pin ids are unique across power cycles, so a stale handle's id is
  // unknown to a recovered registry (kSnapshotTooOld above); the epoch
  // cross-check also rejects a handle whose epoch was never this pin's.
  // Erroring beats reading at the wrong epoch.
  if (snap.epoch != 0 && *epoch != snap.epoch) return Status::kSnapshotTooOld;

  const std::uint64_t sig = signature(key);
  const auto looked = index_->lookup(sig);
  if (!looked) return looked.status();
  if (*looked) {
    // Current version first: visible iff its stamp is at or below the
    // pinned epoch (an index hit is never a tombstone — deletes unmap).
    Bytes stored_key;
    Bytes value;
    std::uint64_t e = 0;
    if (Status s = store_->read_pair(**looked, sig, &stored_key, &value, &e);
        !ok(s)) {
      return s;
    }
    if (e <= *epoch) {
      if (stored_key.size() != key.size() ||
          !std::equal(key.begin(), key.end(), stored_key.begin())) {
        stats_.not_found++;
        return Status::kNotFound;  // signature collision (§IV-A3)
      }
      stats_.gets++;
      stats_.bytes_got += value.size();
      if (value_out) *value_out = std::move(value);
      return Status::kOk;
    }
  }
  // Superseded (or deleted) after the pin: the retainer holds the version
  // visible at the pinned epoch, if the key existed then at all.
  if (const ftl::RetainedVersion* v = retainer_->resolve(sig, *epoch)) {
    Bytes stored_key;
    Bytes value;
    bool tomb = false;
    if (Status s = store_->read_pair_at(v->ppa, sig, *epoch, &stored_key,
                                        &value, &tomb);
        !ok(s)) {
      return s;
    }
    if (!tomb && stored_key.size() == key.size() &&
        std::equal(key.begin(), key.end(), stored_key.begin())) {
      stats_.gets++;
      stats_.bytes_got += value.size();
      if (value_out) *value_out = std::move(value);
      return Status::kOk;
    }
  }
  stats_.not_found++;
  return Status::kNotFound;
}

Result<std::uint64_t> KvssdDevice::kvs_open_iterator(
    ByteSpan prefix, const api::SnapshotHandle* snap) {
  if (!cfg_.prefix_signatures) return Status::kUnsupported;
  charge_command(/*async=*/false);
  stats_.iterates++;
  if (snap != nullptr) {
    // Caller-owned pin, with the stale-handle guard of read_at.
    const auto epoch = snaps_->registry.epoch_of(snap->id);
    if (!epoch) return epoch.status();
    if (snap->epoch != 0 && *epoch != snap->epoch) return Status::kSnapshotTooOld;
    return iter_mgr_->open(prefix, {snap->id, *epoch}, /*owns_pin=*/false);
  }
  // No snapshot given: pin one for the iterator's lifetime.
  const ftl::SnapshotRegistry::Pin pin = snaps_->registry.open();
  auto handle = iter_mgr_->open(prefix, pin, /*owns_pin=*/true);
  if (!handle) (void)snaps_->registry.release(pin.id);
  return handle;
}

Status KvssdDevice::kvs_iterator_next(std::uint64_t handle,
                                      std::size_t max_keys,
                                      std::vector<Bytes>* keys_out) {
  if (!cfg_.prefix_signatures) return Status::kUnsupported;
  charge_command(/*async=*/false);
  return iter_mgr_->next(handle, max_keys, keys_out);
}

Status KvssdDevice::kvs_close_iterator(std::uint64_t handle) {
  if (!cfg_.prefix_signatures) return Status::kUnsupported;
  charge_command(/*async=*/false);
  return iter_mgr_->close(handle);
}

std::size_t KvssdDevice::drain() {
  std::size_t completed = 0;
  std::vector<QueuedOp> ops;
  std::vector<std::uint32_t> order;
  std::vector<api::TaggedCompletion> batch;
  Bytes value;
  // Outer loop: a sink may submit follow-up commands; they drain in the
  // same call.
  while (!queue_.empty()) {
    ops.assign(std::make_move_iterator(queue_.begin()),
               std::make_move_iterator(queue_.end()));
    queue_.clear();
    // One epoch per drained batch (not per op): snapshot granularity is
    // the queue snapshot, matching the paper's batch-ack semantics.
    begin_mutation_batch();

    // Index-aware batch drain: execute the snapshot grouped by the
    // index's locality bucket, so a record page is loaded once per group
    // instead of once per op under cache pressure. The sort is stable
    // and same-key ops share a signature (hence a group), so per-key
    // ordering — the only ordering the async API guarantees — holds.
    order.resize(ops.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    if (cfg_.batch_drain_grouping && ops.size() > 1) {
      // (group, submit index) pairs under plain std::sort yield the same
      // permutation a stable sort by group alone would — the index
      // component breaks ties in submission order — without the merge
      // buffer and comparator indirection stable_sort pays per batch.
      std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(ops.size());
      for (std::uint32_t i = 0; i < keyed.size(); ++i) {
        keyed[i] = {index_->locality_group(signature(ops[i].cmd.key)), i};
      }
      std::sort(keyed.begin(), keyed.end());
      for (std::size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
    }

    for (const std::uint32_t i : order) {
      api::Command& cmd = ops[i].cmd;
      const SimTime t0 = clock_.now();
      charge_command(/*async=*/true);
      obs::OpTrace tr;
      bool traced = false;
      Status s = Status::kOk;
      switch (cmd.op) {
        case api::Command::Op::kPut:
          traced = obs_begin(tr, obs::OpKind::kPut, t0, ops[i].enqueue_ns);
          s = put_locked(cmd.key, cmd.value);
          if (traced) obs_finish(tr, s);
          break;
        case api::Command::Op::kGet:
          value.clear();
          traced = obs_begin(tr, obs::OpKind::kGet, t0, ops[i].enqueue_ns);
          s = get_locked(cmd.key, &value);
          if (traced) obs_finish(tr, s);
          break;
        case api::Command::Op::kDel:
          traced = obs_begin(tr, obs::OpKind::kDel, t0, ops[i].enqueue_ns);
          s = del_locked(cmd.key);
          if (traced) obs_finish(tr, s);
          break;
      }
      if (sink_) {
        // No per-op dispatch: the whole batch crosses to the sink in one
        // call after the snapshot finishes.
        api::TaggedCompletion& c = batch.emplace_back();
        c.tag = cmd.tag;
        c.op = cmd.op;
        c.status = s;
        c.key = std::move(cmd.key);
        if (cmd.op == api::Command::Op::kGet) c.value = std::move(value);
      }
      ++completed;
    }
    if (!batch.empty()) {
      sink_(std::move(batch));
      batch.clear();
    }
    if (ckpt_) ckpt_->tick();
    (void)pump_background();
  }
  return completed;
}

Status KvssdDevice::flush() {
  if (Status s = store_->flush(); !ok(s)) return s;
  if (Status s = index_->flush(); !ok(s)) return s;
  // Journal durability rides on flush: acked-but-unflushed ops are the
  // only ones a crash may roll back, so records for flushed ops must be
  // on flash before flush() reports success.
  return ckpt_ ? ckpt_->flush_journal() : Status::kOk;
}

// -- Observability -------------------------------------------------------------

bool KvssdDevice::obs_begin(obs::OpTrace& tr, obs::OpKind kind,
                            SimTime exec_start, SimTime enqueue_ns) {
  if (!cfg_.obs.metrics) return false;
  assert(kind != obs::OpKind::kExist);  // no stage timers for exist
  tr.seq = op_seq_++;
  tr.kind = kind;
  tr.start_ns = exec_start;
  tr.queue_ns = exec_start - enqueue_ns;
  tr.nand_reads_at_start = nand_->stats().page_reads;
  tr.index_reads_at_start = index_->op_stats().flash_reads;
  active_trace_ = &tr;
  return true;
}

void KvssdDevice::obs_finish(obs::OpTrace& tr, Status s) {
  active_trace_ = nullptr;
  tr.status = s;
  tr.total_ns = clock_.now() - tr.start_ns;
  tr.flash_reads = nand_->stats().page_reads - tr.nand_reads_at_start;
  tr.index_flash_reads =
      index_->op_stats().flash_reads - tr.index_reads_at_start;

  StageTimers& t = stage_timers_[static_cast<std::size_t>(tr.kind)];
  t.total_ns.record(tr.total_ns);
  t.queue_ns.record(tr.queue_ns);
  t.index_ns.record(tr.stage(obs::Stage::kIndex));
  t.flash_ns.record(tr.stage(obs::Stage::kFlash));
  t.gc_ns.record(tr.stage(obs::Stage::kGc));
  t.flash_reads.record(tr.flash_reads);
  t.index_flash_reads.record(tr.index_flash_reads);

  if (cfg_.obs.trace_sample_every != 0 &&
      tr.seq % cfg_.obs.trace_sample_every == 0) {
    trace_ring_.push(tr);
  }
  if (dump_fn_ && cfg_.obs.dump_period_ns > 0 && clock_.now() >= next_dump_ns_) {
    // Catch up past periods in one fire (ops can jump the sim clock).
    const SimTime now = clock_.now();
    while (next_dump_ns_ <= now) next_dump_ns_ += cfg_.obs.dump_period_ns;
    dump_fn_(now, metrics_snapshot());
  }
}

void KvssdDevice::set_metrics_dump(MetricsDumpFn fn) {
  dump_fn_ = std::move(fn);
  next_dump_ns_ = clock_.now() + cfg_.obs.dump_period_ns;
}

obs::MetricsSnapshot KvssdDevice::metrics_snapshot() const {
  obs::MetricsSnapshot snap;
  snap.captured_at_ns = clock_.now();
  if (cfg_.obs.metrics) {
    for (const obs::OpKind kind :
         {obs::OpKind::kPut, obs::OpKind::kGet, obs::OpKind::kDel}) {
      const StageTimers& t = stage_timers_[static_cast<std::size_t>(kind)];
      const std::string op = std::string("op.") + obs::to_string(kind) + ".";
      snap.add_timer(op + "total_ns", t.total_ns);
      snap.add_timer(op + "queue_ns", t.queue_ns);
      snap.add_timer(op + "index_ns", t.index_ns);
      snap.add_timer(op + "flash_ns", t.flash_ns);
      snap.add_timer(op + "gc_ns", t.gc_ns);
      snap.add_timer(op + "flash_reads", t.flash_reads);
      snap.add_timer(op + "index_flash_reads", t.index_flash_reads);
    }
  }
  stats_.publish(snap);
  nand_->stats().publish(snap);
  gc_->stats().publish(snap);
  store_->stats().publish(snap);
  index_->op_stats().publish(snap);
  index_->cache_stats().publish(snap);
  if (const flash::FaultInjector* fi = nand_->fault_injector()) {
    fi->stats().publish(snap);
  }
  if (ckpt_) ckpt_->stats().publish(snap);
  if (recovered_) recovered_->publish(snap);

  snap.add_counter("trace.recorded", trace_ring_.recorded());
  // Write amplification in milli-units: (user bytes + GC-relocated
  // bytes) / user bytes * 1000, so 1000 means no relocation overhead.
  const std::uint64_t user_bytes = stats_.bytes_put;
  const std::int64_t wa_milli =
      user_bytes == 0
          ? 1000
          : static_cast<std::int64_t>(
                (user_bytes + gc_->stats().bytes_relocated) * 1000 / user_bytes);
  snap.set_gauge("gc.wa", wa_milli, obs::MergeMode::kMax);
  // Max/mean block erase-count spread over the log region, milli-units.
  snap.set_gauge(
      "nand.erase_spread",
      static_cast<std::int64_t>(
          ftl::erase_spread(*nand_, alloc_->first_reserved_block()) * 1000.0),
      obs::MergeMode::kMax);
  snap.set_gauge("clock.now_ns", static_cast<std::int64_t>(clock_.now()),
                 obs::MergeMode::kMax);
  snap.set_gauge("clock.stall_ns",
                 static_cast<std::int64_t>(clock_.total_stall()),
                 obs::MergeMode::kMax);
  snap.set_gauge("device.live_bytes", static_cast<std::int64_t>(live_bytes_));
  // MVCC snapshot state. The registry/epoch gauges merge with kMax: in an
  // array every shard reports the SAME shared context, so summing would
  // multiply by the shard count.
  snaps_->registry.stats().publish(snap);
  retainer_->stats().publish(snap);
  snap.set_gauge("snapshot.epoch",
                 static_cast<std::int64_t>(snaps_->epochs.current()),
                 obs::MergeMode::kMax);
  snap.set_gauge("snapshot.open_pins",
                 static_cast<std::int64_t>(snaps_->registry.open_pins()),
                 obs::MergeMode::kMax);
  snap.set_gauge("snapshot.retained_bytes",
                 static_cast<std::int64_t>(snaps_->registry.retained_bytes()),
                 obs::MergeMode::kMax);
  snap.set_gauge("retainer.versions",
                 static_cast<std::int64_t>(retainer_->size()));
  snap.set_gauge("device.key_count", static_cast<std::int64_t>(index_->size()));
  snap.set_gauge("index.capacity", static_cast<std::int64_t>(index_->capacity()));
  snap.set_gauge("index.dram_bytes",
                 static_cast<std::int64_t>(index_->dram_bytes()));
  return snap;
}

}  // namespace rhik::kvssd
