#include "ftl/gc.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "ftl/mvcc.hpp"

namespace rhik::ftl {

using flash::Ppa;

double erase_spread(const flash::NandDevice& nand, std::uint32_t nblocks) {
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const std::uint64_t e = nand.erase_count(b);
    max = std::max(max, e);
    sum += e;
  }
  if (nblocks == 0 || sum == 0) return 1.0;
  return static_cast<double>(max) * nblocks / static_cast<double>(sum);
}

GarbageCollector::GarbageCollector(flash::NandDevice* nand, PageAllocator* alloc,
                                   FlashKvStore* store, GcIndexHooks* hooks,
                                   GcConfig cfg)
    : nand_(nand), alloc_(alloc), store_(store), hooks_(hooks), cfg_(cfg) {
  assert(nand_ && alloc_ && store_ && hooks_);
  store_->set_cold_separation(cfg_.hot_cold_separation);
  alloc_->set_wear_aware(cfg_.wear_leveling_threshold > 0.0);
}

Status GarbageCollector::collect(std::uint32_t target_free) {
  // One victim that frees no net block does not prove the device full:
  // relocating a mostly stale victim's few live pairs can open a fresh
  // block, which the next victims fill. A second such victim does — the
  // best victims left are (almost) fully live, and relocation consumes
  // as much as the erase frees.
  bool stalled = false;
  while (alloc_->free_blocks() < target_free) {
    const std::uint32_t before = alloc_->free_blocks();
    if (Status s = collect_one(); !ok(s)) return s;
    if (alloc_->free_blocks() <= before && std::exchange(stalled, true)) {
      return Status::kDeviceFull;
    }
  }
  return Status::kOk;
}

Status GarbageCollector::collect_one() {
  // A background victim in flight is finished rather than a second one
  // started: its already-relocated pages must not be re-scanned.
  if (!victim_) {
    const auto block = alloc_->pick_victim(cfg_.policy);
    if (!block) return Status::kDeviceFull;
    if (Status s = start_victim(*block); !ok(s)) return s;
  }
  return step_victim(UINT32_MAX);
}

Status GarbageCollector::start_victim(std::uint32_t block) {
  // The store's open write buffers may target the victim block's final
  // page (a block seals the moment its last page is handed out, possibly
  // before that page is programmed). Persist such a buffer so the scan
  // sees it and its pairs can be relocated before the erase.
  if (Status s = store_->flush_block(block); !ok(s)) return s;
  stats_.runs++;
  victim_sigs_.clear();
  victim_ = InProgress{block, 0, stats_.pairs_relocated};
  return Status::kOk;
}

Status GarbageCollector::step_victim(std::uint32_t max_pages) {
  InProgress& v = *victim_;
  if (Status s = relocate_pages(v.block, &v.next_page, max_pages); !ok(s)) {
    victim_.reset();
    return s;
  }
  if (v.next_page < alloc_->pages_used(v.block)) return Status::kOk;
  const InProgress done = v;
  victim_.reset();
  return finish_victim(done.block, done.pairs_before);
}

Status GarbageCollector::finish_victim(std::uint32_t block,
                                       std::uint64_t pairs_before) {
  // If the victim holds the durable copy of a signature whose newest
  // version is still buffered in the hot open page (a put or delete the
  // host was already acknowledged for), that record was skipped as
  // stale above — but until the buffer programs, the victim's copy is
  // the only durable trace of the key. Persist the buffer before the
  // erase, or a power cut would roll the key back past its durability
  // floor (or resurrect a deleted one).
  for (const std::uint64_t sig : victim_sigs_) {
    if (store_->hot_buffer_contains(sig)) {
      if (Status s = store_->flush_hot(); !ok(s)) return s;
      break;
    }
  }
  victim_sigs_.clear();
  // Relocated pairs and tombstones may still sit in the store's open
  // write buffer. Persist them BEFORE erasing the victim: a power cut
  // between the erase and the eventual flush would otherwise destroy
  // the only durable copy of data the host was long ago acknowledged
  // for. Flushing first leaves duplicates across source and destination
  // at worst, and recovery resolves those by sequence number.
  if (stats_.pairs_relocated > pairs_before) {
    if (Status s = store_->flush_relocations(); !ok(s)) return s;
  }
  if (Status s = alloc_->reclaim_block(block); !ok(s)) return s;
  stats_.blocks_reclaimed++;
  return Status::kOk;
}

Status GarbageCollector::background_tick(bool* did_work) {
  if (did_work) *did_work = false;
  if (cfg_.background_free_blocks == 0 || cfg_.quantum_pages == 0) {
    return Status::kOk;
  }
  if (!victim_) {
    // Periodic static wear pass: long-lived cold blocks freeze their
    // erase counts while hot blocks cycle; when the spread exceeds the
    // threshold, migrate the coldest block so its low-wear cells rejoin
    // the free pool. Checked rarely — a migration moves a whole block.
    if (cfg_.wear_leveling_threshold > 0.0 &&
        ++wear_check_countdown_ >= cfg_.wear_check_quanta) {
      wear_check_countdown_ = 0;
      if (const auto b = wear_victim()) {
        if (Status s = start_victim(*b); !ok(s)) return s;
        if (Status s = step_victim(UINT32_MAX); !ok(s)) return s;
        stats_.wear_migrations++;
        if (did_work) *did_work = true;
        return Status::kOk;
      }
    }
    if (alloc_->free_blocks() >= cfg_.background_free_blocks) {
      return Status::kOk;
    }
    const auto victim = alloc_->pick_victim(cfg_.policy);
    if (!victim) return Status::kOk;  // nothing sealed yet
    // A (nearly) fully live victim frees almost nothing: collecting it
    // in the background would churn writes forever on a genuinely full
    // device. Leave it to foreground pressure, whose no-progress check
    // turns that condition into kDeviceFull for the host.
    const std::uint64_t cap = nand_->geometry().block_bytes();
    if (alloc_->block_live_bytes(*victim) * 10 >= cap * 9) return Status::kOk;
    if (Status s = start_victim(*victim); !ok(s)) return s;
  }
  if (Status s = step_victim(cfg_.quantum_pages); !ok(s)) return s;
  stats_.background_quanta++;
  if (did_work) *did_work = true;
  return Status::kOk;
}

std::optional<std::uint32_t> GarbageCollector::wear_victim() const {
  const std::uint32_t nblocks = alloc_->first_reserved_block();
  if (erase_spread(*nand_, nblocks) <= cfg_.wear_leveling_threshold) {
    return std::nullopt;
  }
  std::uint64_t sum = 0;
  for (std::uint32_t b = 0; b < nblocks; ++b) sum += nand_->erase_count(b);
  const double mean = static_cast<double>(sum) / nblocks;
  // The coldest sealed block: least erased (strictly below the mean, so
  // migrating it actually narrows the spread).
  std::optional<std::uint32_t> best;
  std::uint64_t best_erase = UINT64_MAX;
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    if (!alloc_->is_sealed(b)) continue;
    const std::uint64_t e = nand_->erase_count(b);
    if (static_cast<double>(e) >= mean) continue;
    if (e < best_erase) {
      best_erase = e;
      best = b;
    }
  }
  return best;
}

Status GarbageCollector::relocate_pages(std::uint32_t block, std::uint32_t* page,
                                        std::uint32_t max_pages) {
  const auto& g = nand_->geometry();
  const std::uint32_t used = alloc_->pages_used(block);

  std::uint32_t budget = max_pages;
  std::uint32_t pg = *page;
  for (; pg < used && budget > 0; ++pg, --budget) {
    const Ppa ppa = flash::make_ppa(g, block, pg);
    if (!nand_->is_programmed(ppa)) continue;  // abandoned extent tail
    // One read per victim page, data and spare: a head page's live pairs
    // are copied out of this view, which stays valid until the erase.
    ByteSpan data, spare;
    if (Status s = nand_->read_page_view(ppa, &data, &spare); !ok(s)) {
      *page = pg;
      return s;
    }
    stats_.pages_read++;
    const SpareTag tag = SpareTag::decode(spare);
    switch (tag.kind) {
      case PageKind::kDataHead:
        if (Status s = relocate_data_head(ppa, data); !ok(s)) {
          *page = pg;
          return s;
        }
        break;
      case PageKind::kDataCont:
        break;  // moved with its head page
      case PageKind::kIndexRecord:
        if (hooks_->gc_is_live_index_page(ppa)) {
          if (Status s = hooks_->gc_relocate_index_page(ppa); !ok(s)) {
            *page = pg;
            return s;
          }
          stats_.index_pages_relocated++;
        }
        break;
      case PageKind::kFree:
        break;
      case PageKind::kIndexDir:
      case PageKind::kCkptSuper:
      case PageKind::kCkptJournal:
        break;  // live only in the reserved tail, never in a victim
    }
  }
  *page = pg;
  return Status::kOk;
}

Status GarbageCollector::copy_live(Ppa ppa, ByteSpan page, const ParsedPair& p,
                                   Bytes* key, Bytes* value) {
  stats_.pages_read += continuation_pages(nand_->geometry(), p.header.pair_bytes());
  return store_->copy_pair(ppa, page, p, key, value);
}

Status GarbageCollector::relocate_data_head(Ppa ppa, ByteSpan page) {
  const std::uint32_t page_size = nand_->geometry().page_size;
  const auto pairs = parse_head_page(page, page_size);
  if (!pairs) return Status::kCorruption;

  // A page can hold several versions of one signature: an in-page
  // update, or a retained version GC appended after the current one.
  // Only the newest can be current, so each signature is handled once,
  // through that copy.
  std::unordered_map<std::uint64_t, const ParsedPair*> newest;
  for (const ParsedPair& p : *pairs) {
    const ParsedPair*& n = newest[p.header.sig];
    if (n == nullptr || newer_in_page(p.header, n->header)) n = &p;
  }
  Bytes key, value;
  for (auto it = pairs->rbegin(); it != pairs->rend(); ++it) {
    victim_sigs_.insert(it->header.sig);
    const auto nit = newest.find(it->header.sig);
    if (nit == newest.end()) continue;  // signature already handled
    const ParsedPair& pair = *nit->second;
    newest.erase(nit);
    // A failed lookup ends the collection here: the pair may be live,
    // and the victim must not be erased under it.
    const auto looked = hooks_->gc_lookup(pair.header.sig);
    if (!looked) return looked.status();
    const std::optional<Ppa>& mapped = *looked;

    // Snapshot-retained versions of this signature living in this page
    // (possibly several, the key's history) move out before the erase,
    // each rewritten with its ORIGINAL epoch stamp so the version order
    // survives relocation. Each is the copy a snapshot read at its epoch
    // resolves to in this page. The retainer follows them to their new
    // homes; their deferred stale credit moves with them (write_pair
    // credits the new location; reclaim later debits it there).
    if (retainer_ != nullptr) {
      for (const RetainedVersion& v :
           retainer_->versions_at(pair.header.sig, ppa)) {
        ParsedPair old;
        switch (find_pair_in_page_at(page, page_size, pair.header.sig,
                                     v.begin_epoch, &old)) {
          case PageFind::kCorrupt: return Status::kCorruption;
          case PageFind::kAbsent: return Status::kNotFound;
          case PageFind::kFound: break;
        }
        if (Status s = copy_live(ppa, page, old, &key, &value); !ok(s)) return s;
        auto new_ppa =
            old.header.tombstone
                ? store_->write_tombstone(pair.header.sig, key, /*for_gc=*/true,
                                          v.begin_epoch)
                : store_->write_pair(pair.header.sig, key, value,
                                     /*for_gc=*/true, v.begin_epoch);
        if (!new_ppa) return new_ppa.status();
        retainer_->repoint(pair.header.sig, v.begin_epoch, *new_ppa);
        stats_.pairs_relocated++;
        stats_.retained_relocated++;
        stats_.bytes_relocated += v.total_bytes;
      }
    }

    if (pair.header.tombstone) {
      // A deletion record stays durable until a newer version of the
      // signature exists; only then is it obsolete and droppable.
      if (mapped) continue;
      if (Status s = copy_live(ppa, page, pair, &key, nullptr); !ok(s)) return s;
      auto new_ppa = store_->write_tombstone(pair.header.sig, key,
                                             /*for_gc=*/true, pair.header.epoch);
      if (!new_ppa) return new_ppa.status();
      stats_.pairs_relocated++;
      stats_.bytes_relocated += pair.header.pair_bytes();
      continue;
    }

    if (!mapped || *mapped != ppa) continue;  // stale pair
    if (Status s = copy_live(ppa, page, pair, &key, &value); !ok(s)) return s;
    auto new_ppa = store_->write_pair(pair.header.sig, key, value, /*for_gc=*/true,
                                      pair.header.epoch);
    if (!new_ppa) return new_ppa.status();
    if (Status s = hooks_->gc_update_location(pair.header.sig, *new_ppa); !ok(s)) {
      return s;
    }
    stats_.pairs_relocated++;
    stats_.bytes_relocated += pair.header.pair_bytes();
  }
  return Status::kOk;
}

}  // namespace rhik::ftl
