#include "index/rhik/rhik_index.hpp"

#include <cassert>

namespace rhik::index {

using flash::kInvalidPpa;
using flash::Ppa;

RhikIndex::RhikIndex(flash::NandDevice* nand, ftl::PageAllocator* alloc,
                     RhikConfig cfg, std::uint64_t cache_budget_bytes)
    : nand_(nand),
      alloc_(alloc),
      cfg_(cfg),
      codec_(cfg, nand->geometry().page_size),
      cache_(cache_budget_bytes, nand->geometry().page_size) {
  assert(nand_ && alloc_);
  dir_bits_ = cfg_.initial_dir_bits(nand_->geometry().page_size);
  assert(dir_bits_ < 39);  // bucket ids must stay below the overflow bit
  dir_.assign(dir_size(), kInvalidPpa);
  ov_dir_.assign(dir_size(), kInvalidPpa);
  cache_.set_writeback([this](const std::uint64_t& key, CachedTable& v) {
    // Write-back of a dirty table (dirty entries are decoded: only
    // load_table hands out a mutable table). Failure means the device is
    // wedged full (GC not keeping up) or powered off; it is counted here,
    // and flush() returns it.
    assert(v.page.empty());
    const Status s = write_table(key_gen(key), key_bucket(key), v.table,
                                 /*for_gc=*/false);
    if (!ok(s)) stats_.writeback_failures++;
    return s;
  });
}

Ppa& RhikIndex::dir_slot(std::uint32_t gen, std::uint64_t keyed_bucket) {
  const bool ov = (keyed_bucket & kOvBit) != 0;
  const std::uint64_t b = keyed_bucket & ~kOvBit;
  if (gen == gen_) return ov ? ov_dir_[b] : dir_[b];
  assert(mig_ && gen == mig_->old_gen);
  return ov ? mig_->old_ov[b] : mig_->old_dir[b];
}

bool RhikIndex::has_overflow(std::uint32_t gen, std::uint64_t bucket) {
  if (!cfg_.local_overflow) return false;
  const std::uint64_t keyed = bucket | kOvBit;
  return dir_slot(gen, keyed) != kInvalidPpa ||
         cache_.contains(make_key(gen, keyed));
}

Result<RhikIndex::CachedTable*> RhikIndex::load_entry(std::uint32_t gen,
                                                      std::uint64_t bucket,
                                                      std::uint64_t* reads) {
  const std::uint64_t key = make_key(gen, bucket);
  if (CachedTable* hit = cache_.get(key)) return hit;

  // Evict up front so the victim's table storage (four ~R-sized arrays)
  // can be recycled by the decode below instead of being freed here and
  // re-allocated zero-filled by make_table(). Eviction order and count
  // match what insert() would have done. The dir slot is read after the
  // eviction: a dirty write-back programs flash and may move pages.
  std::optional<CachedTable> recycled = cache_.take_lru_if_full();
  CachedTable fresh =
      recycled ? std::move(*recycled) : CachedTable{codec_.make_table()};
  const Ppa ppa = dir_slot(gen, bucket);
  fresh.page = {};
  fresh.ppa = ppa;
  if (ppa != kInvalidPpa) {
    // Zero-copy page load straight out of NAND page storage. A page one
    // full decode has validated is kept as that view and probed in
    // place; any other page is decoded (and thereby validated) now.
    ByteSpan page, spare;
    if (Status s = nand_->read_page_view(ppa, &page, &spare); !ok(s)) return s;
    const ftl::SpareTag tag = ftl::SpareTag::decode(spare);
    if (tag.kind != ftl::PageKind::kIndexRecord) return Status::kCorruption;
    const auto owner = page_owner_.find(ppa);
    if (owner != page_owner_.end() && owner->second.verified) {
      fresh.page = page;
    } else {
      if (Status s = codec_.decode(page, &fresh.table); !ok(s)) return s;
      mark_verified(ppa);
    }
    stats_.flash_reads++;
    if (reads) (*reads)++;
  } else if (recycled) {
    fresh.table.clear();
  }
  return cache_.insert(key, std::move(fresh), /*dirty=*/false);
}

Result<hash::HopscotchTable*> RhikIndex::load_table(std::uint32_t gen,
                                                    std::uint64_t bucket,
                                                    std::uint64_t* reads) {
  auto entry = load_entry(gen, bucket, reads);
  if (!entry) return entry.status();
  if (Status s = decode_in_place(**entry, gen, bucket); !ok(s)) return s;
  return &(*entry)->table;
}

Status RhikIndex::decode_in_place(CachedTable& entry,
                                  [[maybe_unused]] std::uint32_t gen,
                                  [[maybe_unused]] std::uint64_t bucket) {
  if (entry.page.empty()) return Status::kOk;
  assert(dir_slot(gen, bucket) == entry.ppa);
  if (Status s = codec_.decode(entry.page, &entry.table); !ok(s)) return s;
  entry.page = {};
  return Status::kOk;
}

Result<std::optional<Ppa>> RhikIndex::find_in(const CachedTable& entry,
                                              [[maybe_unused]] std::uint32_t gen,
                                              [[maybe_unused]] std::uint64_t bucket,
                                              std::uint64_t sig) {
  if (entry.page.empty()) return entry.table.find(sig);
  assert(dir_slot(gen, bucket) == entry.ppa);
  return codec_.find(entry.page, sig);
}

void RhikIndex::mark_verified(Ppa ppa) {
  if (const auto it = page_owner_.find(ppa); it != page_owner_.end()) {
    it->second.verified = true;
  }
}

Status RhikIndex::write_table(std::uint32_t gen, std::uint64_t bucket,
                              const hash::HopscotchTable& table, bool for_gc) {
  const auto& g = nand_->geometry();
  Ppa& slot = dir_slot(gen, bucket);
  const Ppa old = slot;
  // Callers write a decoded entry's own table, or a fresh migration
  // target no entry caches: no undecoded view outlives the repoint.
  assert([&] {
    const CachedTable* c = cache_.peek(make_key(gen, bucket));
    return c == nullptr || c->page.empty();
  }());
  // Only current-generation overflow slots feed the overflow_pages()
  // counter (old-generation slots live in the migration snapshot).
  const bool count_ov = (bucket & kOvBit) != 0 && gen == gen_;

  const auto retire_old = [&] {
    if (old != kInvalidPpa) {
      page_owner_.erase(old);
      alloc_->sub_live(old, g.page_size);
    }
  };

  if (table.size() == 0) {
    // Lazy representation: an empty bucket has no record page at all.
    retire_old();
    slot = kInvalidPpa;
    if (count_ov && old != kInvalidPpa) ov_pages_--;
    if (journal_) journal_->journal_repoint(make_key(gen, bucket), kInvalidPpa);
    return Status::kOk;
  }

  Bytes page(g.page_size);
  Bytes spare(g.spare_size(), 0xFF);
  codec_.encode(table, page);
  ftl::SpareTag{ftl::PageKind::kIndexRecord, ftl::Stream::kIndex}.encode(spare);

  auto ppa = alloc_->allocate(ftl::Stream::kIndex, for_gc);
  if (!ppa && ppa.status() == Status::kDeviceFull && !for_gc) {
    // Index write-back must not deadlock behind GC; dip into the reserve.
    ppa = alloc_->allocate(ftl::Stream::kIndex, /*for_gc=*/true);
  }
  if (!ppa) return ppa.status();
  if (Status s = nand_->program_page(*ppa, page, spare); !ok(s)) {
    alloc_->program_failed(*ppa);
    return s;
  }
  stats_.flash_writes++;

  retire_old();
  slot = *ppa;
  if (count_ov && old == kInvalidPpa) ov_pages_++;
  page_owner_[*ppa] = PageOwner{make_key(gen, bucket)};
  alloc_->add_live(*ppa, g.page_size);
  if (journal_) journal_->journal_repoint(make_key(gen, bucket), *ppa);
  return Status::kOk;
}

Result<std::optional<Ppa>> RhikIndex::lookup_internal(std::uint64_t sig,
                                                      std::uint64_t* reads) {
  std::uint32_t gen = gen_;
  std::uint64_t bucket = sig & dir_mask();
  if (mig_) {
    const std::uint64_t ob = sig & ((std::uint64_t{1} << mig_->old_bits) - 1);
    if (!mig_->migrated[ob]) {
      gen = mig_->old_gen;
      bucket = ob;
    }
  }
  auto entry = load_entry(gen, bucket, reads);
  if (!entry) return entry.status();
  auto found = find_in(**entry, gen, bucket, sig);
  if (!found || found->has_value()) return found;
  // Hyper-local overflow (§VI): a second, bucket-private table may hold
  // the record — costing this lookup a second flash read.
  if (has_overflow(gen, bucket)) {
    auto ov = load_entry(gen, bucket | kOvBit, reads);
    if (!ov) return ov.status();
    return find_in(**ov, gen, bucket | kOvBit, sig);
  }
  return std::optional<Ppa>(std::nullopt);
}

Result<std::optional<Ppa>> RhikIndex::lookup(std::uint64_t sig) {
  stats_.gets++;
  std::uint64_t reads = 0;
  auto r = lookup_internal(sig, &reads);
  stats_.reads_per_lookup.record(reads);
  return r;
}

RhikIndex::Home RhikIndex::window_home(std::uint64_t sig) const noexcept {
  if (mig_) {
    const std::uint64_t ob = sig & ((std::uint64_t{1} << mig_->old_bits) - 1);
    if (!mig_->migrated[ob]) return Home{mig_->old_gen, ob};
  }
  return Home{gen_, sig & dir_mask()};
}

Status RhikIndex::insert_at(const Home& home, std::uint64_t sig, Ppa ppa,
                            bool* existed, std::uint64_t* reads) {
  auto table = load_table(home.gen, home.bucket, reads);
  if (!table) return table.status();

  // If an overflow table exists, the record may already live there; an
  // update must land where the record is (one home per signature).
  bool via_overflow = false;
  *existed = (*table)->find(sig).has_value();
  if (!*existed && has_overflow(home.gen, home.bucket)) {
    auto ov = load_table(home.gen, home.bucket | kOvBit, reads);
    if (!ov) return ov.status();
    if ((*ov)->find(sig)) {
      *existed = true;
      via_overflow = true;
    }
  }

  Status st;
  if (via_overflow) {
    auto ov = load_table(home.gen, home.bucket | kOvBit, reads);
    if (!ov) return ov.status();
    st = (*ov)->insert(sig, ppa);
    if (ok(st)) cache_.mark_dirty(make_key(home.gen, home.bucket | kOvBit));
  } else {
    // Re-load: the overflow probe above may have evicted the primary.
    // With a minimal cache the reloaded table can diverge from the probed
    // one (a failed write-back resurfaces the stale flash page), so the
    // existence verdict is re-taken on the handle actually mutated.
    table = load_table(home.gen, home.bucket, reads);
    if (!table) return table.status();
    *existed = (*table)->find(sig).has_value();
    st = (*table)->insert(sig, ppa);
    if (ok(st)) {
      cache_.mark_dirty(make_key(home.gen, home.bucket));
    } else if (cfg_.local_overflow) {
      // Hyper-local scaling (§VI): park the record in a bucket-private
      // overflow page instead of rejecting it.
      auto ov = load_table(home.gen, home.bucket | kOvBit, reads);
      if (!ov) return ov.status();
      st = (*ov)->insert(sig, ppa);
      if (ok(st)) {
        cache_.mark_dirty(make_key(home.gen, home.bucket | kOvBit));
        stats_.overflow_inserts++;
      }
    }
  }
  return st;
}

Status RhikIndex::erase_at(const Home& home, std::uint64_t sig, bool* had,
                           std::uint64_t* reads) {
  auto table = load_table(home.gen, home.bucket, reads);
  if (!table) return table.status();
  *had = (*table)->erase(sig);
  if (*had) {
    cache_.mark_dirty(make_key(home.gen, home.bucket));
  } else if (has_overflow(home.gen, home.bucket)) {
    auto ov = load_table(home.gen, home.bucket | kOvBit, reads);
    if (!ov) return ov.status();
    *had = (*ov)->erase(sig);
    if (*had) cache_.mark_dirty(make_key(home.gen, home.bucket | kOvBit));
  }
  return Status::kOk;
}

Status RhikIndex::put(std::uint64_t sig, Ppa ppa) {
  stats_.puts++;
  if (!mig_) {
    if (Status s = maybe_resize(); !ok(s)) return s;
  }
  // Window routing: during a migration the put lands in whichever
  // generation still owns the bucket, so foreground latency stays at
  // steady-state cost — no migration work is charged here.
  std::uint64_t reads = 0;
  bool existed = false;
  Home home = window_home(sig);
  const auto table_full = [](Status s) {
    return s == Status::kCollisionAbort || s == Status::kIndexFull;
  };
  Status st = insert_at(home, sig, ppa, &existed, &reads);
  if (table_full(st) && home.gen != gen_) {
    // The (near-full) source bucket has no room left: migrate it now —
    // the doubling's whole point is the headroom — and retry in the new
    // generation. This is the only foreground path that migrates.
    if (Status s = ensure_bucket_migrated(home.bucket); !ok(s)) return s;
    home = window_home(sig);
    st = insert_at(home, sig, ppa, &existed, &reads);
  }
  stats_.reads_per_lookup.record(reads);
  if (!ok(st)) {
    if (!table_full(st)) return st;
    if (!existed && growth_capped()) {
      // The doubling that would have made room is refused at the dir-bits
      // cap: a new key that does not fit is the index genuinely full, not
      // a correctable collision.
      stats_.index_full++;
      return Status::kIndexFull;
    }
    // Both displacement failure and a full table are surfaced as the
    // paper's uncorrectable-collision abort (§IV-A1).
    stats_.collision_aborts++;
    return Status::kCollisionAbort;
  }
  if (!existed) num_keys_++;
  if (journal_) journal_->journal_put(sig, ppa);
  return Status::kOk;
}

Status RhikIndex::erase(std::uint64_t sig) {
  stats_.erases++;
  std::uint64_t reads = 0;
  bool had = false;
  const Home home = window_home(sig);
  if (Status s = erase_at(home, sig, &had, &reads); !ok(s)) return s;
  stats_.reads_per_lookup.record(reads);
  if (had) num_keys_--;
  return had ? Status::kOk : Status::kNotFound;
}

void RhikIndex::open_migration_window() {
  Migration m;
  m.old_bits = dir_bits_;
  m.old_gen = gen_;
  m.old_dir = std::move(dir_);
  m.old_ov = std::move(ov_dir_);
  m.migrated.assign(m.old_dir.size(), false);
  m.pending = m.old_dir.size();
  m.keys_before = num_keys_;
  m.capacity_before = capacity();
  m.start_time = nand_->clock().now();
  mig_ = std::move(m);
  gen_++;
  dir_bits_++;
  dir_.assign(dir_size(), kInvalidPpa);
  ov_dir_.assign(dir_size(), kInvalidPpa);
  ov_pages_ = 0;  // old-generation overflow slots moved into mig_
}

Status RhikIndex::maybe_resize() {
  if (in_maintenance_ || mig_) return Status::kOk;
  const double threshold = cfg_.resize_threshold * static_cast<double>(capacity());
  if (static_cast<double>(num_keys_ + 1) <= threshold) return Status::kOk;

  // Bucket ids must stay below the overflow bit (2^38 directory entries)
  // regardless of the configured cap: past it the index cannot double
  // again. Let the put proceed anyway — overwrites of existing keys and
  // inserts into buckets with room still fit under the threshold's
  // headroom; put() surfaces kIndexFull only when an insert of a new key
  // actually fails.
  if (growth_capped()) return Status::kOk;

  stats_.resizes++;
  open_migration_window();
  // The resize record re-opens the same migration window on replay;
  // later generation-tagged repoint/migrate records keep the fast
  // restore exact across the doubling.
  if (journal_) journal_->journal_resize(gen_, dir_bits_);

  if (cfg_.incremental_resize) return Status::kOk;  // drained by pump_maintenance

  // Stop-the-world doubling (§IV-A2): the submission queue is held for
  // the whole migration; the window is accounted as stall time (Fig. 7).
  in_maintenance_ = true;
  const SimTime stall_begin = nand_->clock().stall_window_begin();
  const std::uint64_t n = mig_->old_dir.size();
  for (std::uint64_t ob = 0; ob < n; ++ob) {
    if (Status s = migrate_bucket(ob); !ok(s)) {
      in_maintenance_ = false;
      return s;
    }
  }
  nand_->clock().stall_window_end(stall_begin);
  in_maintenance_ = false;
  assert(!mig_);
  return Status::kOk;
}

Status RhikIndex::migrate_bucket(std::uint64_t old_bucket) {
  assert(mig_);
  assert(!mig_->migrated[old_bucket]);

  // Gather the source records (primary plus any overflow page), reusing
  // the signatures stored in them — the KV pairs themselves are never
  // touched (§IV-A2). Copied out because a second load may evict the
  // first table.
  std::uint64_t reads = 0;
  std::vector<hash::Record> records;
  {
    auto src = load_table(mig_->old_gen, old_bucket, &reads);
    if (!src) return src.status();
    records.reserve((*src)->size());
    (*src)->for_each([&](const hash::Record& rec) { records.push_back(rec); });
  }
  if (has_overflow(mig_->old_gen, old_bucket)) {
    auto ov = load_table(mig_->old_gen, old_bucket | kOvBit, &reads);
    if (!ov) return ov.status();
    (*ov)->for_each([&](const hash::Record& rec) { records.push_back(rec); });
  }

  // Re-bucket by the new directory bit. Resizing normally drains
  // overflow pages back into primaries; a destination overflow is only
  // re-created if a split target itself collides.
  hash::HopscotchTable lo = codec_.make_table();
  hash::HopscotchTable hi = codec_.make_table();
  std::optional<hash::HopscotchTable> lo_ov, hi_ov;
  const std::uint64_t split_bit = std::uint64_t{1} << mig_->old_bits;
  for (const hash::Record& rec : records) {
    const bool high = (rec.sig & split_bit) != 0;
    Status s = (high ? hi : lo).insert(rec.sig, rec.ppa);
    if (!ok(s) && cfg_.local_overflow) {
      auto& ov = high ? hi_ov : lo_ov;
      if (!ov) ov.emplace(codec_.make_table());
      s = ov->insert(rec.sig, rec.ppa);
      if (ok(s)) stats_.overflow_inserts++;
    }
    if (!ok(s)) return s;
  }
  nand_->clock().advance(cfg_.migrate_cpu_ns_per_record *
                         (records.empty() ? 1 : records.size()));

  if (Status s = write_table(gen_, old_bucket, lo, /*for_gc=*/false); !ok(s)) return s;
  if (Status s = write_table(gen_, old_bucket | split_bit, hi, /*for_gc=*/false);
      !ok(s)) {
    return s;
  }
  if (lo_ov) {
    if (Status s = write_table(gen_, old_bucket | kOvBit, *lo_ov, false); !ok(s)) return s;
  }
  if (hi_ov) {
    if (Status s = write_table(gen_, old_bucket | split_bit | kOvBit, *hi_ov, false);
        !ok(s)) {
      return s;
    }
  }

  // Retire the source bucket: drop cached copies without write-back and
  // mark the flash pages stale for GC.
  const auto retire = [&](std::uint64_t keyed) {
    cache_.erase(make_key(mig_->old_gen, keyed));
    Ppa& slot = dir_slot(mig_->old_gen, keyed);
    if (slot != kInvalidPpa) {
      page_owner_.erase(slot);
      alloc_->sub_live(slot, nand_->geometry().page_size);
      slot = kInvalidPpa;
    }
  };
  retire(old_bucket);
  retire(old_bucket | kOvBit);
  mig_->migrated[old_bucket] = true;
  // Journaled after the targets' repoints (same durable prefix): replay
  // retires the source bucket only once its split products are visible.
  // The pre-erase journal flush keeps the source pages readable on flash
  // until this record is durable.
  if (journal_) journal_->journal_migrated(make_key(mig_->old_gen, old_bucket));
  if (--mig_->pending == 0) finish_migration();
  return Status::kOk;
}

Status RhikIndex::ensure_bucket_migrated(std::uint64_t old_bucket) {
  if (!mig_ || mig_->migrated[old_bucket]) return Status::kOk;
  const bool was = in_maintenance_;
  in_maintenance_ = true;
  const Status s = migrate_bucket(old_bucket);
  in_maintenance_ = was;
  return s;
}

Status RhikIndex::pump_migration(std::uint32_t budget) {
  if (!mig_) return Status::kOk;
  const bool was = in_maintenance_;
  in_maintenance_ = true;
  Status st = Status::kOk;
  while (budget-- > 0 && mig_) {
    while (mig_->next_bucket < mig_->migrated.size() &&
           mig_->migrated[mig_->next_bucket]) {
      mig_->next_bucket++;
    }
    if (!mig_ || mig_->next_bucket >= mig_->migrated.size()) break;
    st = migrate_bucket(mig_->next_bucket);
    if (!ok(st)) break;
  }
  in_maintenance_ = was;
  return st;
}

void RhikIndex::finish_migration() {
  assert(mig_ && mig_->pending == 0);
  resize_history_.push_back(ResizeEvent{
      mig_->keys_before, mig_->capacity_before,
      nand_->clock().now() - mig_->start_time});
  mig_.reset();
}

bool RhikIndex::pump_maintenance(std::uint32_t budget) {
  if (!mig_) return false;
  if (budget == 0) budget = cfg_.incremental_batch;
  const std::uint64_t pending_before = mig_->pending;
  (void)pump_migration(budget);
  // Progress means buckets drained or the migration finished; a wedged
  // pump (device full) reports false so idle loops stop spinning on it.
  return !mig_ || mig_->pending < pending_before;
}

// -- GC hooks -----------------------------------------------------------------

Result<std::optional<Ppa>> RhikIndex::gc_lookup(std::uint64_t sig) {
  std::uint64_t reads = 0;
  return lookup_internal(sig, &reads);
}

Status RhikIndex::gc_update_location(std::uint64_t sig, Ppa new_ppa) {
  // Window-routed like put: update the record where it lives, without
  // forcing the bucket through migration on the GC path.
  const Home home = window_home(sig);
  auto table = load_table(home.gen, home.bucket, nullptr);
  if (!table) return table.status();
  if ((*table)->find(sig)) {
    if (Status s = (*table)->insert(sig, new_ppa); !ok(s)) return s;
    cache_.mark_dirty(make_key(home.gen, home.bucket));
    if (journal_) journal_->journal_put(sig, new_ppa);
    return Status::kOk;
  }
  if (has_overflow(home.gen, home.bucket)) {
    auto ov = load_table(home.gen, home.bucket | kOvBit, nullptr);
    if (!ov) return ov.status();
    if ((*ov)->find(sig)) {
      if (Status s = (*ov)->insert(sig, new_ppa); !ok(s)) return s;
      cache_.mark_dirty(make_key(home.gen, home.bucket | kOvBit));
      if (journal_) journal_->journal_put(sig, new_ppa);
      return Status::kOk;
    }
  }
  return Status::kNotFound;
}

bool RhikIndex::gc_is_live_index_page(Ppa ppa) const {
  return page_owner_.count(ppa) != 0;
}

Status RhikIndex::gc_relocate_index_page(Ppa ppa) {
  const auto it = page_owner_.find(ppa);
  if (it == page_owner_.end()) return Status::kOk;  // already stale
  const std::uint32_t gen = key_gen(it->second.key);
  const std::uint64_t bucket = key_bucket(it->second.key);
  // A decoding load: the entry must not keep viewing this page once GC
  // erases its block.
  auto table = load_table(gen, bucket, nullptr);
  if (!table) return table.status();
  return write_table(gen, bucket, **table, /*for_gc=*/true);
}

// -- Persistence ---------------------------------------------------------------

namespace {
constexpr std::uint32_t kImageMagic = 0x52484B44;  // "RHKD"
}

Status RhikIndex::serialize_image(Bytes& out) {
  // [magic u32][dir_bits u32][gen u32][num_keys u64]
  // [primary entries: ppa 5B each][overflow entries: ppa 5B each]
  out.assign(4 + 4 + 4 + 8 + dir_.size() * 5 * 2, 0);
  put_u32(out, 0, kImageMagic);
  put_u32(out, 4, dir_bits_);
  put_u32(out, 8, gen_);
  put_u64(out, 12, num_keys_);
  for (std::size_t i = 0; i < dir_.size(); ++i) {
    put_u40(out, 20 + i * 5, dir_[i]);
    put_u40(out, 20 + (dir_.size() + i) * 5, ov_dir_[i]);
  }
  return Status::kOk;
}

Status RhikIndex::load_image(ByteSpan image) {
  if (mig_) return Status::kBusy;
  if (image.size() < 20) return Status::kCorruption;
  if (get_u32(image, 0) != kImageMagic) return Status::kCorruption;
  const std::uint32_t bits = get_u32(image, 4);
  if (bits > 40) return Status::kCorruption;
  const std::uint64_t entries = std::uint64_t{1} << bits;
  if (image.size() < 20 + entries * 5 * 2) return Status::kCorruption;

  cache_.clear();
  page_owner_.clear();
  replay_saw_resize_ = false;
  dir_bits_ = bits;
  gen_ = get_u32(image, 8);
  num_keys_ = get_u64(image, 12);
  dir_.assign(entries, kInvalidPpa);
  ov_dir_.assign(entries, kInvalidPpa);
  ov_pages_ = 0;
  for (std::uint64_t i = 0; i < entries; ++i) {
    dir_[i] = get_u40(image, 20 + i * 5);
    if (dir_[i] != kInvalidPpa) page_owner_[dir_[i]] = PageOwner{make_key(gen_, i)};
    ov_dir_[i] = get_u40(image, 20 + (entries + i) * 5);
    if (ov_dir_[i] != kInvalidPpa) {
      page_owner_[ov_dir_[i]] = PageOwner{make_key(gen_, i | kOvBit)};
      ov_pages_++;
    }
  }
  return Status::kOk;
}

Status RhikIndex::apply_journal_repoint(
    std::uint64_t slot_key, Ppa ppa,
    const std::function<bool(Ppa)>& data_durable) {
  const std::uint32_t gen = key_gen(slot_key);
  const std::uint64_t keyed = key_bucket(slot_key);
  const std::uint64_t b = keyed & ~kOvBit;
  const bool ov = (keyed & kOvBit) != 0;

  // Generation-tagged routing: records carry either the current
  // generation or — inside a replayed migration window — the source
  // generation (dirty write-backs of not-yet-migrated old buckets).
  Ppa* slot = nullptr;
  bool count_ov = false;
  if (gen == gen_) {
    if (b >= dir_size()) return Status::kCorruption;
    slot = ov ? &ov_dir_[b] : &dir_[b];
    count_ov = ov;
  } else if (mig_ && gen == mig_->old_gen) {
    if (b >= mig_->old_dir.size()) return Status::kCorruption;
    if (mig_->migrated[b]) return Status::kCorruption;  // retired bucket
    slot = ov ? &mig_->old_ov[b] : &mig_->old_dir[b];
  } else {
    return Status::kCorruption;
  }

  const bool vetted = data_durable && ppa != kInvalidPpa;
  if (vetted) {
    ByteSpan page, spare;
    if (Status s = nand_->read_page_view(ppa, &page, &spare); !ok(s)) return s;
    if (ftl::SpareTag::decode(spare).kind != ftl::PageKind::kIndexRecord) {
      return Status::kCorruption;
    }
    hash::HopscotchTable table = codec_.make_table();
    if (Status s = codec_.decode(page, &table); !ok(s)) return s;
    bool all_durable = true;
    table.for_each([&](const hash::Record& r) {
      all_durable = all_durable && data_durable(static_cast<Ppa>(r.ppa));
    });
    if (!all_durable) {
      // Reject: keep the image's slot. For a plain write-back the page's
      // durable content is reconstructible from image + tail. But once a
      // resize record has replayed in this tail, a rejected repoint into
      // the current (new) generation may be — or, via last-repoint-wins,
      // may have superseded — a migration-target write whose source
      // bucket a migrate record retires (earlier or later in the same
      // tail). Keeping the image's slot (kInvalidPpa for a fresh split
      // target) would then silently drop every pre-checkpoint mapping
      // migrated into this bucket: phantom misses over intact data.
      // Force the full scan for any post-resize current-gen rejection;
      // the window having fully drained (mig_ already reset) makes the
      // retirement more certain, not less.
      if (gen == gen_ && (replay_saw_resize_ || mig_)) {
        return Status::kCorruption;
      }
      return Status::kOk;
    }
  }

  // The vetting decode above validated the page image in full.
  if (*slot == ppa) {
    if (vetted) mark_verified(ppa);
    return Status::kOk;
  }
  // Any cached copy predates the repointed page; drop it without
  // write-back so the next load reads the journaled location.
  cache_.erase(make_key(gen, keyed));
  if (*slot != kInvalidPpa) page_owner_.erase(*slot);
  if (count_ov) {
    if (*slot != kInvalidPpa && ppa == kInvalidPpa) ov_pages_--;
    if (*slot == kInvalidPpa && ppa != kInvalidPpa) ov_pages_++;
  }
  *slot = ppa;
  if (ppa != kInvalidPpa) page_owner_[ppa] = PageOwner{slot_key, vetted};
  return Status::kOk;
}

Status RhikIndex::apply_journal_resize(std::uint32_t new_gen,
                                       std::uint32_t new_bits) {
  // A second resize record is only legal once the first window fully
  // drained (all its migrate records preceded this one).
  if (mig_) return Status::kCorruption;
  if (new_gen != gen_ + 1 || new_bits != dir_bits_ + 1 || new_bits >= 39) {
    return Status::kCorruption;
  }
  open_migration_window();
  // Outlives the window (which a later migrate record may close): repoint
  // rejection must stay full-scan-strict for the rest of this replay.
  replay_saw_resize_ = true;
  return Status::kOk;
}

Status RhikIndex::apply_journal_migrate(std::uint64_t old_slot_key) {
  if (!mig_) return Status::kCorruption;
  if (key_gen(old_slot_key) != mig_->old_gen) return Status::kCorruption;
  const std::uint64_t ob = key_bucket(old_slot_key);
  if ((ob & kOvBit) != 0 || ob >= mig_->migrated.size()) {
    return Status::kCorruption;
  }
  if (mig_->migrated[ob]) return Status::kOk;  // idempotent
  // Retire the source slots. DRAM-only: the caller owns allocator
  // liveness accounting (it re-inits from flash after replay), and the
  // new-generation repoints for this bucket were applied from earlier
  // records in the same durable prefix.
  for (const std::uint64_t keyed : {ob, ob | kOvBit}) {
    cache_.erase(make_key(mig_->old_gen, keyed));
    Ppa& slot = (keyed & kOvBit) != 0 ? mig_->old_ov[ob] : mig_->old_dir[ob];
    if (slot != kInvalidPpa) {
      page_owner_.erase(slot);
      slot = kInvalidPpa;
    }
  }
  mig_->migrated[ob] = true;
  if (--mig_->pending == 0) {
    // The crashed index completed this migration; close the window.
    mig_.reset();
  }
  return Status::kOk;
}

Status RhikIndex::apply_journal_put(std::uint64_t sig, Ppa ppa) {
  // Replay is window-routed like the live put but must never trigger
  // structural work (resize / bucket migration): structure replays only
  // from explicit resize/migrate records. A record that cannot be placed
  // without it sends the caller to the full scan.
  std::uint64_t reads = 0;
  bool existed = false;
  const Home home = window_home(sig);
  if (Status s = insert_at(home, sig, ppa, &existed, &reads); !ok(s)) return s;
  if (!existed) num_keys_++;
  return Status::kOk;
}

Status RhikIndex::apply_journal_erase(std::uint64_t sig) {
  std::uint64_t reads = 0;
  bool had = false;
  const Home home = window_home(sig);
  if (Status s = erase_at(home, sig, &had, &reads); !ok(s)) return s;
  if (had) num_keys_--;
  return Status::kOk;
}

Status RhikIndex::recount_keys() {
  // Reads pages directly (no load_table) so the pass neither evicts the
  // replay's dirty cache entries nor programs flash; cached copies win
  // over their flash page — they may carry replay inserts. An undecoded
  // entry's table is recycled storage, so it is decoded before counting.
  std::uint64_t n = 0;
  hash::HopscotchTable scratch = codec_.make_table();
  const auto count_slot = [&](std::uint32_t gen, std::uint64_t keyed,
                              Ppa ppa) -> Status {
    if (CachedTable* hit = cache_.get(make_key(gen, keyed))) {
      if (Status s = decode_in_place(*hit, gen, keyed); !ok(s)) return s;
      n += hit->table.size();
      return Status::kOk;
    }
    if (ppa == kInvalidPpa) return Status::kOk;
    ByteSpan page, spare;
    if (Status s = nand_->read_page_view(ppa, &page, &spare); !ok(s)) return s;
    if (ftl::SpareTag::decode(spare).kind != ftl::PageKind::kIndexRecord) {
      return Status::kCorruption;
    }
    if (Status s = codec_.decode(page, &scratch); !ok(s)) return s;
    mark_verified(ppa);
    n += scratch.size();
    return Status::kOk;
  };
  for (std::uint64_t b = 0; b < dir_size(); ++b) {
    if (Status s = count_slot(gen_, b, dir_[b]); !ok(s)) return s;
    if (Status s = count_slot(gen_, b | kOvBit, ov_dir_[b]); !ok(s)) return s;
  }
  if (mig_) {
    // Keys of a half-drained doubling live in whichever generation still
    // owns their bucket; migrated source slots are already kInvalidPpa.
    for (std::uint64_t b = 0; b < mig_->old_dir.size(); ++b) {
      if (mig_->migrated[b]) continue;
      if (Status s = count_slot(mig_->old_gen, b, mig_->old_dir[b]); !ok(s)) {
        return s;
      }
      if (Status s = count_slot(mig_->old_gen, b | kOvBit, mig_->old_ov[b]);
          !ok(s)) {
        return s;
      }
    }
  }
  num_keys_ = n;
  return Status::kOk;
}

Status RhikIndex::scan(const std::function<void(std::uint64_t, flash::Ppa)>& fn) {
  const auto visit = [&](std::uint32_t gen, std::uint64_t bucket) -> Status {
    for (const std::uint64_t keyed : {bucket, bucket | kOvBit}) {
      if (dir_slot(gen, keyed) == kInvalidPpa &&
          !cache_.contains(make_key(gen, keyed))) {
        continue;
      }
      auto table = load_table(gen, keyed, nullptr);
      if (!table) return table.status();
      (*table)->for_each([&](const hash::Record& r) { fn(r.sig, r.ppa); });
    }
    return Status::kOk;
  };

  // Visit migrated/new buckets plus any not-yet-migrated source buckets.
  for (std::uint64_t b = 0; b < dir_size(); ++b) {
    if (mig_) {
      const std::uint64_t ob = b & ((std::uint64_t{1} << mig_->old_bits) - 1);
      if (!mig_->migrated[ob]) continue;  // records still in the old bucket
    }
    if (Status s = visit(gen_, b); !ok(s)) return s;
  }
  if (mig_) {
    for (std::uint64_t ob = 0; ob < mig_->old_dir.size(); ++ob) {
      if (mig_->migrated[ob]) continue;
      if (Status s = visit(mig_->old_gen, ob); !ok(s)) return s;
    }
  }
  return Status::kOk;
}

std::uint64_t RhikIndex::dram_bytes() const {
  std::uint64_t bytes = (dir_.size() + ov_dir_.size()) * cfg_.ppa_bytes;
  if (mig_) {
    bytes += (mig_->old_dir.size() + mig_->old_ov.size()) * cfg_.ppa_bytes;
  }
  return bytes;
}

Status RhikIndex::flush() {
  // Drain any in-flight migration first: the directory image describes
  // one generation, and the device checkpoint that follows a flush
  // refuses to run mid-migration (kBusy). An explicit flush is a
  // durability barrier and may absorb the remaining quanta.
  while (mig_) {
    const std::uint64_t before = mig_->pending;
    const Status s = pump_migration(cfg_.incremental_batch);
    const bool wedged = ok(s) && mig_ && mig_->pending >= before;
    if (!ok(s) || wedged) {
      // The barrier fails, but still write back whatever dirty tables the
      // device will take so a failed flush leaves as much state durable
      // as possible (write-back failures land in writeback_failures).
      (void)cache_.flush_all();
      return ok(s) ? Status::kBusy : s;
    }
  }
  return cache_.flush_all();
}

}  // namespace rhik::index
