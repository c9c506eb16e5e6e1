#include "index/mlhash/mlhash_index.hpp"

#include <cassert>

#include "common/rng.hpp"
#include "hash/murmur.hpp"

namespace rhik::index {

using flash::kInvalidPpa;
using flash::Ppa;

MlHashConfig MlHashConfig::for_keys(std::uint64_t keys, std::uint32_t page_size,
                                    std::uint32_t levels) {
  MlHashConfig cfg;
  cfg.levels = levels;
  RhikConfig sizing;  // reuse Eq. 1 record geometry
  sizing.hop_range = cfg.hop_range;
  sizing.sig_bytes = cfg.sig_bytes;
  sizing.ppa_bytes = cfg.ppa_bytes;
  const std::uint64_t r = sizing.records_per_page(page_size);
  const std::uint64_t pages = (keys + r - 1) / r;
  const std::uint64_t denom = (std::uint64_t{1} << levels) - 1;
  cfg.level0_pages = (pages + denom - 1) / denom;
  if (cfg.level0_pages == 0) cfg.level0_pages = 1;
  return cfg;
}

MlHashIndex::MlHashIndex(flash::NandDevice* nand, ftl::PageAllocator* alloc,
                         MlHashConfig cfg, std::uint64_t cache_budget_bytes)
    : nand_(nand),
      alloc_(alloc),
      cfg_(cfg),
      codec_(
          [&cfg] {
            RhikConfig rc;
            rc.hop_range = cfg.hop_range;
            rc.sig_bytes = cfg.sig_bytes;
            rc.ppa_bytes = cfg.ppa_bytes;
            return rc;
          }(),
          nand->geometry().page_size),
      cache_(cache_budget_bytes, nand->geometry().page_size) {
  assert(nand_ && alloc_);
  assert(cfg_.levels >= 1 && cfg_.levels <= 24);
  dirs_.resize(cfg_.levels);
  salts_.resize(cfg_.levels);
  std::uint64_t seed = 0x6d6c6861u;  // "mlha"
  for (std::uint32_t l = 0; l < cfg_.levels; ++l) {
    const std::uint64_t pages = cfg_.level0_pages << l;
    dirs_[l].assign(pages, kInvalidPpa);
    salts_[l] = splitmix64(seed);
    capacity_ += pages * codec_.records_per_page();
  }
  cache_.set_writeback([this](const std::uint64_t& key, CachedTable& v) {
    // As in RhikIndex: counted here, and flush() returns it.
    const Status s =
        write_table(key_level(key), key_page(key), v.table, /*for_gc=*/false);
    if (!ok(s)) stats_.writeback_failures++;
    return s;
  });
}

std::uint64_t MlHashIndex::page_for(std::uint32_t level, std::uint64_t sig) const {
  return hash::mix64(sig ^ salts_[level]) % dirs_[level].size();
}

Result<hash::HopscotchTable*> MlHashIndex::load_table(std::uint32_t level,
                                                      std::uint64_t page,
                                                      std::uint64_t* reads) {
  const std::uint64_t key = make_key(level, page);
  if (CachedTable* hit = cache_.get(key)) return &hit->table;

  // Recycle the victim's table storage across the miss (see
  // RhikIndex::load_table): evict first, decode into the reclaimed
  // arrays, read the dir slot only after the write-back ran.
  std::optional<CachedTable> recycled = cache_.take_lru_if_full();
  CachedTable fresh =
      recycled ? std::move(*recycled) : CachedTable{codec_.make_table()};
  const Ppa ppa = dirs_[level][page];
  if (ppa != kInvalidPpa) {
    // Zero-copy page load, same as RhikIndex::load_table.
    ByteSpan buf, spare;
    if (Status s = nand_->read_page_view(ppa, &buf, &spare); !ok(s)) return s;
    if (ftl::SpareTag::decode(spare).kind != ftl::PageKind::kIndexRecord) {
      return Status::kCorruption;
    }
    if (Status s = codec_.decode(buf, &fresh.table); !ok(s)) return s;
    stats_.flash_reads++;
    if (reads) (*reads)++;
  } else if (recycled) {
    fresh.table.clear();
  }
  CachedTable* ins = cache_.insert(key, std::move(fresh), /*dirty=*/false);
  return &ins->table;
}

Status MlHashIndex::write_table(std::uint32_t level, std::uint64_t page,
                                const hash::HopscotchTable& table, bool for_gc) {
  const auto& g = nand_->geometry();
  const Ppa old = dirs_[level][page];
  const auto retire_old = [&] {
    if (old != kInvalidPpa) {
      page_owner_.erase(old);
      alloc_->sub_live(old, g.page_size);
    }
  };

  if (table.size() == 0) {
    retire_old();
    dirs_[level][page] = kInvalidPpa;
    if (journal_) journal_->journal_repoint(make_key(level, page), kInvalidPpa);
    return Status::kOk;
  }

  Bytes buf(g.page_size);
  Bytes spare(g.spare_size(), 0xFF);
  codec_.encode(table, buf);
  ftl::SpareTag{ftl::PageKind::kIndexRecord, ftl::Stream::kIndex}.encode(spare);

  auto ppa = alloc_->allocate(ftl::Stream::kIndex, for_gc);
  if (!ppa && ppa.status() == Status::kDeviceFull && !for_gc) {
    ppa = alloc_->allocate(ftl::Stream::kIndex, /*for_gc=*/true);
  }
  if (!ppa) return ppa.status();
  if (Status s = nand_->program_page(*ppa, buf, spare); !ok(s)) {
    alloc_->program_failed(*ppa);
    return s;
  }
  stats_.flash_writes++;

  retire_old();
  dirs_[level][page] = *ppa;
  page_owner_[*ppa] = make_key(level, page);
  alloc_->add_live(*ppa, g.page_size);
  if (journal_) journal_->journal_repoint(make_key(level, page), *ppa);
  return Status::kOk;
}

Result<std::optional<MlHashIndex::Located>> MlHashIndex::locate(
    std::uint64_t sig, std::uint64_t* reads) {
  for (std::uint32_t l = 0; l < cfg_.levels; ++l) {
    const std::uint64_t page = page_for(l, sig);
    auto table = load_table(l, page, reads);
    if (!table) return table.status();
    if (auto ppa = (*table)->find(sig)) {
      return std::optional<Located>({l, page, *ppa});
    }
  }
  return std::optional<Located>(std::nullopt);
}

Result<std::optional<Ppa>> MlHashIndex::lookup(std::uint64_t sig) {
  stats_.gets++;
  std::uint64_t reads = 0;
  auto loc = locate(sig, &reads);
  stats_.reads_per_lookup.record(reads);
  // A metadata read failure propagates instead of masquerading as a miss.
  if (!loc) return loc.status();
  if (!*loc) return std::optional<Ppa>(std::nullopt);
  return std::optional<Ppa>((*loc)->ppa);
}

Status MlHashIndex::put(std::uint64_t sig, Ppa ppa) {
  stats_.puts++;
  std::uint64_t reads = 0;
  auto loc = locate(sig, &reads);
  if (!loc) return loc.status();
  if (*loc) {
    // Update in place at the level that already holds the signature.
    auto table = load_table((*loc)->level, (*loc)->page, &reads);
    stats_.reads_per_lookup.record(reads);
    if (!table) return table.status();
    const Status s = (*table)->insert(sig, ppa);
    if (ok(s)) {
      cache_.mark_dirty(make_key((*loc)->level, (*loc)->page));
      if (journal_) journal_->journal_put(sig, ppa);
    }
    return s;
  }
  // Insert at the first level with room.
  for (std::uint32_t l = 0; l < cfg_.levels; ++l) {
    const std::uint64_t page = page_for(l, sig);
    auto table = load_table(l, page, &reads);
    if (!table) return table.status();
    const Status s = (*table)->insert(sig, ppa);
    if (ok(s)) {
      num_keys_++;
      cache_.mark_dirty(make_key(l, page));
      if (journal_) journal_->journal_put(sig, ppa);
      stats_.reads_per_lookup.record(reads);
      return Status::kOk;
    }
  }
  // Every level's target page is full: the index cannot accept this key.
  stats_.collision_aborts++;
  stats_.reads_per_lookup.record(reads);
  return Status::kIndexFull;
}

Status MlHashIndex::erase(std::uint64_t sig) {
  stats_.erases++;
  std::uint64_t reads = 0;
  auto loc = locate(sig, &reads);
  stats_.reads_per_lookup.record(reads);
  if (!loc) return loc.status();
  if (!*loc) return Status::kNotFound;
  auto table = load_table((*loc)->level, (*loc)->page, &reads);
  if (!table) return table.status();
  (*table)->erase(sig);
  num_keys_--;
  cache_.mark_dirty(make_key((*loc)->level, (*loc)->page));
  return Status::kOk;
}

Result<std::optional<Ppa>> MlHashIndex::gc_lookup(std::uint64_t sig) {
  std::uint64_t reads = 0;
  auto loc = locate(sig, &reads);
  if (!loc) return loc.status();
  if (!*loc) return std::optional<Ppa>(std::nullopt);
  return std::optional<Ppa>((*loc)->ppa);
}

Status MlHashIndex::gc_update_location(std::uint64_t sig, Ppa new_ppa) {
  std::uint64_t reads = 0;
  auto loc = locate(sig, &reads);
  if (!loc) return loc.status();
  if (!*loc) return Status::kNotFound;
  auto table = load_table((*loc)->level, (*loc)->page, &reads);
  if (!table) return table.status();
  if (Status s = (*table)->insert(sig, new_ppa); !ok(s)) return s;
  cache_.mark_dirty(make_key((*loc)->level, (*loc)->page));
  if (journal_) journal_->journal_put(sig, new_ppa);
  return Status::kOk;
}

bool MlHashIndex::gc_is_live_index_page(Ppa ppa) const {
  return page_owner_.count(ppa) != 0;
}

Status MlHashIndex::gc_relocate_index_page(Ppa ppa) {
  const auto it = page_owner_.find(ppa);
  if (it == page_owner_.end()) return Status::kOk;
  const std::uint32_t level = key_level(it->second);
  const std::uint64_t page = key_page(it->second);
  auto table = load_table(level, page, nullptr);
  if (!table) return table.status();
  return write_table(level, page, **table, /*for_gc=*/true);
}

Status MlHashIndex::scan(const std::function<void(std::uint64_t, flash::Ppa)>& fn) {
  for (std::uint32_t l = 0; l < cfg_.levels; ++l) {
    for (std::uint64_t p = 0; p < dirs_[l].size(); ++p) {
      if (dirs_[l][p] == kInvalidPpa && !cache_.contains(make_key(l, p))) continue;
      auto table = load_table(l, p, nullptr);
      if (!table) return table.status();
      (*table)->for_each([&](const hash::Record& r) { fn(r.sig, r.ppa); });
    }
  }
  return Status::kOk;
}

std::uint64_t MlHashIndex::dram_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& d : dirs_) bytes += d.size() * cfg_.ppa_bytes;
  return bytes;
}

Status MlHashIndex::flush() { return cache_.flush_all(); }

// -- Checkpointing -------------------------------------------------------------

namespace {
constexpr std::uint32_t kMlImageMagic = 0x4D4C4844;  // "MLHD"
}

Status MlHashIndex::serialize_image(Bytes& out) {
  // [magic u32][levels u32][level0_pages u64][num_keys u64]
  // [level 0 PPAs 5B each][level 1 PPAs]...  Salts are derived from a
  // fixed seed, so they need not be persisted.
  std::uint64_t total_pages = 0;
  for (const auto& d : dirs_) total_pages += d.size();
  out.assign(4 + 4 + 8 + 8 + total_pages * 5, 0);
  put_u32(out, 0, kMlImageMagic);
  put_u32(out, 4, cfg_.levels);
  put_u64(out, 8, cfg_.level0_pages);
  put_u64(out, 16, num_keys_);
  std::size_t off = 24;
  for (const auto& d : dirs_) {
    for (const Ppa p : d) {
      put_u40(out, off, p);
      off += 5;
    }
  }
  return Status::kOk;
}

Status MlHashIndex::load_image(ByteSpan image) {
  if (image.size() < 24) return Status::kCorruption;
  if (get_u32(image, 0) != kMlImageMagic) return Status::kCorruption;
  // The pyramid shape is fixed at construction; a mismatched image
  // belongs to a differently-configured device.
  if (get_u32(image, 4) != cfg_.levels ||
      get_u64(image, 8) != cfg_.level0_pages) {
    return Status::kCorruption;
  }
  std::uint64_t total_pages = 0;
  for (const auto& d : dirs_) total_pages += d.size();
  if (image.size() < 24 + total_pages * 5) return Status::kCorruption;

  cache_.clear();
  page_owner_.clear();
  num_keys_ = get_u64(image, 16);
  std::size_t off = 24;
  for (std::uint32_t l = 0; l < cfg_.levels; ++l) {
    for (std::uint64_t p = 0; p < dirs_[l].size(); ++p) {
      dirs_[l][p] = get_u40(image, off);
      off += 5;
      if (dirs_[l][p] != kInvalidPpa) page_owner_[dirs_[l][p]] = make_key(l, p);
    }
  }
  return Status::kOk;
}

Status MlHashIndex::apply_journal_repoint(
    std::uint64_t slot_key, Ppa ppa,
    const std::function<bool(Ppa)>& data_durable) {
  const std::uint32_t level = key_level(slot_key);
  const std::uint64_t page = key_page(slot_key);
  if (level >= cfg_.levels || page >= dirs_[level].size()) {
    return Status::kCorruption;
  }
  if (data_durable && ppa != kInvalidPpa) {
    ByteSpan buf, spare;
    if (Status s = nand_->read_page_view(ppa, &buf, &spare); !ok(s)) return s;
    if (ftl::SpareTag::decode(spare).kind != ftl::PageKind::kIndexRecord) {
      return Status::kCorruption;
    }
    hash::HopscotchTable table = codec_.make_table();
    if (Status s = codec_.decode(buf, &table); !ok(s)) return s;
    bool all_durable = true;
    table.for_each([&](const hash::Record& r) {
      all_durable = all_durable && data_durable(static_cast<Ppa>(r.ppa));
    });
    if (!all_durable) return Status::kOk;  // reject: keep the image's slot
  }
  Ppa& slot = dirs_[level][page];
  if (slot == ppa) return Status::kOk;
  cache_.erase(make_key(level, page));
  if (slot != kInvalidPpa) page_owner_.erase(slot);
  slot = ppa;
  if (ppa != kInvalidPpa) page_owner_[ppa] = slot_key;
  return Status::kOk;
}

Status MlHashIndex::recount_keys() {
  // Direct page reads: no cache eviction (a dirty victim would program
  // flash mid-restore), cached copies win over their flash page.
  std::uint64_t n = 0;
  hash::HopscotchTable scratch = codec_.make_table();
  for (std::uint32_t l = 0; l < cfg_.levels; ++l) {
    for (std::uint64_t p = 0; p < dirs_[l].size(); ++p) {
      if (const CachedTable* hit = cache_.get(make_key(l, p))) {
        n += hit->table.size();
        continue;
      }
      const Ppa ppa = dirs_[l][p];
      if (ppa == kInvalidPpa) continue;
      ByteSpan page, spare;
      if (Status s = nand_->read_page_view(ppa, &page, &spare); !ok(s)) {
        return s;
      }
      if (ftl::SpareTag::decode(spare).kind != ftl::PageKind::kIndexRecord) {
        return Status::kCorruption;
      }
      if (Status s = codec_.decode(page, &scratch); !ok(s)) return s;
      n += scratch.size();
    }
  }
  num_keys_ = n;
  return Status::kOk;
}

}  // namespace rhik::index
