#include "kvssd/checkpoint.hpp"

#include <algorithm>
#include <cassert>

#include "common/crc32.hpp"
#include "ftl/mvcc.hpp"

namespace rhik::kvssd {

using flash::Ppa;

namespace {

constexpr std::uint32_t kPayloadMagic = 0x52434B50;  // "RCKP"
constexpr std::uint32_t kSuperMagic = 0x52434B53;    // "RCKS"
constexpr std::uint32_t kJournalMagic = 0x52434B4A;  // "RCKJ"
constexpr std::uint32_t kPayloadFormat = 2;  // 2: +epoch high-water (MVCC)

// Journal page header: [magic u32][page_seq u64][next_seq u64][count u16].
constexpr std::size_t kJournalHeader = 4 + 8 + 8 + 2;
// Record: [kind u8][key u64][ppa u40].
constexpr std::size_t kRecordSize = 1 + 8 + 5;

// Superblock page: [magic u32][version u64][payload_pages u32]
// [payload_len u64][payload_crc u32][journal_mark u64].
constexpr std::size_t kSuperSize = 4 + 8 + 4 + 8 + 4 + 8;

// Fixed payload header before the block table (see build_payload).
constexpr std::size_t kPayloadHeader = 4 + 4 + 8 + 8 + 8 + 8 + 4 + 4;

/// Reads a page and verifies the controller CRC stamp; returns the spare
/// tag on success.
std::optional<ftl::SpareTag> read_checked(flash::NandDevice& nand, Ppa ppa,
                                          Bytes& data, Bytes& spare) {
  const auto& g = nand.geometry();
  data.resize(g.page_size);
  spare.resize(g.spare_size());
  if (!ok(nand.read_page(ppa, data, spare))) return std::nullopt;
  if (!flash::page_crc_ok(g, data, spare)) return std::nullopt;
  return ftl::SpareTag::decode(spare);
}

}  // namespace

CheckpointManager::CheckpointManager(flash::NandDevice* nand,
                                     index::IIndex* index,
                                     ftl::FlashKvStore* store,
                                     ftl::PageAllocator* alloc,
                                     CheckpointConfig cfg,
                                     const std::uint64_t* live_bytes)
    : nand_(nand),
      index_(index),
      store_(store),
      alloc_(alloc),
      cfg_(cfg),
      live_bytes_(live_bytes),
      jmax_seq_(cfg.journal_blocks, 0) {
  assert(nand_ && index_ && store_ && alloc_ && live_bytes_);
  assert(cfg_.enabled && cfg_.slot_blocks > 0 && cfg_.journal_blocks > 0);
}

std::uint32_t CheckpointManager::first_reserved() const noexcept {
  return nand_->geometry().num_blocks - reserved_blocks(cfg_);
}

std::uint32_t CheckpointManager::slot_base(std::uint32_t slot) const noexcept {
  return first_reserved() + slot * cfg_.slot_blocks;
}

std::uint32_t CheckpointManager::journal_base() const noexcept {
  return first_reserved() + 2 * cfg_.slot_blocks;
}

std::uint32_t CheckpointManager::slot_pages() const noexcept {
  return cfg_.slot_blocks * nand_->geometry().pages_per_block;
}

std::uint32_t CheckpointManager::records_per_journal_page() const noexcept {
  return static_cast<std::uint32_t>(
      (nand_->geometry().page_size - kJournalHeader) / kRecordSize);
}

void CheckpointManager::init_from_flash() {
  if (auto found = find_newest(*nand_, cfg_)) {
    version_ = found->version;
    durable_mark_ = found->journal_mark;
    active_slot_ = found->slot;
    any_durable_ = true;
  }
  // Resume journal appending after the newest valid page; torn pages at
  // a ring tail just waste their slot (their intended sequence number is
  // reassigned to the next valid page, and replay skips them by CRC).
  std::uint64_t max_seq = 0;
  std::uint32_t cur = 0;
  const auto& g = nand_->geometry();
  Bytes data, spare;
  for (std::uint32_t i = 0; i < cfg_.journal_blocks; ++i) {
    const std::uint32_t blk = journal_base() + i;
    for (std::uint32_t p = 0; p < nand_->pages_programmed(blk); ++p) {
      const auto tag = read_checked(*nand_, flash::make_ppa(g, blk, p), data, spare);
      if (!tag || tag->kind != ftl::PageKind::kCkptJournal) continue;
      if (get_u32(data, 0) != kJournalMagic) continue;
      const std::uint64_t seq = get_u64(data, 4);
      jmax_seq_[i] = std::max(jmax_seq_[i], seq);
      if (seq >= max_seq) {
        max_seq = seq;
        cur = i;
      }
    }
  }
  next_page_seq_ = max_seq + 1;
  jcur_ = cur;
  programs_baseline_ = nand_->stats().page_programs;
  stats_.version = version_;
}

void CheckpointManager::invalidate_checkpoints() {
  stats_.invalidations++;
  // Newest slot first: if interrupted mid-way, recovery either sees the
  // stale older slot (whose journal-tail contiguity check fails) or no
  // slot at all — both resolve to the full scan.
  const std::uint32_t order[2] = {active_slot_, 1 - active_slot_};
  for (const std::uint32_t slot : order) {
    for (std::uint32_t b = 0; b < cfg_.slot_blocks; ++b) {
      const std::uint32_t blk = slot_base(slot) + b;
      if (nand_->pages_programmed(blk) > 0) (void)nand_->erase_block(blk);
    }
  }
  any_durable_ = false;
  durable_mark_ = 0;
  pending_.reset();
}

void CheckpointManager::reset_journal() {
  for (std::uint32_t i = 0; i < cfg_.journal_blocks; ++i) {
    const std::uint32_t blk = journal_base() + i;
    if (nand_->pages_programmed(blk) > 0) (void)nand_->erase_block(blk);
    jmax_seq_[i] = 0;
  }
  jcur_ = 0;
}

// -- Journal write path --------------------------------------------------------

void CheckpointManager::append(std::uint8_t kind, std::uint64_t key, Ppa ppa) {
  buffer_.push_back(JournalRecord{kind, key, ppa});
  stats_.journal_records++;
  if (buffer_.size() >= records_per_journal_page()) {
    (void)flush_journal();  // failure keeps records buffered
  }
}

void CheckpointManager::journal_put(std::uint64_t sig, Ppa ppa) {
  append(kRecPut, sig, ppa);
}

void CheckpointManager::journal_del_located(std::uint64_t sig, Ppa ppa) {
  append(kRecDelAt, sig, ppa);
}

void CheckpointManager::journal_repoint(std::uint64_t slot_key, Ppa ppa) {
  append(kRecRepoint, slot_key, ppa);
}

void CheckpointManager::journal_resize(std::uint32_t new_gen,
                                       std::uint32_t new_bits) {
  stats_.resizes_journaled++;
  append(kRecResize, (std::uint64_t{new_gen} << 32) | new_bits, 0);
}

void CheckpointManager::journal_migrated(std::uint64_t old_slot_key) {
  stats_.resizes_journaled++;
  append(kRecMigrate, old_slot_key, 0);
}

Status CheckpointManager::rotate_journal() {
  const std::uint32_t n = cfg_.journal_blocks;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const std::uint32_t next = (jcur_ + 1) % n;
    const std::uint32_t blk = journal_base() + next;
    if (nand_->pages_programmed(blk) == 0) {
      jcur_ = next;
      return Status::kOk;
    }
    if (!any_durable_ || jmax_seq_[next] < durable_mark_) {
      if (Status s = nand_->erase_block(blk); !ok(s)) return s;
      jmax_seq_[next] = 0;
      jcur_ = next;
      return Status::kOk;
    }
    // Ring full behind the durable checkpoint: completing a checkpoint
    // advances the mark past every written page. When even that is
    // impossible (index maintenance in flight), erase both slots — with
    // no durable checkpoint the ring is free, and the next recovery
    // takes the always-correct full scan.
    if (rotating_) return Status::kBusy;
    rotating_ = true;
    stats_.journal_forced_checkpoints++;
    const Status s = checkpoint_now();
    rotating_ = false;
    if (!ok(s)) invalidate_checkpoints();
  }
  return Status::kDeviceFull;
}

Status CheckpointManager::flush_journal() {
  if (buffer_.empty()) return Status::kOk;
  stats_.journal_flushes++;
  // Store first, always: buffered records can reference pairs that are
  // still in the store's open page. Persisting them before the records
  // makes "record durable implies referenced data durable" a journal
  // invariant, whichever caller triggered this flush (explicit flush,
  // page-full cadence, or the collector's pre-erase hook).
  if (Status s = store_->flush(); !ok(s)) return s;
  const auto& g = nand_->geometry();
  const std::uint32_t per_page = records_per_journal_page();
  std::size_t done = 0;
  Status result = Status::kOk;
  Bytes page(g.page_size, 0);
  Bytes spare(g.spare_size(), 0xFF);
  while (done < buffer_.size()) {
    std::uint32_t blk = journal_base() + jcur_;
    if (nand_->pages_programmed(blk) == g.pages_per_block) {
      if (Status s = rotate_journal(); !ok(s)) {
        result = s;
        break;
      }
      blk = journal_base() + jcur_;
    }
    const std::size_t n =
        std::min<std::size_t>(buffer_.size() - done, per_page);
    std::fill(page.begin(), page.end(), 0);
    put_u32(page, 0, kJournalMagic);
    put_u64(page, 4, next_page_seq_);
    put_u64(page, 12, store_->next_seq());
    put_u16(page, 20, static_cast<std::uint16_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      const JournalRecord& r = buffer_[done + i];
      const std::size_t off = kJournalHeader + i * kRecordSize;
      page[off] = r.kind;
      put_u64(page, off + 1, r.key);
      put_u40(page, off + 9, r.ppa);
    }
    std::fill(spare.begin(), spare.end(), 0xFF);
    ftl::SpareTag{ftl::PageKind::kCkptJournal, ftl::Stream::kIndex}.encode(spare);
    const Ppa ppa = flash::make_ppa(g, blk, nand_->pages_programmed(blk));
    if (Status s = nand_->program_page(ppa, page, spare); !ok(s)) {
      result = s;
      break;
    }
    jmax_seq_[jcur_] = next_page_seq_;
    next_page_seq_++;
    stats_.journal_pages_written++;
    done += n;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(done));
  return result;
}

// -- Checkpoint state machine --------------------------------------------------

std::uint64_t CheckpointManager::dirty_pages_now() const noexcept {
  const std::uint64_t cur = nand_->stats().page_programs;
  return cur >= programs_baseline_ ? cur - programs_baseline_ : 0;
}

Bytes CheckpointManager::build_payload(std::uint64_t version) const {
  const std::uint32_t blocks = first_reserved();
  Bytes image;
  (void)index_->serialize_image(image);
  Bytes payload(kPayloadHeader + std::size_t{blocks} * 8 + 8 + image.size());
  put_u32(payload, 0, kPayloadMagic);
  put_u32(payload, 4, kPayloadFormat);
  put_u64(payload, 8, version);
  put_u64(payload, 16, store_->next_seq());
  put_u64(payload, 24, *live_bytes_);
  put_u64(payload, 32, epochs_ ? epochs_->current() : 0);
  put_u32(payload, 40, index_kind_);
  put_u32(payload, 44, blocks);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    put_u64(payload, kPayloadHeader + std::size_t{b} * 8,
            alloc_->block_live_bytes(b));
  }
  const std::size_t image_off = kPayloadHeader + std::size_t{blocks} * 8;
  put_u64(payload, image_off, image.size());
  if (!image.empty()) put_bytes(payload, image_off + 8, image);
  return payload;
}

Status CheckpointManager::begin() {
  if (pending_) return Status::kOk;
  if (index_->maintenance_active()) return Status::kBusy;
  // Persist the store's open data buffer first: the serialized image must
  // only map keys to extents that are durable on flash — a restart
  // adopts the image wholesale and cannot tell a RAM-buffered mapping
  // from a real one. (Journal-tail records get the same guarantee by
  // per-record extent validation at replay instead.)
  if (Status s = store_->flush(); !ok(s)) return s;
  // Write back dirty tables next so the serialized directory references
  // fully persisted pages; the repoint records this generates either land
  // below the mark or double-apply harmlessly on replay.
  if (Status s = index_->flush(); !ok(s)) return s;
  (void)flush_journal();

  Pending p;
  p.version = version_ + 1;
  p.mark = next_page_seq_;
  p.slot = any_durable_ ? 1 - active_slot_ : 0;
  p.payload = build_payload(p.version);
  const auto& g = nand_->geometry();
  const std::uint32_t payload_pages = static_cast<std::uint32_t>(
      (p.payload.size() + g.page_size - 1) / g.page_size);
  if (payload_pages + 1 > slot_pages()) {
    // Image outgrew the slot: checkpointing degrades to "never", and
    // recovery keeps working through the full scan.
    stats_.checkpoints_failed++;
    return Status::kDeviceFull;
  }
  pending_ = std::move(p);
  stats_.checkpoints_started++;
  return Status::kOk;
}

Status CheckpointManager::pump(std::uint32_t budget) {
  if (!pending_) return Status::kOk;
  const auto& g = nand_->geometry();
  Pending& p = *pending_;

  if (!p.erased) {
    for (std::uint32_t b = 0; b < cfg_.slot_blocks; ++b) {
      const std::uint32_t blk = slot_base(p.slot) + b;
      if (nand_->pages_programmed(blk) > 0) {
        if (Status s = nand_->erase_block(blk); !ok(s)) {
          stats_.checkpoints_failed++;
          pending_.reset();
          return s;
        }
      }
    }
    p.erased = true;
  }

  const std::uint32_t payload_pages = static_cast<std::uint32_t>(
      (p.payload.size() + g.page_size - 1) / g.page_size);
  Bytes spare(g.spare_size(), 0xFF);
  while (budget > 0 && p.next_page < payload_pages) {
    const std::uint32_t idx = p.next_page;
    const std::uint32_t blk = slot_base(p.slot) + idx / g.pages_per_block;
    const Ppa ppa = flash::make_ppa(g, blk, idx % g.pages_per_block);
    const std::size_t off = std::size_t{idx} * g.page_size;
    const std::size_t len =
        std::min<std::size_t>(g.page_size, p.payload.size() - off);
    std::fill(spare.begin(), spare.end(), 0xFF);
    ftl::SpareTag{ftl::PageKind::kIndexDir, ftl::Stream::kIndex}.encode(spare);
    if (Status s = nand_->program_page(ppa, ByteSpan{p.payload.data() + off, len},
                                       spare);
        !ok(s)) {
      stats_.checkpoints_failed++;
      pending_.reset();
      return s;
    }
    stats_.payload_pages_written++;
    p.next_page++;
    budget--;
  }
  if (p.next_page < payload_pages) return Status::kOk;  // more pumping later

  // Commit: the superblock is programmed last, so a cut before this point
  // leaves the previous checkpoint as the newest valid one.
  Bytes super(g.page_size, 0);
  put_u32(super, 0, kSuperMagic);
  put_u64(super, 4, p.version);
  put_u32(super, 12, payload_pages);
  put_u64(super, 16, p.payload.size());
  put_u32(super, 24, crc32(p.payload));
  put_u64(super, 28, p.mark);
  static_assert(kSuperSize == 36);
  std::fill(spare.begin(), spare.end(), 0xFF);
  ftl::SpareTag{ftl::PageKind::kCkptSuper, ftl::Stream::kIndex}.encode(spare);
  const std::uint32_t blk = slot_base(p.slot) + payload_pages / g.pages_per_block;
  const Ppa ppa = flash::make_ppa(g, blk, payload_pages % g.pages_per_block);
  if (Status s = nand_->program_page(ppa, super, spare); !ok(s)) {
    stats_.checkpoints_failed++;
    pending_.reset();
    return s;
  }

  version_ = p.version;
  durable_mark_ = p.mark;
  active_slot_ = p.slot;
  any_durable_ = true;
  programs_baseline_ = nand_->stats().page_programs;
  stats_.checkpoints_completed++;
  stats_.version = version_;
  pending_.reset();
  return Status::kOk;
}

void CheckpointManager::tick() {
  if (pending_) {
    (void)pump(cfg_.pump_pages);
    return;
  }
  if (cfg_.dirty_pages == 0) return;
  if (dirty_pages_now() < cfg_.dirty_pages) return;
  if (ok(begin())) (void)pump(cfg_.pump_pages);
}

Status CheckpointManager::checkpoint_now() {
  if (!pending_) {
    if (Status s = begin(); !ok(s)) return s;
  }
  while (pending_) {
    if (Status s = pump(UINT32_MAX); !ok(s)) return s;
  }
  return Status::kOk;
}

// -- Restore -------------------------------------------------------------------

std::optional<CheckpointManager::Found> CheckpointManager::find_newest(
    flash::NandDevice& nand, const CheckpointConfig& cfg) {
  const auto& g = nand.geometry();
  const std::uint32_t first = g.num_blocks - reserved_blocks(cfg);
  std::optional<Found> best;
  Bytes data, spare;
  for (std::uint32_t slot = 0; slot < 2; ++slot) {
    const std::uint32_t base = first + slot * cfg.slot_blocks;
    // Find the slot's superblock (there is at most one valid one: the
    // slot is erased before each rewrite; a torn rewrite has none).
    std::optional<std::uint64_t> version;
    std::uint32_t payload_pages = 0;
    std::uint64_t payload_len = 0;
    std::uint32_t payload_crc = 0;
    std::uint64_t mark = 0;
    for (std::uint32_t b = 0; b < cfg.slot_blocks; ++b) {
      const std::uint32_t blk = base + b;
      for (std::uint32_t p = 0; p < nand.pages_programmed(blk); ++p) {
        const auto tag = read_checked(nand, flash::make_ppa(g, blk, p), data, spare);
        if (!tag || tag->kind != ftl::PageKind::kCkptSuper) continue;
        if (get_u32(data, 0) != kSuperMagic) continue;
        const std::uint64_t v = get_u64(data, 4);
        if (version && *version >= v) continue;
        version = v;
        payload_pages = get_u32(data, 12);
        payload_len = get_u64(data, 16);
        payload_crc = get_u32(data, 24);
        mark = get_u64(data, 28);
      }
    }
    if (!version) continue;
    if (best && best->version >= *version) continue;
    if (payload_len > std::uint64_t{payload_pages} * g.page_size ||
        payload_pages >= cfg.slot_blocks * g.pages_per_block) {
      continue;
    }
    // Reassemble and verify the payload.
    Bytes payload;
    payload.reserve(payload_len);
    bool valid = true;
    for (std::uint32_t idx = 0; idx < payload_pages && valid; ++idx) {
      const std::uint32_t blk = base + idx / g.pages_per_block;
      const auto tag = read_checked(
          nand, flash::make_ppa(g, blk, idx % g.pages_per_block), data, spare);
      if (!tag || tag->kind != ftl::PageKind::kIndexDir) {
        valid = false;
        break;
      }
      const std::size_t take =
          std::min<std::size_t>(g.page_size, payload_len - payload.size());
      payload.insert(payload.end(), data.begin(),
                     data.begin() + static_cast<std::ptrdiff_t>(take));
    }
    if (!valid || payload.size() != payload_len) continue;
    if (crc32(payload) != payload_crc) continue;
    best = Found{std::move(payload), *version, mark, slot};
  }
  return best;
}

CheckpointManager::JournalTail CheckpointManager::read_journal_tail(
    flash::NandDevice& nand, const CheckpointConfig& cfg, std::uint64_t mark) {
  const auto& g = nand.geometry();
  const std::uint32_t jbase =
      g.num_blocks - reserved_blocks(cfg) + 2 * cfg.slot_blocks;
  struct PageEntry {
    std::uint64_t seq;
    Bytes data;
  };
  std::vector<PageEntry> pages;
  Bytes data, spare;
  for (std::uint32_t i = 0; i < cfg.journal_blocks; ++i) {
    const std::uint32_t blk = jbase + i;
    for (std::uint32_t p = 0; p < nand.pages_programmed(blk); ++p) {
      const auto tag = read_checked(nand, flash::make_ppa(g, blk, p), data, spare);
      if (!tag || tag->kind != ftl::PageKind::kCkptJournal) continue;
      if (get_u32(data, 0) != kJournalMagic) continue;
      const std::uint64_t seq = get_u64(data, 4);
      if (seq < mark) continue;
      pages.push_back(PageEntry{seq, data});
    }
  }
  std::sort(pages.begin(), pages.end(),
            [](const PageEntry& a, const PageEntry& b) { return a.seq < b.seq; });

  JournalTail tail;
  std::uint64_t expect = mark;
  for (const PageEntry& pe : pages) {
    if (pe.seq != expect) {
      // A hole means ring blocks carrying part of the tail were erased
      // (slot invalidation race); the replay would be incomplete.
      tail.contiguous = false;
      break;
    }
    expect++;
    tail.pages++;
    tail.max_next_seq = std::max(tail.max_next_seq, get_u64(pe.data, 12));
    const std::uint16_t count = get_u16(pe.data, 20);
    if (kJournalHeader + std::size_t{count} * kRecordSize > pe.data.size()) {
      tail.contiguous = false;
      break;
    }
    for (std::uint16_t i = 0; i < count; ++i) {
      const std::size_t off = kJournalHeader + std::size_t{i} * kRecordSize;
      JournalRecord rec;
      rec.kind = pe.data[off];
      rec.key = get_u64(pe.data, off + 1);
      rec.ppa = get_u40(pe.data, off + 9);
      tail.records.push_back(rec);
    }
  }
  return tail;
}

std::optional<CheckpointManager::Image> CheckpointManager::decode_payload(
    ByteSpan payload) {
  if (payload.size() < kPayloadHeader) return std::nullopt;
  if (get_u32(payload, 0) != kPayloadMagic) return std::nullopt;
  if (get_u32(payload, 4) != kPayloadFormat) return std::nullopt;
  Image img;
  img.version = get_u64(payload, 8);
  img.next_seq = get_u64(payload, 16);
  img.live_bytes = get_u64(payload, 24);
  img.epoch = get_u64(payload, 32);
  img.index_kind = get_u32(payload, 40);
  const std::uint32_t blocks = get_u32(payload, 44);
  const std::size_t image_off = kPayloadHeader + std::size_t{blocks} * 8;
  if (payload.size() < image_off + 8) return std::nullopt;
  img.block_live.resize(blocks);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    img.block_live[b] = get_u64(payload, kPayloadHeader + std::size_t{b} * 8);
  }
  const std::uint64_t image_len = get_u64(payload, image_off);
  if (payload.size() < image_off + 8 + image_len) return std::nullopt;
  img.index_image.assign(payload.begin() + static_cast<std::ptrdiff_t>(image_off + 8),
                         payload.begin() +
                             static_cast<std::ptrdiff_t>(image_off + 8 + image_len));
  return img;
}

}  // namespace rhik::kvssd
