#include "ftl/kv_store.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "ftl/mvcc.hpp"

namespace rhik::ftl {

using flash::Ppa;

namespace {

/// Copies the stored key of `p` out of its head page.
void copy_key(ByteSpan page, const ParsedPair& p, Bytes* key_out) {
  const ByteSpan k = page.subspan(p.offset + PairHeader::kSize, p.header.key_len);
  key_out->assign(k.begin(), k.end());
}

}  // namespace

FlashKvStore::FlashKvStore(flash::NandDevice* nand, PageAllocator* alloc)
    : nand_(nand),
      alloc_(alloc),
      hot_(nand->geometry().page_size),
      cold_(nand->geometry().page_size) {
  assert(nand_ != nullptr && alloc_ != nullptr);
  cold_.stream = Stream::kCold;
}

std::uint64_t FlashKvStore::max_value_size(std::size_t key_len) const noexcept {
  const auto& g = nand_->geometry();
  const std::uint64_t head_cap = g.page_size - PageFooter::size_for(1);
  const std::uint64_t extent_cap =
      head_cap + std::uint64_t{g.pages_per_block - 1} * g.page_size;
  const std::uint64_t overhead = PairHeader::kSize + key_len;
  return overhead >= extent_cap ? 0 : extent_cap - overhead;
}

Status FlashKvStore::program_open_page(OpenPage& open) {
  assert(open.ppa.has_value());
  Bytes spare(nand_->geometry().spare_size(), 0xFF);
  SpareTag{PageKind::kDataHead, open.stream}.encode(spare);
  DataPageSpare{next_seq_++, epochs_ ? epochs_->current() : 0}.encode(spare);
  const Status s = nand_->program_page(*open.ppa, open.builder.finalize(), spare);
  open.ppa.reset();
  open.builder.reset();
  return s;
}

Status FlashKvStore::flush() {
  if (hot_.ppa) {
    if (Status s = program_open_page(hot_); !ok(s)) return s;
  }
  if (cold_.ppa) {
    if (Status s = program_open_page(cold_); !ok(s)) return s;
  }
  return Status::kOk;
}

Status FlashKvStore::flush_relocations() {
  OpenPage& open = open_for(/*for_gc=*/true);
  if (!open.ppa) return Status::kOk;
  return program_open_page(open);
}

Status FlashKvStore::flush_hot() {
  if (!hot_.ppa) return Status::kOk;
  return program_open_page(hot_);
}

Status FlashKvStore::flush_block(std::uint32_t block) {
  const auto& g = nand_->geometry();
  if (hot_.ppa && flash::ppa_block(g, *hot_.ppa) == block) {
    if (Status s = program_open_page(hot_); !ok(s)) return s;
  }
  if (cold_.ppa && flash::ppa_block(g, *cold_.ppa) == block) {
    if (Status s = program_open_page(cold_); !ok(s)) return s;
  }
  return Status::kOk;
}

Result<Ppa> FlashKvStore::write_pair(std::uint64_t sig, ByteSpan key, ByteSpan value,
                                     bool for_gc, std::uint64_t epoch) {
  return write_internal(sig, key, value, /*tombstone=*/false, for_gc, epoch);
}

Result<Ppa> FlashKvStore::write_tombstone(std::uint64_t sig, ByteSpan key,
                                          bool for_gc, std::uint64_t epoch) {
  auto ppa = write_internal(sig, key, {}, /*tombstone=*/true, for_gc, epoch);
  if (ppa) stats_.tombstones_written++;
  return ppa;
}

Result<Ppa> FlashKvStore::write_internal(std::uint64_t sig, ByteSpan key,
                                         ByteSpan value, bool tombstone,
                                         bool for_gc, std::uint64_t epoch) {
  const auto& g = nand_->geometry();
  if (key.empty() || key.size() > UINT16_MAX) return Status::kInvalidArgument;
  if (value.size() > max_value_size(key.size())) return Status::kInvalidArgument;
  // The key (plus header) must fit the head page for extent layout.
  if (PairHeader::kSize + key.size() + PageFooter::size_for(1) > g.page_size) {
    return Status::kInvalidArgument;
  }

  // Ordering hazard between the streams: page sequence numbers are
  // assigned at program time, so a stale GC-relocated copy of `sig`
  // buffered in the cold open page would reach flash AFTER this fresher
  // write with a higher sequence — and win recovery's newest-wins scan.
  // Flush the cold buffer first so flash order matches logical order.
  if (!for_gc && cold_.ppa && cold_.builder.contains(sig)) {
    if (Status s = program_open_page(cold_); !ok(s)) return s;
  }

  PairHeader hdr;
  hdr.sig = sig;
  hdr.key_len = static_cast<std::uint16_t>(key.size());
  hdr.val_len = static_cast<std::uint32_t>(value.size());
  hdr.epoch = epoch;
  hdr.tombstone = tombstone;
  const std::uint64_t total = hdr.pair_bytes();
  OpenPage& open = open_for(for_gc);

  if (DataPageBuilder::fits_in_empty_page(g.page_size, total)) {
    // Small pair: pack into the stream's open head page.
    if (open.ppa && !open.builder.fits(total)) {
      if (Status s = program_open_page(open); !ok(s)) return s;
    }
    if (!open.ppa) {
      auto ppa = alloc_->allocate(open.stream, for_gc);
      if (!ppa) return ppa.status();
      open.ppa = *ppa;
      open.builder.reset();
    }
    open.builder.append(hdr, key, value);
    alloc_->add_live(*open.ppa, total);
    stats_.pairs_written++;
    if (for_gc) stats_.gc_pairs_written++;
    return *open.ppa;
  }

  // Large pair: its own extent of physically contiguous pages. Flush the
  // stream's open page first so in-block programming stays in order (the
  // other stream's open page sits in a different active block).
  if (open.ppa) {
    if (Status s = program_open_page(open); !ok(s)) return s;
  }

  const std::uint32_t npages = extent_pages(g, total);
  auto base = alloc_->allocate_extent(open.stream, npages, for_gc);
  if (!base) return base.status();

  const std::size_t head_cap = g.page_size - PageFooter::size_for(1);
  const std::size_t prefix_len = head_cap - PairHeader::kSize - key.size();
  DataPageBuilder head(g.page_size);
  head.begin_extent(hdr, key, value.subspan(0, prefix_len));

  Bytes spare(g.spare_size(), 0xFF);
  SpareTag{PageKind::kDataHead, open.stream}.encode(spare);
  DataPageSpare{next_seq_++, epochs_ ? epochs_->current() : 0}.encode(spare);
  if (Status s = nand_->program_page(*base, head.finalize(), spare); !ok(s)) return s;
  std::fill(spare.begin(), spare.end(), 0xFF);

  SpareTag{PageKind::kDataCont, open.stream}.encode(spare);
  std::size_t off = prefix_len;
  for (std::uint32_t p = 1; p < npages; ++p) {
    const std::size_t chunk = std::min<std::size_t>(g.page_size, value.size() - off);
    if (Status s = nand_->program_page(*base + p, value.subspan(off, chunk), spare);
        !ok(s)) {
      return s;
    }
    off += chunk;
  }
  assert(off == value.size());

  alloc_->add_live(*base, total);
  stats_.pairs_written++;
  stats_.extents_written++;
  if (for_gc) stats_.gc_pairs_written++;
  return *base;
}

Result<ByteSpan> FlashKvStore::locate(Ppa start, std::uint64_t sig,
                                      std::uint64_t max_epoch, ParsedPair* out) {
  // A buffered page is served straight from its write buffer: finalize()
  // patches the footer in place and hands back a view of the builder's
  // image, and `spare` stays empty (no tag to check).
  ByteSpan page, spare;
  if (hot_.ppa == start) {
    page = hot_.builder.finalize();
  } else if (cold_.ppa == start) {
    page = cold_.builder.finalize();
  } else if (Status s = nand_->read_page_view(start, &page, &spare); !ok(s)) {
    return s;
  }
  // Uncapped, the backward footer scan (the get path) finds the newest
  // copy; a snapshot cap walks the page forward.
  const std::uint32_t page_size = nand_->geometry().page_size;
  const PageFind found =
      max_epoch == kEpochMax
          ? find_pair_in_page(page, page_size, sig, out)
          : find_pair_in_page_at(page, page_size, sig, max_epoch, out);
  // The kDataHead tag check runs only now, before any parse result is
  // trusted: the scan above hides the spare line's cache miss.
  if (!spare.empty() && SpareTag::decode(spare).kind != PageKind::kDataHead) {
    return Status::kCorruption;
  }
  switch (found) {
    case PageFind::kCorrupt: return Status::kCorruption;
    case PageFind::kAbsent: return Status::kNotFound;
    case PageFind::kFound: break;
  }
  return page;
}

Status FlashKvStore::copy_pair(Ppa start, ByteSpan page, const ParsedPair& p,
                               Bytes* key_out, Bytes* value_out) {
  if (key_out) copy_key(page, p, key_out);
  if (!value_out) return Status::kOk;
  const std::uint32_t page_size = nand_->geometry().page_size;
  const std::size_t val_off = p.offset + PairHeader::kSize + p.header.key_len;
  const std::size_t in_page_val =
      p.in_page_bytes - PairHeader::kSize - p.header.key_len;
  value_out->clear();
  value_out->reserve(p.header.val_len);
  const ByteSpan v = page.subspan(val_off, in_page_val);
  value_out->insert(value_out->end(), v.begin(), v.end());
  std::size_t remaining = p.header.val_len - in_page_val;
  Ppa next = start + 1;
  while (remaining > 0) {
    const std::size_t chunk = std::min<std::size_t>(page_size, remaining);
    ByteSpan cont;
    if (Status s = nand_->read_page_view(next, &cont, nullptr,
                                         static_cast<std::uint32_t>(chunk));
        !ok(s)) {
      return s;
    }
    value_out->insert(value_out->end(), cont.begin(),
                      cont.begin() + static_cast<std::ptrdiff_t>(chunk));
    remaining -= chunk;
    ++next;
  }
  return Status::kOk;
}

Status FlashKvStore::read_pair(Ppa start, std::uint64_t sig, Bytes* key_out,
                               Bytes* value_out, std::uint64_t* epoch_out) {
  ParsedPair p;
  const auto page = locate(start, sig, kEpochMax, &p);
  if (!page) return page.status();
  if (epoch_out) *epoch_out = p.header.epoch;
  if (Status s = copy_pair(start, *page, p, key_out, value_out); !ok(s)) return s;
  stats_.pairs_read++;
  return Status::kOk;
}

Status FlashKvStore::read_pair_at(Ppa start, std::uint64_t sig,
                                  std::uint64_t max_epoch, Bytes* key_out,
                                  Bytes* value_out, bool* tombstone_out) {
  if (tombstone_out) *tombstone_out = false;
  ParsedPair p;
  const auto page = locate(start, sig, max_epoch, &p);
  if (!page) return page.status();
  if (p.header.tombstone) {
    if (tombstone_out) *tombstone_out = true;
    return copy_pair(start, *page, p, key_out, nullptr);
  }
  if (Status s = copy_pair(start, *page, p, key_out, value_out); !ok(s)) return s;
  stats_.pairs_read++;
  return Status::kOk;
}

Result<PairMeta> FlashKvStore::read_pair_meta(Ppa start, std::uint64_t sig) {
  ParsedPair p;
  const auto page = locate(start, sig, kEpochMax, &p);
  if (!page) return page.status();
  PairMeta meta;
  copy_key(*page, p, &meta.key);
  meta.value_len = p.header.val_len;
  meta.total_bytes = p.header.pair_bytes();
  meta.epoch = p.header.epoch;
  meta.tombstone = p.header.tombstone;
  return meta;
}

void FlashKvStore::note_stale(Ppa start, std::uint64_t total_bytes) {
  alloc_->sub_live(start, total_bytes);
}

}  // namespace rhik::ftl
