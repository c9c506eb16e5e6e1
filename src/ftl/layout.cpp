#include "ftl/layout.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace rhik::ftl {

void SpareTag::encode(MutByteSpan spare) const noexcept {
  assert(spare.size() >= kEncodedSize);
  spare[0] = static_cast<std::uint8_t>(kind);
  spare[1] = static_cast<std::uint8_t>(stream);
}

SpareTag SpareTag::decode(ByteSpan spare) noexcept {
  SpareTag tag;
  if (spare.size() >= kEncodedSize) {
    tag.kind = static_cast<PageKind>(spare[0]);
    tag.stream = static_cast<Stream>(spare[1]);
  }
  return tag;
}

void PairHeader::encode(MutByteSpan dst, std::size_t off) const noexcept {
  assert((key_len & kTombstoneBit) == 0);
  put_u64(dst, off, sig);
  put_u16(dst, off + 8,
          static_cast<std::uint16_t>(key_len | (tombstone ? kTombstoneBit : 0)));
  put_u32(dst, off + 10, val_len);
  put_u64(dst, off + 14, epoch);
}

PairHeader PairHeader::decode(ByteSpan src, std::size_t off) noexcept {
  PairHeader h;
  h.sig = get_u64(src, off);
  const std::uint16_t raw = get_u16(src, off + 8);
  h.tombstone = (raw & kTombstoneBit) != 0;
  h.key_len = static_cast<std::uint16_t>(raw & ~kTombstoneBit);
  h.val_len = get_u32(src, off + 10);
  h.epoch = get_u64(src, off + 14);
  return h;
}

void DataPageSpare::encode(MutByteSpan spare) const noexcept {
  assert(spare.size() >= kEncodedSize);
  put_u64(spare, SpareTag::kEncodedSize, seq);
  put_u64(spare, SpareTag::kEncodedSize + 8, epoch_hw);
}

DataPageSpare DataPageSpare::decode(ByteSpan spare) noexcept {
  DataPageSpare s;
  if (spare.size() >= kEncodedSize) {
    s.seq = get_u64(spare, SpareTag::kEncodedSize);
    s.epoch_hw = get_u64(spare, SpareTag::kEncodedSize + 8);
  }
  return s;
}

void PageFooter::encode(MutByteSpan page, const std::vector<std::uint64_t>& sigs) noexcept {
  const std::size_t n = sigs.size();
  assert(size_for(n) <= page.size());
  put_u16(page, page.size() - kCountSize, static_cast<std::uint16_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    put_u64(page, page.size() - kCountSize - (i + 1) * kSigSize, sigs[i]);
  }
}

std::optional<std::vector<std::uint64_t>> PageFooter::decode(ByteSpan page) noexcept {
  if (page.size() < kCountSize) return std::nullopt;
  const std::uint16_t n = get_u16(page, page.size() - kCountSize);
  if (size_for(n) > page.size()) return std::nullopt;
  std::vector<std::uint64_t> sigs(n);
  for (std::size_t i = 0; i < n; ++i) {
    sigs[i] = get_u64(page, page.size() - kCountSize - (i + 1) * kSigSize);
  }
  return sigs;
}

DataPageBuilder::DataPageBuilder(std::uint32_t page_size)
    : buf_(page_size, 0xFF), page_size_(page_size) {
  assert(page_size >= PairHeader::kSize + PageFooter::size_for(1));
}

std::size_t DataPageBuilder::remaining() const noexcept {
  const std::size_t footer_after = PageFooter::size_for(sigs_.size() + 1);
  if (write_off_ + footer_after >= page_size_) return 0;
  return page_size_ - footer_after - write_off_;
}

bool DataPageBuilder::fits(std::uint64_t pair_bytes) const noexcept {
  return pair_bytes <= remaining();
}

bool DataPageBuilder::fits_in_empty_page(std::uint32_t page_size,
                                         std::uint64_t pair_bytes) noexcept {
  return pair_bytes + PageFooter::size_for(1) <= page_size;
}

std::size_t DataPageBuilder::append(const PairHeader& hdr, ByteSpan key, ByteSpan value) {
  assert(fits(hdr.pair_bytes()));
  assert(key.size() == hdr.key_len && value.size() == hdr.val_len);
  const std::size_t off = write_off_;
  hdr.encode(buf_, off);
  put_bytes(buf_, off + PairHeader::kSize, key);
  put_bytes(buf_, off + PairHeader::kSize + key.size(), value);
  write_off_ = off + static_cast<std::size_t>(hdr.pair_bytes());
  sigs_.push_back(hdr.sig);
  return off;
}

void DataPageBuilder::begin_extent(const PairHeader& hdr, ByteSpan key,
                                   ByteSpan value_prefix) {
  assert(empty() && write_off_ == 0);
  assert(key.size() == hdr.key_len);
  const std::size_t cap = page_size_ - PageFooter::size_for(1);
  assert(PairHeader::kSize + key.size() + value_prefix.size() == cap);
  hdr.encode(buf_, 0);
  put_bytes(buf_, PairHeader::kSize, key);
  put_bytes(buf_, PairHeader::kSize + key.size(), value_prefix);
  write_off_ = cap;
  sigs_.push_back(hdr.sig);
}

bool DataPageBuilder::contains(std::uint64_t sig) const noexcept {
  return std::find(sigs_.begin(), sigs_.end(), sig) != sigs_.end();
}

ByteSpan DataPageBuilder::finalize() {
  PageFooter::encode(buf_, sigs_);
  return buf_;
}

void DataPageBuilder::reset() {
  std::fill(buf_.begin(), buf_.end(), 0xFF);
  sigs_.clear();
  write_off_ = 0;
}

std::optional<std::vector<ParsedPair>> parse_head_page(ByteSpan page,
                                                       std::uint32_t page_size) {
  if (page.size() < page_size) return std::nullopt;
  const auto sigs = PageFooter::decode(page.subspan(0, page_size));
  if (!sigs) return std::nullopt;
  const std::size_t footer = PageFooter::size_for(sigs->size());
  const std::size_t data_cap = page_size - footer;

  std::vector<ParsedPair> pairs;
  pairs.reserve(sigs->size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < sigs->size(); ++i) {
    if (off + PairHeader::kSize > data_cap) return std::nullopt;
    ParsedPair p;
    p.header = PairHeader::decode(page, off);
    if (p.header.sig != (*sigs)[i]) return std::nullopt;  // footer mismatch
    p.offset = off;
    const std::uint64_t total = p.header.pair_bytes();
    const std::size_t avail = data_cap - off;
    if (total <= avail) {
      p.in_page_bytes = static_cast<std::size_t>(total);
      p.spills = false;
      off += p.in_page_bytes;
    } else {
      // A spilling pair is always alone in its head page.
      if (i + 1 != sigs->size()) return std::nullopt;
      p.in_page_bytes = avail;
      p.spills = true;
    }
    pairs.push_back(p);
  }
  return pairs;
}

PageFind find_pair_in_page(ByteSpan page, std::uint32_t page_size,
                           std::uint64_t sig, ParsedPair* out) noexcept {
  if (page.size() < page_size || page_size < PageFooter::kCountSize) {
    return PageFind::kCorrupt;
  }
  const std::uint16_t n = get_u16(page, page_size - PageFooter::kCountSize);
  if (PageFooter::size_for(n) > page_size) return PageFind::kCorrupt;
#if defined(__GNUC__) || defined(__clang__)
  // The page is a zero-copy view of NAND storage, usually cache-cold;
  // issue all footer-line loads up front so the scan below overlaps the
  // misses instead of paying them one by one.
  {
    const std::size_t lo = (page_size - PageFooter::size_for(n)) & ~std::size_t{63};
    for (std::size_t o = lo; o < page_size; o += 64) __builtin_prefetch(page.data() + o);
    __builtin_prefetch(page.data());  // first header line
  }
#endif
  const auto footer_sig = [&](std::size_t i) {
    return get_u64(page, page_size - PageFooter::kCountSize -
                             (i + 1) * PageFooter::kSigSize);
  };

  // The footer lists pairs in append order. Scanning backwards lets the
  // first hit end the search; a miss costs only this scan.
  std::size_t last = n;
  for (std::size_t i = n; i-- > 0;) {
    if (footer_sig(i) == sig) {
      last = i;
      break;
    }
  }
  if (last == n) return PageFind::kAbsent;

  // Skip the pairs in front of the winner reading only their length
  // fields; the winner alone gets the full header decode + footer
  // cross-check. (A spilling pair is never in front: it is alone in its
  // head page, so anything oversized before `last` is corruption.)
  const std::size_t data_cap = page_size - PageFooter::size_for(n);
  std::size_t off = 0;
  for (std::size_t i = 0; i < last; ++i) {
    // A second copy: epochs decide, as GC may append a retained older
    // version after the current one.
    if (footer_sig(i) == sig) {
      return find_pair_in_page_at(page, page_size, sig, UINT64_MAX, out);
    }
    if (off + PairHeader::kSize > data_cap) return PageFind::kCorrupt;
    const std::uint16_t key_len = static_cast<std::uint16_t>(
        get_u16(page, off + 8) & ~PairHeader::kTombstoneBit);
    const std::uint64_t total =
        PairHeader::kSize + key_len + get_u32(page, off + 10);
    if (total > data_cap - off) return PageFind::kCorrupt;
#if defined(__GNUC__) || defined(__clang__)
    // Headers chain through variable strides, so on a cold view each
    // header load waits out the previous miss. Pair sizes inside one
    // page are usually uniform; prefetch a few current-stride multiples
    // ahead to overlap those misses, seeding a deep pipeline on the
    // first iteration (the chain is fully serial until guesses land).
    // A wrong guess is just a wasted prefetch — correctness never rests
    // on the prediction.
    const std::uint64_t depth = (i == 0) ? 16 : 4;
    for (std::uint64_t k = 1; k <= depth; ++k) {
      const std::uint64_t guess = off + k * total;
      if (guess >= data_cap) break;
      __builtin_prefetch(page.data() + guess);
    }
#endif
    off += static_cast<std::size_t>(total);
  }

  if (off + PairHeader::kSize > data_cap) return PageFind::kCorrupt;
  ParsedPair p;
  p.header = PairHeader::decode(page, off);
  if (p.header.sig != sig) return PageFind::kCorrupt;  // footer mismatch
  p.offset = off;
  const std::uint64_t total = p.header.pair_bytes();
  const std::size_t avail = data_cap - off;
  if (total <= avail) {
    p.in_page_bytes = static_cast<std::size_t>(total);
    p.spills = false;
  } else {
    // A spilling pair is always alone in its head page.
    if (last + 1 != n) return PageFind::kCorrupt;
    p.in_page_bytes = avail;
    p.spills = true;
  }
  *out = p;
  return PageFind::kFound;
}

PageFind find_pair_in_page_at(ByteSpan page, std::uint32_t page_size,
                              std::uint64_t sig, std::uint64_t max_epoch,
                              ParsedPair* out) noexcept {
  if (page.size() < page_size || page_size < PageFooter::kCountSize) {
    return PageFind::kCorrupt;
  }
  const std::uint16_t n = get_u16(page, page_size - PageFooter::kCountSize);
  if (PageFooter::size_for(n) > page_size) return PageFind::kCorrupt;
  const auto footer_sig = [&](std::size_t i) {
    return get_u64(page, page_size - PageFooter::kCountSize -
                             (i + 1) * PageFooter::kSigSize);
  };

  // Forward walk with full decodes, keeping the newest match under the
  // cap — the version the snapshot may see here.
  const std::size_t data_cap = page_size - PageFooter::size_for(n);
  std::size_t off = 0;
  bool found = false;
  ParsedPair best;
  for (std::size_t i = 0; i < n; ++i) {
    if (off + PairHeader::kSize > data_cap) return PageFind::kCorrupt;
    ParsedPair p;
    p.header = PairHeader::decode(page, off);
    if (p.header.sig != footer_sig(i)) return PageFind::kCorrupt;
    p.offset = off;
    const std::uint64_t total = p.header.pair_bytes();
    const std::size_t avail = data_cap - off;
    if (total <= avail) {
      p.in_page_bytes = static_cast<std::size_t>(total);
      p.spills = false;
      off += p.in_page_bytes;
    } else {
      // A spilling pair is always alone in its head page.
      if (i + 1 != n) return PageFind::kCorrupt;
      p.in_page_bytes = avail;
      p.spills = true;
    }
    if (p.header.sig == sig && p.header.epoch <= max_epoch &&
        (!found || newer_in_page(p.header, best.header))) {
      best = p;
      found = true;
    }
    if (p.spills) break;
  }
  if (!found) return PageFind::kAbsent;
  *out = best;
  return PageFind::kFound;
}

std::uint32_t continuation_pages(const flash::Geometry& g, std::uint64_t pair_bytes) {
  const std::uint64_t head_cap = g.page_size - PageFooter::size_for(1);
  if (pair_bytes <= head_cap) return 0;
  const std::uint64_t rest = pair_bytes - head_cap;
  return static_cast<std::uint32_t>((rest + g.page_size - 1) / g.page_size);
}

std::uint32_t extent_pages(const flash::Geometry& g, std::uint64_t pair_bytes) {
  return 1 + continuation_pages(g, pair_bytes);
}

}  // namespace rhik::ftl
