// Unit tests for the on-flash page layouts (paper Fig. 4).
#include <gtest/gtest.h>

#include "ftl/layout.hpp"

namespace rhik::ftl {
namespace {

constexpr std::uint32_t kPage = 4096;

PairHeader hdr(std::uint64_t sig, std::uint16_t klen, std::uint32_t vlen) {
  return {sig, klen, vlen};
}

TEST(SpareTag, RoundTrip) {
  Bytes spare(16, 0xFF);
  SpareTag{PageKind::kIndexRecord, Stream::kIndex}.encode(spare);
  const SpareTag got = SpareTag::decode(spare);
  EXPECT_EQ(got.kind, PageKind::kIndexRecord);
  EXPECT_EQ(got.stream, Stream::kIndex);
}

TEST(SpareTag, ErasedSpareDecodesAsFree) {
  Bytes spare(16, 0xFF);
  EXPECT_EQ(SpareTag::decode(spare).kind, PageKind::kFree);
}

TEST(PairHeader, RoundTrip) {
  Bytes buf(64, 0);
  const PairHeader h = hdr(0xABCDEF0123456789ull, 20, 5000);
  h.encode(buf, 3);
  const PairHeader got = PairHeader::decode(buf, 3);
  EXPECT_EQ(got.sig, h.sig);
  EXPECT_EQ(got.key_len, 20);
  EXPECT_EQ(got.val_len, 5000u);
  EXPECT_EQ(got.pair_bytes(), PairHeader::kSize + 20 + 5000);
}

TEST(PageFooter, EncodeDecode) {
  Bytes page(kPage, 0xFF);
  const std::vector<std::uint64_t> sigs{11, 22, 33};
  PageFooter::encode(page, sigs);
  const auto got = PageFooter::decode(page);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, sigs);
}

TEST(PageFooter, GarbageCountRejected) {
  Bytes page(kPage, 0xFF);  // erased page: count = 0xFFFF, too many sigs
  EXPECT_FALSE(PageFooter::decode(page).has_value());
}

TEST(DataPageBuilder, AppendAndParse) {
  DataPageBuilder b(kPage);
  EXPECT_TRUE(b.empty());

  const std::string k1 = "alpha";
  const std::string v1 = "value-one";
  const std::string k2 = "beta";
  const std::string v2(100, 'x');

  b.append(hdr(1, 5, 9), as_bytes(k1), as_bytes(v1));
  b.append(hdr(2, 4, 100), as_bytes(k2), as_bytes(v2));
  EXPECT_EQ(b.pair_count(), 2u);

  const ByteSpan page = b.finalize();
  const auto pairs = parse_head_page(page, kPage);
  ASSERT_TRUE(pairs.has_value());
  ASSERT_EQ(pairs->size(), 2u);
  EXPECT_EQ((*pairs)[0].header.sig, 1u);
  EXPECT_FALSE((*pairs)[0].spills);
  EXPECT_EQ((*pairs)[1].header.sig, 2u);
  EXPECT_EQ((*pairs)[1].offset,
            PairHeader::kSize + k1.size() + v1.size());
  // Key/value bytes are recoverable at the parsed offsets.
  const std::size_t key_off = (*pairs)[1].offset + PairHeader::kSize;
  EXPECT_EQ(rhik::to_string(page.subspan(key_off, 4)), k2);
}

TEST(DataPageBuilder, RemainingShrinksWithFooter) {
  DataPageBuilder b(kPage);
  const std::size_t r0 = b.remaining();
  // Empty page: footer reserve for 1 pair.
  EXPECT_EQ(r0, kPage - PageFooter::size_for(1));
  b.append(hdr(1, 4, 10), as_bytes(std::string("aaaa")), as_bytes(std::string(10, 'v')));
  // One pair stored: its bytes plus one more signature slot reserved.
  EXPECT_EQ(b.remaining(), kPage - PageFooter::size_for(2) -
                               (PairHeader::kSize + 4 + 10));
}

TEST(DataPageBuilder, FitsMatchesAppendCapacity) {
  DataPageBuilder b(kPage);
  const std::string key = "kkkkkkkk";
  int appended = 0;
  while (true) {
    const PairHeader h = hdr(appended + 1, 8, 100);
    if (!b.fits(h.pair_bytes())) break;
    b.append(h, as_bytes(key), as_bytes(std::string(100, 'z')));
    ++appended;
  }
  EXPECT_GT(appended, 25);  // 4096 / ~122 B pairs
  const auto pairs = parse_head_page(b.finalize(), kPage);
  ASSERT_TRUE(pairs.has_value());
  EXPECT_EQ(pairs->size(), static_cast<std::size_t>(appended));
}

TEST(DataPageBuilder, ExtentHeadPage) {
  DataPageBuilder b(kPage);
  const std::string key = "bigkey";
  const std::size_t head_cap = kPage - PageFooter::size_for(1);
  const std::size_t prefix = head_cap - PairHeader::kSize - key.size();
  const std::string value(prefix + 5000, 'V');  // spills

  b.begin_extent(hdr(99, 6, static_cast<std::uint32_t>(value.size())),
                 as_bytes(key), as_bytes(value).subspan(0, prefix));
  const auto pairs = parse_head_page(b.finalize(), kPage);
  ASSERT_TRUE(pairs.has_value());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_TRUE((*pairs)[0].spills);
  EXPECT_EQ((*pairs)[0].in_page_bytes, head_cap);
}

TEST(DataPageBuilder, ResetClearsState) {
  DataPageBuilder b(kPage);
  b.append(hdr(1, 4, 4), as_bytes(std::string("abcd")), as_bytes(std::string("efgh")));
  b.reset();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.remaining(), kPage - PageFooter::size_for(1));
}

TEST(ParseHeadPage, DetectsFooterDataMismatch) {
  DataPageBuilder b(kPage);
  b.append(hdr(7, 4, 4), as_bytes(std::string("abcd")), as_bytes(std::string("efgh")));
  Bytes page(b.finalize().begin(), b.finalize().end());
  // Corrupt the in-data signature so it disagrees with the footer.
  put_u64(page, 0, 0xBAD);
  EXPECT_FALSE(parse_head_page(page, kPage).has_value());
}

TEST(FindPairInPage, VersionsOrderByEpochThenAppendPosition) {
  // GC can append an older (snapshot-retained) version after the current
  // one: [sig 5 @ epoch 9, sig 6 @ epoch 7, sig 5 @ epoch 4].
  DataPageBuilder b(kPage);
  const auto append = [&](std::uint64_t sig, std::uint64_t epoch,
                          const std::string& v) {
    PairHeader h = hdr(sig, 2, static_cast<std::uint32_t>(v.size()));
    h.epoch = epoch;
    b.append(h, as_bytes(std::string("kk")), as_bytes(v));
  };
  append(5, 9, "current");
  append(6, 7, "other");
  append(5, 4, "retained");
  const ByteSpan page = b.finalize();
  ParsedPair p;
  ASSERT_EQ(find_pair_in_page(page, kPage, 5, &p), PageFind::kFound);
  EXPECT_EQ(p.header.epoch, 9u);
  EXPECT_EQ(p.offset, 0u);
  ASSERT_EQ(find_pair_in_page_at(page, kPage, 5, 8, &p), PageFind::kFound);
  EXPECT_EQ(p.header.epoch, 4u);
  ASSERT_EQ(find_pair_in_page_at(page, kPage, 5, 100, &p), PageFind::kFound);
  EXPECT_EQ(p.header.epoch, 9u);
  EXPECT_EQ(find_pair_in_page_at(page, kPage, 5, 3, &p), PageFind::kAbsent);
  ASSERT_EQ(find_pair_in_page(page, kPage, 6, &p), PageFind::kFound);
  EXPECT_EQ(p.header.epoch, 7u);

  // Equal epochs (an in-page update within one epoch): the later wins.
  b.reset();
  append(5, 3, "first");
  append(5, 3, "second");
  const ByteSpan same = b.finalize();
  ASSERT_EQ(find_pair_in_page(same, kPage, 5, &p), PageFind::kFound);
  EXPECT_GT(p.offset, 0u);
}

TEST(ExtentMath, ContinuationPageCount) {
  flash::Geometry g = flash::Geometry::tiny();  // 4 KiB pages
  const std::uint64_t head_cap = g.page_size - PageFooter::size_for(1);
  EXPECT_EQ(continuation_pages(g, head_cap), 0u);
  EXPECT_EQ(continuation_pages(g, head_cap + 1), 1u);
  EXPECT_EQ(continuation_pages(g, head_cap + g.page_size), 1u);
  EXPECT_EQ(continuation_pages(g, head_cap + g.page_size + 1), 2u);
  EXPECT_EQ(extent_pages(g, head_cap), 1u);
  EXPECT_EQ(extent_pages(g, head_cap + 1), 2u);
}

TEST(ExtentMath, PaperGeometry32K) {
  flash::Geometry g;  // 32 KiB pages
  // A 2 MiB value (paper's largest test size) needs 65 pages.
  const std::uint64_t pair = PairHeader::kSize + 16 + (2ull << 20);
  EXPECT_EQ(extent_pages(g, pair), 65u);
  EXPECT_LE(extent_pages(g, pair), g.pages_per_block);  // fits one block
}

}  // namespace
}  // namespace rhik::ftl
