// Unit tests for the record-page codec and Eq. 1 sizing.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "index/rhik/record_page.hpp"

namespace rhik::index {
namespace {

TEST(RhikConfig, Eq1PaperValues) {
  // Eq. 1 with the paper defaults: 32 KiB page, kh=8, ppa=5, hi=4 -> 1927.
  RhikConfig cfg;
  EXPECT_EQ(cfg.hopinfo_bytes(), 4u);
  EXPECT_EQ(cfg.records_per_page(32 * 1024), 1927u);
}

TEST(RhikConfig, Eq1WideSignatures) {
  RhikConfig cfg;
  cfg.sig_bytes = 16;  // 128-bit signatures (§IV-A3)
  EXPECT_EQ(cfg.records_per_page(32 * 1024), 32768u / 25);
}

TEST(RhikConfig, Eq1SmallerHopinfo) {
  RhikConfig cfg;
  cfg.hop_range = 16;  // hi = 2 B
  EXPECT_EQ(cfg.records_per_page(32 * 1024), 32768u / 15);
}

TEST(RhikConfig, Eq2DirectorySizing) {
  RhikConfig cfg;
  cfg.anticipated_keys = 0;
  EXPECT_EQ(cfg.initial_dir_bits(32 * 1024), 0u);  // conservative minimum

  cfg.anticipated_keys = 1927;  // exactly one page of records
  EXPECT_EQ(cfg.initial_dir_bits(32 * 1024), 0u);

  cfg.anticipated_keys = 1928;  // needs 2 pages -> 1 bit
  EXPECT_EQ(cfg.initial_dir_bits(32 * 1024), 1u);

  cfg.anticipated_keys = 1927 * 1000;  // 1000 pages -> 2^10
  EXPECT_EQ(cfg.initial_dir_bits(32 * 1024), 10u);
}

TEST(RhikConfig, Eq2DirectoryDramFootprint) {
  // §IV-A4: directory cost ~0.005 bytes/key at 32 KiB pages.
  RhikConfig cfg;
  const double bytes_per_key =
      static_cast<double>(cfg.ppa_bytes) / cfg.records_per_page(32 * 1024);
  EXPECT_NEAR(bytes_per_key, 0.005, 0.003);
}

class CodecTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kPage = 4096;
  RhikConfig cfg_;
  RecordPageCodec codec_{cfg_, kPage};
};

TEST_F(CodecTest, EmptyTableRoundTrip) {
  hash::HopscotchTable t = codec_.make_table();
  Bytes page(kPage);
  codec_.encode(t, page);
  hash::HopscotchTable got = codec_.make_table();
  ASSERT_EQ(codec_.decode(page, &got), Status::kOk);
  EXPECT_EQ(got.size(), 0u);
}

TEST_F(CodecTest, PopulatedRoundTripPreservesEverything) {
  hash::HopscotchTable t = codec_.make_table();
  Rng rng(17);
  const std::uint32_t n = codec_.records_per_page() * 3 / 4;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> recs;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t sig = rng.next();
    const std::uint64_t ppa = rng.next_below(std::uint64_t{1} << 40);
    if (ok(t.insert(sig, ppa))) recs.emplace_back(sig, ppa);
  }
  Bytes page(kPage);
  codec_.encode(t, page);

  hash::HopscotchTable got = codec_.make_table();
  ASSERT_EQ(codec_.decode(page, &got), Status::kOk);
  EXPECT_EQ(got.size(), t.size());
  EXPECT_TRUE(got.check_invariants());
  for (const auto& [sig, ppa] : recs) {
    ASSERT_TRUE(got.find(sig).has_value()) << sig;
    EXPECT_EQ(*got.find(sig), ppa);
  }
}

TEST_F(CodecTest, DecodePreservesSlotPositions) {
  // Byte-identical re-encode: decode must reproduce the exact layout.
  hash::HopscotchTable t = codec_.make_table();
  Rng rng(23);
  for (int i = 0; i < 100; ++i) t.insert(rng.next(), rng.next_below(1 << 30));
  Bytes page1(kPage);
  codec_.encode(t, page1);
  hash::HopscotchTable got = codec_.make_table();
  ASSERT_EQ(codec_.decode(page1, &got), Status::kOk);
  Bytes page2(kPage);
  codec_.encode(got, page2);
  EXPECT_EQ(page1, page2);
}

TEST_F(CodecTest, CorruptHopinfoDetected) {
  hash::HopscotchTable t = codec_.make_table();
  ASSERT_EQ(t.insert(42, 7), Status::kOk);
  Bytes page(kPage);
  codec_.encode(t, page);
  // Flip a random hopinfo bit pointing at a dead slot with a bogus home.
  const std::uint32_t r = codec_.records_per_page();
  const std::size_t hop_region = std::size_t{r} * (cfg_.sig_bytes + cfg_.ppa_bytes);
  // Set an extra bit in some bucket's hopinfo: the decoded slot carries
  // sig 0, whose home bucket (0, the mix64 fixed point) mismatches any
  // non-zero bucket.
  std::uint32_t bogus = (t.home_bucket(42) + 57) % r;
  if (bogus == 0) bogus = 1;
  page[hop_region + 4 * bogus] |= 0x01;
  hash::HopscotchTable got = codec_.make_table();
  EXPECT_EQ(codec_.decode(page, &got), Status::kCorruption);
}

TEST_F(CodecTest, ShortBufferRejected) {
  Bytes page(16);
  hash::HopscotchTable got = codec_.make_table();
  EXPECT_EQ(codec_.decode(page, &got), Status::kInvalidArgument);
  EXPECT_EQ(codec_.find(page, 42).status(), Status::kInvalidArgument);
}

/// A signature whose home bucket in an R-slot table is `bucket`.
std::uint64_t sig_homed_at(std::uint32_t bucket, std::uint32_t r, Rng& rng) {
  for (;;) {
    const std::uint64_t sig = rng.next();
    if (hash::home_bucket(sig, r) == bucket) return sig;
  }
}

TEST_F(CodecTest, FindRejectsForeignHomeInProbedBucket) {
  // Bucket b-1's hopinfo claims the slot that holds a record homed at b:
  // probing any signature homed at b-1 must report it, as decode does.
  const std::uint32_t r = codec_.records_per_page();
  hash::HopscotchTable t = codec_.make_table();
  Rng rng(29);
  const std::uint64_t owner = sig_homed_at(100, r, rng);
  ASSERT_EQ(t.insert(owner, 7), Status::kOk);  // empty table: slot 100
  Bytes page(kPage);
  codec_.encode(t, page);
  const std::size_t hop_region = std::size_t{r} * (cfg_.sig_bytes + cfg_.ppa_bytes);
  page[hop_region + 4 * 99] |= 0x02;  // bucket 99, distance 1 -> slot 100

  EXPECT_EQ(codec_.find(page, sig_homed_at(99, r, rng)).status(), Status::kCorruption);
  ASSERT_TRUE(codec_.find(page, owner).has_value());  // bucket 100 is intact
  EXPECT_EQ(*codec_.find(page, owner), std::optional<std::uint64_t>(7));
  hash::HopscotchTable got = codec_.make_table();
  EXPECT_EQ(codec_.decode(page, &got), Status::kCorruption);
}

TEST(RecordPageFind, RejectsHopinfoBitBeyondNeighbourhood) {
  // H = 12 stores hopinfo in 2 bytes, so bits 12..15 are representable
  // but must never be set. The slot bit 12 reaches holds a record homed
  // at the probed bucket, so only the range check can object.
  RhikConfig cfg;
  cfg.hop_range = 12;
  RecordPageCodec codec(cfg, 4096);
  const std::uint32_t r = codec.records_per_page();
  Bytes page(4096);
  codec.encode(codec.make_table(), page);
  Rng rng(31);
  const std::size_t slot_bytes = cfg.sig_bytes + cfg.ppa_bytes;
  put_u64(page, slot_bytes * 62, sig_homed_at(50, r, rng));
  page[r * slot_bytes + 2 * 50 + 1] |= 0x10;  // bucket 50, bit 12 -> slot 62

  EXPECT_EQ(codec.find(page, sig_homed_at(50, r, rng)).status(), Status::kCorruption);
  hash::HopscotchTable got = codec.make_table();
  EXPECT_EQ(codec.decode(page, &got), Status::kCorruption);
}

// Round-trips across record geometries (page size x hop range).
struct CodecParam {
  std::uint32_t page_size;
  std::uint32_t hop;
};
class CodecGeometryTest : public ::testing::TestWithParam<CodecParam> {};

TEST_P(CodecGeometryTest, RoundTrip) {
  const auto [page_size, hop] = GetParam();
  RhikConfig cfg;
  cfg.hop_range = hop;
  RecordPageCodec codec(cfg, page_size);
  hash::HopscotchTable t = codec.make_table();
  Rng rng(page_size + hop);
  const std::uint32_t n = codec.records_per_page() / 2;
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(t.insert(rng.next(), rng.next_below(1 << 20)), Status::kOk);
  }
  Bytes page(page_size);
  codec.encode(t, page);
  hash::HopscotchTable got = codec.make_table();
  ASSERT_EQ(codec.decode(page, &got), Status::kOk);
  EXPECT_EQ(got.size(), n);
  EXPECT_TRUE(got.check_invariants());
}

TEST_P(CodecGeometryTest, FindMatchesDecode) {
  // Property: probing the encoded page answers exactly what decode +
  // HopscotchTable::find answers, for every stored signature and for
  // absent ones, at 8- and 16-byte signatures.
  const auto [page_size, hop] = GetParam();
  for (const std::uint32_t sig_bytes : {8u, 16u}) {
    SCOPED_TRACE(sig_bytes);
    RhikConfig cfg;
    cfg.hop_range = hop;
    cfg.sig_bytes = sig_bytes;
    RecordPageCodec codec(cfg, page_size);
    const std::uint32_t r = codec.records_per_page();
    hash::HopscotchTable t = codec.make_table();
    Rng rng(page_size * 31 + hop * 7 + sig_bytes);
    std::vector<std::uint64_t> stored;
    // Crowd the last bucket first so its neighbourhood wraps past the
    // table tail into slots 0 and 1.
    while (stored.size() < 3) {
      const std::uint64_t sig = sig_homed_at(r - 1, r, rng);
      ASSERT_EQ(t.insert(sig, stored.size() + 1), Status::kOk);
      stored.push_back(sig);
    }
    ASSERT_EQ(t.hopinfo(r - 1), 0x7u);
    // Then fill towards 80%; small neighbourhoods abort some inserts.
    for (std::uint32_t i = 0; i < r && t.occupancy() < 0.8; ++i) {
      const std::uint64_t sig = rng.next();
      if (ok(t.insert(sig, rng.next_below(std::uint64_t{1} << 40)))) {
        stored.push_back(sig);
      }
    }
    Bytes page(page_size);
    codec.encode(t, page);
    hash::HopscotchTable got = codec.make_table();
    ASSERT_EQ(codec.decode(page, &got), Status::kOk);

    for (const std::uint64_t sig : stored) {
      const auto probed = codec.find(page, sig);
      ASSERT_TRUE(probed.has_value()) << sig;
      ASSERT_TRUE(probed->has_value()) << sig;
      ASSERT_EQ(*probed, got.find(sig)) << sig;
    }
    for (std::uint32_t i = 0; i < 2 * r; ++i) {
      const std::uint64_t sig = rng.next();
      const auto probed = codec.find(page, sig);
      ASSERT_TRUE(probed.has_value()) << sig;
      ASSERT_EQ(*probed, got.find(sig)) << sig;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CodecGeometryTest,
                         ::testing::Values(CodecParam{2048, 32},
                                           CodecParam{4096, 32},
                                           CodecParam{4096, 16},
                                           CodecParam{32768, 32},
                                           CodecParam{32768, 8}));

}  // namespace
}  // namespace rhik::index
