// Unit tests for the RHIK index: lookup cost, caching, membership,
// collision aborts, GC hooks, scan, and directory persistence.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "index/rhik/rhik_index.hpp"
#include "index_test_rig.hpp"

namespace rhik::index {
namespace {

using flash::Geometry;
using flash::NandLatency;
using flash::Ppa;
using testutil::mapped;
using Rig = testutil::IndexRig<RhikIndex, RhikConfig>;

TEST(Rhik, PutGetErase) {
  Rig rig;
  EXPECT_EQ(rig.index.put(0xABC, 5), Status::kOk);
  EXPECT_EQ(rig.index.size(), 1u);
  ASSERT_TRUE(mapped(rig.index, 0xABC).has_value());
  EXPECT_EQ(*mapped(rig.index, 0xABC), 5u);
  EXPECT_FALSE(mapped(rig.index, 0xDEF).has_value());
  EXPECT_EQ(rig.index.erase(0xABC), Status::kOk);
  EXPECT_EQ(rig.index.erase(0xABC), Status::kNotFound);
  EXPECT_EQ(rig.index.size(), 0u);
}

TEST(Rhik, PutUpdatesInPlace) {
  Rig rig;
  EXPECT_EQ(rig.index.put(7, 100), Status::kOk);
  EXPECT_EQ(rig.index.put(7, 200), Status::kOk);
  EXPECT_EQ(rig.index.size(), 1u);
  EXPECT_EQ(*mapped(rig.index, 7), 200u);
}

TEST(Rhik, ExistsIsSignatureMembership) {
  Rig rig;
  ASSERT_EQ(rig.index.put(123, 9), Status::kOk);
  EXPECT_TRUE(mapped(rig.index, 123).has_value());
  EXPECT_FALSE(mapped(rig.index, 321).has_value());
}

TEST(Rhik, InitialSizingFollowsEq2) {
  RhikConfig cfg;
  cfg.anticipated_keys = 10000;  // tiny() pages: 4096/17 = 240 records
  Rig rig(cfg);
  // ceil(10000/240) = 42 -> 64 entries (6 bits).
  EXPECT_EQ(rig.index.dir_bits(), 6u);
  EXPECT_EQ(rig.index.capacity(), 64u * 240);
}

TEST(Rhik, AtMostOneFlashReadPerLookup) {
  // The headline property (§IV-A4): any record lookup costs <= 1 flash
  // read, even with a cache far smaller than the index.
  RhikConfig cfg;
  cfg.anticipated_keys = 20000;
  Rig rig(cfg, /*cache_bytes=*/4 * 4096);  // 4 cached pages only
  Rng rng(3);
  std::vector<std::uint64_t> sigs;
  for (int i = 0; i < 15000; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) sigs.push_back(sig);
    rig.maybe_gc();
  }
  rig.index.reset_op_stats();
  Rng pick(5);
  for (int i = 0; i < 2000; ++i) {
    mapped(rig.index, sigs[pick.next_below(sigs.size())]);
  }
  rig.expect_no_lost_writebacks();
  const auto& h = rig.index.op_stats().reads_per_lookup;
  EXPECT_EQ(h.max(), 1u);               // never more than one flash read
  EXPECT_GT(rig.index.op_stats().flash_reads, 0u);  // cache was too small
}

TEST(Rhik, WarmCacheLookupsAreFree) {
  Rig rig({}, /*cache_bytes=*/1 << 20);  // whole index fits
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_EQ(rig.index.put(i * 77, i), Status::kOk);
  }
  rig.index.reset_op_stats();
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(mapped(rig.index, i * 77).has_value());
  }
  EXPECT_EQ(rig.index.op_stats().flash_reads, 0u);
  EXPECT_EQ(rig.index.op_stats().reads_per_lookup.max(), 0u);
}

TEST(Rhik, DirtyTablesSurviveEviction) {
  // Cache of one page: every bucket switch evicts (write-back).
  RhikConfig cfg;
  cfg.anticipated_keys = 240 * 8;  // 8 buckets
  Rig rig(cfg, /*cache_bytes=*/4096);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(11);
  for (int i = 0; i < 800; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) ref[sig] = i;
  }
  EXPECT_GT(rig.index.op_stats().flash_writes, 0u);
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(mapped(rig.index, sig).has_value()) << sig;
    EXPECT_EQ(*mapped(rig.index, sig), ppa);
  }
}

TEST(Rhik, EraseToEmptyReleasesPages) {
  RhikConfig cfg;
  cfg.anticipated_keys = 240 * 4;
  Rig rig(cfg, 4096);
  std::vector<std::uint64_t> sigs;
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) sigs.push_back(sig);
  }
  for (const auto sig : sigs) ASSERT_EQ(rig.index.erase(sig), Status::kOk);
  EXPECT_EQ(rig.index.size(), 0u);
  ASSERT_EQ(rig.index.flush(), Status::kOk);
  // All directory entries are back to "no page".
  for (const auto sig : sigs) EXPECT_FALSE(mapped(rig.index, sig).has_value());
}

TEST(Rhik, CollisionAbortSurfacesAndCounts) {
  RhikConfig cfg;
  cfg.hop_range = 2;  // pathologically small neighbourhood
  cfg.resize_threshold = 1.1;  // never resize: force local collisions
  Rig rig(cfg);
  Rng rng(4);
  int aborts = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rig.index.put(rng.next(), i) == Status::kCollisionAbort) ++aborts;
  }
  EXPECT_GT(aborts, 0);
  EXPECT_EQ(rig.index.op_stats().collision_aborts,
            static_cast<std::uint64_t>(aborts));
}

TEST(Rhik, ScanVisitsEveryRecordOnce) {
  Rig rig;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) ref[sig] = i;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  ASSERT_EQ(rig.index.scan([&](std::uint64_t sig, Ppa ppa) { seen[sig] = ppa; }),
            Status::kOk);
  EXPECT_EQ(seen, ref);
}

TEST(Rhik, GcHooksLookupAndUpdate) {
  Rig rig;
  ASSERT_EQ(rig.index.put(55, 1000), Status::kOk);
  const auto hit = rig.index.gc_lookup(55);
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, std::optional<Ppa>(1000));
  const auto miss = rig.index.gc_lookup(56);
  ASSERT_TRUE(miss);
  EXPECT_FALSE(miss->has_value());

  EXPECT_EQ(rig.index.gc_update_location(55, 2000), Status::kOk);
  EXPECT_EQ(*mapped(rig.index, 55), 2000u);
  EXPECT_EQ(rig.index.gc_update_location(999, 1), Status::kNotFound);
}

TEST(Rhik, GcIndexPageLivenessAndRelocation) {
  RhikConfig cfg;
  Rig rig(cfg, /*cache_bytes=*/4096);
  Rng rng(8);
  for (int i = 0; i < 400; ++i) rig.index.put(rng.next(), i);
  ASSERT_EQ(rig.index.flush(), Status::kOk);

  // Find a live record page via the spare areas.
  const auto& g = rig.nand.geometry();
  Ppa live_page = flash::kInvalidPpa;
  Bytes spare(g.spare_size());
  for (Ppa p = 0; p < g.pages_total(); ++p) {
    if (!rig.nand.is_programmed(p)) continue;
    if (!ok(rig.nand.read_page(p, {}, spare))) continue;
    if (ftl::SpareTag::decode(spare).kind == ftl::PageKind::kIndexRecord &&
        rig.index.gc_is_live_index_page(p)) {
      live_page = p;
      break;
    }
  }
  ASSERT_NE(live_page, flash::kInvalidPpa);
  ASSERT_EQ(rig.index.gc_relocate_index_page(live_page), Status::kOk);
  EXPECT_FALSE(rig.index.gc_is_live_index_page(live_page));  // now stale
}

TEST(Rhik, DirectorySerializationRestoresIndex) {
  // Directory image round trip (what the device checkpoint stores):
  // flush, serialize the image, build a fresh in-DRAM index over the
  // same flash state, restore.
  RhikConfig cfg;
  SimClock clock;
  flash::NandDevice nand(Geometry::tiny(128), NandLatency::kvemu_defaults(), &clock);
  ftl::PageAllocator alloc(&nand, 2);

  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Bytes image;
  {
    RhikIndex index(&nand, &alloc, cfg, 1 << 20);
    Rng rng(12);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t sig = rng.next();
      if (ok(index.put(sig, i))) ref[sig] = i;
    }
    ASSERT_EQ(index.flush(), Status::kOk);
    ASSERT_EQ(index.serialize_image(image), Status::kOk);
  }
  RhikIndex restored(&nand, &alloc, cfg, 1 << 20);
  ASSERT_EQ(restored.load_image(image), Status::kOk);
  EXPECT_EQ(restored.size(), ref.size());
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(mapped(restored, sig).has_value()) << sig;
    EXPECT_EQ(*mapped(restored, sig), ppa);
  }
}

TEST(Rhik, LoadDirectoryRejectsGarbage) {
  Rig rig;
  Bytes garbage(100, 0x7);
  EXPECT_EQ(rig.index.load_image(garbage), Status::kCorruption);
  Bytes tiny_buf(4, 0);
  EXPECT_EQ(rig.index.load_image(tiny_buf), Status::kCorruption);
}

TEST(Rhik, DramBytesTracksDirectory) {
  RhikConfig cfg;
  cfg.anticipated_keys = 240 * 16;  // 16 buckets
  Rig rig(cfg);
  // Primary + overflow directory entries, 5 B each.
  EXPECT_EQ(rig.index.dram_bytes(), 2u * 16 * cfg.ppa_bytes);
}

// -- Undecoded cache entries ---------------------------------------------------
// A read-path miss on a record page that one full decode has validated
// caches the page view undecoded. These run with a one-page cache over
// four buckets, so every bucket switch evicts.
struct UndecodedRig {
  UndecodedRig() : rig(config(), /*cache_bytes=*/4096) {
    Rng rng(41);
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t sig = rng.next();
      if (ok(rig.index.put(sig, i + 1))) ref[sig] = i + 1;
    }
    EXPECT_EQ(rig.index.flush(), Status::kOk);
  }
  static RhikConfig config() {
    RhikConfig cfg;
    cfg.anticipated_keys = 240 * 4;  // 4 buckets
    return cfg;
  }

  [[nodiscard]] std::uint64_t bucket_of(std::uint64_t sig) const {
    return rig.index.locality_group(sig);
  }
  [[nodiscard]] std::uint64_t keys_in(std::uint64_t bucket) const {
    std::uint64_t n = 0;
    for (const auto& entry : ref) n += bucket_of(entry.first) == bucket;
    return n;
  }
  [[nodiscard]] std::uint64_t key_in(std::uint64_t bucket) const {
    for (const auto& entry : ref) {
      if (bucket_of(entry.first) == bucket) return entry.first;
    }
    ADD_FAILURE() << "no key in bucket " << bucket;
    return 0;
  }
  /// A signature in `bucket` that the index does not hold.
  std::uint64_t fresh_key_in(std::uint64_t bucket) {
    for (;;) {
      const std::uint64_t sig = rng.next();
      if (bucket_of(sig) == bucket && ref.count(sig) == 0) return sig;
    }
  }

  /// Leaves `bucket`'s entry cached undecoded: a get in `other` evicts
  /// it (writing it back if dirty), the next miss validates its page with
  /// a full decode, another get in `other` evicts it again, and the
  /// second miss keeps the page view.
  void cache_undecoded(std::uint64_t bucket, std::uint64_t other) {
    for (const std::uint64_t b : {other, bucket, other, bucket}) {
      ASSERT_EQ(mapped(rig.index, key_in(b)), std::optional<Ppa>(ref.at(key_in(b))));
    }
  }

  /// The live record page of `bucket`: its primary directory slot in
  /// serialize_image() ([20-byte header][5-byte PPA per bucket]...).
  [[nodiscard]] Ppa live_page_of(std::uint64_t bucket) {
    Bytes image;
    EXPECT_EQ(rig.index.serialize_image(image), Status::kOk);
    const Ppa p = get_u40(image, 20 + bucket * 5);
    EXPECT_TRUE(rig.index.gc_is_live_index_page(p)) << "bucket " << bucket;
    return p;
  }

  void expect_agrees_with_reference() {
    for (const auto& [sig, ppa] : ref) {
      ASSERT_EQ(mapped(rig.index, sig), std::optional<Ppa>(ppa)) << sig;
    }
    EXPECT_EQ(rig.index.size(), ref.size());
    EXPECT_EQ(rig.index.op_stats().reads_per_lookup.max(), 1u);
    rig.expect_no_lost_writebacks();
  }

  Rig rig;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng{43};
};

TEST(Rhik, UndecodedEntryTakesPutAndErase) {
  UndecodedRig t;
  const std::uint64_t a = 0, b = 1;
  const std::uint64_t fresh = t.fresh_key_in(a);
  t.cache_undecoded(a, b);
  ASSERT_EQ(t.rig.index.put(fresh, 5000), Status::kOk);  // insert
  t.ref[fresh] = 5000;
  EXPECT_EQ(mapped(t.rig.index, fresh), std::optional<Ppa>(5000));

  const std::uint64_t updated = t.key_in(a);
  t.cache_undecoded(a, b);
  ASSERT_EQ(t.rig.index.put(updated, 5001), Status::kOk);  // update
  t.ref[updated] = 5001;

  std::uint64_t erased = 0;
  for (const auto& entry : t.ref) {
    if (t.bucket_of(entry.first) == a && entry.first != updated && entry.first != fresh) {
      erased = entry.first;
    }
  }
  ASSERT_NE(erased, 0u);
  t.cache_undecoded(a, b);
  ASSERT_EQ(t.rig.index.erase(erased), Status::kOk);
  t.ref.erase(erased);
  EXPECT_FALSE(mapped(t.rig.index, erased).has_value());
  t.expect_agrees_with_reference();
}

TEST(Rhik, RelocatesPageOfUndecodedEntry) {
  UndecodedRig t;
  const std::uint64_t a = 2, b = 3;
  const auto& g = t.rig.nand.geometry();
  // Rewrite bucket a's page once per cycle (only a is ever dirty) until
  // its live page closes a block written entirely by these cycles: that
  // block then holds no other live page and GC may erase it after one
  // relocation.
  Ppa page = flash::kInvalidPpa;
  for (std::uint32_t cycle = 0; cycle < 2 * g.pages_per_block; ++cycle) {
    const std::uint64_t sig = t.fresh_key_in(a);
    ASSERT_EQ(t.rig.index.put(sig, 6000 + cycle), Status::kOk);
    t.ref[sig] = 6000 + cycle;
    ASSERT_TRUE(mapped(t.rig.index, t.key_in(b)).has_value());  // evicts a: write-back
    page = t.live_page_of(a);
    if (cycle >= g.pages_per_block && flash::ppa_page(g, page) == g.pages_per_block - 1) {
      break;
    }
  }
  const std::uint32_t block = flash::ppa_block(g, page);
  ASSERT_EQ(flash::ppa_page(g, page), g.pages_per_block - 1);
  ASSERT_TRUE(t.rig.alloc.is_sealed(block));

  t.cache_undecoded(a, b);
  ASSERT_EQ(t.rig.index.gc_relocate_index_page(page), Status::kOk);
  EXPECT_FALSE(t.rig.index.gc_is_live_index_page(page));
  EXPECT_NE(t.live_page_of(a), page);
  // As GC does next: the block goes, and the cached entry must not read it.
  ASSERT_EQ(t.rig.alloc.reclaim_block(block), Status::kOk);
  const auto hits = t.rig.index.cache_stats().hits;
  EXPECT_EQ(mapped(t.rig.index, t.key_in(a)), std::optional<Ppa>(t.ref.at(t.key_in(a))));
  EXPECT_EQ(t.rig.index.cache_stats().hits, hits + 1);
  t.expect_agrees_with_reference();
}

TEST(Rhik, RecountKeysCountsUndecodedEntry) {
  UndecodedRig t;
  // An undecoded entry's table is recycled storage. Here it holds bucket
  // c's decoded table, whose size differs from bucket a's: the miss in c
  // decodes into a's recycled storage (c's page is unverified), and the
  // second miss in a takes that storage over undecoded.
  const std::uint64_t a = 0, b = 1;
  std::uint64_t c = 2;
  while (t.keys_in(c) == t.keys_in(a)) ++c;
  ASSERT_LT(c, 4u);
  for (const std::uint64_t bucket : {b, a, c, a}) {
    ASSERT_EQ(mapped(t.rig.index, t.key_in(bucket)),
              std::optional<Ppa>(t.ref.at(t.key_in(bucket))));
  }
  ASSERT_EQ(t.rig.index.recount_keys(), Status::kOk);
  t.expect_agrees_with_reference();
}

TEST(Rhik, FirstMissValidatesWholePage) {
  // A page is probed in place only after one full decode validated it:
  // damage outside the probed neighbourhood still fails the first get.
  Rig rig;
  const std::uint64_t sig = 0xABC;
  ASSERT_EQ(rig.index.put(sig, 5), Status::kOk);
  ASSERT_EQ(rig.index.flush(), Status::kOk);
  Bytes image;
  ASSERT_EQ(rig.index.serialize_image(image), Status::kOk);

  const auto& g = rig.nand.geometry();
  const RhikConfig& cfg = rig.index.config();
  RecordPageCodec codec(cfg, g.page_size);
  hash::HopscotchTable table = codec.make_table();
  ASSERT_EQ(table.insert(sig, 5), Status::kOk);
  Bytes page(g.page_size);
  codec.encode(table, page);
  const std::uint32_t r = codec.records_per_page();
  const std::uint32_t bogus = (table.home_bucket(sig) + r / 2) % r;
  ASSERT_NE(bogus, 0u);  // its empty slot holds sig 0, homed at bucket 0
  page[std::size_t{r} * (cfg.sig_bytes + cfg.ppa_bytes) + 4 * bogus] |= 0x01;
  Bytes spare(g.spare_size(), 0xFF);
  ftl::SpareTag{ftl::PageKind::kIndexRecord, ftl::Stream::kIndex}.encode(spare);
  const auto ppa = rig.alloc.allocate(ftl::Stream::kIndex, /*for_gc=*/false);
  ASSERT_TRUE(ppa.has_value());
  ASSERT_EQ(rig.nand.program_page(*ppa, page, spare), Status::kOk);
  ASSERT_EQ(rig.index.dir_bits(), 0u);
  put_u40(image, 20, *ppa);  // bucket 0's directory entry
  ASSERT_EQ(rig.index.load_image(image), Status::kOk);

  EXPECT_EQ(codec.find(page, sig).status(), Status::kOk);  // locally intact
  EXPECT_EQ(rig.index.lookup(sig).status(), Status::kCorruption);
  // A failed decode leaves the page unverified: the next miss decodes again.
  EXPECT_EQ(rig.index.lookup(sig).status(), Status::kCorruption);
}

TEST(Rhik, RandomOpsAgreeWithReference) {
  RhikConfig cfg;
  Rig rig(cfg, /*cache_bytes=*/8 * 4096);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(99);
  for (int step = 0; step < 30000; ++step) {
    rig.maybe_gc();
    const std::uint64_t sig = rng.next_below(5000) * 0x9E3779B9u + 1;
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 5) {
      const std::uint64_t ppa = rng.next_below(1 << 20);
      if (ok(rig.index.put(sig, ppa))) ref[sig] = ppa;
    } else if (action < 8) {
      const auto got = mapped(rig.index, sig);
      const auto it = ref.find(sig);
      if (it == ref.end()) {
        EXPECT_FALSE(got.has_value()) << "step " << step;
      } else {
        ASSERT_TRUE(got.has_value()) << "step " << step;
        EXPECT_EQ(*got, it->second);
      }
    } else {
      const bool had = ref.erase(sig) > 0;
      EXPECT_EQ(rig.index.erase(sig), had ? Status::kOk : Status::kNotFound);
    }
  }
  EXPECT_EQ(rig.index.size(), ref.size());
  rig.expect_no_lost_writebacks();
}

}  // namespace
}  // namespace rhik::index
