// Contract tests every IIndex scheme meets, run over RHIK and the
// multi-level hash baseline alike.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "flash/fault_injector.hpp"
#include "index/mlhash/mlhash_index.hpp"
#include "index/rhik/rhik_index.hpp"
#include "index_test_rig.hpp"

namespace rhik::index {
namespace {

// Each scheme is sized so that its first probe reaches exactly four
// record pages (RHIK: four directory buckets; mlhash: four level-0
// pages), so a small insert burst leaves four dirty cached tables.
struct Rhik {
  using Rig = testutil::IndexRig<RhikIndex, RhikConfig>;
  static RhikConfig config() {
    RhikConfig cfg;
    cfg.anticipated_keys = 4 * cfg.records_per_page(flash::Geometry::tiny().page_size);
    return cfg;
  }
};
struct MlHash {
  using Rig = testutil::IndexRig<MlHashIndex, MlHashConfig>;
  static MlHashConfig config() {
    MlHashConfig cfg;
    cfg.level0_pages = 4;
    return cfg;
  }
};

struct SchemeName {
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, Rhik> ? "Rhik" : "MlHash";
  }
};

template <typename Scheme>
class IndexContract : public ::testing::Test {};
using Schemes = ::testing::Types<Rhik, MlHash>;
TYPED_TEST_SUITE(IndexContract, Schemes, SchemeName);

TYPED_TEST(IndexContract, FlushReturnsFailedWriteBack) {
  // flush() is a durability barrier: when a write-back it ran failed, it
  // says so, and the table stays dirty for the next flush. Power dies
  // during the first write-back's program; the other three are rejected
  // while it is off.
  typename TypeParam::Rig rig(TypeParam::config());
  Rng rng(3);
  std::vector<std::uint64_t> sigs;
  for (int i = 0; i < 100; ++i) {
    sigs.push_back(rng.next());
    ASSERT_EQ(rig.index.put(sigs.back(), i), Status::kOk) << i;
  }
  ASSERT_EQ(rig.nand.stats().page_programs, 0u);  // all still cached, dirty
  flash::FaultInjector fi;
  rig.nand.set_fault_injector(&fi);
  fi.arm_after(1, flash::TornWritePolicy::kNone);
  EXPECT_EQ(rig.index.flush(), Status::kIoError);
  EXPECT_TRUE(fi.powered_off());
  EXPECT_EQ(rig.index.op_stats().writeback_failures, 4u);

  // Power returns: the next flush writes all four tables, and the
  // directory image it leaves maps every key.
  fi.power_on();
  EXPECT_EQ(rig.index.flush(), Status::kOk);
  EXPECT_EQ(rig.nand.stats().page_programs, 4u);
  Bytes image;
  ASSERT_EQ(rig.index.serialize_image(image), Status::kOk);
  ASSERT_EQ(rig.index.load_image(image), Status::kOk);  // drops the cache
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(testutil::mapped(rig.index, sigs[static_cast<std::size_t>(i)]),
              std::optional<flash::Ppa>(i))
        << i;
  }
  rig.nand.set_fault_injector(nullptr);

  // An eviction's write-back fails the same way. With one cached table,
  // the first miss evicts a dirty table and power dies during that
  // program: the table stays cached and dirty, and a later eviction or
  // the flush writes it once power is back.
  typename TypeParam::Rig one(TypeParam::config(),
                              /*cache_bytes=*/flash::Geometry::tiny().page_size);
  flash::FaultInjector cut;
  one.nand.set_fault_injector(&cut);
  cut.arm_after(1, flash::TornWritePolicy::kNone);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(one.index.put(sigs[static_cast<std::size_t>(i)], i), Status::kOk) << i;
    if (cut.powered_off()) cut.power_on();
  }
  EXPECT_GT(one.index.op_stats().writeback_failures, 0u);
  EXPECT_EQ(one.index.flush(), Status::kOk);
  ASSERT_EQ(one.index.serialize_image(image), Status::kOk);
  ASSERT_EQ(one.index.load_image(image), Status::kOk);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(testutil::mapped(one.index, sigs[static_cast<std::size_t>(i)]),
              std::optional<flash::Ppa>(i))
        << i;
  }
  one.nand.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace rhik::index
