// Power-cut fault injection for the NAND model.
//
// A FaultInjector is armed with a countdown of destructive operations
// (page programs and block erases). When the countdown hits zero, power
// dies *during* that operation: the in-flight page is left torn
// according to a torn-write policy, the operation is never acknowledged
// (kIoError to the caller), and every subsequent NAND operation —
// including reads — fails until `power_on()` simulates the next boot.
//
// Torn-write policies model what real NAND leaves behind when program
// current vanishes mid-pulse:
//  - kNone:    no cell changed; the page still reads as erased.
//  - kPartial: a prefix of the data area stuck, the rest stayed erased
//              (0xFF); the spare area landed intact, so the page looks
//              superficially valid — only the CRC exposes it.
//  - kGarbage: cells latched random garbage across data and spare.
//  - kRandom:  one of the above, chosen per cut.
//
// The injector is deterministic given its seed, so crash-point harnesses
// are reproducible.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace rhik::flash {

enum class TornWritePolicy : std::uint8_t {
  kNone,
  kPartial,
  kGarbage,
  kRandom,
};

struct FaultStats {
  std::uint64_t power_cuts = 0;
  std::uint64_t torn_pages = 0;         ///< pages left partially/garbage programmed
  std::uint64_t clean_cuts = 0;         ///< cuts that left the page erased
  std::uint64_t interrupted_erases = 0; ///< erases hit by a cut (completed or not)
  std::uint64_t ops_rejected = 0;       ///< NAND ops attempted while powered off

  /// Registers these counters into a metrics snapshot (`fault.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("fault.power_cuts", power_cuts);
    snap.add_counter("fault.torn_pages", torn_pages);
    snap.add_counter("fault.clean_cuts", clean_cuts);
    snap.add_counter("fault.interrupted_erases", interrupted_erases);
    snap.add_counter("fault.ops_rejected", ops_rejected);
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0x5248494Bu) : rng_(seed) {}

  /// Arms the injector: power dies during the `ops`-th destructive
  /// operation from now (ops >= 1; 0 is clamped to 1). Re-arming
  /// replaces any previous countdown.
  void arm_after(std::uint64_t ops, TornWritePolicy policy = TornWritePolicy::kRandom) {
    countdown_ = ops == 0 ? 1 : ops;
    policy_ = policy;
    armed_ = true;
  }

  /// The next boot: power is back, countdown disarmed. NAND contents
  /// are untouched — volatile device state is the NandDevice's to lose.
  void power_on() noexcept {
    powered_off_ = false;
    armed_ = false;
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] bool powered_off() const noexcept { return powered_off_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  // --- NandDevice hooks --------------------------------------------------

  /// Called on every NAND operation; true if the op must be rejected
  /// because power is off.
  bool reject_op() noexcept {
    if (!powered_off_) return false;
    stats_.ops_rejected++;
    return true;
  }

  /// Called on every destructive op; true exactly on the op during
  /// which power dies (the caller then applies the torn-write policy
  /// and fails the op).
  bool cut_now() noexcept {
    if (!armed_ || powered_off_) return false;
    if (--countdown_ > 0) return false;
    powered_off_ = true;
    armed_ = false;
    stats_.power_cuts++;
    return true;
  }

  /// Applies the torn-write policy to the in-flight page image. Returns
  /// true if the page counts as programmed (some cells changed), false
  /// if it still reads as erased — the caller restores 0xFF state.
  bool tear_page(MutByteSpan data, MutByteSpan spare);

  /// For a cut during an erase: whether the erase pulse finished before
  /// power died (coin flip). Partial-erase charge states are not
  /// modelled; an interrupted erase either completed or left the block
  /// untouched.
  bool erase_completed() noexcept {
    stats_.interrupted_erases++;
    return (rng_.next() & 1u) != 0;
  }

 private:
  Rng rng_;
  FaultStats stats_;
  std::uint64_t countdown_ = 0;
  TornWritePolicy policy_ = TornWritePolicy::kRandom;
  bool armed_ = false;
  bool powered_off_ = false;
};

}  // namespace rhik::flash
