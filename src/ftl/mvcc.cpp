#include "ftl/mvcc.hpp"

#include <algorithm>

namespace rhik::ftl {

namespace {

/// Pin ids come from one process-wide counter, not per registry: a
/// registry rebuilt by recovery restarts empty, and if it restarted its
/// ids too, a new pin could repeat a pre-crash handle's (id, epoch)
/// pair exactly — when nothing was stamped after that pin, the epoch
/// source also restarts at the same value — and the stale handle would
/// read through someone else's pin.
std::atomic<std::uint64_t> g_next_pin_id{1};

}  // namespace

SnapshotRegistry::Pin SnapshotRegistry::open() {
  std::lock_guard lk(mu_);
  // Order matters: the pin count and a newest no stamp exceeds must be
  // visible (seq_cst) before the epoch advance, so a mutation that reads
  // pin_count == 0 or a newest below its dying version's stamp provably
  // stamped at-or-above this pin's epoch. See the header comment.
  pin_count_.fetch_add(1, std::memory_order_seq_cst);
  newest_.store(kEpochMax, std::memory_order_seq_cst);
  const std::uint64_t e = epochs_->advance() - 1;  // pre-advance value
  const std::uint64_t id =
      g_next_pin_id.fetch_add(1, std::memory_order_relaxed);
  pins_.emplace(id, Entry{e, false});
  stats_.opened++;
  recompute_bounds_locked();
  return Pin{id, e};
}

Status SnapshotRegistry::release(std::uint64_t id, std::uint64_t epoch) {
  std::lock_guard lk(mu_);
  auto it = pins_.find(id);
  if (it == pins_.end()) return Status::kSnapshotTooOld;
  if (epoch != 0 && it->second.epoch != epoch) return Status::kSnapshotTooOld;
  if (!it->second.expired) {
    pin_count_.fetch_sub(1, std::memory_order_seq_cst);
  }
  pins_.erase(it);
  stats_.released++;
  recompute_bounds_locked();
  return Status::kOk;
}

Result<std::uint64_t> SnapshotRegistry::epoch_of(std::uint64_t id) const {
  std::lock_guard lk(mu_);
  auto it = pins_.find(id);
  if (it == pins_.end() || it->second.expired) return Status::kSnapshotTooOld;
  return it->second.epoch;
}

std::uint64_t SnapshotRegistry::floor() const {
  const std::uint64_t f = floor_.load(std::memory_order_seq_cst);
  // No valid pin: everything up to the CURRENT epoch is reclaimable.
  // Reading the epoch after the floor is conservative — a pin opened in
  // between raises the floor only above this value.
  return f == kEpochMax ? epochs_->current() : f;
}

void SnapshotRegistry::add_retained(std::uint64_t bytes) {
  const std::uint64_t cap = retention_cap_.load(std::memory_order_relaxed);
  const std::uint64_t now =
      retained_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (cap == 0 || now <= cap) return;
  // Over budget: expire the OLDEST valid pin. The bytes it was holding
  // free on its retainers' next reclaim pass, so only one pin is evicted
  // per capture that finds the budget exceeded — gradual pressure, and a
  // quiescent over-budget state drains as the floor rises.
  std::lock_guard lk(mu_);
  auto oldest = pins_.end();
  for (auto it = pins_.begin(); it != pins_.end(); ++it) {
    if (it->second.expired) continue;
    if (oldest == pins_.end() || it->second.epoch < oldest->second.epoch) {
      oldest = it;
    }
  }
  if (oldest == pins_.end()) return;  // no valid pin to evict
  oldest->second.expired = true;
  pin_count_.fetch_sub(1, std::memory_order_seq_cst);
  stats_.expired++;
  recompute_bounds_locked();
}

void SnapshotRegistry::recompute_bounds_locked() {
  std::uint64_t f = kEpochMax;
  std::uint64_t n = 0;
  for (const auto& [id, e] : pins_) {
    if (e.expired) continue;
    f = std::min(f, e.epoch);
    n = std::max(n, e.epoch);
  }
  floor_.store(f, std::memory_order_seq_cst);
  newest_.store(n, std::memory_order_seq_cst);
}

std::size_t SnapshotRegistry::open_pins() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const auto& [id, e] : pins_) {
    if (!e.expired) ++n;
  }
  return n;
}

SnapshotStats SnapshotRegistry::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

// -- VersionRetainer -----------------------------------------------------------

void VersionRetainer::capture(std::uint64_t sig, const RetainedVersion& v) {
  entries_[sig].push_back(v);
  total_versions_++;
  stats_.captured++;
  registry_->add_retained(v.total_bytes);
}

const RetainedVersion* VersionRetainer::resolve(std::uint64_t sig,
                                                std::uint64_t e) {
  auto it = entries_.find(sig);
  if (it == entries_.end()) return nullptr;
  for (const RetainedVersion& v : it->second) {
    if (v.begin_epoch <= e && e < v.end_epoch) {
      stats_.resolved++;
      return &v;
    }
  }
  return nullptr;
}

bool VersionRetainer::is_retained(std::uint64_t sig,
                                  flash::Ppa ppa) const noexcept {
  auto it = entries_.find(sig);
  if (it == entries_.end()) return false;
  for (const RetainedVersion& v : it->second) {
    if (v.ppa == ppa) return true;
  }
  return false;
}

std::vector<RetainedVersion> VersionRetainer::versions_at(
    std::uint64_t sig, flash::Ppa ppa) const {
  std::vector<RetainedVersion> out;
  auto it = entries_.find(sig);
  if (it == entries_.end()) return out;
  for (const RetainedVersion& v : it->second) {
    if (v.ppa == ppa) out.push_back(v);
  }
  return out;
}

void VersionRetainer::repoint(std::uint64_t sig, std::uint64_t begin_epoch,
                              flash::Ppa to) {
  auto it = entries_.find(sig);
  if (it == entries_.end()) return;
  for (RetainedVersion& v : it->second) {
    if (v.begin_epoch == begin_epoch) {
      v.ppa = to;
      stats_.repointed++;
      return;
    }
  }
}

void VersionRetainer::for_each_covering(
    std::uint64_t e,
    const std::function<void(std::uint64_t, const RetainedVersion&)>& fn)
    const {
  for (const auto& [sig, versions] : entries_) {
    for (const RetainedVersion& v : versions) {
      if (v.begin_epoch <= e && e < v.end_epoch) fn(sig, v);
    }
  }
}

void VersionRetainer::reclaim(
    const std::function<void(flash::Ppa, std::uint64_t)>& note_stale) {
  if (entries_.empty()) return;
  const std::uint64_t floor = registry_->floor();
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto& versions = it->second;
    for (auto vit = versions.begin(); vit != versions.end();) {
      if (vit->end_epoch <= floor) {
        note_stale(vit->ppa, vit->total_bytes);
        registry_->sub_retained(vit->total_bytes);
        total_versions_--;
        stats_.reclaimed++;
        vit = versions.erase(vit);
      } else {
        ++vit;
      }
    }
    it = versions.empty() ? entries_.erase(it) : std::next(it);
  }
}

}  // namespace rhik::ftl
