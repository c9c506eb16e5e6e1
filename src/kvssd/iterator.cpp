#include "kvssd/iterator.hpp"

#include <algorithm>
#include <cassert>

#include "hash/murmur.hpp"

namespace rhik::kvssd {

IteratorManager::IteratorManager(index::IIndex* index, ftl::FlashKvStore* store,
                                 ftl::SnapshotRegistry* registry,
                                 ftl::VersionRetainer* retainer)
    : index_(index), store_(store), registry_(registry), retainer_(retainer) {
  assert(index_ && store_ && registry_ && retainer_);
}

Result<std::uint64_t> IteratorManager::open(
    ByteSpan prefix, const ftl::SnapshotRegistry::Pin& pin, bool owns_pin) {
  if (prefix.empty()) return Status::kInvalidArgument;
  if (iters_.size() >= kMaxOpenIterators) return Status::kIteratorMax;

  // Keys sharing the first 4 bytes share the 16-bit class tag (§VI; the
  // device builds signatures over a 4 B prefix window). Tag collisions
  // and longer user prefixes both narrow via the full-key check below.
  const std::uint64_t want = hash::class_tag(hash::prefix_signature(prefix));
  OpenIterator it;
  it.prefix.assign(prefix.begin(), prefix.end());
  it.pin = pin;
  it.owns_pin = owns_pin;
  if (Status s = index_->scan([&](std::uint64_t sig, flash::Ppa) {
        if (hash::class_tag(sig) == want) it.candidates.push_back(sig);
      });
      !ok(s)) {
    return s;
  }
  // A caller-supplied snapshot may predate this open: keys deleted since
  // the pin are gone from the index but their retained versions still
  // cover the pinned epoch — they are candidates too.
  retainer_->for_each_covering(
      pin.epoch, [&](std::uint64_t sig, const ftl::RetainedVersion&) {
        if (hash::class_tag(sig) == want) it.candidates.push_back(sig);
      });
  // Deterministic enumeration order; one resolution per signature.
  std::sort(it.candidates.begin(), it.candidates.end());
  it.candidates.erase(std::unique(it.candidates.begin(), it.candidates.end()),
                      it.candidates.end());

  const std::uint64_t handle = next_handle_++;
  iters_.emplace(handle, std::move(it));
  return handle;
}

Status IteratorManager::resolve(const OpenIterator& it, std::uint64_t sig,
                                Bytes* key_out) {
  const std::uint64_t epoch = it.pin.epoch;
  // Current version first: visible iff its stamp is at or below the
  // pinned epoch (an index hit is never a tombstone — deletes unmap).
  const auto looked = index_->lookup(sig);
  if (!looked) return looked.status();
  if (*looked) {
    auto meta = store_->read_pair_meta(**looked, sig);
    if (!meta) return meta.status();
    if (!meta->tombstone && meta->epoch <= epoch) {
      *key_out = std::move(meta->key);
      return Status::kOk;
    }
  }
  // Superseded at the pinned epoch: the retainer holds the covering
  // version (a covering tombstone means the key was already deleted).
  const ftl::RetainedVersion* v = retainer_->resolve(sig, epoch);
  if (v == nullptr) return Status::kNotFound;
  // The key sits in the head page: no value copy, no continuation reads.
  bool tomb = false;
  if (Status s = store_->read_pair_at(v->ppa, sig, epoch, key_out, nullptr, &tomb);
      !ok(s)) {
    return s;
  }
  return tomb ? Status::kNotFound : Status::kOk;
}

Status IteratorManager::next(std::uint64_t handle, std::size_t max_keys,
                             std::vector<Bytes>* keys_out) {
  if (keys_out == nullptr || max_keys == 0) return Status::kInvalidArgument;
  const auto found = iters_.find(handle);
  if (found == iters_.end()) return Status::kInvalidArgument;
  OpenIterator& it = found->second;
  // The retention bound may have expired the pin mid-scan; erroring
  // here (instead of silently mixing epochs) is the §13 contract.
  if (const auto e = registry_->epoch_of(it.pin.id); !e) return e.status();

  keys_out->clear();
  const std::size_t start = it.pos;
  while (keys_out->size() < max_keys && it.pos < it.candidates.size()) {
    Bytes key;
    const Status s = resolve(it, it.candidates[it.pos], &key);
    if (s != Status::kOk && s != Status::kNotFound) {
      // A read error, never a silent end of scan: hand back nothing and
      // rewind, so a retry (say, after the fault clears) loses no key.
      keys_out->clear();
      it.pos = start;
      return s;
    }
    ++it.pos;
    if (s == Status::kNotFound) continue;  // absent at the pinned epoch
    // Weed out hash-class collisions with the real stored prefix.
    if (key.size() < it.prefix.size() ||
        !std::equal(it.prefix.begin(), it.prefix.end(), key.begin())) {
      continue;
    }
    keys_out->push_back(std::move(key));
  }
  if (keys_out->empty() && it.pos >= it.candidates.size()) return Status::kNotFound;
  return Status::kOk;
}

Status IteratorManager::close(std::uint64_t handle) {
  const auto found = iters_.find(handle);
  if (found == iters_.end()) return Status::kInvalidArgument;
  if (found->second.owns_pin) (void)registry_->release(found->second.pin.id);
  iters_.erase(found);
  return Status::kOk;
}

}  // namespace rhik::kvssd
