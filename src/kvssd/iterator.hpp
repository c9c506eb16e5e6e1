// Iterator manager (paper §II-A, §VI; DESIGN.md §13).
//
// Samsung KVSSD exposes an `iterate` command that enumerates the keys
// matching a search prefix, served by a log-structured iterator manager
// in firmware. RHIK §VI sketches how the same capability falls out of
// its structure: build signatures from a 4 B prefix hash plus a 4 B
// suffix hash, so all keys sharing a prefix form one signature class
// that an index scan can enumerate.
//
// This is the cursor behind the one iterator, `kvs_open_iterator` /
// `kvs_iterator_next` / `kvs_close_iterator`. Every iterator is bound to
// an MVCC snapshot pin: `open` gathers the candidate signature set — the
// index's current class members plus any retained versions covering the
// pinned epoch — and `next` resolves every candidate AS OF that epoch:
// the current version when its stamp is old enough, otherwise the
// retainer's covering version, otherwise the key did not exist at the
// epoch. Keys mutated, deleted or GC-relocated mid-scan therefore still
// enumerate exactly their as-of-open state. The stored prefix is
// verified on every hit to weed out hash-class collisions. Iterators
// stream keys only; a key's value is one `read_at` away on the same pin.
// Like the real device, a bounded number of iterators may be open at
// once (kIteratorMax beyond that).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "ftl/kv_store.hpp"
#include "ftl/mvcc.hpp"
#include "index/index.hpp"

namespace rhik::kvssd {

class IteratorManager {
 public:
  /// Samsung firmware allows a handful of concurrent iterators.
  static constexpr std::uint32_t kMaxOpenIterators = 16;

  IteratorManager(index::IIndex* index, ftl::FlashKvStore* store,
                  ftl::SnapshotRegistry* registry,
                  ftl::VersionRetainer* retainer);

  /// Opens an iterator over keys starting with `prefix`, bound to the
  /// registry pin `pin`. With `owns_pin` close() releases the pin;
  /// otherwise the caller keeps it, and it must outlive the iterator or
  /// next() degrades to kSnapshotTooOld.
  Result<std::uint64_t> open(ByteSpan prefix,
                             const ftl::SnapshotRegistry::Pin& pin,
                             bool owns_pin);

  /// Fetches up to `max_keys` further keys. Returns kOk while keys
  /// remain; kNotFound once the iterator is exhausted (the SNIA
  /// ITERATOR_END condition); kSnapshotTooOld when the backing pin was
  /// expired by the retention bound; kInvalidArgument for a bad handle.
  /// An index or pair-read error ends the call with that error, as
  /// `read_at` reports it, and consumes no candidates: the next call
  /// retries the same keys.
  Status next(std::uint64_t handle, std::size_t max_keys,
              std::vector<Bytes>* keys_out);

  Status close(std::uint64_t handle);

 private:
  struct OpenIterator {
    Bytes prefix;
    /// Candidate signatures, sorted and unique; each is re-resolved by
    /// signature at next(), so churn between open and next is harmless.
    std::vector<std::uint64_t> candidates;
    std::size_t pos = 0;
    ftl::SnapshotRegistry::Pin pin;
    bool owns_pin = false;
  };

  /// Resolves one candidate as of the iterator's epoch: kOk with the
  /// stored key when a version is visible, kNotFound when none is, any
  /// other status for an index or flash read error.
  Status resolve(const OpenIterator& it, std::uint64_t sig, Bytes* key_out);

  index::IIndex* index_;
  ftl::FlashKvStore* store_;
  ftl::SnapshotRegistry* registry_;
  ftl::VersionRetainer* retainer_;
  std::unordered_map<std::uint64_t, OpenIterator> iters_;
  std::uint64_t next_handle_ = 1;
};

}  // namespace rhik::kvssd
