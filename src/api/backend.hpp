// The backend seam of the host-side KV API.
//
// `api::KvsDevice` fronts either a single emulated device
// (`kvssd::KvssdDevice`) or the sharded multi-device array
// (`shard::ShardedKvssd`). Both implement this narrow interface, so the
// API layer issues every verb through one call path instead of branching
// per backend. The interface is intentionally small: the SNIA-style verb
// set (including the snapshot / streaming-iterator handles), the async
// submission queue, and the durability / introspection hooks the facade
// exposes. Introspection is one read-out, metrics_snapshot(): operation
// counters, stage timers and restart figures come back in one
// MetricsSnapshot. The streaming key handle is the one iterator at every
// layer; values come through read_at on its snapshot. Anything richer
// (GC internals, per-shard access) stays on the concrete classes.
//
// Asynchronous commands have one shape end to end: a `Command` goes in
// through submit(), and its `TaggedCompletion` comes back through the
// batch sink, once per drained batch — the emulator's counterpart of the
// KVSSD's single submission queue and completion path (paper §II-A).
//
// Header-only and dependency-light on purpose: the emulated device
// implements it, so it must not pull API-layer or device-layer headers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"

namespace rhik::api {

/// One asynchronous KV command: the single submission-queue entry,
/// from the facade through a shard ring to the device queue. `tag` is
/// whatever the submitter wants echoed in the completion (the facade
/// uses its submission id); `value` is the put payload, unused otherwise.
struct Command {
  enum class Op : std::uint8_t { kPut, kGet, kDel };
  Op op = Op::kPut;
  std::uint64_t tag = 0;
  Bytes key;
  Bytes value;
};

/// One finished command, delivered batch-wise to the completion sink.
/// The key buffer travels down with the command and comes back here, so
/// the fast path never re-copies it; `value` is filled for gets.
struct TaggedCompletion {
  using Op = Command::Op;
  std::uint64_t tag = 0;
  Op op = Op::kPut;
  Status status = Status::kOk;
  Bytes key;
  Bytes value;
};

/// An MVCC snapshot: one device-global epoch pinned against GC and
/// version reclaim until released (DESIGN.md §13). `read_at` and
/// snapshot-bound iterators resolve every key as of this epoch, across
/// all shards of an array. A pin that outlives the retention budget or a
/// power cycle yields kSnapshotTooOld — retryable with a fresh snapshot;
/// a snapshot read never returns torn (mixed-epoch) data.
struct SnapshotHandle {
  std::uint64_t id = 0;     ///< pin-registry id (0 is never a valid pin)
  std::uint64_t epoch = 0;  ///< pinned epoch (diagnostics / wire echo)
};

class IKvsBackend {
 public:
  /// Batch completion sink: invoked ONCE per drained batch with every
  /// completion the batch produced, in execution order. Sharded backends
  /// call it from worker threads (possibly concurrently), so sinks must
  /// be thread-safe.
  using CompletionSink = std::function<void(std::vector<TaggedCompletion>&&)>;

  virtual ~IKvsBackend() = default;

  // -- Synchronous verbs ----------------------------------------------------
  virtual Status put(ByteSpan key, ByteSpan value) = 0;
  virtual Status get(ByteSpan key, Bytes* value_out) = 0;
  virtual Status del(ByteSpan key) = 0;
  virtual Status exist(ByteSpan key) = 0;

  // -- MVCC snapshots (DESIGN.md §13) ----------------------------------------
  /// Pins the current epoch; the snapshot stays readable until released,
  /// expired by the retention budget, or lost to a power cycle.
  virtual Result<SnapshotHandle> open_snapshot() = 0;
  /// Releases a pin (idempotent: releasing an expired pin is kOk-ish —
  /// kSnapshotTooOld only ever comes from reads). Unknown ids error.
  virtual Status release_snapshot(const SnapshotHandle& snap) = 0;
  /// Point read as of the snapshot's epoch: the value the key had when
  /// the snapshot was opened, regardless of later puts/deletes.
  /// kNotFound when the key did not exist then; kSnapshotTooOld when the
  /// pin expired.
  virtual Status read_at(const SnapshotHandle& snap, ByteSpan key,
                         Bytes* value_out) = 0;

  // -- Streaming iterator handles (SNIA-style; §II-A) ------------------------
  /// Opens a streaming key iterator over `prefix`. With `snap` the view
  /// is the snapshot's epoch; with nullptr an internal snapshot is
  /// pinned for the iterator's lifetime, so every iterator is consistent
  /// (keys mutated mid-scan resolve to their as-of-open versions).
  /// kIteratorMax when all handles are in use; kUnsupported without
  /// prefix signatures.
  virtual Result<std::uint64_t> kvs_open_iterator(ByteSpan prefix,
                                                  const SnapshotHandle* snap) = 0;
  /// Appends up to `max_keys` further keys. kOk while keys remain;
  /// kNotFound once exhausted (the SNIA ITERATOR_END condition);
  /// kSnapshotTooOld when the backing pin expired mid-scan. A read error
  /// (kIoError, kCorruption) ends the call with that error, never as a
  /// clean end, and loses no key: a retry resumes where the scan stood.
  virtual Status kvs_iterator_next(std::uint64_t handle, std::size_t max_keys,
                                   std::vector<Bytes>* keys_out) = 0;
  /// Closes the handle (and releases an internally pinned snapshot).
  virtual Status kvs_close_iterator(std::uint64_t handle) = 0;

  // -- Asynchronous submission ----------------------------------------------
  /// Queues one command. It completes through the sink, in the batch the
  /// drain that executes it produces; with no sink installed the
  /// completion is dropped (fire-and-forget).
  virtual void submit(Command&& cmd) = 0;
  /// Executes queued commands; returns how many completed.
  virtual std::size_t drain() = 0;
  /// Installs (or, with an empty sink, clears) the completion sink.
  /// Install it before the first submit whose completion matters.
  virtual void set_completion_sink(CompletionSink sink) = 0;

  /// Runs one bounded quantum of background maintenance (GC relocation,
  /// incremental index migration) if any is pending; returns true when
  /// work was done, so idle callers may keep pumping until false. The
  /// serving layer calls this from its event loop's idle windows — a
  /// single device has no other thread to make background progress, and
  /// a sharded array's workers already pump when their rings are idle
  /// (its override is a no-op returning false).
  virtual bool pump_background() = 0;

  // -- Durability -----------------------------------------------------------
  virtual Status flush() = 0;
  /// Synchronous index checkpoint (DESIGN.md §8); kUnsupported when
  /// checkpointing is disabled.
  virtual Status checkpoint() = 0;

  // -- Introspection ---------------------------------------------------------
  /// The one whole-backend read-out: every counter, gauge and timer in
  /// one coherent snapshot (shard-merged for an array; implies a
  /// cross-shard barrier there).
  virtual obs::MetricsSnapshot metrics_snapshot() = 0;
};

}  // namespace rhik::api
