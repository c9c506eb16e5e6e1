// Seeded differential harness: random op traces executed against a
// plain std::map reference model and the full device — for BOTH index
// schemes (RHIK and the MLHash baseline), under uniform and zipf-skewed
// key distributions, with RHIK doubling halt-free or stop-the-world, and
// with forced GC quanta, synchronous collections, flushes and clean
// device reopens (full-scan and fast-restore recovery paths) interleaved
// into the trace. MVCC snapshots ride along as an oracle: pins capture a
// full model copy at open time, and every read_at must return exactly
// that view or kSnapshotTooOld — retention expiry and pins dropped
// across a reopen must error, never tear.
//
// On a divergence the failing trace is shrunk by chunk removal to a
// minimal reproducer, written to an artifact file, and the failure
// message carries the seed + artifact path so the exact run can be
// replayed with RHIK_TEST_SEED.
//
// Knobs (env):
//   RHIK_TEST_SEED     base seed override (decimal or 0x-hex)
//   RHIK_DIFF_SEEDS    number of seeds for the matrix test (default 40)
//   RHIK_DIFF_MINUTES  wall-clock budget for the soak test (default 0 =
//                      skipped; the nightly CI job sets it)
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kvssd/device.hpp"
#include "kvssd/recovery.hpp"
#include "test_seed.hpp"

namespace rhik::kvssd {
namespace {

struct Op {
  enum class Kind : std::uint8_t {
    kPut,
    kDel,
    kGet,
    kExist,
    kFlush,
    kCollect,  // synchronous GC: collect_one()
    kPump,     // one background quantum: GC + index-migration drain
    kReopen,   // clean close + recover (no fault): full differential check
    kSnapOpen,     // pin a snapshot + capture a model copy (the oracle)
    kSnapRead,     // read_at vs the captured copy; TOO_OLD allowed, tears not
    kSnapRelease,  // release the pin; the handle must be dead afterwards
  };
  Kind kind = Kind::kPut;
  std::uint32_t key = 0;
  std::uint32_t val_len = 0;  ///< kSnapRead/kSnapRelease: snapshot selector
  char fill = 'a';
};

const char* kind_name(Op::Kind k) {
  switch (k) {
    case Op::Kind::kPut: return "put";
    case Op::Kind::kDel: return "del";
    case Op::Kind::kGet: return "get";
    case Op::Kind::kExist: return "exist";
    case Op::Kind::kFlush: return "flush";
    case Op::Kind::kCollect: return "collect";
    case Op::Kind::kPump: return "pump";
    case Op::Kind::kReopen: return "reopen";
    case Op::Kind::kSnapOpen: return "snap_open";
    case Op::Kind::kSnapRead: return "snap_read";
    case Op::Kind::kSnapRelease: return "snap_release";
  }
  return "?";
}

struct DiffConfig {
  IndexKind index = IndexKind::kRhik;
  bool zipf = false;        ///< skewed vs uniform key picks
  bool checkpoint = false;  ///< reopen takes the fast-restore path
  bool stw_resize = false;  ///< RHIK doubles stop-the-world (Fig. 7 mode)
};

DeviceConfig device_config(const DiffConfig& dc) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  cfg.dram_cache_bytes = 32 * 1024;
  cfg.index_kind = dc.index;
  cfg.rhik.incremental_resize = !dc.stw_resize;
  // Small retention budget: zipf churn against pinned snapshots must be
  // able to trip oldest-pin expiry, so the oracle exercises the
  // kSnapshotTooOld path, not just happy-path reads.
  cfg.snapshot_retention_bytes = 48 * 1024;
  if (dc.checkpoint) {
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.slot_blocks = 2;
    cfg.checkpoint.journal_blocks = 2;
    cfg.checkpoint.dirty_pages = 48;
    cfg.checkpoint.pump_pages = 4;
  }
  return cfg;
}

std::string key_str(std::uint32_t k) { return "dk" + std::to_string(k); }

std::vector<Op> generate_trace(std::uint64_t seed, bool zipf, int nops) {
  Rng rng(seed);
  const std::uint32_t universe = 300;  // enough distinct keys to force
                                       // live directory resizes
  std::vector<Op> trace;
  trace.reserve(static_cast<std::size_t>(nops));
  const auto pick_key = [&]() -> std::uint32_t {
    if (!zipf) return rng.next_below(universe);
    // Power-law-ish skew: cubing the uniform draw concentrates ~90% of
    // the mass on the low ranks, approximating a zipf hot set.
    const double u = static_cast<double>(rng.next_below(1 << 20)) / (1 << 20);
    return static_cast<std::uint32_t>(u * u * u * universe);
  };
  for (int i = 0; i < nops; ++i) {
    Op op;
    const std::uint32_t dice = rng.next_below(100);
    if (dice < 48) {
      op.kind = Op::Kind::kPut;
      op.key = pick_key();
      // Mostly small values; ~2% multi-page extents.
      op.val_len = rng.next_below(100) < 2 ? rng.next_range(5000, 11000)
                                           : rng.next_range(20, 900);
      op.fill = static_cast<char>('a' + rng.next_below(26));
    } else if (dice < 60) {
      op.kind = Op::Kind::kDel;
      op.key = pick_key();
    } else if (dice < 80) {
      op.kind = Op::Kind::kGet;
      op.key = pick_key();
    } else if (dice < 84) {
      op.kind = Op::Kind::kExist;
      op.key = pick_key();
    } else if (dice < 87) {
      op.kind = Op::Kind::kFlush;
    } else if (dice < 90) {
      op.kind = Op::Kind::kCollect;
    } else if (dice < 94) {
      op.kind = Op::Kind::kPump;
    } else if (dice < 96) {
      op.kind = Op::Kind::kReopen;
    } else if (dice < 97) {
      op.kind = Op::Kind::kSnapOpen;
    } else if (dice < 99) {
      op.kind = Op::Kind::kSnapRead;
      op.key = pick_key();
      op.val_len = rng.next_below(16);  // snapshot selector
    } else {
      op.kind = Op::Kind::kSnapRelease;
      op.val_len = rng.next_below(16);
    }
    trace.push_back(op);
  }
  return trace;
}

/// Runs a trace against a fresh device + reference model. Returns a
/// divergence description ("" prefix-free) or nullopt when the run and
/// the final sweep agree everywhere.
std::optional<std::string> run_trace(const DiffConfig& dc,
                                     const std::vector<Op>& trace) {
  const DeviceConfig cfg = device_config(dc);
  auto dev = std::make_unique<KvssdDevice>(cfg);
  std::map<std::string, std::string> model;

  // Snapshot oracle: each open pin carries a full copy of the model at
  // open time. A read through the handle must return exactly that view,
  // or kSnapshotTooOld (retention expiry / pin dropped across a power
  // cycle) — anything else is a torn snapshot. Once a handle has been
  // seen dead it must stay dead.
  struct SnapOracle {
    api::SnapshotHandle handle;
    std::map<std::string, std::string> view;
    bool dead = false;
  };
  std::vector<SnapOracle> snaps;

  const auto fail = [](std::size_t i, const Op& op, const std::string& what) {
    std::ostringstream os;
    os << "op " << i << " (" << kind_name(op.kind) << " key=" << op.key
       << "): " << what;
    return os.str();
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Op& op = trace[i];
    const std::string k = key_str(op.key);
    switch (op.kind) {
      case Op::Kind::kPut: {
        const std::string v(op.val_len, op.fill);
        const Status s = dev->put(as_bytes(k), as_bytes(v));
        if (s != Status::kOk) {
          return fail(i, op, "put returned " + std::to_string(int(s)));
        }
        model[k] = v;
        break;
      }
      case Op::Kind::kDel: {
        const Status s = dev->del(as_bytes(k));
        const bool present = model.count(k) != 0;
        if (present && s != Status::kOk) {
          return fail(i, op, "del of present key failed");
        }
        if (!present && s != Status::kNotFound) {
          return fail(i, op, "del of absent key did not return kNotFound");
        }
        model.erase(k);
        break;
      }
      case Op::Kind::kGet: {
        Bytes value;
        const Status s = dev->get(as_bytes(k), &value);
        const auto it = model.find(k);
        if (it == model.end()) {
          if (s != Status::kNotFound) {
            return fail(i, op, "get of absent key did not return kNotFound");
          }
        } else if (s != Status::kOk) {
          return fail(i, op, "get of present key failed");
        } else if (rhik::to_string(value) != it->second) {
          return fail(i, op, "value mismatch (" +
                                 std::to_string(value.size()) + " vs " +
                                 std::to_string(it->second.size()) + " bytes)");
        }
        break;
      }
      case Op::Kind::kExist: {
        const Status s = dev->exist(as_bytes(k));
        const bool present = model.count(k) != 0;
        if (present != (s == Status::kOk)) {
          return fail(i, op, "exist disagrees with model");
        }
        break;
      }
      case Op::Kind::kFlush:
        if (dev->flush() != Status::kOk) return fail(i, op, "flush failed");
        break;
      case Op::Kind::kCollect: {
        const Status s = dev->gc().collect_one();
        if (s != Status::kOk && s != Status::kDeviceFull) {
          return fail(i, op, "collect_one returned " + std::to_string(int(s)));
        }
        break;
      }
      case Op::Kind::kPump:
        (void)dev->pump_background();
        break;
      case Op::Kind::kReopen: {
        // Clean shutdown: everything acked is flushed, so recovery (fast
        // restore with checkpointing, full scan without) must reproduce
        // the model exactly.
        if (dev->flush() != Status::kOk) return fail(i, op, "flush failed");
        auto nand = dev->release_nand();
        dev.reset();
        auto recovered = KvssdDevice::recover(cfg, std::move(nand));
        if (!recovered) return fail(i, op, "recovery failed");
        dev = std::move(*recovered);
        // Pins are in-memory state and did not survive: every handle
        // still held must error from here on — never resolve to a view
        // at the wrong epoch, even if its pin id gets recycled.
        for (SnapOracle& so : snaps) {
          Bytes value;
          if (dev->read_at(so.handle, as_bytes(key_str(0)), &value) !=
              Status::kSnapshotTooOld) {
            return fail(i, op, "pin survived power cycle with a view");
          }
          so.dead = true;
        }
        for (const auto& [mk, mv] : model) {
          Bytes value;
          if (dev->get(as_bytes(mk), &value) != Status::kOk) {
            return fail(i, op, "key " + mk + " lost across reopen");
          }
          if (rhik::to_string(value) != mv) {
            return fail(i, op, "key " + mk + " mangled across reopen");
          }
        }
        break;
      }
      case Op::Kind::kSnapOpen: {
        if (snaps.size() >= 8) break;  // bound how much retention we pin
        auto snap = dev->open_snapshot();
        if (!snap) return fail(i, op, "open_snapshot failed");
        snaps.push_back(SnapOracle{*snap, model, false});
        break;
      }
      case Op::Kind::kSnapRead: {
        if (snaps.empty()) break;
        SnapOracle& so = snaps[op.val_len % snaps.size()];
        Bytes value;
        const Status s = dev->read_at(so.handle, as_bytes(k), &value);
        if (so.dead) {
          if (s != Status::kSnapshotTooOld) {
            return fail(i, op, "dead snapshot resurrected (status " +
                                   std::to_string(int(s)) + ")");
          }
          break;
        }
        if (s == Status::kSnapshotTooOld) {
          // The retention budget expired the pin — legal, and one-way.
          so.dead = true;
          break;
        }
        const auto it = so.view.find(k);
        if (it == so.view.end()) {
          if (s != Status::kNotFound) {
            return fail(i, op, "snapshot saw a key absent at pin time");
          }
        } else if (s != Status::kOk) {
          return fail(i, op, "snapshot lost a pinned key (status " +
                                 std::to_string(int(s)) + ")");
        } else if (rhik::to_string(value) != it->second) {
          return fail(i, op, "snapshot TORE: got " +
                                 std::to_string(value.size()) + " bytes, " +
                                 "pinned view has " +
                                 std::to_string(it->second.size()));
        }
        break;
      }
      case Op::Kind::kSnapRelease: {
        if (snaps.empty()) break;
        const std::size_t pick = op.val_len % snaps.size();
        SnapOracle& so = snaps[pick];
        const Status s = dev->release_snapshot(so.handle);
        // Valid and retention-expired pins release kOk; handles dropped
        // across a reopen answer kSnapshotTooOld (unknown/recycled id).
        if (!so.dead && s != Status::kOk) {
          return fail(i, op, "release of live pin returned " +
                                 std::to_string(int(s)));
        }
        if (so.dead && s != Status::kOk && s != Status::kSnapshotTooOld) {
          return fail(i, op, "release of dead pin returned " +
                                 std::to_string(int(s)));
        }
        // A released handle is dead for good.
        Bytes value;
        if (dev->read_at(so.handle, as_bytes(key_str(0)), &value) !=
            Status::kSnapshotTooOld) {
          return fail(i, op, "released handle still readable");
        }
        snaps.erase(snaps.begin() + static_cast<std::ptrdiff_t>(pick));
        break;
      }
    }
  }

  // Final sweep: the device must agree with the model on every key of
  // the universe, present or absent.
  for (std::uint32_t k = 0; k < 300; ++k) {
    const std::string ks = key_str(k);
    Bytes value;
    const Status s = dev->get(as_bytes(ks), &value);
    const auto it = model.find(ks);
    if (it == model.end()) {
      if (s != Status::kNotFound) {
        return "final sweep: absent key " + ks + " readable";
      }
    } else if (s != Status::kOk || rhik::to_string(value) != it->second) {
      return "final sweep: key " + ks + " wrong or missing";
    }
  }
  return std::nullopt;
}

/// Chunk-removal shrink (ddmin-style): repeatedly tries dropping spans
/// of the trace, keeping any reduction that still reproduces a
/// divergence, until no half/quarter/... removal helps.
std::vector<Op> shrink_trace(const DiffConfig& dc, std::vector<Op> trace) {
  int budget = 400;  // executions, not iterations — shrinking is bounded
  std::size_t chunk = trace.size() / 2;
  while (chunk > 0 && budget > 0) {
    bool reduced = false;
    for (std::size_t start = 0; start + chunk <= trace.size() && budget > 0;) {
      std::vector<Op> candidate;
      candidate.reserve(trace.size() - chunk);
      candidate.insert(candidate.end(), trace.begin(),
                       trace.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       trace.begin() + static_cast<std::ptrdiff_t>(start + chunk),
                       trace.end());
      --budget;
      if (run_trace(dc, candidate).has_value()) {
        trace = std::move(candidate);  // still fails: keep the reduction
        reduced = true;
      } else {
        start += chunk;
      }
    }
    if (!reduced) chunk /= 2;
  }
  return trace;
}

/// Writes the minimal reproducer to disk and returns its path.
std::string write_artifact(std::uint64_t seed, const DiffConfig& dc,
                           const std::vector<Op>& trace,
                           const std::string& divergence) {
  const std::string path =
      "rhik_diff_failure_" + std::to_string(seed) + ".txt";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "seed: %llu\nindex: %s\nzipf: %d\ncheckpoint: %d\n"
                 "stw_resize: %d\n",
                 static_cast<unsigned long long>(seed),
                 dc.index == IndexKind::kRhik ? "rhik" : "mlhash",
                 dc.zipf ? 1 : 0, dc.checkpoint ? 1 : 0, dc.stw_resize ? 1 : 0);
    std::fprintf(f, "divergence: %s\nops (%zu):\n", divergence.c_str(),
                 trace.size());
    for (const Op& op : trace) {
      std::fprintf(f, "  %s key=%u val_len=%u fill=%c\n", kind_name(op.kind),
                   op.key, op.val_len, op.fill);
    }
    std::fclose(f);
  }
  return path;
}

/// One full differential check for one seed: generate, run against both
/// index schemes, shrink + dump on divergence.
void check_seed(std::uint64_t seed) {
  const bool zipf = (seed >> 1) & 1;
  const bool checkpoint = (seed >> 2) & 1;
  // Stop-the-world doubling applies to the RHIK arm only.
  const bool stw_resize = (seed >> 3) & 1;
  const std::vector<Op> trace = generate_trace(seed, zipf, 1200);
  for (const IndexKind index : {IndexKind::kRhik, IndexKind::kMlHash}) {
    const DiffConfig dc{index, zipf, checkpoint,
                        index == IndexKind::kRhik && stw_resize};
    const auto divergence = run_trace(dc, trace);
    if (!divergence) continue;
    const std::vector<Op> minimal = shrink_trace(dc, trace);
    const auto confirmed = run_trace(dc, minimal);
    const std::string path = write_artifact(
        seed, dc, minimal, confirmed.value_or(*divergence));
    FAIL() << "differential divergence (seed 0x" << std::hex << seed
           << std::dec << ", index="
           << (index == IndexKind::kRhik ? "rhik" : "mlhash")
           << ", zipf=" << zipf << ", checkpoint=" << checkpoint
           << ", stw_resize=" << dc.stw_resize
           << "): " << confirmed.value_or(*divergence) << "\nminimal trace ("
           << minimal.size() << " ops) written to " << path
           << "\nreplay: RHIK_TEST_SEED=" << seed;
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(env, &end, 0);
    if (end != env) return v;
  }
  return fallback;
}

TEST(Differential, SeededTraceMatrix) {
  const std::uint64_t base = rhik::test::harness_seed(0xD1FF0000);
  const std::uint64_t seeds = env_u64("RHIK_DIFF_SEEDS", 40);
  for (std::uint64_t i = 0; i < seeds; ++i) {
    check_seed(base + i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Differential, RegressionSeeds) {
  // Seeds the time-budget soak found diverging, kept as a fixed check:
  // GC appending a retained version behind the current one in one page
  // (a stale get), collect() giving up with DEVICE_FULL on a mostly empty
  // device, and a key lost in the final sweep.
  for (const std::uint64_t seed :
       {1792426657381678323ull, 1792427048256931485ull, 1792142377230669255ull}) {
    check_seed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Differential, TimeBudgetSoak) {
  // The nightly CI job sets RHIK_DIFF_MINUTES and lets this run fresh
  // seeds until the budget is spent; locally it is skipped by default.
  const std::uint64_t minutes = env_u64("RHIK_DIFF_MINUTES", 0);
  if (minutes == 0) GTEST_SKIP() << "set RHIK_DIFF_MINUTES to enable";
  const std::uint64_t base = rhik::test::harness_seed(
      static_cast<std::uint64_t>(
          std::chrono::system_clock::now().time_since_epoch().count()));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::minutes(minutes);
  std::uint64_t ran = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    check_seed(base + ran);
    ++ran;
    if (::testing::Test::HasFatalFailure()) break;
  }
  std::printf("[soak] %llu seeds checked (base 0x%llx)\n",
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(base));
}

}  // namespace
}  // namespace rhik::kvssd
