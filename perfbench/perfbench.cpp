// perfbench: runs one named workload against the RHIK emulator in
// a single process and prints its metrics (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--scale full|tiny] [--plant-bad] [--out-dir <dir>]
//
// Every workload is a closed loop from one submitting thread: a fixed
// number of operations stay in flight, and a new one is submitted only
// when one completes. The op stream is a pure function of the seed, and
// the measured phase runs a fixed op budget (a per-workload rate times
// --seconds), so single-device runs repeat their device clock and every
// device counter exactly for a given seed.
//
// Layers are measured from outside: spans around this program's calls
// into each layer's public functions, deltas of the counters
// metrics_snapshot() exports, and CPU time split by thread. With
// --trace 1 the workload runs twice on half the op budget each, untraced
// and then traced, so the tracing overhead is reported next to the
// per-layer figures.
//
// Output: a "host" line, a "detail" line (sample counts, raw counters,
// the op-stream hash) and, last, one JSON result object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/kvs.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "hash/hopscotch.hpp"
#include "kvssd/device.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/tenant.hpp"
#include "shard/sharded_kvssd.hpp"
#include "workload/keygen.hpp"
#include "workload/size_dist.hpp"

namespace {

using namespace rhik;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kKeySize = 16;
constexpr double kDeadlineFactor = 6;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double cpu_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

[[noreturn]] void die(const char* fmt, const char* arg = "") {
  std::fprintf(stderr, "perfbench: ");
  std::fprintf(stderr, fmt, arg);
  std::fprintf(stderr, "\n");
  std::exit(3);
}

// -- Workload specs ------------------------------------------------------------

struct Spec {
  std::string name;
  std::uint32_t shards = 1;
  std::uint64_t capacity = 512ull << 20;
  std::uint64_t cache = 16ull << 20;
  std::uint32_t pages_per_block = 64;
  std::uint64_t keys = 100'000;
  workload::KeyPattern pattern = workload::KeyPattern::kUniform;
  bool uniform_puts = false;    ///< puts draw keys uniformly, not by `pattern`
  std::uint32_t get_pm = 1000;  ///< per-mille gets
  std::uint32_t put_pm = 0;     ///< per-mille puts; the rest are deletes
  workload::SizeDistribution sizes = workload::SizeDistribution::fixed(1024);
  bool size_hint = true;        ///< pass anticipated_keys (Eq. 2) at open
  std::uint32_t inflight = 64;  ///< closed-loop ops in flight
  double ops_per_s = 100'000;   ///< op budget = ops_per_s * --seconds
  std::uint64_t preload_batch = 4096;
  bool checkpoints = false;
  bool wire = false;
  std::uint32_t conns = 4;      ///< wire: client connections
};

Spec make_spec(const std::string& name, bool tiny) {
  Spec s;
  s.name = name;
  if (name == "read_hot") {
    // Index fits the cache; host hot path: facade, shard rings, completion
    // ring, hopscotch probe, zero-copy data read.
    s.shards = 3;
    s.keys = 100'000;
    s.get_pm = 950;
    s.put_pm = 50;
    s.sizes = workload::SizeDistribution::fixed(1024);
    s.capacity = 1ull << 30;  // room for every put: GC stays idle
    // Deep batches: a host scheduling stall adds to a ~6 ms batch instead
    // of a ~1 ms one, so the tail moves less with host load.
    s.inflight = 4096;
    s.ops_per_s = 650'000;
  } else if (name == "read_cold") {
    // Paper Fig. 5 regime: the index is many times the DRAM cache, so
    // gets pay record-page misses. A 0.5% put share keeps every
    // end-to-end metric defined without reaching GC; the puts draw keys
    // uniformly, so nearly all miss the cache and the device put p99 sits
    // inside one latency mode instead of on the edge between two.
    // Checkpoints are on so the restart takes the fast path: a full-scan
    // rebuild of an index this far beyond the cache loses keys
    // (README.md, regimes left out).
    s.keys = 100'000;
    s.cache = 256ull << 10;
    s.pattern = workload::KeyPattern::kZipfian;
    s.uniform_puts = true;
    s.get_pm = 995;
    s.put_pm = 5;
    s.sizes = workload::SizeDistribution::uniform(64, 512);
    s.inflight = 64;
    s.ops_per_s = 55'000;
    s.preload_batch = 25'000;
    s.checkpoints = true;
  } else if (name == "churn_small") {
    // Writes beside reads on a small device: steady background GC,
    // hot/cold separation, tombstones and a restart scan. No size hint,
    // so the index doubles during set-up.
    s.capacity = 64ull << 20;
    s.keys = 150'000;
    s.pattern = workload::KeyPattern::kZipfian;
    s.get_pm = 400;
    s.put_pm = 500;
    s.sizes = workload::SizeDistribution::rocksdb_udb();
    s.size_hint = false;
    // 256 in flight: a GC quantum lands in ~4% of drained batches, so the
    // p99 sits inside the GC latency mode (at 64, ~1%: on its edge).
    s.inflight = 256;
    s.preload_batch = 64;  // larger batches abort on hopscotch collisions
    s.ops_per_s = 320'000;
  } else if (name == "wire_mixed") {
    // The only workload through net: KvServer on loopback over a 2-shard
    // array, 4 pipelined KvClient connections from one thread.
    s.shards = 2;
    s.keys = 100'000;
    s.get_pm = 900;
    s.put_pm = 100;
    s.sizes = workload::SizeDistribution::fixed(256);
    s.inflight = 256;  // per connection; deep for the same reason as read_hot
    s.ops_per_s = 500'000;
    s.wire = true;
  } else {
    die("unknown workload '%s'", name.c_str());
  }
  if (tiny) {
    s.keys /= 40;
    s.ops_per_s /= 40;
    if (name == "read_cold") s.cache = 32ull << 10;
    if (name == "churn_small") {
      s.capacity = 4ull << 20;
      s.pages_per_block = 4;
      s.ops_per_s *= 4;
    }
  }
  return s;
}

// -- Op stream and host-side model ----------------------------------------------

enum class Kind : std::uint8_t { kGet, kPut, kDel };

struct Op {
  Kind kind = Kind::kGet;
  std::uint64_t id = 0;
  std::uint32_t len = 0;  ///< put: value length
};

/// Deterministic op stream. `stride`/`lane` restrict the key ids to one
/// residue class (wire_mixed gives each connection its own keys, so the
/// per-connection submission order is the execution order of every key).
class OpStream {
 public:
  OpStream(const Spec& s, std::uint64_t seed, std::uint32_t stride = 1,
           std::uint32_t lane = 0)
      : spec_(s),
        keys_(s.pattern, s.keys, seed * 0x9e3779b97f4a7c15ULL + 1),
        rng_(seed ^ 0x6f707374ULL),
        stride_(stride),
        lane_(lane) {}

  Op next() {
    Op op;
    const std::uint64_t r = rng_.next_below(1000);
    if (r < spec_.get_pm) {
      op.kind = Kind::kGet;
    } else if (r < spec_.get_pm + spec_.put_pm) {
      op.kind = Kind::kPut;
      op.len = static_cast<std::uint32_t>(spec_.sizes.sample(rng_));
    } else {
      op.kind = Kind::kDel;
    }
    std::uint64_t id = op.kind == Kind::kPut && spec_.uniform_puts
                           ? rng_.next_below(spec_.keys)
                           : keys_.next();
    if (stride_ > 1) {
      id = id - id % stride_ + lane_;
      if (id >= spec_.keys) id = lane_;
    }
    op.id = id;
    hash_ = (hash_ ^ (id * 4 + static_cast<std::uint64_t>(op.kind) + op.len * 131))
            * 0x100000001b3ULL;
    return op;
  }

  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  const Spec& spec_;
  workload::KeyIdStream keys_;
  Rng rng_;
  std::uint32_t stride_;
  std::uint32_t lane_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Expected state of every key: length (0 = absent) and a version that
/// seeds the value bytes, so a stale version fails the check too.
struct Model {
  std::vector<std::uint32_t> len;
  std::vector<std::uint32_t> ver;
  explicit Model(std::uint64_t n) : len(n, 0), ver(n, 0) {}
  static std::uint64_t value_seed(std::uint64_t id, std::uint32_t ver) {
    return (id << 24) ^ ver;
  }
};

Bytes make_value(std::uint64_t id, std::uint32_t ver, std::uint32_t len) {
  Bytes v(len);
  workload::fill_value(Model::value_seed(id, ver), v);
  return v;
}

/// What a completion must look like, fixed at submission time.
struct Expect {
  Kind kind = Kind::kGet;
  std::uint64_t id = 0;
  std::uint32_t len = 0;  ///< get: expected length (0 = must be absent)
  std::uint32_t ver = 0;
  bool existed = false;   ///< del: key present at submission
  std::uint64_t t0 = 0;   ///< submit wall time
  bool live = false;      ///< in flight (Slots bookkeeping)
};

/// Applies an op to the model at submission and returns its expectation.
Expect expect_for(Model& m, const Op& op) {
  Expect e;
  e.kind = op.kind;
  e.id = op.id;
  switch (op.kind) {
    case Kind::kGet:
      e.len = m.len[op.id];
      e.ver = m.ver[op.id];
      break;
    case Kind::kPut:
      m.ver[op.id]++;
      m.len[op.id] = op.len;
      e.len = op.len;
      e.ver = m.ver[op.id];
      break;
    case Kind::kDel:
      e.existed = m.len[op.id] != 0;
      m.len[op.id] = 0;
      break;
  }
  return e;
}

bool verify(const Expect& e, api::KvsResult r, const Bytes& value) {
  using api::KvsResult;
  switch (e.kind) {
    case Kind::kPut: return r == KvsResult::KVS_SUCCESS;
    case Kind::kDel:
      return r == (e.existed ? KvsResult::KVS_SUCCESS
                             : KvsResult::KVS_ERR_KEY_NOT_EXIST);
    case Kind::kGet:
      if (e.len == 0) return r == KvsResult::KVS_ERR_KEY_NOT_EXIST;
      return r == KvsResult::KVS_SUCCESS && value.size() == e.len &&
             workload::check_value(Model::value_seed(e.id, e.ver), value);
  }
  return false;
}

/// Verifies one completion; counts and logs (the first few) failures.
bool check_op(const Expect& e, api::KvsResult r, const Bytes& value,
              std::uint64_t& failed) {
  if (e.live && verify(e, r, value)) return true;
  if (failed++ < 5) {
    std::fprintf(stderr,
                 "perfbench: failed op: kind=%d key=%llu result=%s "
                 "expected_len=%u got_len=%zu\n",
                 static_cast<int>(e.kind), static_cast<unsigned long long>(e.id),
                 api::to_string(r), e.len, value.size());
  }
  return false;
}

/// In-flight expectations indexed by submission / request id.
class Slots {
 public:
  explicit Slots(std::uint64_t inflight) {
    std::uint64_t cap = 1;
    while (cap < 64 * inflight) cap <<= 1;
    v_.resize(cap);
    mask_ = cap - 1;
  }
  void put(std::uint64_t id, Expect e) {
    Expect& slot = v_[id & mask_];
    if (slot.live) die("in-flight table overflow");
    e.live = true;
    slot = e;
  }
  /// The expectation for `id`; `live` is false for an unknown id.
  Expect take(std::uint64_t id) {
    Expect& slot = v_[id & mask_];
    const Expect e = slot;
    slot.live = false;
    return e;
  }

 private:
  std::vector<Expect> v_;
  std::uint64_t mask_ = 0;
};

// -- Spans (traced run only) ----------------------------------------------------

enum SpanName : std::uint8_t {
  kSpanSubmit,
  kSpanPoll,
  kSpanFlush,
  kSpanRecv,
  kSpanLookup,
  kSpanCount
};
constexpr const char* kSpanNames[kSpanCount] = {
    "api.submit", "api.poll", "net.client_flush", "net.client_recv",
    "index.lookup"};

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t req = 0;     ///< submission / request id (0: none)
  std::int64_t parent = -1;  ///< index of the span that caused this one
  SpanName name = kSpanSubmit;
};

/// In-memory span store; written once when the run ends.
struct Tracer {
  bool on = false;
  std::vector<Span> spans;
  std::int64_t last_poll = -1;
  double total_ns[kSpanCount] = {};
  std::uint64_t count[kSpanCount] = {};

  std::int64_t add(SpanName n, std::uint64_t t0, std::uint64_t t1,
                   std::uint64_t req = 0, std::int64_t parent = -1) {
    total_ns[n] += static_cast<double>(t1 - t0);
    count[n]++;
    spans.push_back({t0, t1, req, parent, n});
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
};

// -- Measured-phase bookkeeping ---------------------------------------------------

/// One slice of the measured phase (a twentieth of the op budget).
struct Chunk {
  double rate = 0;         ///< ops/s
  Histogram get_lat, put_lat;
};

struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t gets = 0, puts = 0, dels = 0;
  std::uint64_t user_put_bytes = 0;  ///< key + value bytes of puts
  Histogram get_lat, put_lat;        ///< wall ns, submit -> completion
  std::vector<Chunk> chunks{1};      ///< the last one is being filled
  double wall_s = 0;
  double caller_cpu_s = 0;
  double process_cpu_s = 0;
  std::uint64_t free_blocks_min = UINT64_MAX;
  bool plant = false;  ///< corrupt the first successful get's value

  void complete(const Expect& e, api::KvsResult r, Bytes& value,
                std::uint64_t t) {
    if (plant && e.kind == Kind::kGet && r == api::KvsResult::KVS_SUCCESS &&
        !value.empty()) {
      value[0] ^= 0x5a;
      plant = false;
    }
    attempted++;
    check_op(e, r, value, failed);
    const std::uint64_t lat = t - e.t0;
    if (e.kind == Kind::kGet) {
      gets++;
      get_lat.record(lat);
      chunks.back().get_lat.record(lat);
    } else if (e.kind == Kind::kPut) {
      puts++;
      put_lat.record(lat);
      chunks.back().put_lat.record(lat);
    } else {
      dels++;
    }
  }
};

constexpr std::uint64_t kChunks = 20;

/// Cuts the measured phase into kChunks slices of equal op count.
struct ChunkClock {
  std::uint64_t step = 1;
  std::uint64_t next_mark = 0;
  std::uint64_t t_mark = 0;
  std::uint64_t ops_mark = 0;
  void start(std::uint64_t budget) {
    step = std::max<std::uint64_t>(1, budget / kChunks);
    next_mark = step;
    t_mark = now_ns();
    ops_mark = 0;
  }
  void tick(std::uint64_t done, Phase& p) {
    if (done < next_mark) return;
    const std::uint64_t t = now_ns();
    p.chunks.back().rate = ratio(static_cast<double>(done - ops_mark),
                                 static_cast<double>(t - t_mark) * 1e-9);
    p.chunks.emplace_back();
    t_mark = t;
    ops_mark = done;
    next_mark += step;
  }
};

// -- Device rig -------------------------------------------------------------------

api::KvsDeviceOptions device_options(const Spec& s) {
  api::KvsDeviceOptions o;
  o.capacity_bytes = s.capacity;
  o.dram_cache_bytes = s.cache;
  o.pages_per_block = s.pages_per_block;
  o.num_shards = s.shards;
  o.anticipated_keys = s.size_hint ? s.keys : 0;
  o.enable_checkpoints = s.checkpoints;
  return o;
}

/// A KvsDevice plus typed views of its backend, for the counters and
/// structures the facade does not export (allocator, NAND wear, index).
struct Rig {
  std::unique_ptr<api::KvsDevice> dev;
  kvssd::KvssdDevice* single = nullptr;
  shard::ShardedKvssd* array = nullptr;

  void bind() {
    single = dynamic_cast<kvssd::KvssdDevice*>(&dev->backend());
    array = dynamic_cast<shard::ShardedKvssd*>(&dev->backend());
  }
  /// Visits every device; only while the backend is quiescent.
  template <class F>
  void each_device(F&& f) {
    if (single != nullptr) {
      f(*single);
      return;
    }
    for (std::uint32_t i = 0; i < array->num_shards(); ++i) {
      f(array->shard_device(i));
    }
  }
  kvssd::KvssdDevice& device_of(ByteSpan key) {
    return single != nullptr ? *single : array->shard_device(array->shard_of(key));
  }
};

Bytes device_key(const Spec& s, std::uint64_t id) {
  Bytes k = workload::key_for_id(id, kKeySize);
  return s.wire ? net::namespaced_key(0, k) : k;
}

/// Opens a fresh device, stores every key once through async batches and
/// flushes, which also finishes any index doubling the preload started.
/// Returns the wall time taken.
double setup(const Spec& s, std::uint64_t seed, Rig& rig, Model& model) {
  const std::uint64_t t0 = now_ns();
  rig.dev = std::make_unique<api::KvsDevice>(device_options(s));
  rig.bind();
  Rng rng(seed ^ 0x7072656cULL);
  std::vector<api::KvsCompletion> done;
  for (std::uint64_t base = 0; base < s.keys; base += s.preload_batch) {
    const std::uint64_t end = std::min(s.keys, base + s.preload_batch);
    for (std::uint64_t id = base; id < end; ++id) {
      const auto len = static_cast<std::uint32_t>(s.sizes.sample(rng));
      model.len[id] = len;
      model.ver[id] = 0;
      rig.dev->store_async(device_key(s, id), make_value(id, 0, len));
    }
    for (std::uint64_t got = 0; got < end - base;) {
      done.clear();
      got += rig.dev->poll_completions(&done);
      for (const auto& c : done) {
        if (c.result != api::KvsResult::KVS_SUCCESS) {
          die("preload store failed: %s", api::to_string(c.result));
        }
      }
    }
  }
  const api::KvsResult fr = rig.dev->flush();
  if (fr != api::KvsResult::KVS_SUCCESS) die("preload flush failed: %s", api::to_string(fr));
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// -- Closed loops -----------------------------------------------------------------


std::uint64_t submit(const Spec& s, Rig& rig, const Op& op, Model& model,
                     Slots& slots, Phase& p, Tracer& tr) {
  Expect e = expect_for(model, op);
  Bytes key = device_key(s, op.id);
  Bytes value;
  if (op.kind == Kind::kPut) {
    value = make_value(op.id, e.ver, op.len);
    p.user_put_bytes += kKeySize + op.len;
  }
  const std::uint64_t t0 = now_ns();
  std::uint64_t id = 0;
  switch (op.kind) {
    case Kind::kGet: id = rig.dev->retrieve_async(std::move(key)); break;
    case Kind::kPut: id = rig.dev->store_async(std::move(key), std::move(value)); break;
    case Kind::kDel: id = rig.dev->remove_async(std::move(key)); break;
  }
  if (tr.on) tr.add(kSpanSubmit, t0, now_ns(), id, tr.last_poll);
  e.t0 = t0;
  slots.put(id, e);
  return id;
}

/// The op budget, cut to what was already submitted once the phase has
/// run kDeadlineFactor times longer than asked, so a badly overloaded
/// host still finishes in time. A cut run no longer repeats exactly.
std::uint64_t cut_budget(std::uint64_t budget, std::uint64_t submitted,
                         std::uint64_t t_start, double seconds) {
  const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
  if (elapsed <= kDeadlineFactor * seconds || submitted >= budget) return budget;
  std::fprintf(stderr, "perfbench: op budget cut at %llu ops after %.1f s\n",
               static_cast<unsigned long long>(submitted), elapsed);
  return submitted;
}

/// Closed loop through the api facade (read_hot, read_cold, churn_small).
void run_facade(const Spec& s, Rig& rig, Model& model, OpStream& ops,
                std::uint64_t budget, double seconds, Phase& p, Tracer& tr) {
  Slots slots(s.inflight);
  std::vector<api::KvsCompletion> done;
  ChunkClock chunks;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  const double cpu0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  const double pcpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  const std::uint64_t t_start = now_ns();
  chunks.start(budget);
  while (submitted < budget && submitted - completed < s.inflight) {
    submit(s, rig, ops.next(), model, slots, p, tr);
    submitted++;
  }
  while (completed < budget) {
    budget = cut_budget(budget, submitted, t_start, seconds);
    done.clear();
    const std::uint64_t t0 = now_ns();
    const std::size_t n = rig.dev->poll_completions(&done);
    const std::uint64_t t = now_ns();
    if (tr.on) {
      tr.last_poll = tr.add(kSpanPoll, t0, t, n);
      if (rig.single != nullptr) {
        p.free_blocks_min = std::min<std::uint64_t>(
            p.free_blocks_min, rig.single->allocator().free_blocks());
      }
    }
    for (auto& c : done) p.complete(slots.take(c.id), c.result, c.value, t);
    completed += n;
    chunks.tick(completed, p);
    while (submitted < budget && submitted - completed < s.inflight) {
      submit(s, rig, ops.next(), model, slots, p, tr);
      submitted++;
    }
  }
  p.wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
  p.caller_cpu_s = cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  p.process_cpu_s = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - pcpu0;
}

/// One pipelined wire connection with its own key lane.
struct WireConn {
  net::KvClient client;
  std::unique_ptr<OpStream> ops;
  std::unique_ptr<Slots> slots;
  std::uint64_t inflight = 0;
};

/// Closed loop over the wire (wire_mixed): one thread, `s.conns`
/// connections, each topped back up to `s.inflight` once half drained.
void run_wire(const Spec& s, std::uint16_t port, Model& model, std::uint64_t seed,
              std::uint64_t budget, double seconds, Phase& p, Tracer& tr,
              std::uint64_t* stream_hash) {
  std::vector<std::unique_ptr<WireConn>> conns;
  for (std::uint32_t i = 0; i < s.conns; ++i) {
    auto c = std::make_unique<WireConn>();
    if (!ok(c->client.connect("127.0.0.1", port))) die("connect to server failed");
    c->ops = std::make_unique<OpStream>(s, seed * 31 + i, s.conns, i);
    c->slots = std::make_unique<Slots>(s.inflight);
    conns.push_back(std::move(c));
  }
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  ChunkClock chunks;
  auto fill = [&](WireConn& c) {
    while (submitted < budget && c.inflight < s.inflight) {
      const Op op = c.ops->next();
      Expect e = expect_for(model, op);
      const Bytes key = workload::key_for_id(op.id, kKeySize);
      const std::string_view k(reinterpret_cast<const char*>(key.data()), key.size());
      std::uint64_t id = 0;
      const std::uint64_t t0 = now_ns();
      if (op.kind == Kind::kPut) {
        const Bytes v = make_value(op.id, e.ver, op.len);
        p.user_put_bytes += kKeySize + op.len;
        id = c.client.submit_put(k, std::string_view(
                                        reinterpret_cast<const char*>(v.data()), v.size()));
      } else if (op.kind == Kind::kGet) {
        id = c.client.submit_get(k);
      } else {
        id = c.client.submit_del(k);
      }
      if (id == 0) die("request could not be framed");
      e.t0 = t0;
      c.slots->put(id, e);
      c.inflight++;
      submitted++;
    }
    const std::uint64_t t0 = now_ns();
    if (!ok(c.client.flush())) die("client flush failed");
    if (tr.on) tr.add(kSpanFlush, t0, now_ns());
  };
  const double cpu0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  const double pcpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  const std::uint64_t t_start = now_ns();
  chunks.start(budget);
  for (auto& c : conns) fill(*c);
  net::ResponseFrame f;
  while (completed < budget) {
    budget = cut_budget(budget, submitted, t_start, seconds);
    for (auto& cp : conns) {
      WireConn& c = *cp;
      const std::uint64_t want = std::min<std::uint64_t>(c.inflight, std::max<std::uint64_t>(1, s.inflight / 2));
      for (std::uint64_t j = 0; j < want; ++j) {
        const std::uint64_t t0 = now_ns();
        if (!ok(c.client.recv_response(&f))) die("client recv failed");
        const std::uint64_t t = now_ns();
        if (tr.on) tr.add(kSpanRecv, t0, t, f.request_id);
        p.complete(c.slots->take(f.request_id), f.status, f.value, t);
        c.inflight--;
        completed++;
        chunks.tick(completed, p);
      }
      fill(c);
    }
  }
  p.wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
  p.caller_cpu_s = cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  p.process_cpu_s = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - pcpu0;
  std::uint64_t h = 0;
  for (auto& c : conns) h = h * 0x100000001b3ULL ^ c->ops->hash();
  *stream_hash = h;
}

/// Reads every key back through the facade and checks it against the
/// model. Returns {attempted, failed}.
std::pair<std::uint64_t, std::uint64_t> read_back(const Spec& s, Rig& rig,
                                                   const Model& model) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<api::KvsCompletion> done;
  const std::uint64_t batch = 4096;
  Slots slots(batch);
  for (std::uint64_t base = 0; base < s.keys; base += batch) {
    const std::uint64_t end = std::min(s.keys, base + batch);
    for (std::uint64_t id = base; id < end; ++id) {
      Expect e;
      e.id = id;
      e.len = model.len[id];
      e.ver = model.ver[id];
      slots.put(rig.dev->retrieve_async(device_key(s, id)), e);
    }
    for (std::uint64_t got = 0; got < end - base;) {
      done.clear();
      got += rig.dev->poll_completions(&done);
      for (auto& c : done) {
        attempted++;
        check_op(slots.take(c.id), c.result, c.value, failed);
      }
    }
  }
  return {attempted, failed};
}

// -- Snapshot arithmetic ----------------------------------------------------------

/// The part of a timer recorded between two snapshots.
Histogram timer_delta(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b,
                      std::string_view name) {
  const Histogram* hb = b.timer(name);
  if (hb == nullptr) return {};
  const Histogram* ha = a.timer(name);
  const std::size_t n = Histogram::bucket_count();
  std::vector<std::uint64_t> counts(n);
  std::size_t lo = n;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] = hb->bucket_value(i) - (ha != nullptr ? ha->bucket_value(i) : 0);
    if (counts[i] != 0) {
      lo = std::min(lo, i);
      hi = i;
    }
  }
  if (lo == n) return {};
  const std::uint64_t sum = hb->sum() - (ha != nullptr ? ha->sum() : 0);
  return Histogram::from_buckets(
      counts.data(), n, sum, std::max(Histogram::bucket_lower(lo), hb->min()),
      std::min(Histogram::bucket_upper(hi), hb->max()));
}

struct Delta {
  const obs::MetricsSnapshot& a;
  const obs::MetricsSnapshot& b;
  [[nodiscard]] double c(std::string_view name) const {
    return static_cast<double>(b.counter(name) - a.counter(name));
  }
  [[nodiscard]] double g(std::string_view name) const {
    return static_cast<double>(b.gauge(name) - a.gauge(name));
  }
  [[nodiscard]] Histogram t(std::string_view name) const {
    return timer_delta(a, b, name);
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// -- Output -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// -- One full run -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool plant = false;
  std::string out_dir = ".";
};

/// Everything one measured run produced.
struct RunResult {
  Phase phase;
  std::vector<double> setup_s;
  std::vector<double> restarts_s;
  obs::MetricsSnapshot before, after;
  std::vector<obs::MetricsSnapshot> shards_before, shards_after;
  obs::MetricsSnapshot server;
  std::uint64_t stream_hash = 0;
  double restart_s = 0, flush_s = 0, recover_s = 0;
  std::uint64_t recovery_pages_read = 0;
  std::uint64_t readback_attempted = 0, readback_failed = 0;
  double space_amp = 0;
  double erase_spread = 0;
  std::uint64_t erases_total = 0;  ///< block erases since the device opened
  std::uint64_t free_blocks_end = 0;
  double lookup_ns = 0;
  double peak_rss_mb = 0;
  std::uint64_t budget = 0;
};

constexpr int kSetups = 7;
constexpr int kRestarts = 5;
constexpr int kMaxRestarts = 200;

/// Sets up, runs `seconds` worth of the op budget, restarts and reads
/// every key back.
RunResult run_once(const Spec& s, const Args& a, double seconds, bool traced,
                   Tracer& tr) {
  RunResult r;
  r.budget = std::max<std::uint64_t>(
      1000, static_cast<std::uint64_t>(s.ops_per_s * seconds));
  Rig rig;
  Model model(s.keys);
  // Set-up several times; the last device is the one measured.
  for (int i = 0; i < kSetups; ++i) {
    rig.dev.reset();
    Model fresh(s.keys);
    r.setup_s.push_back(setup(s, a.seed, rig, fresh));
    model = std::move(fresh);
  }
  r.before = rig.dev->metrics_snapshot();
  if (rig.array != nullptr) r.shards_before = rig.array->shard_metrics_snapshots();
  r.phase.plant = a.plant;
  tr.on = traced;
  if (s.wire) {
    net::ServerConfig cfg;
    cfg.num_workers = 1;
    net::KvServer server(*rig.dev, cfg);
    if (!ok(server.start())) die("server start failed");
    run_wire(s, server.port(), model, a.seed, r.budget, seconds, r.phase, tr,
             &r.stream_hash);
    r.server = server.metrics_snapshot();
    server.stop();
  } else {
    OpStream ops(s, a.seed);
    run_facade(s, rig, model, ops, r.budget, seconds, r.phase, tr);
    r.stream_hash = ops.hash();
  }
  tr.on = false;
  while (rig.dev->backend().drain() != 0) {
  }
  r.after = rig.dev->metrics_snapshot();
  if (rig.array != nullptr) r.shards_after = rig.array->shard_metrics_snapshots();

  // Space and wear at the end of the measured phase.
  double used_bytes = 0;
  double max_spread = 0;
  std::uint64_t free_min = UINT64_MAX;
  rig.each_device([&](kvssd::KvssdDevice& d) {
    const auto& geo = d.nand().geometry();
    const std::uint32_t free_blocks = d.allocator().free_blocks();
    free_min = std::min<std::uint64_t>(free_min, free_blocks);
    used_bytes += static_cast<double>(geo.num_blocks - free_blocks) *
                  static_cast<double>(geo.block_bytes());
    std::uint64_t sum = 0;
    std::uint32_t mx = 0;
    for (std::uint32_t b = 0; b < geo.num_blocks; ++b) {
      sum += d.nand().erase_count(b);
      mx = std::max(mx, d.nand().erase_count(b));
    }
    r.erases_total += sum;
    const double mean = static_cast<double>(sum) / geo.num_blocks;
    if (mean > 0) max_spread = std::max(max_spread, mx / mean);
  });
  r.erase_spread = max_spread;
  r.free_blocks_end = free_min;
  r.space_amp = ratio(used_bytes, static_cast<double>(r.after.gauge("device.live_bytes")));

  // Traced run: time IIndex::lookup on the quiescent device for a sample
  // of the workload's keys.
  if (traced) {
    OpStream sample(s, a.seed ^ 0x6c6b7570ULL);
    const std::uint64_t n = std::min<std::uint64_t>(20'000, s.keys);
    double total = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const Bytes key = device_key(s, sample.next().id);
      kvssd::KvssdDevice& d = rig.device_of(key);
      const std::uint64_t sig = d.signature(key);
      const std::uint64_t t0 = now_ns();
      const auto found = d.index().lookup(sig);
      const std::uint64_t t1 = now_ns();
      if (!found) die("index lookup failed");
      tr.add(kSpanLookup, t0, t1);
      total += static_cast<double>(t1 - t0);
    }
    r.lookup_ns = ratio(total, static_cast<double>(n));
  }

  // Restart: flush (+ checkpoint where enabled) and recover, at least
  // kRestarts times and for at least a second (restart_s is the median);
  // then every key is read back against the model. The per-layer split
  // is the first cycle's.
  // Peak memory before the restarts, whose count depends on host speed.
  r.peak_rss_mb = peak_rss_mb();
  const std::uint64_t restart_start = now_ns();
  for (int i = 0; i < kRestarts || (i < kMaxRestarts && now_ns() - restart_start < 1'000'000'000);
       ++i) {
    const std::uint64_t t0 = now_ns();
    const api::KvsResult fr = rig.dev->flush();
    if (fr != api::KvsResult::KVS_SUCCESS) die("flush failed: %s", api::to_string(fr));
    if (s.checkpoints) {
      const api::KvsResult cr = rig.dev->checkpoint();
      if (cr != api::KvsResult::KVS_SUCCESS) die("checkpoint failed: %s", api::to_string(cr));
    }
    const std::uint64_t t1 = now_ns();
    const api::KvsResult rr = rig.dev->recover();
    if (rr != api::KvsResult::KVS_SUCCESS) die("recover failed: %s", api::to_string(rr));
    const std::uint64_t t2 = now_ns();
    rig.bind();
    if (i == 0) {
      r.flush_s = static_cast<double>(t1 - t0) * 1e-9;
      r.recover_s = static_cast<double>(t2 - t1) * 1e-9;
      r.recovery_pages_read = rig.dev->metrics_snapshot().counter("recovery.pages_read");
    }
    r.restarts_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
  r.restart_s = median(r.restarts_s);
  const auto [att, fail] = read_back(s, rig, model);
  r.readback_attempted = att;
  r.readback_failed = fail;
  return r;
}

/// A latency percentile in microseconds: the median over the windows of
/// each window's percentile when every window holds at least 1000
/// samples (a p99 then has 10 beyond it in each), else the percentile
/// over the whole phase.
double latency_us(const Phase& p, Kind kind, double pct) {
  auto pick = [kind](const Chunk& c) -> const Histogram& {
    return kind == Kind::kGet ? c.get_lat : c.put_lat;
  };
  std::vector<double> v;
  for (const Chunk& c : p.chunks) {
    if (c.rate <= 0) continue;
    if (pick(c).count() < 1000) {
      const Histogram& all = kind == Kind::kGet ? p.get_lat : p.put_lat;
      return all.percentile(pct) / 1000.0;
    }
    v.push_back(pick(c).percentile(pct));
  }
  return median(v) / 1000.0;
}

/// Wall-clock throughput: the median over the finished windows.
double ops_per_s(const Phase& p) {
  std::vector<double> v;
  for (const Chunk& c : p.chunks) {
    if (c.rate > 0) v.push_back(c.rate);
  }
  return median(v);
}

std::uint64_t ops_of(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b) {
  return (b.counter("device.gets") - a.counter("device.gets")) +
         (b.counter("device.puts") - a.counter("device.puts")) +
         (b.counter("device.deletes") - a.counter("device.deletes"));
}

/// Regime guards: a breach stops the run before any number is printed.
void check_regime(const Spec& s, const RunResult& r, const Delta& d) {
  if (s.name == "read_cold") {
    if (r.erases_total != 0) die("regime breach: read_cold erased blocks");
    const double miss = d.c("cache.misses");
    if (miss <= 0) die("regime breach: read_cold saw no cache misses");
  }
  if (s.name == "read_hot" || s.name == "churn_small") {
    if (d.c("index.flash_reads") != 0) {
      const std::string what =
          std::to_string(static_cast<std::uint64_t>(d.c("index.flash_reads"))) +
          " index flash reads on " + s.name;
      die("regime breach: %s", what.c_str());
    }
  }
  if (s.name == "churn_small" && d.c("gc.pairs_relocated") <= 0) {
    die("regime breach: churn_small relocated no pairs");
  }
}

double us(double ns) { return ns / 1000.0; }

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for %s", argv[i]);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(val().c_str(), nullptr);
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--scale") a.tiny = val() == "tiny";
    else if (k == "--plant-bad") a.plant = true;
    else if (k == "--out-dir") a.out_dir = val();
    else die("unknown argument %s", argv[i]);
  }
  if (a.workload.empty()) die("--workload is required");
  if (!(a.seconds > 0)) die("--seconds must be positive");
  const Spec s = make_spec(a.workload, a.tiny);

  const unsigned nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("host {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"simd\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
              "\"scale\": \"%s\"}\n",
              nproc, PERFBENCH_BUILD_TYPE, compiler_id().c_str(),
              hash::HopscotchTable::simd_backend(),
              static_cast<unsigned long long>(a.seed), s.name.c_str(),
              a.tiny ? "tiny" : "full");
  std::fflush(stdout);

  Tracer tr;
  double untraced_ops_s = 0;
  if (a.trace) {
    // The untraced reference for the tracing overhead.
    Tracer off;
    const RunResult ref = run_once(s, a, a.seconds / 2, false, off);
    untraced_ops_s = ops_per_s(ref.phase);
  }
  const RunResult r = run_once(s, a, a.trace ? a.seconds / 2 : a.seconds, a.trace, tr);
  const Phase& p = r.phase;
  const Delta d{r.before, r.after};
  check_regime(s, r, d);

  const double ops = static_cast<double>(p.gets + p.puts + p.dels);
  const double dev_ops = static_cast<double>(ops_of(r.before, r.after));
  const double dev_ns = d.g("clock.now_ns");
  const Histogram dev_get = d.t("op.get.total_ns");
  const Histogram dev_put = d.t("op.put.total_ns");
  const double ops_s = ops_per_s(p);
  const double write_amp =
      ratio(d.c("nand.bytes_programmed"), static_cast<double>(p.user_put_bytes));

  std::vector<Metric> out;
  if (!a.trace) {
    out = {
        {"setup_s", median(r.setup_s), "s"},
        {"ops_per_s", ops_s, "ops/s"},
        {"get_p50_us", latency_us(p, Kind::kGet, 50), "us"},
        {"get_p99_us", latency_us(p, Kind::kGet, 99), "us"},
        {"put_p50_us", latency_us(p, Kind::kPut, 50), "us"},
        {"put_p99_us", latency_us(p, Kind::kPut, 99), "us"},
        {"dev_ops_per_s", ratio(dev_ops, dev_ns * 1e-9), "ops/s"},
        {"dev_get_p99_us", us(dev_get.percentile(99)), "us"},
        {"dev_put_p99_us", us(dev_put.percentile(99)), "us"},
        {"write_amp", write_amp, "ratio"},
        {"space_amp", r.space_amp, "ratio"},
        {"restart_s", r.restart_s, "s"},
        {"peak_rss_mb", r.peak_rss_mb, "MiB"},
    };
  } else {
    double imbalance = 1.0;
    if (!r.shards_after.empty()) {
      double max = 0;
      double sum = 0;
      for (std::size_t i = 0; i < r.shards_after.size(); ++i) {
        const auto n = static_cast<double>(ops_of(r.shards_before[i], r.shards_after[i]));
        max = std::max(max, n);
        sum += n;
      }
      imbalance = ratio(max, sum / static_cast<double>(r.shards_after.size()));
    }
    const double dev_gets = d.c("device.gets");
    const double dev_puts = d.c("device.puts");
    auto tsum = [&](const char* stage) {
      double v = 0;
      for (const char* op : {"get", "put", "del"}) {
        v += static_cast<double>(d.t(std::string("op.") + op + "." + stage).sum());
      }
      return v;
    };
    const double kops = ops / 1000.0;
    const double nreq = static_cast<double>(r.server.counter("net.requests"));
    const double nresp = static_cast<double>(r.server.counter("net.responses"));
    out = {
        {"api.submit_ns", ratio(tr.total_ns[kSpanSubmit], ops), "ns"},
        {"api.poll_ns", ratio(tr.total_ns[kSpanPoll], ops), "ns"},
        {"api.completions_per_poll", ratio(ops, static_cast<double>(tr.count[kSpanPoll])), "count"},
        {"cpu.caller_ns", ratio(p.caller_cpu_s * 1e9, ops), "ns"},
        {"cpu.background_ns", ratio(std::max(0.0, p.process_cpu_s - p.caller_cpu_s) * 1e9, ops), "ns"},
        {"frontend.barriers", ratio(d.c("frontend.barriers"), kops), "1/kop"},
        {"shard.op_imbalance", imbalance, "ratio"},
        {"dev.queue_ns_p99", d.t("op.get.queue_ns").percentile(99), "ns"},
        {"index.flash_reads_per_get", ratio(d.t("op.get.index_flash_reads").sum(), dev_gets), "1/op"},
        {"index.reads_per_lookup_max", static_cast<double>(d.t("index.reads_per_lookup").max()), "count"},
        {"dev.index_ns", ratio(tsum("index_ns"), dev_ops), "ns"},
        {"index.flash_writes_per_put", ratio(d.c("index.flash_writes"), dev_puts), "1/op"},
        {"index.lookup_ns", r.lookup_ns, "ns"},
        {"cache.miss_ratio", ratio(d.c("cache.misses"), d.c("cache.misses") + d.c("cache.hits")), "ratio"},
        {"cache.evictions", ratio(d.c("cache.evictions"), dev_ops), "1/op"},
        {"cache.dirty_writebacks", ratio(d.c("cache.dirty_writebacks"), dev_ops), "1/op"},
        {"gc.pairs_relocated_per_put", ratio(d.c("gc.pairs_relocated"), dev_puts), "1/op"},
        {"gc.background_quanta", ratio(d.c("gc.background_quanta"), kops), "1/kop"},
        {"gc.runs", ratio(d.c("gc.runs"), kops), "1/kop"},
        {"dev.gc_ns", ratio(tsum("gc_ns"), dev_ops), "ns"},
        {"store.pairs_read_per_get", ratio(d.c("store.pairs_read"), dev_gets), "1/op"},
        {"ftl.free_blocks_min", static_cast<double>(std::min(p.free_blocks_min, r.free_blocks_end)), "count"},
        {"nand.page_reads", ratio(d.c("nand.page_reads"), kops), "1/kop"},
        {"nand.page_programs", ratio(d.c("nand.page_programs"), kops), "1/kop"},
        {"nand.block_erases", ratio(d.c("nand.block_erases"), kops), "1/kop"},
        {"dev.flash_ns", ratio(tsum("flash_ns"), dev_ops), "ns"},
        {"nand.erase_spread", r.erase_spread, "ratio"},
        {"net.client_flush_ns", ratio(tr.total_ns[kSpanFlush], ops), "ns"},
        {"net.client_recv_ns", ratio(tr.total_ns[kSpanRecv], ops), "ns"},
        {"net.requests_per_recv_call", ratio(nreq, static_cast<double>(r.server.counter("net.recv_calls"))), "ratio"},
        {"net.responses_per_send_call", ratio(nresp, static_cast<double>(r.server.counter("net.send_calls"))), "ratio"},
        {"recovery.pages_read", static_cast<double>(r.recovery_pages_read), "count"},
        {"restart.flush_s", r.flush_s, "s"},
        {"restart.recover_s", r.recover_s, "s"},
        {"trace.ops_per_s", ops_s, "ops/s"},
        {"trace.untraced_ops_per_s", untraced_ops_s, "ops/s"},
        {"trace.overhead", ratio(untraced_ops_s - ops_s, untraced_ops_s), "ratio"},
    };
  }

  // Detail line: sample counts and the raw counters the self-test
  // compares across runs.
  std::printf("detail {\"budget\": %llu, \"wall_s\": %s, \"get_samples\": %llu, "
              "\"put_samples\": %llu, \"del_samples\": %llu, \"stream_hash\": %llu, "
              "\"readback\": %llu, \"readback_failed\": %llu, \"dev_clock_ns\": %s, "
              "\"dev_get_p99_ns\": %s, \"dev_put_p99_ns\": %s, \"space_amp\": %s, "
              "\"write_amp\": %s, ",
              static_cast<unsigned long long>(r.budget), json_num(p.wall_s).c_str(),
              static_cast<unsigned long long>(p.gets),
              static_cast<unsigned long long>(p.puts),
              static_cast<unsigned long long>(p.dels),
              static_cast<unsigned long long>(r.stream_hash),
              static_cast<unsigned long long>(r.readback_attempted),
              static_cast<unsigned long long>(r.readback_failed),
              json_num(dev_ns).c_str(), json_num(dev_get.percentile(99)).c_str(),
              json_num(dev_put.percentile(99)).c_str(), json_num(r.space_amp).c_str(),
              json_num(write_amp).c_str());
  auto print_list = [](const char* name, const std::vector<double>& v) {
    std::printf("\"%s\": [", name);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", json_num(v[i]).c_str());
    }
    std::printf("], ");
  };
  print_list("setup_s", r.setup_s);
  print_list("restart_s", r.restarts_s);
  std::printf("\"chunks\": [");
  for (std::size_t i = 0; i + 1 < p.chunks.size(); ++i) {
    const Chunk& c = p.chunks[i];
    std::printf("%s[%.1f, %.1f, %.1f, %.1f, %.1f]", i ? ", " : "", c.rate,
                c.get_lat.percentile(50), c.get_lat.percentile(99),
                c.put_lat.percentile(50), c.put_lat.percentile(99));
  }
  std::printf("], \"counters\": {");
  bool first = true;
  for (const auto& [name, v] : r.after.counters) {
    if (name.rfind("frontend.", 0) == 0 || name.rfind("trace.", 0) == 0) continue;
    std::printf("%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                static_cast<unsigned long long>(v - r.before.counter(name)));
    first = false;
  }
  std::printf("}}\n");

  if (a.trace) {
    // Spans are written once, at the end: the first 50k in full (every
    // span is aggregated into the metrics above).
    const std::string path = a.out_dir + "/trace-" + s.name + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\"metrics\": %s}\n", metrics_json(out).c_str());
      const std::size_t n = std::min<std::size_t>(tr.spans.size(), 50'000);
      for (std::size_t i = 0; i < n; ++i) {
        const Span& sp = tr.spans[i];
        std::fprintf(f, "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                     "\"req\": %llu, \"parent\": %lld}\n",
                     i, kSpanNames[sp.name], static_cast<unsigned long long>(sp.start),
                     static_cast<unsigned long long>(sp.end),
                     static_cast<unsigned long long>(sp.req),
                     static_cast<long long>(sp.parent));
      }
      std::fclose(f);
    } else {
      die("cannot write %s", path.c_str());
    }
  }

  const std::uint64_t attempted = p.attempted + r.readback_attempted;
  const std::uint64_t failed = p.failed + r.readback_failed;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(out).c_str());
  return 0;
}
