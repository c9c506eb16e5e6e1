// End-to-end tests for the serving layer (net/server.hpp): real sockets
// over loopback, a real api::KvsDevice behind the server. Covers the
// verb set, pipelining, tenant isolation + quotas, admission control,
// graceful shutdown draining, and the killed-client path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/kvs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"

namespace rhik::net {
namespace {

using api::KvsResult;

api::KvsDeviceOptions small_opts() {
  api::KvsDeviceOptions opts;
  opts.capacity_bytes = 64ull << 20;
  opts.dram_cache_bytes = 1 << 20;
  opts.enable_iterator = true;
  return opts;
}

struct ServerFixture {
  explicit ServerFixture(api::KvsDeviceOptions dopts = small_opts(),
                         ServerConfig scfg = {})
      : dev(dopts), server(dev, scfg) {
    EXPECT_EQ(server.start(), Status::kOk);
  }
  ~ServerFixture() { server.stop(); }
  KvClient client(std::uint32_t tenant = 0) {
    KvClient::Options copts;
    copts.tenant_id = tenant;
    KvClient c(copts);
    EXPECT_EQ(c.connect("127.0.0.1", server.port()), Status::kOk);
    return c;
  }
  api::KvsDevice dev;
  KvServer server;
};

TEST(NetServer, PutGetDelIterRoundTrip) {
  ServerFixture fx;
  KvClient c = fx.client();
  EXPECT_EQ(c.put("user:1", "alice"), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(c.put("user:2", "bob"), KvsResult::KVS_SUCCESS);
  Bytes v;
  EXPECT_EQ(c.get("user:1", &v), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(v), "alice");
  EXPECT_EQ(c.get("ghost", &v), KvsResult::KVS_ERR_KEY_NOT_EXIST);

  std::vector<std::string> keys;
  EXPECT_EQ(c.iterate("user:", 0, &keys), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys[0], "user:1");

  EXPECT_EQ(c.del("user:1"), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(c.get("user:1", &v), KvsResult::KVS_ERR_KEY_NOT_EXIST);
  EXPECT_EQ(c.del("user:1"), KvsResult::KVS_ERR_KEY_NOT_EXIST);
}

TEST(NetServer, EmptyAndOversizedKeysRejected) {
  ServerFixture fx;
  KvClient c = fx.client();
  EXPECT_EQ(c.put("", "v"), KvsResult::KVS_ERR_KEY_LENGTH_INVALID);
  // 255 minus the 4-byte tenant prefix is the ceiling; one over fails.
  const std::string long_key(252, 'k');
  EXPECT_EQ(c.put(long_key, "v"), KvsResult::KVS_ERR_KEY_LENGTH_INVALID);
  EXPECT_EQ(c.put(std::string(251, 'k'), "v"), KvsResult::KVS_SUCCESS);
}

// Regression: requests that cannot be framed fail per-call on the
// client — they used to be encoded anyway, either killing the
// connection (key > wire max_key_len → server kTooLarge) or desyncing
// the stream (key > 65535 → u16 header truncation with all key bytes
// appended).
TEST(NetServer, ClientRejectsUnframeableRequestsPerCall) {
  ServerFixture fx;
  KvClient c = fx.client();
  // Over the wire key limit (default 1024) but within the u16 field.
  EXPECT_EQ(c.put(std::string(2000, 'k'), "v"),
            KvsResult::KVS_ERR_KEY_LENGTH_INVALID);
  // Over the u16 key-len field width.
  EXPECT_EQ(c.put(std::string(70000, 'k'), "v"),
            KvsResult::KVS_ERR_KEY_LENGTH_INVALID);
  // Over the wire value limit (default 4 MiB).
  EXPECT_EQ(c.put("k", std::string((4u << 20) + 1, 'v')),
            KvsResult::KVS_ERR_VALUE_LENGTH_INVALID);
  // Pipelined submits return the 0 sentinel and encode nothing.
  EXPECT_EQ(c.submit_put(std::string(70000, 'k'), "v"), 0u);
  EXPECT_EQ(c.flush(), Status::kOk);  // empty batch: nothing was queued
  // The connection survives every rejection.
  EXPECT_EQ(c.put("alive", "yes"), KvsResult::KVS_SUCCESS);
  Bytes v;
  EXPECT_EQ(c.get("alive", &v), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(v), "yes");
}

TEST(NetServer, PipelinedBatchAllAnswered) {
  ServerFixture fx;
  KvClient c = fx.client();
  constexpr int kN = 200;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(c.submit_put("p:" + std::to_string(i),
                               "v" + std::to_string(i)));
  }
  ASSERT_EQ(c.flush(), Status::kOk);
  // Responses may arrive out of order; every id must be answered once.
  std::vector<bool> seen(static_cast<std::size_t>(kN), false);
  for (int i = 0; i < kN; ++i) {
    ResponseFrame f;
    ASSERT_EQ(c.recv_response(&f), Status::kOk);
    EXPECT_EQ(f.status, KvsResult::KVS_SUCCESS);
    const auto it = std::find(ids.begin(), ids.end(), f.request_id);
    ASSERT_NE(it, ids.end());
    const auto idx = static_cast<std::size_t>(it - ids.begin());
    EXPECT_FALSE(seen[idx]) << "double-delivered id " << f.request_id;
    seen[idx] = true;
  }
  // Reads verify the writes landed.
  Bytes v;
  EXPECT_EQ(c.get("p:137", &v), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(v), "v137");
}

TEST(NetServer, TenantNamespacesAreIsolated) {
  ServerFixture fx;
  KvClient alice = fx.client(1);
  KvClient bob = fx.client(2);
  EXPECT_EQ(alice.put("shared-name", "alice-data"), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(bob.put("shared-name", "bob-data"), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(bob.put("bob-only", "x"), KvsResult::KVS_SUCCESS);

  Bytes v;
  ASSERT_EQ(alice.get("shared-name", &v), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(v), "alice-data");
  ASSERT_EQ(bob.get("shared-name", &v), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(rhik::to_string(v), "bob-data");
  EXPECT_EQ(alice.get("bob-only", &v), KvsResult::KVS_ERR_KEY_NOT_EXIST);

  // Iteration cannot enumerate across the namespace boundary either.
  std::vector<std::string> keys;
  ASSERT_EQ(alice.iterate("", 0, &keys), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], "shared-name");
  ASSERT_EQ(bob.iterate("", 0, &keys), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(NetServer, IterateSortedOverShardedBackend) {
  api::KvsDeviceOptions dopts = small_opts();
  dopts.capacity_bytes = 1ull << 30;
  dopts.num_shards = 4;
  ServerFixture fx(dopts);
  ASSERT_TRUE(fx.dev.sharded());
  KvClient c = fx.client(7);
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(c.put("it:" + std::to_string(i), "v"), KvsResult::KVS_SUCCESS);
  }
  std::vector<std::string> keys;
  ASSERT_EQ(c.iterate("it:", 0, &keys), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(keys.size(), 32u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // The limit caps the response; sortedness makes the cut deterministic.
  ASSERT_EQ(c.iterate("it:", 5, &keys), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(keys.size(), 5u);
  EXPECT_EQ(keys[0], "it:0");
}

TEST(NetServer, UnknownTenantRejectedWhenDisallowed) {
  ServerConfig scfg;
  scfg.allow_unknown_tenants = false;
  ServerFixture fx(small_opts(), scfg);
  fx.server.tenants().configure(1, {}, KvServer::wall_now_ns());
  KvClient known = fx.client(1);
  KvClient unknown = fx.client(99);
  EXPECT_EQ(known.put("k", "v"), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(unknown.put("k", "v"), KvsResult::KVS_ERR_OPTION_INVALID);
}

TEST(NetServer, RateLimitedTenantSeesQueueFullThenRecovers) {
  ServerFixture fx;
  TenantConfig quota;
  quota.ops_per_sec = 50;
  quota.burst = 10;
  fx.server.tenants().configure(3, quota, KvServer::wall_now_ns());
  KvClient c = fx.client(3);

  int ok = 0, throttled = 0;
  for (int i = 0; i < 60; ++i) {
    const KvsResult r = c.put("rl:" + std::to_string(i), "v");
    if (r == KvsResult::KVS_SUCCESS) ok++;
    else if (r == KvsResult::KVS_ERR_QUEUE_FULL) throttled++;
    else FAIL() << "unexpected status " << api::to_string(r);
  }
  // Burst of 10 plus whatever refills during the loop — far below 60.
  EXPECT_GE(ok, 10);
  EXPECT_GT(throttled, 0);

  // QUEUE_FULL is retryable by contract: after a refill interval the
  // same request succeeds.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(c.put("rl:retry", "v"), KvsResult::KVS_SUCCESS);

  const auto snap = fx.server.metrics_snapshot();
  EXPECT_EQ(snap.counter("net.tenant.3.throttled"),
            static_cast<std::uint64_t>(throttled));
  EXPECT_GT(snap.counter("net.throttled"), 0u);
}

TEST(NetServer, AdmissionCapAnswersEveryRequest) {
  ServerConfig scfg;
  scfg.max_conn_inflight = 4;  // tiny pipeline budget
  ServerFixture fx(small_opts(), scfg);
  KvClient c = fx.client();
  constexpr int kN = 64;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(c.submit_put("adm:" + std::to_string(i), "v"));
  }
  ASSERT_EQ(c.flush(), Status::kOk);
  int ok = 0, rejected = 0;
  for (int i = 0; i < kN; ++i) {
    ResponseFrame f;
    ASSERT_EQ(c.recv_response(&f), Status::kOk) << "lost response " << i;
    if (f.status == KvsResult::KVS_SUCCESS) ok++;
    else if (f.status == KvsResult::KVS_ERR_QUEUE_FULL) rejected++;
    else FAIL() << "unexpected status " << api::to_string(f.status);
  }
  // Over-limit requests are rejected loudly, never dropped: all kN
  // answered, successes + rejections account for every one.
  EXPECT_EQ(ok + rejected, kN);
  EXPECT_GT(ok, 0);
  if (rejected > 0) {
    EXPECT_GT(fx.server.metrics_snapshot().counter("net.admission_rejects"),
              0u);
  }
}

TEST(NetServer, StatusOpcodeReturnsParseableSnapshot) {
  ServerFixture fx;
  KvClient c = fx.client(5);
  ASSERT_EQ(c.put("s:1", "v"), KvsResult::KVS_SUCCESS);
  std::string json;
  ASSERT_EQ(c.status_json(&json), KvsResult::KVS_SUCCESS);
  auto snap = obs::MetricsSnapshot::from_json(json);
  ASSERT_TRUE(snap.has_value()) << json.substr(0, 200);
  EXPECT_GT(snap->counter("net.requests"), 0u);
  EXPECT_GT(snap->counter("net.tenant.5.ops"), 0u);
  EXPECT_GT(snap->counter("net.tenant.5.bytes"), 0u);
  const Histogram* lat = snap->timer("net.tenant.5.latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->count(), 0u);
}

TEST(NetServer, GracefulStopDrainsPipelinedResponses) {
  ServerFixture fx;
  KvClient c = fx.client();
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    c.submit_put("drain:" + std::to_string(i), std::string(128, 'x'));
  }
  ASSERT_EQ(c.flush(), Status::kOk);
  // Wait until the server has admitted the whole batch — requests still
  // sitting unread in the socket when stop() lands are not in-flight
  // and carry no drain guarantee.
  while (fx.server.metrics_snapshot().counter("net.requests") <
         static_cast<std::uint64_t>(kN)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Stop while the batch is in flight: stop() must harvest and deliver
  // every completion before any socket closes.
  std::thread stopper([&] { fx.server.stop(); });
  int answered = 0;
  for (int i = 0; i < kN; ++i) {
    ResponseFrame f;
    if (c.recv_response(&f) != Status::kOk) break;
    EXPECT_EQ(f.status, KvsResult::KVS_SUCCESS);
    answered++;
  }
  stopper.join();
  EXPECT_EQ(answered, kN) << "graceful stop lost responses";
}

TEST(NetServer, KilledClientMidPipelineLeavesServerHealthy) {
  ServerFixture fx;
  {
    KvClient doomed = fx.client();
    for (int i = 0; i < 256; ++i) {
      doomed.submit_put("kill:" + std::to_string(i), std::string(256, 'y'));
    }
    ASSERT_EQ(doomed.flush(), Status::kOk);
    // Destructor closes the socket with every response undelivered.
  }
  // The server must reap the in-flight completions (exactly once, to
  // nobody) and keep serving. Wait for the in-flight gauge to drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    if (fx.server.metrics_snapshot().gauge("net.inflight") == 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "in-flight commands never drained after client death";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  KvClient c = fx.client();
  EXPECT_EQ(c.put("alive", "yes"), KvsResult::KVS_SUCCESS);
  Bytes v;
  EXPECT_EQ(c.get("alive", &v), KvsResult::KVS_SUCCESS);
  // The doomed writes themselves still executed — admission happened
  // before the client died; only delivery was impossible.
  EXPECT_EQ(c.get("ghost", &v), KvsResult::KVS_ERR_KEY_NOT_EXIST);
}

TEST(NetServer, StartRejectsMoreThanOneLoop) {
  // One event loop owns every connection; num_workers is fixed at 1.
  api::KvsDevice dev(small_opts());
  ServerConfig scfg;
  scfg.num_workers = 2;
  KvServer server(dev, scfg);
  EXPECT_EQ(server.start(), Status::kInvalidArgument);
  EXPECT_FALSE(server.running());
}

TEST(NetServer, ConcurrentClientsMixedOps) {
  // Four clients against the one loop over a 2-shard array: completions
  // arrive from both shard workers while requests keep arriving.
  api::KvsDeviceOptions dopts = small_opts();
  dopts.capacity_bytes = 1ull << 30;
  dopts.num_shards = 2;
  ServerFixture fx(dopts);
  constexpr int kThreads = 4;
  constexpr int kOpsPer = 150;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KvClient::Options copts;
      copts.tenant_id = static_cast<std::uint32_t>(t % 2);
      KvClient c(copts);
      if (c.connect("127.0.0.1", fx.server.port()) != Status::kOk) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPer; ++i) {
        const std::string key = "t" + std::to_string(t) + ":" +
                                std::to_string(i % 37);
        KvsResult r = c.put(key, "v" + std::to_string(i));
        if (r != KvsResult::KVS_SUCCESS) failures.fetch_add(1);
        Bytes v;
        r = c.get(key, &v);
        if (r != KvsResult::KVS_SUCCESS) failures.fetch_add(1);
        if (i % 7 == 0 && c.del(key) != KvsResult::KVS_SUCCESS) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto snap = fx.server.metrics_snapshot();
  EXPECT_GE(snap.counter("net.requests"),
            static_cast<std::uint64_t>(kThreads * kOpsPer * 2));
  EXPECT_EQ(snap.counter("net.decode_errors"), 0u);
}

// -- Cursored scans (ITER_OPEN / ITER_NEXT / ITER_CLOSE) -----------------------

TEST(NetServerCursor, StreamsBeyondOneShotCeiling) {
  // Regression for the one-shot ITER truncation bug: with an 8-key
  // per-response ceiling a 30-key scan used to silently return 8.
  ServerConfig scfg;
  scfg.max_iter_keys = 8;
  ServerFixture fx(small_opts(), scfg);
  KvClient c = fx.client(1);
  std::vector<std::string> expect;
  for (int i = 0; i < 30; ++i) {
    const std::string k = "big:" + std::to_string(i);
    ASSERT_EQ(c.put(k, "v"), KvsResult::KVS_SUCCESS);
    expect.push_back(k);
  }
  std::sort(expect.begin(), expect.end());
  // The collect-all wrapper drains the cursor past the ceiling.
  std::vector<std::string> keys;
  ASSERT_EQ(c.iterate("big:", 0, &keys), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(keys, expect);
  // Raw cursor verbs: batches respect the ceiling, exhaustion is
  // KEY_NOT_EXIST (not an error), close succeeds.
  IterToken tok;
  ASSERT_EQ(c.iter_open("big:", &tok), KvsResult::KVS_SUCCESS);
  std::size_t total = 0;
  std::vector<std::string> batch;
  KvsResult r;
  while ((r = c.iter_next(tok, 0, &batch)) == KvsResult::KVS_SUCCESS) {
    EXPECT_LE(batch.size(), 8u);
    total += batch.size();
  }
  EXPECT_EQ(r, KvsResult::KVS_ERR_KEY_NOT_EXIST);
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(c.iter_close(tok), KvsResult::KVS_SUCCESS);
}

TEST(NetServerCursor, PinsOneEpochUnderChurn) {
  ServerFixture fx;
  KvClient c = fx.client(2);
  std::vector<std::string> expect;
  for (int i = 0; i < 12; ++i) {
    const std::string k = "chn:" + std::to_string(i);
    ASSERT_EQ(c.put(k, "v0"), KvsResult::KVS_SUCCESS);
    expect.push_back(k);
  }
  std::sort(expect.begin(), expect.end());
  IterToken tok;
  ASSERT_EQ(c.iter_open("chn:", &tok), KvsResult::KVS_SUCCESS);
  // Churn after the cursor pinned its epoch: new keys, an overwrite and
  // a delete. None of it may leak into the pinned scan.
  for (int i = 12; i < 24; ++i) {
    ASSERT_EQ(c.put("chn:" + std::to_string(i), "late"),
              KvsResult::KVS_SUCCESS);
  }
  ASSERT_EQ(c.put("chn:0", "v1"), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(c.del("chn:1"), KvsResult::KVS_SUCCESS);

  std::vector<std::string> got;
  std::vector<std::string> batch;
  KvsResult r;
  while ((r = c.iter_next(tok, 5, &batch)) == KvsResult::KVS_SUCCESS) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(r, KvsResult::KVS_ERR_KEY_NOT_EXIST);
  EXPECT_EQ(c.iter_close(tok), KvsResult::KVS_SUCCESS);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
  // A fresh scan sees the churned reality: 23 keys (24 minus the
  // deleted chn:1).
  std::vector<std::string> now;
  ASSERT_EQ(c.iterate("chn:", 0, &now), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(now.size(), 23u);
}

TEST(NetServerCursor, TokenIsConnectionScoped) {
  ServerFixture fx;
  KvClient alice = fx.client(1);
  KvClient bob = fx.client(2);
  ASSERT_EQ(alice.put("tk:1", "v"), KvsResult::KVS_SUCCESS);
  IterToken tok;
  ASSERT_EQ(alice.iter_open("tk:", &tok), KvsResult::KVS_SUCCESS);
  // Cursors are connection state: a stolen token is meaningless on
  // another connection, so it can never enumerate a foreign namespace.
  std::vector<std::string> keys;
  EXPECT_EQ(bob.iter_next(tok, 0, &keys), KvsResult::KVS_ERR_OPTION_INVALID);
  EXPECT_EQ(bob.iter_close(tok), KvsResult::KVS_ERR_OPTION_INVALID);
  // A garbage token on the owning connection is rejected the same way.
  IterToken bogus;
  bogus.cursor_id = 9999;
  bogus.epoch = tok.epoch;
  EXPECT_EQ(alice.iter_next(bogus, 0, &keys),
            KvsResult::KVS_ERR_OPTION_INVALID);
  // The real cursor is unharmed by the rejections.
  EXPECT_EQ(alice.iter_next(tok, 0, &keys), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_EQ(alice.iter_close(tok), KvsResult::KVS_SUCCESS);
}

TEST(NetServerCursor, PerConnectionCapReturnsIteratorMax) {
  ServerConfig scfg;
  scfg.max_conn_cursors = 2;
  ServerFixture fx(small_opts(), scfg);
  KvClient c = fx.client();
  ASSERT_EQ(c.put("cap:1", "v"), KvsResult::KVS_SUCCESS);
  IterToken t1, t2, t3;
  ASSERT_EQ(c.iter_open("cap:", &t1), KvsResult::KVS_SUCCESS);
  ASSERT_EQ(c.iter_open("cap:", &t2), KvsResult::KVS_SUCCESS);
  // Retryable by contract: close one and the open succeeds.
  EXPECT_EQ(c.iter_open("cap:", &t3), KvsResult::KVS_ERR_ITERATOR_MAX);
  ASSERT_EQ(c.iter_close(t1), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(c.iter_open("cap:", &t3), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(c.iter_close(t2), KvsResult::KVS_SUCCESS);
  EXPECT_EQ(c.iter_close(t3), KvsResult::KVS_SUCCESS);
}

TEST(NetServerCursor, AbandonedCursorsReapedOnDisconnect) {
  ServerFixture fx;
  {
    KvClient doomed = fx.client();
    ASSERT_EQ(doomed.put("rp:1", "v"), KvsResult::KVS_SUCCESS);
    IterToken t1, t2;
    ASSERT_EQ(doomed.iter_open("rp:", &t1), KvsResult::KVS_SUCCESS);
    ASSERT_EQ(doomed.iter_open("rp:", &t2), KvsResult::KVS_SUCCESS);
    EXPECT_EQ(fx.server.metrics_snapshot().gauge("net.cursors"), 2);
    // Destructor closes the socket with both cursors open.
  }
  // The server must reap them — an abandoned cursor would pin version
  // retention forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    if (fx.server.metrics_snapshot().gauge("net.cursors") == 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "abandoned cursors never reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto snap = fx.server.metrics_snapshot();
  EXPECT_EQ(snap.counter("net.cursors_reaped"), 2u);
  // Reaping released the snapshot pins on the device too. Read through
  // the server (backend lock): the gauge poll above does not order the
  // worker's reap against a bare dev.metrics_snapshot() from here.
  const auto dev_snap = fx.server.device_metrics();
  EXPECT_EQ(dev_snap.counter("snapshot.opened"),
            dev_snap.counter("snapshot.released"));
  EXPECT_GE(dev_snap.counter("snapshot.opened"), 2u);
}

}  // namespace
}  // namespace rhik::net
