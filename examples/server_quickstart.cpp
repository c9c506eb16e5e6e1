// Serving-layer quickstart: start net::KvServer over a sharded device,
// connect two tenants with net::KvClient, and show namespaces, quota
// rejection (KVS_ERR_QUEUE_FULL) and pipelined out-of-order responses.
//
//   $ ./server_quickstart
#include <cstdio>
#include <string>
#include <vector>

#include "api/kvs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

int main() {
  using namespace rhik;

  // A 2-shard emulated array behind the server. enable_iterator turns on
  // the §VI prefix-signature scan that backs the ITER opcode.
  api::KvsDeviceOptions opts;
  opts.capacity_bytes = 256ull << 20;
  opts.num_shards = 2;
  opts.anticipated_keys = 10'000;
  opts.enable_iterator = true;
  api::KvsDevice dev(opts);

  // Ephemeral port.
  net::ServerConfig scfg;
  scfg.port = 0;
  net::KvServer server(dev, scfg);
  if (server.start() != Status::kOk) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  // Tenant 7 gets a deliberately tiny quota so we can watch the token
  // bucket reject; tenant 1 is unlimited.
  net::TenantConfig quota;
  quota.ops_per_sec = 5;
  quota.burst = 3;
  server.tenants().configure(7, quota, net::KvServer::wall_now_ns());

  // -- Tenant 1: blocking verbs ----------------------------------------------
  net::KvClient::Options copts;
  copts.tenant_id = 1;
  net::KvClient c1(copts);
  if (c1.connect("127.0.0.1", server.port()) != Status::kOk) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  c1.put("user:1001", "alice");
  c1.put("user:1002", "bob");
  Bytes value;
  if (c1.get("user:1001", &value) == api::KvsResult::KVS_SUCCESS) {
    std::printf("tenant 1: user:1001 -> %s\n", to_string(value).c_str());
  }

  // -- Tenant namespaces are disjoint ----------------------------------------
  // The same key through a different tenant is a different device key
  // (the server prefixes every key with the 4-byte tenant id).
  net::KvClient::Options o2;
  o2.tenant_id = 2;
  net::KvClient c2(o2);
  c2.connect("127.0.0.1", server.port());
  Bytes unused;
  std::printf("tenant 2: get(user:1001) = %s (disjoint namespace)\n",
              api::to_string(c2.get("user:1001", &unused)));

  // -- Pipelining: submit a batch, match responses by request id -------------
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(
        c1.submit_put("post:" + std::to_string(i), "body " + std::to_string(i)));
  }
  c1.flush();  // one write for the whole batch
  for (const std::uint64_t id : ids) {
    net::ResponseFrame f;
    if (c1.wait_for(id, &f) != Status::kOk ||
        f.status != api::KvsResult::KVS_SUCCESS) {
      std::fprintf(stderr, "pipelined put %llu failed\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }
  std::vector<std::string> keys;
  if (c1.iterate("post:", 0, &keys) == api::KvsResult::KVS_SUCCESS) {
    std::printf("tenant 1: %zu keys under post:\n", keys.size());
  }

  // -- Tenant 7: watch the quota bite ----------------------------------------
  net::KvClient::Options o7;
  o7.tenant_id = 7;
  net::KvClient c7(o7);
  c7.connect("127.0.0.1", server.port());
  int ok = 0, throttled = 0;
  for (int i = 0; i < 10; ++i) {
    const api::KvsResult r = c7.put("burst:" + std::to_string(i), "x");
    if (r == api::KvsResult::KVS_ERR_QUEUE_FULL) {
      throttled++;  // retryable by contract: back off and resubmit
    } else if (r == api::KvsResult::KVS_SUCCESS) {
      ok++;
    }
  }
  std::printf("tenant 7 (5 ops/s, burst 3): %d ok, %d KVS_ERR_QUEUE_FULL\n",
              ok, throttled);

  // -- Server-side metrics ----------------------------------------------------
  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  std::printf("net.requests=%llu net.throttled=%llu net.connections=%lld\n",
              static_cast<unsigned long long>(snap.counter("net.requests")),
              static_cast<unsigned long long>(snap.counter("net.throttled")),
              static_cast<long long>(snap.gauge("net.connections")));

  c1.close();
  c2.close();
  c7.close();
  server.stop();
  return 0;
}
