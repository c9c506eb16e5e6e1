// Quickstart: open an emulated KVSSD through the SNIA-style API, run the
// five KV verbs, and print the device counters.
//
//   $ ./quickstart
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/kvs.hpp"

int main() {
  using rhik::api::KvsDevice;
  using rhik::api::KvsDeviceOptions;
  using rhik::api::KvsResult;

  // A 1 GiB emulated KVSSD with RHIK indexing and a prefix iterator.
  KvsDeviceOptions opts;
  opts.capacity_bytes = 1ull << 30;
  opts.anticipated_keys = 10000;  // Eq. 2 initial sizing hint
  opts.enable_iterator = true;
  KvsDevice dev(opts);

  // store / retrieve / exist / delete.
  if (dev.store("user:1001", "alice") != KvsResult::KVS_SUCCESS) {
    std::fprintf(stderr, "store failed\n");
    return 1;
  }
  dev.store("user:1002", "bob");
  dev.store("post:9", "hello kvssd");

  rhik::Bytes value;
  if (dev.retrieve("user:1001", &value) == KvsResult::KVS_SUCCESS) {
    std::printf("user:1001 -> %s\n", rhik::to_string(value).c_str());
  }
  std::printf("exist(user:1002) = %s\n",
              rhik::api::to_string(dev.exist("user:1002")));
  std::printf("exist(user:9999) = %s\n",
              rhik::api::to_string(dev.exist("user:9999")));

  // Prefix iteration (the paper's §VI iterator extension): open a
  // handle, stream keys in bounded batches until KEY_NOT_EXIST, close.
  std::uint64_t iter = 0;
  if (dev.kvs_open_iterator("user", &iter) == KvsResult::KVS_SUCCESS) {
    std::printf("keys with prefix \"user\":\n");
    std::vector<std::string> batch;
    while (dev.kvs_iterator_next(iter, 64, &batch) == KvsResult::KVS_SUCCESS) {
      for (const auto& k : batch) std::printf("  %s\n", k.c_str());
    }
    dev.kvs_close_iterator(iter);
  }

  dev.remove("post:9");
  std::printf("after remove, retrieve(post:9) = %s\n",
              rhik::api::to_string(dev.retrieve("post:9", &value)));

  // Peek under the hood — the unified metrics view works the same
  // whether the device was opened sharded or not.
  const auto snap = dev.metrics_snapshot();
  std::printf("\ndevice: %lld keys, %lld B live data, simulated time %.3f ms\n",
              static_cast<long long>(snap.gauge("device.key_count")),
              static_cast<long long>(snap.gauge("device.live_bytes")),
              static_cast<double>(snap.gauge("clock.now_ns")) / 1e6);
  std::printf("index:  capacity %lld records, dir DRAM %lld B\n",
              static_cast<long long>(snap.gauge("index.capacity")),
              static_cast<long long>(snap.gauge("index.dram_bytes")));
  return 0;
}
