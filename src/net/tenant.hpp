// Multi-tenancy for the serving layer (DESIGN.md §12).
//
// A tenant is a key-prefix namespace plus a quota. The 32-bit tenant id
// from the frame header is prepended to every user key as a fixed
// 4-byte prefix before the request reaches the backend, so tenants can
// never read or enumerate each other's keys — isolation is structural,
// not filtered. Quotas are classic token buckets over wall-clock time
// (the serving layer lives in the host's time domain, not the device's
// simulated one): `ops_per_sec` refills continuously, `burst` caps how
// far a tenant can save up. An over-quota request is answered with the
// retryable KVS_ERR_QUEUE_FULL — never silently dropped.
//
// Each tenant owns a slice of the server's MetricsRegistry:
//   net.tenant.<id>.ops         requests executed (post-admission)
//   net.tenant.<id>.bytes       key+value bytes moved (both directions)
//   net.tenant.<id>.throttled   quota rejections
//   net.tenant.<id>.latency_ns  wall-clock dispatch→completion (p50/p99)
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"

namespace rhik::net {

/// Width of the namespace prefix prepended to user keys on the device.
constexpr std::size_t kTenantPrefixLen = 4;

/// Device key = [u32 tenant id][user key]. Fixed-width, so the mapping
/// is unambiguous for arbitrary binary user keys.
[[nodiscard]] inline Bytes namespaced_key(std::uint32_t tenant,
                                          ByteSpan user_key) {
  Bytes k(kTenantPrefixLen + user_key.size());
  put_u32(k, 0, tenant);
  put_bytes(k, kTenantPrefixLen, user_key);
  return k;
}

/// Strips the tenant prefix off a device key (scan results).
[[nodiscard]] inline ByteSpan strip_namespace(ByteSpan device_key) noexcept {
  return device_key.size() >= kTenantPrefixLen
             ? device_key.subspan(kTenantPrefixLen)
             : ByteSpan{};
}

struct TenantConfig {
  /// Sustained request quota; 0 = unlimited (no bucket consulted).
  std::uint64_t ops_per_sec = 0;
  /// Bucket capacity (max saved-up tokens); 0 = defaults to ops_per_sec.
  std::uint64_t burst = 0;
};

/// Token bucket over a caller-supplied monotonic clock (wall ns).
/// Refill happens lazily inside try_take, so no timer thread exists.
/// Mutex-protected: contention is per-tenant and try_take is a handful
/// of integer ops, far off any hot path that matters at event-loop rate.
class TokenBucket {
 public:
  /// rate 0 = unlimited. Tokens are tracked in nano-tokens (1 op =
  /// 1e9) so integer math refills exactly at any rate.
  void configure(std::uint64_t ops_per_sec, std::uint64_t burst,
                 std::uint64_t now_ns);
  [[nodiscard]] bool try_take(std::uint64_t now_ns);

 private:
  static constexpr std::uint64_t kScale = 1'000'000'000;
  std::mutex mu_;
  std::uint64_t rate_ = 0;       ///< ops/s; 0 = unlimited
  std::uint64_t cap_nano_ = 0;   ///< burst * kScale
  std::uint64_t tokens_nano_ = 0;
  std::uint64_t last_ns_ = 0;
};

struct Tenant {
  std::uint32_t id = 0;
  TenantConfig cfg;
  TokenBucket bucket;
  obs::Counter* ops = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* throttled = nullptr;
  obs::Timer* latency = nullptr;
};

/// Registry of tenants, keyed by the frame header's tenant id. Lookup is
/// a shared-lock-free mutex + hash map — cold enough for the event loop
/// (one lookup per request), and returned Tenant pointers are stable for
/// the table's lifetime.
class TenantTable {
 public:
  explicit TenantTable(obs::MetricsRegistry& registry) : registry_(registry) {}
  TenantTable(const TenantTable&) = delete;
  TenantTable& operator=(const TenantTable&) = delete;

  /// Creates or reconfigures a tenant. Reconfiguring resets the bucket
  /// to a full burst at `now_ns` (callers pass the current wall clock).
  Tenant& configure(std::uint32_t id, TenantConfig cfg, std::uint64_t now_ns);

  /// nullptr when the id was never configured.
  [[nodiscard]] Tenant* find(std::uint32_t id);

  /// find(), creating an unlimited default tenant on first sight (the
  /// server's allow_unknown_tenants policy).
  Tenant& find_or_default(std::uint32_t id, std::uint64_t now_ns);

 private:
  Tenant& create_locked(std::uint32_t id, TenantConfig cfg,
                        std::uint64_t now_ns);

  obs::MetricsRegistry& registry_;
  std::mutex mu_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace rhik::net
