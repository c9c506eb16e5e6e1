#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <vector>

namespace rhik::obs {

// -- Counter -------------------------------------------------------------------

std::size_t Counter::stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

// -- Timer ---------------------------------------------------------------------

Histogram Timer::snapshot() const {
  std::array<std::uint64_t, Histogram::bucket_count()> counts;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return Histogram::from_buckets(counts.data(), counts.size(),
                                 sum_.load(std::memory_order_relaxed),
                                 min_.load(std::memory_order_relaxed),
                                 max_.load(std::memory_order_relaxed));
}

// -- MetricsRegistry -----------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, MergeMode mode) {
  std::lock_guard lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>(mode)).first;
  }
  return *it->second;
}

Timer& MetricsRegistry::timer(std::string_view name) {
  std::lock_guard lk(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), std::make_unique<Timer>()).first;
  }
  return *it->second;
}

void MetricsRegistry::snapshot_into(MetricsSnapshot& out) const {
  std::lock_guard lk(mu_);
  for (const auto& [name, c] : counters_) out.add_counter(name, c->value());
  for (const auto& [name, g] : gauges_) {
    out.set_gauge(name, g->value(), g->mode());
  }
  for (const auto& [name, t] : timers_) out.add_timer(name, t->snapshot());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snapshot_into(snap);
  return snap;
}

// -- MetricsSnapshot -----------------------------------------------------------

std::uint64_t MetricsSnapshot::counter(std::string_view name,
                                       std::uint64_t fallback) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name,
                                    std::int64_t fallback) const {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? fallback : it->second.value;
}

const Histogram* MetricsSnapshot::timer(std::string_view name) const {
  const auto it = timers.find(std::string(name));
  return it == timers.end() ? nullptr : &it->second;
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  captured_at_ns = std::max(captured_at_ns, other.captured_at_ns);
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, gv] : other.gauges) {
    auto it = gauges.find(name);
    if (it == gauges.end()) {
      gauges[name] = gv;
      continue;
    }
    switch (gv.mode) {
      case MergeMode::kSum:
        it->second.value += gv.value;
        break;
      case MergeMode::kMax:
        it->second.value = std::max(it->second.value, gv.value);
        break;
      case MergeMode::kMin:
        it->second.value = std::min(it->second.value, gv.value);
        break;
    }
  }
  for (const auto& [name, h] : other.timers) timers[name].merge(h);
}

namespace {

const char* mode_name(MergeMode m) noexcept {
  switch (m) {
    case MergeMode::kSum: return "sum";
    case MergeMode::kMax: return "max";
    case MergeMode::kMin: return "min";
  }
  return "sum";
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out.reserve(1024);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"captured_at_ns\":%" PRIu64,
                captured_at_ns);
  out += buf;
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    std::snprintf(buf, sizeof(buf), ":%" PRIu64, v);
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gv] : gauges) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    std::snprintf(buf, sizeof(buf), ":{\"value\":%" PRId64 ",\"mode\":\"%s\"}",
                  gv.value, mode_name(gv.mode));
    out += buf;
  }
  out += "},\"timers\":{";
  first = true;
  for (const auto& [name, h] : timers) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ':';
    out += h.to_json();
  }
  out += "}}";
  return out;
}

// -- JSON import ---------------------------------------------------------------
//
// Minimal recursive-descent parser over the subset to_json() emits:
// objects, arrays, strings with \" and \\ escapes, and numbers
// (decimal fractions are accepted and truncated toward zero — the
// serialized percentile fields are recomputed from buckets anyway).

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  bool skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ < s_.size();
  }

  bool consume(char c) {
    if (!skip_ws() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  [[nodiscard]] bool peek_is(char c) {
    return skip_ws() && s_[pos_] == c;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        *out += s_[pos_++];
      } else {
        *out += c;
      }
    }
    return false;
  }

  /// Parses a number; fractional digits are discarded.
  bool parse_int(std::int64_t* out) {
    if (!skip_ws()) return false;
    bool neg = false;
    if (s_[pos_] == '-') {
      neg = true;
      ++pos_;
    }
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      return false;
    }
    std::uint64_t v = 0;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      v = v * 10 + static_cast<std::uint64_t>(s_[pos_++] - '0');
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {  // drop the fraction
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    *out = neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
    return true;
  }

  bool parse_u64(std::uint64_t* out) {
    if (!skip_ws()) return false;
    if (!std::isdigit(static_cast<unsigned char>(s_[pos_]))) return false;
    std::uint64_t v = 0;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      v = v * 10 + static_cast<std::uint64_t>(s_[pos_++] - '0');
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    *out = v;
    return true;
  }

  /// Iterates `{"key": <value-parsed-by-fn>}`; fn returns false to abort.
  template <typename Fn>
  bool parse_object(Fn&& fn) {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      std::string key;
      if (!parse_string(&key) || !consume(':')) return false;
      if (!fn(key)) return false;
    } while (consume(','));
    return consume('}');
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

bool parse_histogram(JsonReader& r, Histogram* out) {
  std::uint64_t sum = 0, min = 0, max = 0;
  std::vector<std::uint64_t> counts(Histogram::bucket_count(), 0);
  const bool ok = r.parse_object([&](const std::string& key) {
    if (key == "buckets") {
      if (!r.consume('[')) return false;
      if (r.consume(']')) return true;
      do {
        std::uint64_t lo = 0, hi = 0, n = 0;
        if (!r.consume('[') || !r.parse_u64(&lo) || !r.consume(',') ||
            !r.parse_u64(&hi) || !r.consume(',') || !r.parse_u64(&n) ||
            !r.consume(']')) {
          return false;
        }
        counts[Histogram::bucket_index(lo)] += n;
      } while (r.consume(','));
      return r.consume(']');
    }
    std::uint64_t v = 0;
    if (!r.parse_u64(&v)) return false;
    if (key == "sum") sum = v;
    if (key == "min") min = v;
    if (key == "max") max = v;
    return true;  // count/mean/p* recomputed from buckets
  });
  if (!ok) return false;
  *out = Histogram::from_buckets(counts.data(), counts.size(), sum, min, max);
  return true;
}

}  // namespace

Result<MetricsSnapshot> MetricsSnapshot::from_json(std::string_view json) {
  MetricsSnapshot snap;
  JsonReader r(json);
  const bool ok = r.parse_object([&](const std::string& section) {
    if (section == "captured_at_ns") {
      return r.parse_u64(&snap.captured_at_ns);
    }
    if (section == "counters") {
      return r.parse_object([&](const std::string& name) {
        std::uint64_t v = 0;
        if (!r.parse_u64(&v)) return false;
        snap.counters[name] = v;
        return true;
      });
    }
    if (section == "gauges") {
      return r.parse_object([&](const std::string& name) {
        GaugeValue gv;
        const bool inner = r.parse_object([&](const std::string& field) {
          if (field == "value") return r.parse_int(&gv.value);
          if (field == "mode") {
            std::string mode;
            if (!r.parse_string(&mode)) return false;
            gv.mode = mode == "max"   ? MergeMode::kMax
                      : mode == "min" ? MergeMode::kMin
                                      : MergeMode::kSum;
            return true;
          }
          return false;
        });
        if (!inner) return false;
        snap.gauges[name] = gv;
        return true;
      });
    }
    if (section == "timers") {
      return r.parse_object([&](const std::string& name) {
        Histogram h;
        if (!parse_histogram(r, &h)) return false;
        snap.timers[name] = std::move(h);
        return true;
      });
    }
    return false;  // unknown section
  });
  if (!ok) return Status::kInvalidArgument;
  return snap;
}

}  // namespace rhik::obs
