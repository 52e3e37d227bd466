// The metrics registry: named counters, gauges and fixed-bucket histograms
// with std::atomic cells, plus point-in-time snapshots that diff, merge and
// serialize. This is the passive half of src/obs — instruments write cells,
// drivers snapshot them; nothing here ever feeds back into computation (the
// bit-exactness contract of docs/OBSERVABILITY.md).
//
// Cell updates are relaxed atomics: counts are commutative, no instrument
// reads another instrument's cell, and a snapshot only needs each cell's
// own value, not a consistent cut across cells. Registration (find-or-create
// by name) takes a mutex and is expected off the hot path — hooks publish
// whole-call totals once per engine call, not per inner iteration.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace remspan {
class BenchReport;
}  // namespace remspan

namespace remspan::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Signed level that can move both ways (queue depths, live handles).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two bucketed distribution of unsigned samples. Bucket index is
/// bit_width(value): bucket 0 holds exactly 0, bucket i >= 1 holds
/// [2^(i-1), 2^i). Fixed geometry means snapshots of the same name always
/// diff and merge bucket-by-bucket.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width of uint64 is 0..64

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  /// Smallest sample a bucket can hold (its label in serialized snapshots).
  [[nodiscard]] static constexpr std::uint64_t bucket_floor(std::size_t index) noexcept {
    return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t bucket(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Plain-value copy of one histogram (inside a Snapshot).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  [[nodiscard]] bool operator==(const HistogramSnapshot&) const = default;
};

/// A point-in-time copy of a registry's cells. Name-keyed maps keep the
/// serialization deterministic (sorted), so two snapshots of bit-identical
/// runs are byte-identical JSON.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// This snapshot minus `earlier` (per key; keys absent from `earlier`
  /// count as zero). Counters and histogram cells are monotone, so a
  /// negative delta means the snapshots are from different runs — checked.
  [[nodiscard]] Snapshot diff(const Snapshot& earlier) const;

  /// Adds `other` into this snapshot (union of keys, cells summed) — the
  /// aggregation primitive for per-worker or per-run telemetry.
  void merge(const Snapshot& other);

  /// Full snapshot as a JSON document (the --metrics-out /
  /// remspan_metrics_snapshot format; see docs/OBSERVABILITY.md).
  [[nodiscard]] std::string to_json() const;

  /// Flattens counters, gauges and histogram count/sum into a BenchReport's
  /// values ("<prefix><name>" keys; histograms add _count/_sum suffixes).
  void append_to(BenchReport& report, const std::string& prefix = "") const;

  [[nodiscard]] bool operator==(const Snapshot&) const = default;
};

/// Named-instrument registry. Instruments live as long as the registry and
/// keep stable addresses, so hooks may cache the reference returned by
/// counter()/gauge()/histogram() for the duration of a call.
class Registry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every cell (instrument set is kept — addresses stay valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace remspan::obs
