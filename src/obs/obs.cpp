#include "obs/obs.hpp"

#include <atomic>

namespace remspan::obs {

namespace {

std::atomic<Registry*> g_metrics{nullptr};
std::atomic<TraceBuffer*> g_trace{nullptr};
std::atomic<std::uint32_t> g_next_lane{0};

/// The process trace epoch: started on first use, shared by every engine
/// lane so spans from different threads line up on one time axis.
const Stopwatch& process_epoch() noexcept {
  static const Stopwatch epoch;
  return epoch;
}

}  // namespace

Registry* metrics() noexcept { return g_metrics.load(std::memory_order_acquire); }

TraceBuffer* trace() noexcept { return g_trace.load(std::memory_order_acquire); }

void install(Registry* m, TraceBuffer* t) noexcept {
  g_metrics.store(m, std::memory_order_release);
  g_trace.store(t, std::memory_order_release);
}

void uninstall() noexcept { install(nullptr, nullptr); }

std::uint32_t engine_lane() noexcept {
  thread_local const std::uint32_t lane = g_next_lane.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

double process_micros() noexcept { return process_epoch().micros(); }

}  // namespace remspan::obs
