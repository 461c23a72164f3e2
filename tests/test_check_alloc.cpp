// Allocation accounting for one checked run (check::run_checked).
//
// Every explored unit, base probe and shrink probe is one checked run,
// so what a run allocates independently of how long it simulates is
// paid once per unit.  This binary replaces the global allocator with a
// counting one and pins, for the n = 8 membership scenario after a
// warm-up (the per-thread node arena keeps its blocks across runs):
//
//  * the heap bytes of a zero-duration run — the fixed set-up and
//    teardown of the universe, whose per-run tables must scale with n
//    (an n x n FDA monitor table, a small first event-slot chunk, timer
//    storage sized once per node), not with can::kMaxNodes;
//  * the allocations a fault-free 160 ms run makes beyond a zero-duration
//    one — a few monitor and queue vectors growing, nothing per frame
//    (the bus calls its observer without copying it) and nothing per
//    alarm (a node's timer storage no longer regrows from empty).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "check/harness.hpp"
#include "sim/time.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return operator new(size); }
// GCC pairs the replaced operator new with this free() across inlining
// and flags a mismatch; the pairing is correct (new uses malloc above).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace canely::check {
namespace {

struct Heap {
  std::uint64_t news{0};
  std::uint64_t bytes{0};
};

/// Heap traffic of one fault-free checked run of `cfg`.
Heap run_heap(const ScenarioConfig& cfg) {
  const std::uint64_t news = g_news.load(std::memory_order_relaxed);
  const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
  const RunResult r = run_checked(cfg, FaultScript{});
  EXPECT_TRUE(r.violations.empty());
  return Heap{g_news.load(std::memory_order_relaxed) - news,
              g_bytes.load(std::memory_order_relaxed) - bytes};
}

struct Scenarios {
  ScenarioConfig full = ScenarioConfig::membership(8, true);
  ScenarioConfig zero = [] {
    ScenarioConfig c = ScenarioConfig::membership(8, true);
    c.duration = sim::Time::zero();
    return c;
  }();
  Scenarios() {
    for (int i = 0; i < 3; ++i) {  // warm-up: the node arena keeps blocks
      (void)run_heap(zero);
      (void)run_heap(full);
    }
  }
};

TEST(CheckAlloc, ZeroDurationRunHeapBytesScaleWithN) {
  const Scenarios s;
  const Heap zero = run_heap(s.zero);
  // A 64 x 64 FDA monitor table or a 1,024-slot first event chunk
  // would add ~64 KB and ~80 KB here.
  EXPECT_EQ(zero.bytes, 21'248u);
  EXPECT_EQ(run_heap(s.zero).bytes, zero.bytes);  // a pure function of cfg
}

TEST(CheckAlloc, FaultFreeRunAddsNoPerFrameOrPerAlarmAllocations) {
  const Scenarios s;
  const Heap zero = run_heap(s.zero);
  const Heap full = run_heap(s.full);
  // Copying the bus observer would add one per frame (99), and timer
  // storage regrowing from empty ~15 per node.
  EXPECT_EQ(full.news - zero.news, 24u);
}

}  // namespace
}  // namespace canely::check
