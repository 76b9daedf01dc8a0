// google-benchmark microbenchmarks of ProcSet and Machine primitives — the
// inner loop of every preemption pass.
#include <benchmark/benchmark.h>

#include "sim/machine.hpp"
#include "sim/procset.hpp"
#include "util/rng.hpp"

namespace {

using namespace sps;
using sim::Machine;
using sim::ProcSet;

ProcSet randomSet(Rng& rng, int bits) {
  ProcSet s;
  for (int i = 0; i < bits; ++i)
    s.insert(static_cast<std::uint32_t>(rng.uniformInt(0, 1023)));
  return s;
}

void BM_ProcSetOps(benchmark::State& state) {
  Rng rng(1);
  const ProcSet a = randomSet(rng, 128);
  const ProcSet b = randomSet(rng, 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
    benchmark::DoNotOptimize(a | b);
    benchmark::DoNotOptimize(a - b);
    benchmark::DoNotOptimize(a.intersects(b));
    benchmark::DoNotOptimize(a.count());
  }
}
BENCHMARK(BM_ProcSetOps);

void BM_ProcSetLowest(benchmark::State& state) {
  Rng rng(2);
  const ProcSet a = randomSet(rng, static_cast<int>(state.range(0)));
  const std::uint32_t k = a.count() / 2;
  for (auto _ : state) benchmark::DoNotOptimize(a.lowest(k));
}
BENCHMARK(BM_ProcSetLowest)->Arg(32)->Arg(256)->Arg(1024);

// Large-set (windowed) mode: the same algebra with members spread over a
// 100k-processor machine, pricing the dynamic window against the inline
// fast path above.
ProcSet randomWideSet(Rng& rng, int bits) {
  ProcSet s;
  for (int i = 0; i < bits; ++i)
    s.insert(static_cast<std::uint32_t>(rng.uniformInt(0, 99'999)));
  return s;
}

void BM_ProcSetOpsWide(benchmark::State& state) {
  Rng rng(4);
  const ProcSet a = randomWideSet(rng, 128);
  const ProcSet b = randomWideSet(rng, 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
    benchmark::DoNotOptimize(a | b);
    benchmark::DoNotOptimize(a - b);
    benchmark::DoNotOptimize(a.intersects(b));
    benchmark::DoNotOptimize(a.count());
  }
}
BENCHMARK(BM_ProcSetOpsWide);

void BM_MachineAllocateRelease100k(benchmark::State& state) {
  Machine m(100'000);
  Time now = 0;
  for (auto _ : state) {
    ++now;
    const ProcSet a = m.allocate(512, now);
    const ProcSet b = m.allocate(8192, now);
    m.release(a, now);
    m.release(b, now);
  }
}
BENCHMARK(BM_MachineAllocateRelease100k);

void BM_MachineAllocateRelease(benchmark::State& state) {
  Machine m(430);
  Time now = 0;
  for (auto _ : state) {
    ++now;
    const ProcSet a = m.allocate(64, now);
    const ProcSet b = m.allocate(128, now);
    m.release(a, now);
    m.release(b, now);
  }
}
BENCHMARK(BM_MachineAllocateRelease);

// The allocator with a hard fence only, as a Lease start calls it.
void BM_MachineAllocateAvoiding(benchmark::State& state) {
  Machine m(430);
  Rng rng(3);
  const ProcSet avoid = randomSet(rng, 64) & ProcSet::firstN(430);
  Time now = 0;
  for (auto _ : state) {
    ++now;
    const ProcSet a = m.allocate(64, now, avoid);
    m.release(a, now);
  }
}
BENCHMARK(BM_MachineAllocateAvoiding);

}  // namespace

BENCHMARK_MAIN();
