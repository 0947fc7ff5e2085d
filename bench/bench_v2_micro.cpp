// V2 — google-benchmark micro-benchmarks for the hot substrate paths:
// FFT, Hilbert encode/decode, CIC deposit, FoF halo finding, the message
// codec and profile serialization.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "diet/profile.hpp"
#include "halo/halomaker.hpp"
#include "hilbert/hilbert.hpp"
#include "math/fft.hpp"
#include "net/codec.hpp"
#include "parallel/pool.hpp"
#include "ramses/pm.hpp"

namespace {

void BM_Fft1D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<gc::math::Complex> data(n);
  gc::Rng rng(1);
  for (auto& v : data) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    gc::math::fft(data, false);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft1D)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_Fft3D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gc::parallel::set_thread_count(static_cast<std::size_t>(state.range(1)));
  std::vector<gc::math::Complex> data(n * n * n);
  gc::Rng rng(1);
  for (auto& v : data) v = {rng.normal(), 0.0};
  for (auto _ : state) {
    gc::math::fft3(data, n, false);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * n * n));
  gc::parallel::set_thread_count(0);
}
BENCHMARK(BM_Fft3D)
    ->Args({16, 1})
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4});

void BM_HilbertEncode(benchmark::State& state) {
  gc::Rng rng(2);
  std::uint32_t x = 0;
  for (auto _ : state) {
    x = static_cast<std::uint32_t>(rng.next_u64() & 0x3ff);
    benchmark::DoNotOptimize(gc::hilbert::encode(x, x ^ 0x155, x ^ 0x2aa, 10));
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_HilbertRoundtrip(benchmark::State& state) {
  gc::Rng rng(3);
  for (auto _ : state) {
    const std::uint64_t key = rng.next_u64() % (1ull << 30);
    std::uint32_t x, y, z;
    gc::hilbert::decode(key, 10, x, y, z);
    benchmark::DoNotOptimize(gc::hilbert::encode(x, y, z, 10));
  }
}
BENCHMARK(BM_HilbertRoundtrip);

gc::ramses::ParticleSet random_particles(std::size_t n, std::uint64_t seed) {
  gc::ramses::ParticleSet particles;
  particles.reserve(n);
  gc::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    particles.push_back(rng.uniform(), rng.uniform(), rng.uniform(), 0.0,
                        0.0, 0.0, 1.0 / static_cast<double>(n), i + 1, 0);
  }
  return particles;
}

void BM_CicDeposit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gc::parallel::set_thread_count(static_cast<std::size_t>(state.range(1)));
  const auto particles = random_particles(n * n * n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gc::ramses::cic_deposit(particles, static_cast<int>(n)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * n * n));
  gc::parallel::set_thread_count(0);
}
BENCHMARK(BM_CicDeposit)->Args({16, 1})->Args({32, 1})->Args({32, 4});

void BM_FofHalos(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Clustered distribution: half uniform, half in 8 Gaussian blobs.
  gc::ramses::ParticleSet p = random_particles(n / 2, 5);
  gc::Rng rng(6);
  for (std::size_t i = n / 2; i < n; ++i) {
    const double cx = 0.25 + 0.5 * static_cast<double>(i % 2);
    const double cy = 0.25 + 0.5 * static_cast<double>((i / 2) % 2);
    const double cz = 0.25 + 0.5 * static_cast<double>((i / 4) % 2);
    auto wrap = [](double v) { return v - std::floor(v); };
    p.push_back(wrap(cx + rng.normal(0.0, 0.01)),
                wrap(cy + rng.normal(0.0, 0.01)),
                wrap(cz + rng.normal(0.0, 0.01)), 0.0, 0.0, 0.0,
                1.0 / static_cast<double>(n), i + 1, 0);
  }
  std::vector<double> zeros(p.size(), 0.0);
  gc::halo::ParticleView view{&p.x, &p.y, &p.z, &zeros,
                              &zeros, &zeros, &p.mass, &p.id};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gc::halo::find_halos(view, 1.0, 100.0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FofHalos)->Arg(1 << 12)->Arg(1 << 14);

void BM_CodecRoundtrip(benchmark::State& state) {
  for (auto _ : state) {
    gc::net::Writer writer;
    for (int i = 0; i < 64; ++i) {
      writer.u64(static_cast<std::uint64_t>(i));
      writer.f64(i * 0.5);
      writer.str("candidate");
    }
    const gc::net::Bytes bytes = writer.data();
    gc::net::Reader reader(bytes);
    std::uint64_t sum = 0;
    for (int i = 0; i < 64; ++i) {
      sum += reader.u64();
      benchmark::DoNotOptimize(reader.f64());
      benchmark::DoNotOptimize(reader.str());
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CodecRoundtrip);

void BM_ProfileSerialize(benchmark::State& state) {
  gc::diet::Profile profile("ramsesZoom2", 6, 6, 8);
  profile.arg(0).set_file("/tmp/zoom.nml", gc::diet::Persistence::kVolatile,
                          4096);
  for (int i = 1; i <= 6; ++i) {
    profile.arg(i).set_scalar<std::int32_t>(i, gc::diet::BaseType::kInt,
                                            gc::diet::Persistence::kVolatile);
  }
  for (auto _ : state) {
    gc::net::Writer writer;
    profile.serialize_inputs(writer);
    const gc::net::Bytes bytes = writer.data();
    gc::net::Reader reader(bytes);
    benchmark::DoNotOptimize(
        gc::diet::Profile::deserialize_inputs("ramsesZoom2", 6, 6, 8, reader));
  }
}
BENCHMARK(BM_ProfileSerialize);

}  // namespace

BENCHMARK_MAIN();
