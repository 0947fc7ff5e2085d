// The shared thread pool: chunking, nesting, exception propagation, and
// the determinism contract (byte-identical simulation snapshots, halo
// catalogs and 2LPT displacements at any thread count).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "check/statehash.hpp"
#include "common/rng.hpp"
#include "grafic/ic.hpp"
#include "halo/halomaker.hpp"
#include "parallel/pool.hpp"
#include "ramses/simulation.hpp"

namespace {

using gc::parallel::chunk_count;
using gc::parallel::for_each_chunk;
using gc::parallel::parallel_for;
using gc::parallel::parallel_reduce;
using gc::parallel::set_thread_count;
using gc::parallel::thread_count;

/// Restores the default thread count when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(Pool, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(thread_count(), 1u);
}

TEST(Pool, SetThreadCountRoundtrip) {
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  set_thread_count(0);  // back to default
  EXPECT_GE(thread_count(), 1u);
}

TEST(Pool, ChunkCount) {
  EXPECT_EQ(chunk_count(0, 0, 4), 0u);
  EXPECT_EQ(chunk_count(0, 1, 4), 1u);
  EXPECT_EQ(chunk_count(0, 4, 4), 1u);
  EXPECT_EQ(chunk_count(0, 5, 4), 2u);
  EXPECT_EQ(chunk_count(3, 11, 4), 2u);
  EXPECT_EQ(chunk_count(0, 8, 0), 8u);  // grain 0 treated as 1
}

TEST(Pool, ParallelForCoversEveryIndexOnce) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    set_thread_count(threads);
    for (const std::size_t grain : {1u, 3u, 7u, 1000u}) {
      std::vector<std::atomic<int>> hits(257);
      for (auto& h : hits) h = 0;
      parallel_for(0, hits.size(), grain,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) ++hits[i];
                   });
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i], 1) << "threads=" << threads << " grain=" << grain
                              << " index=" << i;
      }
    }
  }
}

TEST(Pool, EmptyAndSingleElementRanges) {
  ThreadCountGuard guard;
  set_thread_count(4);
  int calls = 0;
  parallel_for(5, 5, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(5, 6, 8, [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 5u);
    EXPECT_EQ(end, 6u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(for_each_chunk(0, 0, 16,
                           [](std::size_t, std::size_t, std::size_t) {}),
            0u);
}

TEST(Pool, NestedCallsRunInlineAndComplete) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  for (auto& h : hits) h = 0;
  parallel_for(0, 64, 4, [&](std::size_t outer_b, std::size_t outer_e) {
    for (std::size_t o = outer_b; o < outer_e; ++o) {
      EXPECT_TRUE(gc::parallel::in_parallel_region());
      parallel_for(0, 16, 2, [&](std::size_t inner_b, std::size_t inner_e) {
        for (std::size_t i = inner_b; i < inner_e; ++i) ++hits[o * 16 + i];
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h, 1);
  EXPECT_FALSE(gc::parallel::in_parallel_region());
}

TEST(Pool, ExceptionPropagatesAndPoolSurvives) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_count(threads);
    EXPECT_THROW(
        parallel_for(0, 100, 1,
                     [](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         if (i == 73) throw std::runtime_error("boom");
                       }
                     }),
        std::runtime_error);
    // The pool must remain usable after a failed region.
    std::atomic<int> sum{0};
    parallel_for(0, 10, 1, [&](std::size_t begin, std::size_t end) {
      sum += static_cast<int>(end - begin);
    });
    EXPECT_EQ(sum, 10);
  }
}

TEST(Pool, ReduceMatchesSerialSum) {
  ThreadCountGuard guard;
  set_thread_count(4);
  const std::size_t n = 100000;
  const auto total = parallel_reduce(
      0, n, 1024, std::uint64_t{0},
      [](std::size_t begin, std::size_t end) {
        std::uint64_t s = 0;
        for (std::size_t i = begin; i < end; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(Pool, ReduceIsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // A floating-point sum whose value depends on the reduction tree: the
  // fixed chunking + ordered combine must give the same bits at 1, 2, 5
  // threads.
  std::vector<double> values(10001);
  double x = 0.1;
  for (auto& v : values) {
    v = x;
    x = x * 1.0001 + 1e-7;
  }
  auto sum_with = [&](std::size_t threads) {
    set_thread_count(threads);
    return parallel_reduce(
        0, values.size(), 97, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double s1 = sum_with(1);
  const double s2 = sum_with(2);
  const double s5 = sum_with(5);
  EXPECT_EQ(std::memcmp(&s1, &s2, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&s1, &s5, sizeof(double)), 0);
}

template <typename T>
bool same_bytes(const std::vector<T>& u, const std::vector<T>& v) {
  return u.size() == v.size() &&
         (u.empty() ||
          std::memcmp(u.data(), v.data(), u.size() * sizeof(T)) == 0);
}

/// Byte-level equality of two particle sets (positions, momenta, masses,
/// ids — everything a snapshot carries).
bool byte_identical(const gc::ramses::ParticleSet& a,
                    const gc::ramses::ParticleSet& b) {
  return same_bytes(a.x, b.x) && same_bytes(a.y, b.y) &&
         same_bytes(a.z, b.z) && same_bytes(a.px, b.px) &&
         same_bytes(a.py, b.py) && same_bytes(a.pz, b.pz) &&
         same_bytes(a.mass, b.mass) && same_bytes(a.id, b.id) &&
         same_bytes(a.level, b.level);
}

TEST(Determinism, SimulationSnapshotsByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  gc::ramses::RunParams params;
  params.npart_dim = 8;
  params.pm_grid = 16;
  params.steps = 4;
  params.a_start = 0.1;
  params.seed = 1234;

  set_thread_count(1);
  const gc::ramses::RunResult serial = gc::ramses::run_simulation(params);
  set_thread_count(4);
  const gc::ramses::RunResult threaded = gc::ramses::run_simulation(params);

  ASSERT_FALSE(serial.snapshots.empty());
  ASSERT_EQ(serial.snapshots.size(), threaded.snapshots.size());
  for (std::size_t s = 0; s < serial.snapshots.size(); ++s) {
    EXPECT_EQ(serial.snapshots[s].aexp, threaded.snapshots[s].aexp);
    EXPECT_TRUE(byte_identical(serial.snapshots[s].particles,
                               threaded.snapshots[s].particles))
        << "snapshot " << s << " differs between GC_THREADS=1 and 4";
  }
}

TEST(Determinism, ZoomSimulationByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  gc::ramses::RunParams params;
  params.npart_dim = 8;
  params.pm_grid = 16;
  params.steps = 2;
  params.a_start = 0.1;
  params.seed = 77;
  params.zoom_levels = 1;
  params.zoom_centre = {0.5, 0.5, 0.5};

  set_thread_count(1);
  const auto serial = gc::ramses::run_simulation(params);
  set_thread_count(2);
  const auto threaded = gc::ramses::run_simulation(params);

  ASSERT_EQ(serial.snapshots.size(), threaded.snapshots.size());
  for (std::size_t s = 0; s < serial.snapshots.size(); ++s) {
    EXPECT_TRUE(byte_identical(serial.snapshots[s].particles,
                               threaded.snapshots[s].particles));
  }
}

/// FNV-1a over a snapshot's particle arrays, field by field, the way the
/// perfbench pm workload hashes its final snapshot.
std::uint64_t snapshot_hash(const gc::ramses::ParticleSet& p) {
  gc::check::Fnv h;
  for (const auto* field : {&p.x, &p.y, &p.z, &p.px, &p.py, &p.pz, &p.mass}) {
    h.bytes(field->data(), field->size() * sizeof(double));
  }
  h.bytes(p.id.data(), p.id.size() * sizeof(std::uint64_t));
  return h.h;
}

// 32^3 particles are two CIC deposit chunks, so this run reaches the
// chunk-ordered reduction the 8^3 runs above never need. The parameters
// and the pin are the perfbench tiny pm workload's.
TEST(Determinism, MultiChunkDepositPinnedAcrossThreadCounts) {
  ThreadCountGuard guard;
  gc::ramses::RunParams params;
  params.npart_dim = 32;
  params.pm_grid = 64;
  params.steps = 4;
  params.seed = 42;
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_count(threads);
    const gc::ramses::RunResult result = gc::ramses::run_simulation(params);
    ASSERT_FALSE(result.snapshots.empty());
    EXPECT_EQ(snapshot_hash(result.snapshots.back().particles),
              0x1e450371ece21375ULL)
        << "at GC_THREADS=" << threads;
  }
}

// The minimpi driver rebalances its Hilbert domains after every 8th step,
// which moves particles between ranks; 12 steps put 4 steps after the
// exchange, so the pin covers the force recomputed on the new ownership.
TEST(Determinism, MinimpiRunPinnedAcrossRebalance) {
  gc::ramses::RunParams params;
  params.npart_dim = 32;
  params.pm_grid = 32;
  params.steps = 12;
  params.seed = 42;
  const gc::ramses::RunResult result =
      gc::ramses::run_simulation_parallel(params, 2);
  ASSERT_FALSE(result.snapshots.empty());
  EXPECT_EQ(snapshot_hash(result.snapshots.back().particles),
            0x67c91939d1af1e87ULL);
}

// FoF and the GRAFIC 2LPT term are pool-backed kernels the tests above
// never reach: run_simulation's generator leaves 2LPT off, and no halo
// finding happens inside a run.
TEST(Determinism, HalosAndSecondOrderDisplacementByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Clustered FoF input: half uniform, half in 8 tight Gaussian blobs,
  // with unequal masses so a reordered mass sum changes the bits.
  constexpr std::size_t kParticles = std::size_t{1} << 12;
  gc::Rng rng(6);
  std::vector<double> x, y, z, mass;
  std::vector<std::uint64_t> id;
  auto wrap = [](double v) { return v - std::floor(v); };
  for (std::size_t i = 0; i < kParticles; ++i) {
    if (i < kParticles / 2) {
      x.push_back(rng.uniform());
      y.push_back(rng.uniform());
      z.push_back(rng.uniform());
    } else {
      x.push_back(wrap(0.25 + 0.5 * static_cast<double>(i % 2) +
                       rng.normal(0.0, 0.01)));
      y.push_back(wrap(0.25 + 0.5 * static_cast<double>((i / 2) % 2) +
                       rng.normal(0.0, 0.01)));
      z.push_back(wrap(0.25 + 0.5 * static_cast<double>((i / 4) % 2) +
                       rng.normal(0.0, 0.01)));
    }
    mass.push_back((0.5 + rng.uniform()) / static_cast<double>(kParticles));
    id.push_back(i + 1);
  }
  const std::vector<double> zeros(kParticles, 0.0);
  const gc::halo::ParticleView view{&x,     &y,     &z,    &zeros,
                                    &zeros, &zeros, &mass, &id};

  // 2LPT input: a small Gaussian density contrast field.
  constexpr int kMesh = 16;
  std::vector<float> delta(kMesh * kMesh * kMesh);
  for (float& v : delta) v = static_cast<float>(0.1 * rng.normal());

  struct Outputs {
    std::vector<double> halo_masses;  ///< in catalog order
    std::array<std::vector<float>, 3> psi2;
  };
  auto run_at = [&](std::size_t threads) {
    set_thread_count(threads);
    Outputs out;
    for (const auto& halo : gc::halo::find_halos(view, 1.0, 100.0).halos) {
      out.halo_masses.push_back(halo.mass);
    }
    out.psi2 = gc::grafic::second_order_displacement(delta, kMesh, 100.0);
    return out;
  };
  const Outputs serial = run_at(1);
  const Outputs threaded = run_at(4);

  ASSERT_GE(serial.halo_masses.size(), 8u);
  EXPECT_TRUE(same_bytes(serial.halo_masses, threaded.halo_masses))
      << "halo masses differ between GC_THREADS=1 and 4";
  for (int axis = 0; axis < 3; ++axis) {
    EXPECT_TRUE(same_bytes(serial.psi2[axis], threaded.psi2[axis]))
        << "2LPT displacement axis " << axis << " differs";
  }
}

}  // namespace
