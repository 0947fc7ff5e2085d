// V1 — substrate validation: the RAMSES-style solver under MiniMPI.
//
// The paper runs RAMSES over MPI on 16 machines per SED with Peano-Hilbert
// domain decomposition. This bench validates that machinery at laptop
// scale: per-rank load balance of the Hilbert decomposition on a clustered
// particle distribution, agreement between serial and parallel runs, and
// wall-clock throughput per step.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "obs/session.hpp"
#include "parallel/pool.hpp"
#include "ramses/domain.hpp"
#include "ramses/loader.hpp"
#include "ramses/simulation.hpp"

namespace {

/// Byte-level equality of the final snapshots of two runs.
bool snapshots_identical(const gc::ramses::RunResult& a,
                         const gc::ramses::RunResult& b) {
  if (a.snapshots.size() != b.snapshots.size()) return false;
  for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
    const auto& pa = a.snapshots[s].particles;
    const auto& pb = b.snapshots[s].particles;
    auto same = [](const std::vector<double>& u, const std::vector<double>& v) {
      return u.size() == v.size() &&
             (u.empty() ||
              std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0);
    };
    if (!same(pa.x, pb.x) || !same(pa.y, pb.y) || !same(pa.z, pb.z) ||
        !same(pa.px, pb.px) || !same(pa.py, pb.py) || !same(pa.pz, pb.pz)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const gc::obs::Session obs = gc::obs::Session::from_cli(args);

  gc::ramses::RunParams params;
  params.npart_dim = 16;
  params.pm_grid = 32;
  params.steps = 12;
  params.a_start = 0.1;
  params.seed = 99;

  std::printf("V1: PM/N-body over MiniMPI (%d^3 particles, %d^3 mesh, %d "
              "steps)\n",
              params.npart_dim, params.pm_grid, params.steps);

  // Serial reference (1 pool thread).
  gc::parallel::set_thread_count(1);
  const auto t0 = std::chrono::steady_clock::now();
  const gc::ramses::RunResult serial = gc::ramses::run_simulation(params);
  const auto t1 = std::chrono::steady_clock::now();
  const double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::printf("serial: %zu particles, %d steps, %.0f ms (%.1f ms/step)\n",
              serial.particle_count, serial.steps_taken, serial_ms,
              serial_ms / params.steps);

  // Intra-node pool scaling of the same single-rank run: wall clock per
  // GC_THREADS, with the byte-identity guarantee checked against the
  // 1-thread reference (exit 1 if any pooled run differs).
  std::printf("\npool threads (single rank):\n%8s %12s %10s %12s\n",
              "threads", "wall ms", "speedup", "identical");
  bool all_identical = true;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    gc::parallel::set_thread_count(threads);
    const auto s0 = std::chrono::steady_clock::now();
    const gc::ramses::RunResult pooled = gc::ramses::run_simulation(params);
    const auto s1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(s1 - s0).count();
    const bool identical = snapshots_identical(serial, pooled);
    all_identical &= identical;
    std::printf("%8zu %12.0f %10.2f %12s\n", threads, ms, serial_ms / ms,
                identical ? "yes" : "NO");
  }
  gc::parallel::set_thread_count(0);

  // Parallel runs.
  std::printf("%6s %16s %12s %18s\n", "ranks", "wall ms", "imbalance",
              "max |dx| vs serial");
  for (const int ranks : {1, 2, 4}) {
    const auto p0 = std::chrono::steady_clock::now();
    const gc::ramses::RunResult parallel =
        gc::ramses::run_simulation_parallel(params, ranks);
    const auto p1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(p1 - p0).count();

    // Compare final snapshots by particle id.
    double max_dx = 0.0;
    if (!serial.snapshots.empty() && !parallel.snapshots.empty()) {
      const auto& a = serial.snapshots.back().particles;
      const auto& b = parallel.snapshots.back().particles;
      std::vector<std::size_t> index_of(a.size() + 1, 0);
      for (std::size_t i = 0; i < b.size(); ++i) {
        index_of[static_cast<std::size_t>(b.id[i])] = i;
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        const std::size_t j = index_of[static_cast<std::size_t>(a.id[i])];
        auto wrap = [](double d) {
          if (d > 0.5) d -= 1.0;
          if (d < -0.5) d += 1.0;
          return std::abs(d);
        };
        max_dx = std::max(max_dx, wrap(a.x[i] - b.x[j]));
        max_dx = std::max(max_dx, wrap(a.y[i] - b.y[j]));
        max_dx = std::max(max_dx, wrap(a.z[i] - b.z[j]));
      }
    }
    std::printf("%6d %16.0f %12.3f %18.2e\n", ranks, ms,
                parallel.final_imbalance, max_dx);
  }

  // Hilbert decomposition balance on the evolved (clustered) distribution.
  std::printf("\nHilbert decomposition balance on the clustered final "
              "state:\n%6s %12s\n", "ranks", "max/mean");
  const auto& final_particles = serial.snapshots.back().particles;
  for (const int ranks : {2, 4, 8, 16, 32}) {
    gc::ramses::DomainDecomposition domain(final_particles, 4, ranks);
    std::printf("%6d %12.3f\n", ranks, domain.imbalance(final_particles));
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: a pooled run differs from the serial run\n");
    return 1;
  }
  return 0;
}
