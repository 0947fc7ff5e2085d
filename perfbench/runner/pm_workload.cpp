// The real-compute workload: ramses::run_simulation on 64^3 particles with
// a 128^3 mesh (bigger than the last-level cache), then halo::find_halos
// at z = 0, with the pool at the host's CPU count. No DES layer runs.
#include <optional>

#include "bench.hpp"
#include "check/statehash.hpp"
#include "grafic/ic.hpp"
#include "halo/halomaker.hpp"
#include "math/fft.hpp"
#include "parallel/pool.hpp"
#include "ramses/loader.hpp"
#include "ramses/pm.hpp"
#include "ramses/simulation.hpp"

namespace pb {

namespace {

namespace ramses = gc::ramses;

constexpr std::uint64_t kPmSeed = 42;
// Final-snapshot hash and FoF halo count pinned per size at kPmSeed. The
// solver is byte-identical at any thread count, so these hold on any host.
constexpr std::uint64_t kSnapshotHash = 0x30c877d8f23679faULL;
constexpr std::size_t kHaloCount = 565;
constexpr std::uint64_t kSnapshotHashTiny = 0x1e450371ece21375ULL;
constexpr std::size_t kHaloCountTiny = 8;

constexpr int kSetupReps = 5;
constexpr int kKernelReps = 3;

ramses::RunParams pm_params(const Options& o) {
  ramses::RunParams p;
  p.npart_dim = o.tiny ? 32 : 64;
  p.pm_grid = o.tiny ? 64 : 128;
  p.steps = o.tiny ? 4 : 8;
  p.seed = o.seed;
  return p;
}

std::uint64_t snapshot_hash(const ramses::ParticleSet& p) {
  gc::check::Fnv h;
  for (const auto* field : {&p.x, &p.y, &p.z, &p.px, &p.py, &p.pz, &p.mass}) {
    h.bytes(field->data(), field->size() * sizeof(double));
  }
  h.bytes(p.id.data(), p.id.size() * sizeof(std::uint64_t));
  return h.h;
}

/// FoF on a snapshot, velocities converted the way the SED services do.
gc::halo::HaloCatalog find_halos(const ramses::Snapshot& snap) {
  const ramses::ParticleSet& p = snap.particles;
  std::vector<double> vx(p.size());
  std::vector<double> vy(p.size());
  std::vector<double> vz(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    vx[i] = ramses::kms_from_momentum(p.px[i], snap.aexp, snap.box_mpc);
    vy[i] = ramses::kms_from_momentum(p.py[i], snap.aexp, snap.box_mpc);
    vz[i] = ramses::kms_from_momentum(p.pz[i], snap.aexp, snap.box_mpc);
  }
  const gc::halo::ParticleView view{&p.x, &p.y, &p.z,    &vx,
                                    &vy,  &vz,  &p.mass, &p.id};
  return gc::halo::find_halos(view, snap.aexp, snap.box_mpc);
}

/// One pm run: the solver, then FoF on the final snapshot.
struct PmRun {
  double seconds = 0.0;
  std::uint64_t hash = 0;
  std::size_t halos = 0;
  std::size_t particle_steps = 0;
  std::vector<double> step_s;  ///< host seconds between step callbacks
  ramses::Snapshot final_snapshot;
};

PmRun pm_run(const ramses::RunParams& params, SpanLog& spans, bool traced) {
  PmRun run;
  double last_step = 0.0;
  ramses::StepCallback on_step;
  if (traced) {
    on_step = [&run, &last_step](int step, double, const ramses::ParticleSet&) {
      const double t = now_s();
      if (step > 0) run.step_s.push_back(t - last_step);
      last_step = t;
    };
  }
  const double t0 = now_s();
  ramses::RunResult result;
  {
    ScopedSpan span(spans, "ramses.run_simulation");
    result = ramses::run_simulation(params, on_step);
  }
  gc::halo::HaloCatalog catalog;
  {
    ScopedSpan span(spans, "halo.find_halos");
    catalog = find_halos(result.snapshots.back());
  }
  run.seconds = now_s() - t0;
  run.final_snapshot = std::move(result.snapshots.back());
  run.hash = snapshot_hash(run.final_snapshot.particles);
  run.halos = catalog.halos.size();
  run.particle_steps =
      result.particle_count * static_cast<std::size_t>(result.steps_taken);
  return run;
}

/// Median milliseconds of `call` over kKernelReps calls, in a span each.
template <class Call>
double time_ms(SpanLog& spans, const std::string& name, Call&& call) {
  std::vector<double> samples;
  for (int i = 0; i < kKernelReps; ++i) {
    ScopedSpan span(spans, name);
    const double t0 = now_s();
    call();
    samples.push_back(now_s() - t0);
  }
  return median(samples) * 1e3;
}

/// Per-kernel times on the final snapshot's (clustered) particles.
struct KernelTimes {
  double cic = 0.0;
  double poisson = 0.0;
  double interpolate = 0.0;
  double kick_drift = 0.0;
  double fft3 = 0.0;
  double fof = 0.0;
};

KernelTimes time_kernels(const ramses::RunParams& params,
                         const ramses::Snapshot& snap, SpanLog& spans) {
  const ramses::ParticleSet& particles = snap.particles;
  const int n = params.pm_grid;
  const double a = snap.aexp;
  const double rhs = 1.5 * params.cosmology.omega_m / a;
  KernelTimes k;
  gc::math::Grid3<double> delta = ramses::cic_deposit(particles, n);
  const gc::math::Grid3<double> phi = ramses::solve_poisson(delta, rhs);
  const auto acc = ramses::interpolate_forces(phi, particles);

  k.cic = time_ms(spans, "ramses.cic_deposit",
                  [&] { delta = ramses::cic_deposit(particles, n); });
  k.poisson = time_ms(spans, "ramses.solve_poisson", [&] {
    const auto out = ramses::solve_poisson(delta, rhs);
    (void)out;
  });
  k.interpolate = time_ms(spans, "ramses.interpolate_forces", [&] {
    const auto out = ramses::interpolate_forces(phi, particles);
    (void)out;
  });
  const gc::cosmo::Cosmology cosmology(params.cosmology);
  const ramses::PmSolver solver(cosmology,
                                {params.pm_grid, params.cosmology.omega_m});
  ramses::ParticleSet moved = particles;
  k.kick_drift = time_ms(spans, "ramses.kick_drift", [&] {
    solver.kick(moved, acc, a, 1e-3);
    solver.drift(moved, a, 1e-3);
  });
  std::vector<gc::math::Complex> field(delta.raw().size());
  for (std::size_t i = 0; i < field.size(); ++i) field[i] = delta.raw()[i];
  k.fft3 = time_ms(spans, "math.fft3", [&] {
    gc::math::fft3(field, static_cast<std::size_t>(n), false);
  });
  k.fof = time_ms(spans, "halo.find_halos", [&] {
    const auto catalog = find_halos(snap);
    (void)catalog;
  });
  return k;
}

}  // namespace

Outcome run_pm(const Options& o, SpanLog& spans) {
  Outcome out;
  const ramses::RunParams params = pm_params(o);
  gc::parallel::set_thread_count(static_cast<std::size_t>(o.threads));

  // Set-up: the initial conditions run_simulation starts from.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    ScopedSpan span(spans, "grafic.single_level");
    const double t0 = now_s();
    gc::grafic::Generator generator(params.cosmology, params.seed);
    const gc::grafic::InitialConditions ic =
        generator.single_level(params.npart_dim, params.box_mpc,
                               params.a_start);
    setup_s.push_back(now_s() - t0);
    out.gate("pm.ic_particles",
             ramses::particles_from_ic(ic).size() ==
                 static_cast<std::size_t>(params.npart_dim) *
                     static_cast<std::size_t>(params.npart_dim) *
                     static_cast<std::size_t>(params.npart_dim));
  }

  const bool pin_applies = o.seed == kPmSeed;
  const std::uint64_t hash_pin =
      pinned(o, o.tiny ? kSnapshotHashTiny : kSnapshotHash);
  const std::size_t halo_pin = o.tiny ? kHaloCountTiny : kHaloCount;
  std::optional<std::uint64_t> first_hash;
  std::optional<std::size_t> first_halos;
  std::size_t ok_runs = 0;
  std::size_t particle_steps = 0;
  PmRun last;

  auto gate_run = [&](const PmRun& run) {
    bool ok = true;
    if (pin_applies) {
      ok = out.gate("pm.snapshot_hash_pinned", run.hash == hash_pin) && ok;
      ok = out.gate("pm.halo_count_pinned", run.halos == halo_pin) && ok;
    }
    if (!first_hash) first_hash = run.hash;
    if (!first_halos) first_halos = run.halos;
    ok = out.gate("pm.snapshot_hash_repeat", run.hash == *first_hash) && ok;
    ok = out.gate("pm.halo_count_repeat", run.halos == *first_halos) && ok;
    ++out.attempted;
    if (ok) {
      ++ok_runs;
    } else {
      ++out.failed;
    }
  };
  auto rep = [&](bool traced) {
    PmRun run = pm_run(params, spans, traced);
    gate_run(run);
    particle_steps = run.particle_steps;
    const double seconds = run.seconds;
    last = std::move(run);
    return seconds;
  };

  if (!o.trace) {
    const std::vector<double> reps =
        repeat_for(o.seconds, 2, [&] { return rep(false); });
    out.metric("calls_per_s",
               static_cast<double>(ok_runs) /
                   static_cast<double>(reps.size()) / median(reps),
               "1/s");
    out.metric("rep_s_p50", median(reps), "s");
    out.metric("setup_s", median(setup_s), "s");
    out.note("reps", std::to_string(reps.size()));
  } else {
    spans.set_enabled(false);
    const double plain = rep(false);
    spans.set_enabled(true);
    const double traced = rep(true);
    const std::vector<double> step_s = last.step_s;
    const KernelTimes wide = time_kernels(params, last.final_snapshot, spans);

    // The same problem on one thread: the speedup baseline, and a check
    // that the solver's output does not depend on the thread count.
    gc::parallel::set_thread_count(1);
    PmRun serial;
    {
      ScopedSpan span(spans, "pm.one_thread");
      serial = pm_run(params, spans, true);
    }
    out.gate("pm.one_thread_identical",
             serial.hash == last.hash && serial.halos == last.halos);
    const KernelTimes one = time_kernels(params, serial.final_snapshot, spans);
    gc::parallel::set_thread_count(static_cast<std::size_t>(o.threads));

    const double step_ms = median(step_s) * 1e3;
    const double n3 = static_cast<double>(params.pm_grid) * params.pm_grid *
                      params.pm_grid;
    const double np = static_cast<double>(last.final_snapshot.particles.size());
    constexpr double kMiB = 1024.0 * 1024.0;
    out.metric("ramses.step_ms_p50", step_ms, "ms");
    out.metric("ramses.cic_deposit_ms", wide.cic, "ms");
    out.metric("ramses.solve_poisson_ms", wide.poisson, "ms");
    out.metric("ramses.interpolate_forces_ms", wide.interpolate, "ms");
    out.metric("ramses.kick_drift_ms", wide.kick_drift, "ms");
    out.metric("math.fft3_ms", wide.fft3, "ms");
    out.metric("grafic.ic_ms", median(setup_s) * 1e3, "ms");
    out.metric("halo.fof_ms", wide.fof, "ms");
    out.metric("ramses.particle_steps_per_s",
               static_cast<double>(particle_steps) / plain, "1/s");
    // Computed, not measured: CIC reads 4 doubles per particle, does a
    // read-modify-write of 8 mesh doubles and zeroes the mesh; one 3-D FFT
    // reads and writes the complex mesh once per axis.
    out.metric("ramses.cic_bytes_computed",
               (np * 4.0 * 8.0 + np * 8.0 * 2.0 * 8.0 + n3 * 8.0) / kMiB,
               "MiB");
    out.metric("math.fft3_bytes_computed", 3.0 * 2.0 * n3 * 16.0 / kMiB,
               "MiB");
    out.metric("parallel.speedup.cic_deposit", one.cic / wide.cic, "x");
    out.metric("parallel.speedup.fft3", one.fft3 / wide.fft3, "x");
    out.metric("parallel.speedup.fof", one.fof / wide.fof, "x");
    out.metric("parallel.speedup.step", median(serial.step_s) * 1e3 / step_ms,
               "x");
    out.metric("obs.trace_overhead", traced / plain, "x");
  }
  out.note("snapshot_hash", hex(last.hash));
  out.note("halos", std::to_string(last.halos));
  out.note("threads", std::to_string(gc::parallel::thread_count()));
  return out;
}

}  // namespace pb
