#include "ramses/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "minimpi/comm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ramses/domain.hpp"
#include "ramses/loader.hpp"
#include "ramses/pm.hpp"

namespace gc::ramses {

namespace {

/// Log-spaced expansion-factor schedule: a[0] = a_start .. a[steps] = a_end.
std::vector<double> schedule(const RunParams& params) {
  std::vector<double> a(static_cast<std::size_t>(params.steps) + 1);
  const double ratio = params.a_end / params.a_start;
  for (int i = 0; i <= params.steps; ++i) {
    a[static_cast<std::size_t>(i)] =
        params.a_start *
        std::pow(ratio, static_cast<double>(i) / params.steps);
  }
  return a;
}

/// Snapshot expansion factors: user list, clipped to (a_start, a_end],
/// sorted, a_end always present.
std::vector<double> output_times(const RunParams& params) {
  std::vector<double> aout;
  for (const double a : params.aout) {
    if (a > params.a_start && a <= params.a_end) aout.push_back(a);
  }
  aout.push_back(params.a_end);
  std::sort(aout.begin(), aout.end());
  aout.erase(std::unique(aout.begin(), aout.end()), aout.end());
  return aout;
}

Snapshot make_snapshot(const RunParams& params, double a,
                       const ParticleSet& particles) {
  Snapshot snap;
  snap.aexp = a;
  snap.box_mpc = params.box_mpc;
  snap.params = params.cosmology;
  snap.particles = particles;
  return snap;
}

grafic::InitialConditions make_ic(const RunParams& params) {
  grafic::Generator generator(params.cosmology, params.seed);
  if (params.zoom_levels > 0) {
    return generator.multi_level(params.npart_dim, params.box_mpc,
                                 params.a_start, params.zoom_centre,
                                 params.zoom_levels);
  }
  return generator.single_level(params.npart_dim, params.box_mpc,
                                params.a_start);
}

}  // namespace

gc::Result<RunParams> RunParams::from_namelist(const io::Namelist& nml) {
  RunParams params;
  if (const auto* run = nml.group("run_params")) {
    if (auto v = run->get_int("npart"); v.is_ok()) {
      params.npart_dim = static_cast<int>(v.value());
    }
    if (auto v = run->get_int("pm_grid"); v.is_ok()) {
      params.pm_grid = static_cast<int>(v.value());
    }
    if (auto v = run->get_double("boxlen"); v.is_ok()) {
      params.box_mpc = v.value();
    }
    if (auto v = run->get_double("astart"); v.is_ok()) {
      params.a_start = v.value();
    }
    if (auto v = run->get_double("aend"); v.is_ok()) params.a_end = v.value();
    if (auto v = run->get_int("nsteps"); v.is_ok()) {
      params.steps = static_cast<int>(v.value());
    }
    if (auto v = run->get_int("seed"); v.is_ok()) {
      params.seed = static_cast<std::uint64_t>(v.value());
    }
    if (auto v = run->get_doubles("aout"); v.is_ok()) {
      params.aout = v.value();
    }
    if (auto v = run->get_bool("adaptive"); v.is_ok()) {
      params.adaptive = v.value();
    }
    if (auto v = run->get_double("cfl"); v.is_ok()) params.cfl = v.value();
  }
  if (const auto* zoom = nml.group("zoom_params")) {
    if (auto v = zoom->get_int("nlevels"); v.is_ok()) {
      params.zoom_levels = static_cast<int>(v.value());
    }
    if (auto v = zoom->get_doubles("centre"); v.is_ok()) {
      if (v.value().size() != 3) {
        return make_error(ErrorCode::kInvalidArgument,
                          "zoom centre needs 3 coordinates");
      }
      params.zoom_centre = {v.value()[0], v.value()[1], v.value()[2]};
    }
  }
  if (const auto* cosmo_group = nml.group("cosmo_params")) {
    if (auto v = cosmo_group->get_double("omega_m"); v.is_ok()) {
      params.cosmology.omega_m = v.value();
    }
    if (auto v = cosmo_group->get_double("omega_l"); v.is_ok()) {
      params.cosmology.omega_l = v.value();
    }
    if (auto v = cosmo_group->get_double("h"); v.is_ok()) {
      params.cosmology.h = v.value();
    }
    if (auto v = cosmo_group->get_double("sigma8"); v.is_ok()) {
      params.cosmology.sigma8 = v.value();
    }
  }
  if (params.npart_dim < 2 || params.steps < 1 ||
      params.a_start <= 0.0 || params.a_end <= params.a_start) {
    return make_error(ErrorCode::kInvalidArgument, "invalid run parameters");
  }
  return params;
}

std::string RunParams::to_namelist() const {
  io::Namelist nml;
  auto& run = nml.group_or_create("run_params");
  run.set("npart", std::to_string(npart_dim));
  run.set("pm_grid", std::to_string(pm_grid));
  run.set("boxlen", strformat("%.6g", box_mpc));
  run.set("astart", strformat("%.6g", a_start));
  run.set("aend", strformat("%.6g", a_end));
  run.set("nsteps", std::to_string(steps));
  run.set("seed", std::to_string(seed));
  if (adaptive) {
    run.set("adaptive", ".true.");
    run.set("cfl", strformat("%.6g", cfl));
  }
  if (!aout.empty()) {
    std::vector<std::string> parts;
    for (const double a : aout) parts.push_back(strformat("%.6g", a));
    run.set("aout", join(parts, ","));
  }
  if (zoom_levels > 0) {
    auto& zoom = nml.group_or_create("zoom_params");
    zoom.set("nlevels", std::to_string(zoom_levels));
    zoom.set("centre", strformat("%.6g,%.6g,%.6g", zoom_centre.x,
                                 zoom_centre.y, zoom_centre.z));
  }
  auto& cosmo_group = nml.group_or_create("cosmo_params");
  cosmo_group.set("omega_m", strformat("%.6g", cosmology.omega_m));
  cosmo_group.set("omega_l", strformat("%.6g", cosmology.omega_l));
  cosmo_group.set("h", strformat("%.6g", cosmology.h));
  cosmo_group.set("sigma8", strformat("%.6g", cosmology.sigma8));
  return nml.to_string();
}

namespace {

/// Courant-style step limit: da such that the fastest particle moves at
/// most `cfl` mesh cells (dx/da = p / (a^3 E)).
double courant_da(const ParticleSet& particles,
                  const cosmo::Cosmology& cosmology, double a, int mesh_n,
                  double cfl) {
  double p_max = 0.0;
  for (std::size_t i = 0; i < particles.size(); ++i) {
    p_max = std::max({p_max, std::abs(particles.px[i]),
                      std::abs(particles.py[i]), std::abs(particles.pz[i])});
  }
  if (p_max <= 0.0) return 1e9;  // cold start: no kinematic limit
  const double dx_per_da = p_max / (a * a * a * cosmology.efunc(a));
  const double cell = 1.0 / static_cast<double>(mesh_n);
  return cfl * cell / dx_per_da;
}

}  // namespace

RunResult run_simulation(const RunParams& params,
                         const StepCallback& on_step) {
  const cosmo::Cosmology cosmology(params.cosmology);
  PmSolver solver(cosmology, {params.pm_grid, params.cosmology.omega_m});

  ParticleSet particles = particles_from_ic(make_ic(params));
  const std::vector<double> aout = output_times(params);

  RunResult result;
  result.particle_count = particles.size();
  std::size_t next_out = 0;

  // Coarse schedule; under adaptive stepping each span may subdivide.
  const std::vector<double> a = schedule(params);
  // Hard backstop so a pathological CFL cannot loop forever.
  const int max_total_steps = params.adaptive ? 64 * params.steps
                                              : params.steps;
  // Carries each step's closing force into the next step (and substep).
  Acceleration acc;

  for (int i = 0; i < params.steps; ++i) {
    const double a1 = a[static_cast<std::size_t>(i) + 1];
    double current = a[static_cast<std::size_t>(i)];
    // The step loop runs outside any Env, so step spans use wall time.
    const double step_wall0 = obs::tracing() || obs::metrics_on()
                                  ? obs::wall_seconds()
                                  : 0.0;
    const int substeps_before = result.steps_taken;
    while (current < a1 - 1e-14) {
      double da = a1 - current;
      if (params.adaptive) {
        da = std::min(da, courant_da(particles, cosmology, current,
                                     params.pm_grid, params.cfl));
        if (result.steps_taken >= max_total_steps) da = a1 - current;
      }
      solver.step(particles, current, da, acc);
      current += da;
      ++result.steps_taken;
    }
    if (obs::tracing()) {
      const obs::SpanId span = obs::Tracer::instance().begin_span(
          step_wall0, "step:" + std::to_string(i), "ramses");
      obs::Tracer::instance().span_arg(
          span, "substeps",
          std::to_string(result.steps_taken - substeps_before));
      obs::Tracer::instance().end_span(span, obs::wall_seconds());
    }
    if (obs::metrics_on()) {
      obs::Metrics::instance()
          .histogram("ramses_step_seconds", obs::latency_buckets_s())
          .observe(obs::wall_seconds() - step_wall0);
    }
    if (on_step) on_step(i, a1, particles);
    while (next_out < aout.size() && a1 >= aout[next_out] - 1e-12) {
      result.snapshots.push_back(
          make_snapshot(params, aout[next_out], particles));
      ++next_out;
    }
  }
  return result;
}

RunResult run_simulation_parallel(const RunParams& params, int nranks) {
  GC_CHECK(nranks >= 1);
  // Steps between Hilbert rebalancing exchanges.
  constexpr int kRebalanceEvery = 8;
  if (nranks == 1) return run_simulation(params);

  RunResult result;
  const int decomposition_order =
      std::max(1, std::min(6, static_cast<int>(std::log2(nranks)) + 2));

  minimpi::run(nranks, [&](minimpi::Comm& comm) {
    const cosmo::Cosmology cosmology(params.cosmology);
    PmSolver solver(cosmology, {params.pm_grid, params.cosmology.omega_m});

    // Rank 0 builds the full load, then scatters it by Hilbert domain.
    ParticleSet mine;
    if (comm.rank() == 0) mine = particles_from_ic(make_ic(params));
    DomainDecomposition domain(mine, decomposition_order, nranks);
    mine = exchange_particles(comm, mine, domain);

    const std::vector<double> a = schedule(params);
    const std::vector<double> aout = output_times(params);
    std::size_t next_out = 0;

    auto global_acc = [&](ParticleSet& p, double aa) {
      math::Grid3<double> delta = cic_deposit(p, params.pm_grid);
      // cic_deposit subtracts the mean assuming the full mass is local;
      // undo that, reduce, and subtract once globally.
      for (auto& v : delta.raw()) v += 1.0;
      comm.allreduce_vec_sum(delta.raw());
      for (auto& v : delta.raw()) v -= 1.0;
      const double rhs = 1.5 * params.cosmology.omega_m / aa;
      const math::Grid3<double> phi = solve_poisson(delta, rhs);
      return interpolate_forces(phi, p);
    };

    std::array<std::vector<double>, 3> acc;
    for (int i = 0; i < params.steps; ++i) {
      const double a0 = a[static_cast<std::size_t>(i)];
      const double a1 = a[static_cast<std::size_t>(i) + 1];
      const double da = a1 - a0;

      // The closing force of step i-1 opens step i, except at the first
      // step and right after a rebalancing exchange: that moves particles
      // between ranks, so the rank-summed mesh (and each rank's particle
      // order) changes. global_acc is a collective, so the decision
      // depends on the step index alone.
      if (i % kRebalanceEvery == 0) acc = global_acc(mine, a0);
      solver.kick(mine, acc, a0, 0.5 * da);
      solver.drift(mine, a0 + 0.5 * da, da);
      acc = global_acc(mine, a1);
      solver.kick(mine, acc, a1, 0.5 * da);

      // Periodic rebalancing: recompute the Hilbert decomposition from
      // the global distribution and exchange.
      if ((i + 1) % kRebalanceEvery == 0) {
        // Build the new decomposition from a reduced coarse histogram:
        // every rank must construct an identical domain, so gather all
        // particles' coarse cells via the weights inside the ctor — here
        // we simply gather positions to keep the implementation simple
        // at the scales this repo runs.
        ParticleSet all;
        all.x = comm.allgather(mine.x);
        all.y = comm.allgather(mine.y);
        all.z = comm.allgather(mine.z);
        all.px.assign(all.x.size(), 0.0);
        all.py.assign(all.x.size(), 0.0);
        all.pz.assign(all.x.size(), 0.0);
        all.mass.assign(all.x.size(), 1.0);
        all.id.assign(all.x.size(), 0);
        all.level.assign(all.x.size(), 0);
        DomainDecomposition fresh(all, decomposition_order, nranks);
        mine = exchange_particles(comm, mine, fresh);
      }

      while (next_out < aout.size() && a1 >= aout[next_out] - 1e-12) {
        // Gather the full state on rank 0 for the snapshot.
        ParticleSet full;
        full.x = comm.gather(mine.x, 0);
        full.y = comm.gather(mine.y, 0);
        full.z = comm.gather(mine.z, 0);
        full.px = comm.gather(mine.px, 0);
        full.py = comm.gather(mine.py, 0);
        full.pz = comm.gather(mine.pz, 0);
        full.mass = comm.gather(mine.mass, 0);
        full.id = comm.gather(mine.id, 0);
        full.level = comm.gather(mine.level, 0);
        if (comm.rank() == 0) {
          result.snapshots.push_back(
              make_snapshot(params, aout[next_out], full));
        }
        ++next_out;
      }
    }

    // Final stats (rank 0 writes the shared result; others are done).
    const auto local = static_cast<double>(mine.size());
    const double max_load = comm.allreduce_max(local);
    const double total = comm.allreduce_sum(local);
    if (comm.rank() == 0) {
      result.steps_taken = params.steps;
      result.particle_count = static_cast<std::size_t>(total);
      result.final_imbalance = max_load * nranks / std::max(total, 1.0);
    }
  });
  return result;
}

}  // namespace gc::ramses
