#include "ramses/pm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/log.hpp"
#include "math/fft.hpp"
#include "parallel/pool.hpp"

namespace gc::ramses {

namespace {

/// Grain for the embarrassingly parallel per-particle sweeps (disjoint
/// writes, so chunking cannot affect the result).
constexpr std::size_t kParticleGrain = 8192;

/// Index i of an n-cell periodic axis, wrapped into [0, n) the way
/// Grid3::atp wraps it.
std::size_t wrap(long i, long n) {
  return static_cast<std::size_t>(((i % n) + n) % n);
}

/// Coordinate x in cell units shifted by half a cell: the floor of it is
/// the lower of the two cells whose centres share the particle's mass.
double cic_coord(double x, double nd) { return x * nd - 0.5; }

}  // namespace

math::Grid3<double> cic_deposit(const ParticleSet& particles, int n) {
  GC_CHECK(n > 0);
  const auto nu = static_cast<std::size_t>(n);
  const std::size_t plane_cells = nu * nu;
  math::Grid3<double> delta(nu, 0.0);
  const double nd = static_cast<double>(n);
  const double cell_mass_unit = nd * nd * nd;  // delta normalization

  const std::size_t npart = particles.size();
  const std::size_t nchunks = parallel::chunk_count(0, npart, kCicChunk);

  auto lower_plane = [&](std::size_t p) {
    return static_cast<long>(std::floor(cic_coord(particles.x[p], nd)));
  };
  // Adds particle p's share on x-plane i0 + di (wrapped) to `cells`, that
  // plane's n*n cells, in the (dj, dk) order of the full 8-cell cloud.
  auto deposit_share = [&](double* cells, std::size_t p, int di) {
    // Cell-centred CIC: the particle shares mass with the 8 nearest cell
    // centres.
    const double gx = cic_coord(particles.x[p], nd);
    const double gy = cic_coord(particles.y[p], nd);
    const double gz = cic_coord(particles.z[p], nd);
    const long i0 = static_cast<long>(std::floor(gx));
    const long j0 = static_cast<long>(std::floor(gy));
    const long k0 = static_cast<long>(std::floor(gz));
    const double fx = gx - static_cast<double>(i0);
    const double fy = gy - static_cast<double>(j0);
    const double fz = gz - static_cast<double>(k0);
    const double m = particles.mass[p] * cell_mass_unit;
    const std::array<std::size_t, 2> rows = {wrap(j0, n) * nu,
                                             wrap(j0 + 1, n) * nu};
    const std::array<std::size_t, 2> cols = {wrap(k0, n), wrap(k0 + 1, n)};
    const double wx = di ? fx : 1.0 - fx;
    for (int dj = 0; dj <= 1; ++dj) {
      const double wy = dj ? fy : 1.0 - fy;
      for (int dk = 0; dk <= 1; ++dk) {
        const double wz = dk ? fz : 1.0 - fz;
        cells[rows[dj] + cols[dk]] += m * wx * wy * wz;
      }
    }
  };

  // The mesh is the sum, in ascending chunk order, of the partial
  // deposits of fixed particle chunks, each built in particle order, so
  // the floating-point reduction tree is a function of the particle count
  // alone. Partials are built one x-plane at a time, for only the chunks
  // that touch the plane (a clustered chunk touches a small share of the
  // planes). Skipping a chunk that misses a plane skips adding +0.0 to a
  // sum of non-negative masses, which is exact: the bits are those of a
  // reduction over dense per-chunk grids, at any thread count.
  //
  // Pre-pass: per chunk, list the particle shares (2p + di) landing on
  // each plane, in particle order; chunk c's lists fill shares[2 * begin,
  // 2 * end) and plane i's list is [start[i], start[i + 1]).
  std::vector<std::size_t> plane_start(nchunks * (nu + 1), 0);
  std::vector<std::size_t> shares(2 * npart);
  parallel::for_each_chunk(
      0, npart, kCicChunk,
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        std::size_t* start = plane_start.data() + c * (nu + 1);
        for (std::size_t p = begin; p < end; ++p) {
          const long i0 = lower_plane(p);
          ++start[wrap(i0, n) + 1];
          ++start[wrap(i0 + 1, n) + 1];
        }
        start[0] = 2 * begin;
        for (std::size_t i = 1; i <= nu; ++i) start[i] += start[i - 1];
        std::vector<std::size_t> next(start, start + nu);
        for (std::size_t p = begin; p < end; ++p) {
          const long i0 = lower_plane(p);
          shares[next[wrap(i0, n)]++] = 2 * p;
          shares[next[wrap(i0 + 1, n)]++] = 2 * p + 1;
        }
      });

  // Plane-parallel deposit and reduction: one plane of scratch per task,
  // nothing kept across calls (minimpi ranks call this concurrently).
  double* out = delta.raw().data();
  parallel::parallel_for(
      0, nu, 1, [&](std::size_t i_begin, std::size_t i_end) {
        std::vector<double> partial(plane_cells);
        for (std::size_t i = i_begin; i < i_end; ++i) {
          double* cells = out + i * plane_cells;
          for (std::size_t c = 0; c < nchunks; ++c) {
            const std::size_t* start = plane_start.data() + c * (nu + 1);
            if (start[i] == start[i + 1]) continue;
            std::fill(partial.begin(), partial.end(), 0.0);
            for (std::size_t s = start[i]; s < start[i + 1]; ++s) {
              deposit_share(partial.data(), shares[s] / 2,
                            static_cast<int>(shares[s] % 2));
            }
            for (std::size_t cell = 0; cell < plane_cells; ++cell) {
              cells[cell] += partial[cell];
            }
          }
        }
      });

  // rho/rho_mean - 1 (total mass 1 spread over n^3 cells gives mean 1).
  parallel::parallel_for(0, delta.size(), kParticleGrain,
                         [out](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             out[i] -= 1.0;
                           }
                         });
  return delta;
}

math::Grid3<double> solve_poisson(const math::Grid3<double>& delta,
                                  double rhs_factor) {
  const std::size_t n = delta.n();
  std::vector<math::Complex> field(n * n * n);
  const double* din = delta.raw().data();
  math::Complex* f = field.data();
  parallel::parallel_for(0, field.size(), kParticleGrain,
                         [=](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             f[i] = math::Complex(din[i], 0.0);
                           }
                         });
  math::fft3(field, n, false);

  // Discrete spectral Green function: phi_k = -rhs / k_eff^2 with the
  // exact continuum k; k=0 mode (mean) is gauge and set to zero. The
  // k-components are hoisted out of the inner loops (kx/ky are invariant
  // in the j/l loops) and each i-plane is independent.
  const double two_pi = 2.0 * M_PI;
  std::vector<double> k1d(n);
  for (std::size_t i = 0; i < n; ++i) {
    k1d[i] = two_pi * static_cast<double>(math::freq_index(i, n));
  }
  parallel::parallel_for(
      0, n, 1, [&, f](std::size_t i_begin, std::size_t i_end) {
        for (std::size_t i = i_begin; i < i_end; ++i) {
          const double kx2 = k1d[i] * k1d[i];
          for (std::size_t j = 0; j < n; ++j) {
            const double kxy2 = kx2 + k1d[j] * k1d[j];
            math::Complex* row = f + (i * n + j) * n;
            for (std::size_t l = 0; l < n; ++l) {
              const double k2 = kxy2 + k1d[l] * k1d[l];
              row[l] *= k2 > 0.0 ? -rhs_factor / k2 : 0.0;
            }
          }
        }
      });
  math::fft3(field, n, true);

  math::Grid3<double> phi(n);
  double* pout = phi.raw().data();
  parallel::parallel_for(0, field.size(), kParticleGrain,
                         [=](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             pout[i] = f[i].real();
                           }
                         });
  return phi;
}

std::array<std::vector<double>, 3> interpolate_forces(
    const math::Grid3<double>& phi, const ParticleSet& particles) {
  const auto n = static_cast<long>(phi.n());
  const double nd = static_cast<double>(n);
  const double inv_2h = nd / 2.0;  // central difference over 2 cells

  std::array<std::vector<double>, 3> acc;
  for (auto& a : acc) a.assign(particles.size(), 0.0);

  // Pure gather: reads phi, writes acc[axis][p] — disjoint per particle.
  parallel::parallel_for(
      0, particles.size(), kParticleGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          const double gx = particles.x[p] * nd - 0.5;
          const double gy = particles.y[p] * nd - 0.5;
          const double gz = particles.z[p] * nd - 0.5;
          const long i0 = static_cast<long>(std::floor(gx));
          const long j0 = static_cast<long>(std::floor(gy));
          const long k0 = static_cast<long>(std::floor(gz));
          const double fx = gx - static_cast<double>(i0);
          const double fy = gy - static_cast<double>(j0);
          const double fz = gz - static_cast<double>(k0);
          for (int di = 0; di <= 1; ++di) {
            const double wx = di ? fx : 1.0 - fx;
            for (int dj = 0; dj <= 1; ++dj) {
              const double wy = dj ? fy : 1.0 - fy;
              for (int dk = 0; dk <= 1; ++dk) {
                const double wz = dk ? fz : 1.0 - fz;
                const double w = wx * wy * wz;
                const long i = i0 + di;
                const long j = j0 + dj;
                const long k = k0 + dk;
                // -grad(phi), central differences on the periodic mesh.
                acc[0][p] -=
                    w * (phi.atp(i + 1, j, k) - phi.atp(i - 1, j, k)) * inv_2h;
                acc[1][p] -=
                    w * (phi.atp(i, j + 1, k) - phi.atp(i, j - 1, k)) * inv_2h;
                acc[2][p] -=
                    w * (phi.atp(i, j, k + 1) - phi.atp(i, j, k - 1)) * inv_2h;
              }
            }
          }
        }
      });
  return acc;
}

std::array<std::vector<double>, 3> PmSolver::accelerations(
    const ParticleSet& particles, double a) const {
  const double rhs = 1.5 * options_.omega_m / a;
  // The density mesh is a temporary, freed before the force arrays are
  // allocated, which keeps the step's heap footprint (and the free heap
  // left resident after a run) smaller.
  const math::Grid3<double> phi =
      solve_poisson(cic_deposit(particles, options_.grid_n), rhs);
  return interpolate_forces(phi, particles);
}

void PmSolver::kick(ParticleSet& particles,
                    const std::array<std::vector<double>, 3>& acc, double a,
                    double da) const {
  // p = a^2 dx/dt obeys dp/dt = -grad(phi), so dp/da = -grad(phi)/(a E).
  const double factor = da / (a * cosmology_.efunc(a));
  parallel::parallel_for(0, particles.size(), kParticleGrain,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t p = begin; p < end; ++p) {
                             particles.px[p] += acc[0][p] * factor;
                             particles.py[p] += acc[1][p] * factor;
                             particles.pz[p] += acc[2][p] * factor;
                           }
                         });
}

void PmSolver::drift(ParticleSet& particles, double a, double da) const {
  const double factor = da / (a * a * a * cosmology_.efunc(a));
  parallel::parallel_for(0, particles.size(), kParticleGrain,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t p = begin; p < end; ++p) {
                             particles.x[p] += particles.px[p] * factor;
                             particles.y[p] += particles.py[p] * factor;
                             particles.z[p] += particles.pz[p] * factor;
                           }
                         });
  particles.wrap_positions();
}

void PmSolver::step(ParticleSet& particles, double a, double da,
                    Acceleration& acc) const {
  // KDK: half kick at a, full drift at midpoint, half kick at a + da. The
  // opening force is the same computation as the closing force of the
  // previous step whenever the a bits agree, so reusing it keeps the bits.
  const bool holds_opening =
      std::bit_cast<std::uint64_t>(acc.a) == std::bit_cast<std::uint64_t>(a) &&
      acc.g[0].size() == particles.size();
  if (!holds_opening) acc = {a, accelerations(particles, a)};
  kick(particles, acc.g, a, 0.5 * da);
  drift(particles, a + 0.5 * da, da);
  acc = {a + da, accelerations(particles, a + da)};
  kick(particles, acc.g, a + da, 0.5 * da);
}

double momentum_from_kms(double v_kms, double a, double box_mpc) {
  return a * v_kms / (100.0 * box_mpc);
}

double kms_from_momentum(double p, double a, double box_mpc) {
  return p * 100.0 * box_mpc / a;
}

}  // namespace gc::ramses
