// Particle-Mesh gravity and the cosmological leapfrog.
//
// Unit system (classic PM code units, cf. Klypin & Holtzman 1997):
//   length   : box size L            -> positions x in [0, 1)
//   time     : 1/H0                  -> expansion factor a is the clock
//   momentum : p = a^2 dx/dt         -> in units of L*H0
// With these choices (p = a^2 dx/dt obeys dp/dt = -grad phi),
//   Poisson     :  lap(phi) = (3/2) Omega_m delta / a
//   kick        :  dp/da = -grad(phi) / (a E(a))
//   drift       :  dx/da =  p         / (a^3 E(a))
// and the linear growing mode of delta follows D(a) exactly — which is
// what test_ramses verifies against the cosmo library.
//
// Mass assignment and force interpolation are both Cloud-In-Cell (the
// same kernel on both sides, so momentum is conserved and self-forces
// vanish); the Poisson solve is spectral with the -1/k^2 Green function.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "cosmo/cosmology.hpp"
#include "math/grid3.hpp"
#include "ramses/particles.hpp"

namespace gc::ramses {

/// Particles per CIC deposit chunk. The chunks depend only on the particle
/// count, never on the thread count, so cic_deposit's chunk-ordered
/// reduction gives byte-identical grids at any GC_THREADS.
inline constexpr std::size_t kCicChunk = 16384;

/// CIC-deposits particle masses onto an n^3 periodic grid; the result is
/// the overdensity field delta = rho/rho_mean - 1 when the set covers the
/// whole box with total mass ~1.
math::Grid3<double> cic_deposit(const ParticleSet& particles, int n);

/// Solves lap(phi) = rhs_factor * delta spectrally; returns phi.
math::Grid3<double> solve_poisson(const math::Grid3<double>& delta,
                                  double rhs_factor);

/// Central-difference acceleration -grad(phi), CIC-interpolated to each
/// particle. Returns one array per axis, in phi's units per box length.
std::array<std::vector<double>, 3> interpolate_forces(
    const math::Grid3<double>& phi, const ParticleSet& particles);

/// Per-particle acceleration -grad(phi) at expansion factor `a`, one array
/// per axis. The step loop owns one across steps: a KDK step's closing
/// force is the next step's opening force, since a kick moves no particle.
struct Acceleration {
  double a = 0.0;
  std::array<std::vector<double>, 3> g;
};

class PmSolver {
 public:
  struct Options {
    int grid_n = 64;          ///< mesh resolution
    double omega_m = 0.27;
  };

  PmSolver(const cosmo::Cosmology& cosmology, const Options& options)
      : cosmology_(cosmology), options_(options) {}

  /// One kick-drift-kick leapfrog step from a to a + da (in place). The
  /// opening force is taken from `acc` when it holds one force per
  /// particle at exactly `a` (bit-equal), and recomputed otherwise; on
  /// return `acc` holds the closing force at a + da. A caller that moves,
  /// adds or reorders particles between steps must pass a fresh record.
  void step(ParticleSet& particles, double a, double da,
            Acceleration& acc) const;

  [[nodiscard]] const Options& options() const { return options_; }

  /// Leapfrog sub-operations, exposed for the parallel driver (which
  /// interleaves them with mesh reductions and particle exchanges).
  void kick(ParticleSet& particles,
            const std::array<std::vector<double>, 3>& acc, double a,
            double da) const;
  void drift(ParticleSet& particles, double a, double da) const;

 private:
  std::array<std::vector<double>, 3> accelerations(
      const ParticleSet& particles, double a) const;

  const cosmo::Cosmology& cosmology_;
  Options options_;
};

/// Converts a peculiar velocity in km/s to code momentum p = a^2 dx/dt
/// for a box of box_mpc (Mpc/h): p = a * v / (100 * box_mpc).
double momentum_from_kms(double v_kms, double a, double box_mpc);
double kms_from_momentum(double p, double a, double box_mpc);

}  // namespace gc::ramses
