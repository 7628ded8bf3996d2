// Shared evaluation context of the operator kernels: mesh geometry, sigma
// levels, standard stratification, this rank's block, and the model
// switches of the paper's equations (delta, delta_p, delta_c, kappa*, the
// Coriolis sign convention, and finite-difference orders).
#pragma once

#include "mesh/decomp.hpp"
#include "mesh/latlon.hpp"
#include "mesh/sigma.hpp"
#include "state/state.hpp"
#include "state/stratification.hpp"
#include "util/array3d.hpp"

namespace ca::ops {

struct ModelParams {
  /// delta = p_t/p switch of eq. (2): 0 = standard stratification
  /// approximation (paper default), 1 = primitive equations.
  double delta = 0.0;
  /// delta_p and delta_c switches of the Phi equation.
  double delta_p = 0.0;
  double delta_c = 0.0;
  /// kappa* coefficient of the D_sa surface dissipation term.
  double kappa_star = 1.0;
  /// Horizontal diffusivity scale of D_sa [m^2/s] (the paper's k_sa = 0.1
  /// is the dimensionless dissipation coefficient multiplying it).
  double dsa_diffusivity = 1.0e5;
  /// Smoothing strength beta of P1/P2 (0 disables smoothing).
  double smooth_beta = 0.5;
  /// Colatitude band (from each pole, radians) where the Fourier filter is
  /// evaluated; min(1, ...) damping makes it inactive equatorward anyway.
  double filter_band = 1.0;  // ~57 degrees from the pole
  /// Finite-difference order along x for pressure-gradient and advection
  /// terms (2 or 4).  4 reproduces the Tables 1-2 footprints; 2 is the
  /// exactly skew-symmetric variant used by conservation tests.
  int x_order = 4;
};

struct OpContext {
  const mesh::LatLonMesh* mesh = nullptr;
  const mesh::SigmaLevels* levels = nullptr;
  const state::Stratification* strat = nullptr;
  const mesh::DomainDecomp* decomp = nullptr;
  ModelParams params;
  /// Optional terrain: surface geopotential [m^2/s^2] at scalar points,
  /// evaluated (like the initial conditions) from a global analytic
  /// formula over the owned block AND its halos so no exchange is needed.
  /// Null = flat surface (the paper's H-S setting).
  const util::Array2D<double>* phi_surface = nullptr;

  double phi_s(int i, int j) const {
    return phi_surface == nullptr ? 0.0 : (*phi_surface)(i, j);
  }

  /// Global row/level index of local j/k.
  int gj(int j) const { return decomp->gj(j); }
  int gk(int k) const { return decomp->gk(k); }

  double sin_t(int j) const { return mesh->sin_theta(gj(j)); }
  double cos_t(int j) const { return mesh->cos_theta(gj(j)); }
  double sin_tv(int j) const { return mesh->sin_theta_v(gj(j)); }
  double dsig(int k) const { return levels->dsigma(gk(k)); }
  double sig(int k) const { return levels->full(gk(k)); }
  double sig_half(int k) const { return levels->half(gk(k)); }
};

/// Purely local derived quantities, recomputed fresh at every operator
/// application (they belong to the stencil operator A-hat).
struct LocalDiag {
  LocalDiag() = default;
  LocalDiag(int lnx, int lny, int lnz, const state::StateHalo& halo)
      : pes(lnx, lny, halo.hx2, halo.hy2),
        pfac(lnx, lny, halo.hx2, halo.hy2),
        div(lnx, lny, lnz, halo.h3) {}

  util::Array2D<double> pes;   ///< p_es = p~_s + p'_sa - p_t
  util::Array2D<double> pfac;  ///< P = sqrt(p_es/p_0)
  util::Array3D<double> div;   ///< D(P) at scalar points
};

/// Products of the vertical integrals — everything downstream of the
/// z-line collectives, i.e. the output of the operator C.  The
/// communication-avoiding algorithm reuses a stale VertDiag in the first
/// update of each nonlinear iteration (paper eq. 13).  Interface-indexed
/// arrays use index k for the interface at sigma_half(k) (the TOP of full
/// level k); they carry one extra z-halo layer so the bottom interface of
/// the deepest valid level exists.
struct VertDiag {
  VertDiag() = default;
  VertDiag(int lnx, int lny, int lnz, const state::StateHalo& halo)
      : divsum(lnx, lny, halo.hx2, halo.hy2),
        sdot(lnx, lny, lnz,
             util::Halo3{halo.h3.x, halo.h3.y, halo.h3.z + 1}),
        w(lnx, lny, lnz, util::Halo3{halo.h3.x, halo.h3.y, halo.h3.z + 1}),
        phi_geo(lnx, lny, lnz,
                util::Halo3{halo.h3.x, halo.h3.y, halo.h3.z + 1}) {}

  util::Array2D<double> divsum;  ///< sum_k dsigma_k D(P)
  util::Array3D<double> sdot;    ///< sigma-dot at interface sigma_half(k)
  util::Array3D<double> w;       ///< W = P * sigma-dot at the same interfaces
  util::Array3D<double> phi_geo; ///< geopotential deviation phi' at full levels
};

}  // namespace ca::ops
