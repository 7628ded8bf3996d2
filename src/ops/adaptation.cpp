#include "ops/adaptation.hpp"

#include "util/math.hpp"

namespace ca::ops {
namespace {

/// 4th/2nd-order derivative of a scalar line at the half point i-1/2,
/// given values at {i-2, i-1, i, i+1} (4th) or {i-1, i} (2nd).
inline double dstag_x(int order, double sm2, double sm1, double s0,
                      double sp1, double inv_dl) {
  if (order >= 4)
    return (27.0 * (s0 - sm1) - (sp1 - sm2)) / 24.0 * inv_dl;
  return (s0 - sm1) * inv_dl;
}

/// 4th/2nd-order centered derivative at a full point from values at
/// {i-2, i-1, i+1, i+2}.
inline double dcent_x(int order, double sm2, double sm1, double sp1,
                      double sp2, double inv_dl) {
  if (order >= 4)
    return (8.0 * (sp1 - sm1) - (sp2 - sm2)) / 12.0 * inv_dl;
  return 0.5 * (sp1 - sm1) * inv_dl;
}

}  // namespace

double AdaptationTerms::p_lambda1(int i, int j, int k) const {
  const auto& d = *local_;
  const auto& vd = *vert_;
  const double pu = 0.5 * (d.pfac(i - 1, j) + d.pfac(i, j));
  const double inv_dl = 1.0 / ctx_->mesh->dlambda();
  const double dphi =
      dstag_x(ctx_->params.x_order, vd.phi_geo(i - 2, j, k),
              vd.phi_geo(i - 1, j, k), vd.phi_geo(i, j, k),
              vd.phi_geo(i + 1, j, k), inv_dl);
  return pu * dphi / (ctx_->mesh->radius() * ctx_->sin_t(j));
}

double AdaptationTerms::p_lambda2(int i, int j, int k) const {
  const auto& d = *local_;
  const double phi_u = 0.5 * (xi_->phi()(i - 1, j, k) + xi_->phi()(i, j, k));
  const double pes_u = 0.5 * (d.pes(i - 1, j) + d.pes(i, j));
  const double inv_dl = 1.0 / ctx_->mesh->dlambda();
  const double dpes =
      dstag_x(ctx_->params.x_order, d.pes(i - 2, j), d.pes(i - 1, j),
              d.pes(i, j), d.pes(i + 1, j), inv_dl);
  const double b = util::kGravityWaveSpeed;
  return b * phi_u * (1.0 - ctx_->params.delta_p) / pes_u * dpes /
         (ctx_->mesh->radius() * ctx_->sin_t(j));
}

double AdaptationTerms::coriolis_u(int i, int j, int k) const {
  const auto& d = *local_;
  const double pu = 0.5 * (d.pfac(i - 1, j) + d.pfac(i, j));
  const double u_phys = xi_->u()(i, j, k) / pu;
  const double fstar =
      2.0 * util::kOmega * ctx_->cos_t(j) +
      u_phys * ctx_->cos_t(j) / (ctx_->sin_t(j) * ctx_->mesh->radius());
  const double v4 = 0.25 * (xi_->v()(i - 1, j - 1, k) +
                            xi_->v()(i, j - 1, k) +
                            xi_->v()(i - 1, j, k) + xi_->v()(i, j, k));
  return fstar * v4;
}

double AdaptationTerms::p_theta1(int i, int j, int k) const {
  const auto& d = *local_;
  const double pv = 0.5 * (d.pfac(i, j) + d.pfac(i, j + 1));
  const double dphi = (vert_->phi_geo(i, j + 1, k) -
                       vert_->phi_geo(i, j, k)) /
                      ctx_->mesh->dtheta();
  return pv * dphi / ctx_->mesh->radius();
}

double AdaptationTerms::p_theta2(int i, int j, int k) const {
  const auto& d = *local_;
  const double phi_v = 0.5 * (xi_->phi()(i, j, k) + xi_->phi()(i, j + 1, k));
  const double pes_v = 0.5 * (d.pes(i, j) + d.pes(i, j + 1));
  const double dpes = (d.pes(i, j + 1) - d.pes(i, j)) / ctx_->mesh->dtheta();
  const double b = util::kGravityWaveSpeed;
  return b * phi_v * (1.0 - ctx_->params.delta_p) / pes_v * dpes /
         ctx_->mesh->radius();
}

double AdaptationTerms::coriolis_v(int i, int j, int k) const {
  const auto& d = *local_;
  const double pv = 0.5 * (d.pfac(i, j) + d.pfac(i, j + 1));
  const double u4 = 0.25 * (xi_->u()(i, j, k) + xi_->u()(i + 1, j, k) +
                            xi_->u()(i, j + 1, k) +
                            xi_->u()(i + 1, j + 1, k));
  const double u_phys = u4 / pv;
  const double cos_v = 0.5 * (ctx_->cos_t(j) + ctx_->cos_t(j + 1));
  const double sin_v = ctx_->sin_tv(j);
  // The V rows at the poles are zero-flux; their Coriolis term is never
  // used, but guard the cotangent anyway.
  const double cot_v = sin_v > 1e-12 ? cos_v / sin_v : 0.0;
  const double fstar = 2.0 * util::kOmega * cos_v +
                       u_phys * cot_v / ctx_->mesh->radius();
  return fstar * u4;
}

double AdaptationTerms::omega1(int i, int j, int k) const {
  const auto& d = *local_;
  const auto& vd = *vert_;
  const double wbar = 0.5 * (vd.w(i, j, k) + vd.w(i, j, k + 1));
  const double dpw =
      d.pfac(i, j) * (vd.w(i, j, k + 1) - vd.w(i, j, k)) / ctx_->dsig(k);
  return wbar / ctx_->sig(k) - (d.div(i, j, k) + dpw) / d.pfac(i, j);
}

double AdaptationTerms::omega2_theta(int i, int j, int k) const {
  const auto& d = *local_;
  const double vbar = 0.5 * (xi_->v()(i, j - 1, k) + xi_->v()(i, j, k));
  const double dpes =
      0.5 * (d.pes(i, j + 1) - d.pes(i, j - 1)) / ctx_->mesh->dtheta();
  return vbar / d.pes(i, j) * dpes / ctx_->mesh->radius();
}

double AdaptationTerms::omega2_lambda(int i, int j, int k) const {
  const auto& d = *local_;
  const double ubar = 0.5 * (xi_->u()(i, j, k) + xi_->u()(i + 1, j, k));
  const double inv_dl = 1.0 / ctx_->mesh->dlambda();
  const double dpes =
      dcent_x(ctx_->params.x_order, d.pes(i - 2, j), d.pes(i - 1, j),
              d.pes(i + 1, j), d.pes(i + 2, j), inv_dl);
  return ubar / d.pes(i, j) * dpes /
         (ctx_->mesh->radius() * ctx_->sin_t(j));
}

double AdaptationTerms::d_sa(int i, int j) const {
  const auto& psa = xi_->psa();
  const double a = ctx_->mesh->radius();
  const double dl = ctx_->mesh->dlambda();
  const double dt = ctx_->mesh->dtheta();
  const double sj = ctx_->sin_t(j);
  const double lap_x = (psa(i + 1, j) - 2.0 * psa(i, j) + psa(i - 1, j)) /
                       (dl * dl * sj * sj);
  const double flux_s =
      ctx_->sin_tv(j) * (psa(i, j + 1) - psa(i, j)) / dt;
  const double flux_n =
      ctx_->sin_tv(j - 1) * (psa(i, j) - psa(i, j - 1)) / dt;
  const double lap_y = (flux_s - flux_n) / (dt * sj);
  return util::kDissipationKsa * ctx_->params.dsa_diffusivity /
         util::kPressureRef * (lap_x + lap_y) / (a * a);
}

double AdaptationTerms::tend_u(int i, int j, int k) const {
  // du/dt = -f v (V is positive toward the SOUTH pole in the colatitude
  // convention): the paper's U-equation sign as printed.
  return -p_lambda1(i, j, k) - p_lambda2(i, j, k) - coriolis_u(i, j, k);
}

double AdaptationTerms::tend_v(int i, int j, int k) const {
  // dv/dt = +f u for the antisymmetric (energy-conserving) pair; the
  // paper's printed -f*U makes the pair symmetric (a typo, DESIGN.md §2).
  return -p_theta1(i, j, k) - p_theta2(i, j, k) + coriolis_v(i, j, k);
}

double AdaptationTerms::tend_phi(int i, int j, int k) const {
  const auto& p = ctx_->params;
  const double b = util::kGravityWaveSpeed;
  const double bracket =
      b * (1.0 + p.delta_c) +
      p.delta * util::kKappa * xi_->phi()(i, j, k) / local_->pfac(i, j);
  return (1.0 - p.delta_p) * bracket *
         (omega1(i, j, k) + omega2_theta(i, j, k) + omega2_lambda(i, j, k));
}

double AdaptationTerms::tend_psa(int i, int j) const {
  return util::kPressureRef * ctx_->params.kappa_star * d_sa(i, j);
}

void apply_adaptation(const OpContext& ctx, const state::State& xi,
                      const LocalDiag& local, const VertDiag& vert,
                      state::State& tend, const mesh::Box& window) {
  AdaptationTerms terms(ctx, xi, local, vert);
  for (int k = window.k0; k < window.k1; ++k) {
    for (int j = window.j0; j < window.j1; ++j) {
      for (int i = window.i0; i < window.i1; ++i) {
        tend.u()(i, j, k) = terms.tend_u(i, j, k);
        tend.v()(i, j, k) = terms.tend_v(i, j, k);
        tend.phi()(i, j, k) = terms.tend_phi(i, j, k);
      }
    }
  }
  for (int j = window.j0; j < window.j1; ++j)
    for (int i = window.i0; i < window.i1; ++i)
      tend.psa()(i, j) =
          terms.tend_psa(i, j) - util::kPressureRef * vert.divsum(i, j);
}

}  // namespace ca::ops
