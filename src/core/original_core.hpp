// Distributed original algorithm (Algorithm 1): a halo exchange before
// EVERY stencil update — 3M adaptation updates + 3 advection updates + 1
// smoothing exchange = 3M + 4 communications per step (13 for M = 3, the
// count the paper reduces to 2) — plus the per-update collective
// communications of C (z line, Y-Z scheme) or F (x line, X-Y scheme).
#pragma once

#include "comm/topology.hpp"
#include "core/dycore_config.hpp"
#include "core/exchange.hpp"
#include "mesh/decomp.hpp"
#include "mesh/latlon.hpp"
#include "mesh/sigma.hpp"
#include "ops/filter.hpp"
#include "ops/tendency.hpp"
#include "state/initial.hpp"
#include "state/state.hpp"
#include "state/stratification.hpp"

namespace ca::core {

class OriginalCore {
 public:
  /// Collective over ctx.world(): builds the Cartesian topology for
  /// `scheme` with `dims` ranks ({px, py, 1} or {1, py, pz}).
  OriginalCore(const DycoreConfig& config, comm::Context& ctx,
               DecompScheme scheme, std::array<int, 3> dims);

  void step(state::State& xi);
  void run(state::State& xi, int n);

  state::State make_state() const;
  void initialize(state::State& xi, const state::InitialOptions& options);

  const DycoreConfig& config() const { return config_; }
  const state::Stratification& strat() const { return strat_; }
  const mesh::DomainDecomp& decomp() const { return decomp_; }
  const ops::OpContext& op_context() const { return opctx_; }
  /// Installs a terrain field (see state::make_terrain); the caller keeps
  /// it alive for the core's lifetime.  Null restores a flat surface.
  void set_terrain(const util::Array2D<double>* phi_surface) {
    opctx_.phi_surface = phi_surface;
  }
  const comm::CartTopology& topology() const { return topo_; }
  DecompScheme scheme() const { return scheme_; }
  /// Halo-exchange engine and polar filter (read-only; exposed so tests
  /// can inspect message counts and workspace reuse counters).
  const HaloExchanger& exchanger() const { return exchanger_; }
  const ops::FourierFilter& filter() const { return filter_; }

  /// Exchange + physical boundary fill of every halo this core uses.
  void refresh_halos(state::State& s, const std::string& phase);

  /// tend = F~(C + A-hat)(psi); exchanges psi's halos first.  Exposed for
  /// operator-level tests.
  void adaptation_tendency(state::State& psi, state::State& tend);
  /// tend = F~(L~)(psi); exchanges first; sigma-dot is re-derived from the
  /// last C's column anchors without communication.
  void advection_tendency(state::State& psi, state::State& tend);

 private:
  void apply_filter(state::State& tend, const mesh::Box& window);
  /// The exchange item list of refresh_halos (every halo this core uses).
  std::vector<ExchangeItem> halo_items(state::State& s) const;
  /// Physical boundary fill at full halo width.
  void fill_physical(state::State& s);

  DycoreConfig config_;
  DecompScheme scheme_;
  comm::Context* comm_ctx_;
  mesh::LatLonMesh mesh_;
  mesh::SigmaLevels levels_;
  state::Stratification strat_;
  comm::CartTopology topo_;
  mesh::DomainDecomp decomp_;
  ops::OpContext opctx_;
  ops::FourierFilter filter_;
  ops::DiagWorkspace ws_;
  HaloExchanger exchanger_;
  state::State tend_, eta_, mid_;
};

}  // namespace ca::core
