#include "core/schedule_builders.hpp"

#include <algorithm>
#include <cmath>

#include "mesh/decomp.hpp"
#include "ops/context.hpp"
#include "ops/filter.hpp"
#include "perf/cost.hpp"

namespace ca::core {
namespace {

using perf::MachineModel;
using perf::Schedule;

/// Geometry of one rank in the process grid (mirrors DomainDecomp +
/// CartTopology without needing a mesh object).
struct RankGeom {
  int rank = 0;
  std::array<int, 3> coords{};
  std::array<int, 3> dims{};
  mesh::Range xr, yr, zr;

  int lnx() const { return xr.count; }
  int lny() const { return yr.count; }
  int lnz() const { return zr.count; }

  int neighbor(int dx, int dy, int dz) const {
    int cx = coords[0] + dx;
    int cy = coords[1] + dy;
    int cz = coords[2] + dz;
    cx = ((cx % dims[0]) + dims[0]) % dims[0];  // x periodic
    if (cy < 0 || cy >= dims[1] || cz < 0 || cz >= dims[2]) return -1;
    const int nbr = cx + cy * dims[0] + cz * dims[0] * dims[1];
    return nbr == rank ? -1 : nbr;
  }
};

RankGeom geom_of(const ScheduleParams& p, int rank) {
  RankGeom g;
  g.rank = rank;
  g.dims = {p.grid.px, p.grid.py, p.grid.pz};
  g.coords = {rank % p.grid.px, (rank / p.grid.px) % p.grid.py,
              rank / (p.grid.px * p.grid.py)};
  g.xr = mesh::block_range(static_cast<int>(p.mesh.nx), p.grid.px,
                           g.coords[0]);
  g.yr = mesh::block_range(static_cast<int>(p.mesh.ny), p.grid.py,
                           g.coords[1]);
  g.zr = mesh::block_range(static_cast<int>(p.mesh.nz), p.grid.pz,
                           g.coords[2]);
  return g;
}

/// One field in a modeled exchange: widths per axis; is2d skips dz != 0.
struct Item {
  int wx = 0, wy = 0, wz = 0;
  bool is2d = false;
};

/// Message size (doubles) for item `it` toward offset (dx,dy,dz), matching
/// mesh::send_box volumes.
long long message_doubles(const RankGeom& g, const Item& it, int dx, int dy,
                          int dz) {
  auto span = [](int n, int d, int w) { return d == 0 ? n : w; };
  const long long vx = span(g.lnx(), dx, it.wx);
  const long long vy = span(g.lny(), dy, it.wy);
  const long long vz = it.is2d ? 1 : span(g.lnz(), dz, it.wz);
  return vx * vy * vz;
}

/// Emits the exchange's irecvs + isends (mirroring HaloExchanger::begin).
/// Returns true if anything was posted (so waitall can be emitted).
bool emit_exchange_begin(Schedule& s, const RankGeom& g,
                         const std::vector<Item>& items) {
  bool any = false;
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const int nbr = g.neighbor(dx, dy, dz);
        if (nbr < 0) continue;
        for (const Item& it : items) {
          if ((dx != 0 && it.wx == 0) || (dy != 0 && it.wy == 0) ||
              (dz != 0 && (it.wz == 0 || it.is2d)))
            continue;
          const std::size_t bytes =
              static_cast<std::size_t>(message_doubles(g, it, dx, dy, dz)) *
              sizeof(double);
          s.add_isend(g.rank, nbr, bytes, kPhaseStencil);
          s.add_irecv(g.rank, nbr, kPhaseStencil);
          any = true;
        }
      }
    }
  }
  return any;
}

void emit_exchange(Schedule& s, const RankGeom& g,
                   const std::vector<Item>& items) {
  if (emit_exchange_begin(s, g, items)) s.add_waitall(g.rank, kPhaseStencil);
}

/// Filter work: number of active (row, field-level) lines in [j0, j1).
struct FilterWork {
  long long lines = 0;
};

FilterWork filter_lines(const ScheduleParams& p, const RankGeom& g) {
  FilterWork w;
  w.lines = static_cast<long long>(modeled_filter_rows(p, g.rank)) *
            (p.fields3d * g.lnz() + 1);
  return w;
}

double fft_flops(long long nx, long long lines) {
  return 5.0 * static_cast<double>(nx) *
         std::max(1.0, std::log2(static_cast<double>(nx))) *
         static_cast<double>(lines) * 2.0;  // forward + inverse
}

/// Emits the Fourier filter of one update.
void emit_filter(Schedule& s, const ScheduleParams& p, const RankGeom& g,
                 DecompScheme scheme, const MachineModel& m,
                 const std::vector<int>& xline_groups) {
  const FilterWork w = filter_lines(p, g);
  (void)scheme;
  if (p.grid.px == 1) {
    s.add_compute(g.rank, fft_flops(p.mesh.nx, w.lines), kPhaseCompute);
    return;
  }
  // X-Y: the distributed FFT is priced as the butterfly algorithm the
  // paper's W_XY formula assumes — log2(px) rounds each moving the local
  // slab of active lines.  (The functional reference implementation uses
  // a simpler allgather; see DESIGN.md.)
  const std::size_t local_bytes = static_cast<std::size_t>(w.lines) *
                                  static_cast<std::size_t>(g.lnx()) *
                                  sizeof(double);
  const double rounds = std::ceil(std::log2(static_cast<double>(p.grid.px)));
  const double cost =
      rounds * (m.alpha + m.collective_round_overhead +
                m.beta * static_cast<double>(local_bytes));
  const int group =
      xline_groups[static_cast<std::size_t>(g.coords[1] +
                                            g.coords[2] * p.grid.py)];
  s.add_collective(g.rank, group, cost,
                   static_cast<std::size_t>(rounds) * local_bytes,
                   kPhaseCollective);
  s.add_compute(g.rank, fft_flops(p.mesh.nx, w.lines), kPhaseCompute);
}

/// Emits the two z-line collectives of one fresh C execution; `face` is
/// the (i,j) face point count the column sums cover.
void emit_c_collectives(Schedule& s, const ScheduleParams& p,
                        const RankGeom& g, const MachineModel& m,
                        const std::vector<int>& zline_groups,
                        long long face) {
  if (p.grid.pz <= 1) return;
  const std::size_t bytes =
      static_cast<std::size_t>(2 * face) * sizeof(double);
  const int group =
      zline_groups[static_cast<std::size_t>(g.coords[0] +
                                            g.coords[1] * p.grid.px)];
  s.add_collective(g.rank, group,
                   perf::allreduce_time(m, p.grid.pz, bytes),
                   perf::ring_allreduce_bytes(p.grid.pz, bytes),
                   kPhaseCollective);
  // Exclusive scan: a (pz-1)-stage chain; every rank but the last sends
  // its vector once.
  const double exscan_cost =
      (p.grid.pz - 1) *
      (m.alpha + m.collective_round_overhead +
       m.beta * static_cast<double>(bytes));
  s.add_collective(g.rank, group, exscan_cost,
                   g.coords[2] == p.grid.pz - 1 ? 0 : bytes,
                   kPhaseCollective);
}

/// Extended-window volume for the CA redundant computation: the interior
/// grown by e toward sides with neighbors.
long long window_volume(const RankGeom& g, int ey, int ez) {
  const int lo_y = g.coords[1] > 0 ? ey : 0;
  const int hi_y = g.coords[1] < g.dims[1] - 1 ? ey : 0;
  const int lo_z = g.coords[2] > 0 ? ez : 0;
  const int hi_z = g.coords[2] < g.dims[2] - 1 ? ez : 0;
  return static_cast<long long>(g.lnx()) * (g.lny() + lo_y + hi_y) *
         (g.lnz() + lo_z + hi_z);
}

long long window_face(const RankGeom& g, int ey) {
  const int lo_y = g.coords[1] > 0 ? ey : 0;
  const int hi_y = g.coords[1] < g.dims[1] - 1 ? ey : 0;
  return static_cast<long long>(g.lnx() + 4) * (g.lny() + lo_y + hi_y + 2);
}

std::vector<int> make_line_groups(Schedule& s, const ScheduleParams& p,
                                  bool z_lines) {
  std::vector<int> groups;
  if (z_lines) {
    groups.resize(static_cast<std::size_t>(p.grid.px) * p.grid.py);
    for (int cy = 0; cy < p.grid.py; ++cy)
      for (int cx = 0; cx < p.grid.px; ++cx) {
        std::vector<int> members;
        for (int cz = 0; cz < p.grid.pz; ++cz)
          members.push_back(cx + cy * p.grid.px +
                            cz * p.grid.px * p.grid.py);
        groups[static_cast<std::size_t>(cx + cy * p.grid.px)] =
            s.add_group(std::move(members));
      }
  } else {
    groups.resize(static_cast<std::size_t>(p.grid.py) * p.grid.pz);
    for (int cz = 0; cz < p.grid.pz; ++cz)
      for (int cy = 0; cy < p.grid.py; ++cy) {
        std::vector<int> members;
        for (int cx = 0; cx < p.grid.px; ++cx)
          members.push_back(cx + cy * p.grid.px +
                            cz * p.grid.px * p.grid.py);
        groups[static_cast<std::size_t>(cy + cz * p.grid.py)] =
            s.add_group(std::move(members));
      }
  }
  return groups;
}

}  // namespace

perf::Schedule build_original_schedule(const ScheduleParams& p,
                                       DecompScheme scheme,
                                       const MachineModel& m) {
  const int nranks = p.grid.total();
  Schedule s(nranks);
  const auto zgroups = make_line_groups(s, p, /*z_lines=*/true);
  const auto xgroups = make_line_groups(s, p, /*z_lines=*/false);

  for (int r = 0; r < nranks; ++r) {
    const RankGeom g = geom_of(p, r);
    // Per-update halo items: the functional core exchanges full widths
    // (3-D: wy=2, wz=1; 2-D psa: wy=4) each refresh; X-Y adds x widths.
    const int wx3 = p.grid.px > 1 ? 3 : 0;
    std::vector<Item> items;
    for (int f = 0; f < p.fields3d; ++f)
      items.push_back(Item{wx3, 2, 1, false});
    items.push_back(Item{p.grid.px > 1 ? 3 : 0, 3, 0, true});  // psa hy2

    const long long vol =
        static_cast<long long>(g.lnx()) * g.lny() * g.lnz();
    const long long face =
        static_cast<long long>(g.lnx() + 4) * (g.lny() + 2);

    for (int step = 0; step < p.steps; ++step) {
      for (int u = 0; u < 3 * p.M; ++u) {
        emit_exchange(s, g, items);
        s.add_compute(g.rank,
                      p.flops_adapt * static_cast<double>(vol) +
                          p.flops_column * static_cast<double>(vol),
                      kPhaseCompute);
        if (p.grid.pz > 1) emit_c_collectives(s, p, g, m, zgroups, face);
        emit_filter(s, p, g, scheme, m, xgroups);
      }
      for (int u = 0; u < 3; ++u) {
        emit_exchange(s, g, items);
        s.add_compute(g.rank, p.flops_advect * static_cast<double>(vol),
                      kPhaseCompute);
        emit_filter(s, p, g, scheme, m, xgroups);
      }
      emit_exchange(s, g, items);
      s.add_compute(g.rank, p.flops_smooth * static_cast<double>(vol),
                    kPhaseCompute);
    }
  }
  return s;
}

perf::Schedule build_ca_schedule(const ScheduleParams& p,
                                 const MachineModel& m) {
  const int nranks = p.grid.total();
  Schedule s(nranks);
  const auto zgroups = make_line_groups(s, p, /*z_lines=*/true);
  const auto xgroups = make_line_groups(s, p, /*z_lines=*/false);
  const int M = p.M;
  const int depth_y = 3 * M + 1;
  const int depth_z = 3 * M;

  for (int r = 0; r < nranks; ++r) {
    const RankGeom g = geom_of(p, r);

    // Adaptation exchange items: xi (3-D x3 + psa) + the C products
    // (divsum, sdot, w, phi_geo) + fused pre-smoothing rows.
    std::vector<Item> aitems;
    for (int f = 0; f < p.fields3d; ++f)
      aitems.push_back(Item{0, depth_y, 0, false});
    aitems.push_back(Item{0, depth_z + 2, 0, true});  // psa (hy2 = 3M+2)
    aitems.push_back(Item{0, depth_z + 2, 0, true});  // divsum
    aitems.push_back(Item{0, depth_y, 0, false});     // sdot
    aitems.push_back(Item{0, depth_y, 0, false});     // w
    aitems.push_back(Item{0, depth_y, 0, false});     // phi_geo
    if (p.fuse_smoothing) {
      // Depth 4: S2 recomputes the +-2 halo rows as complete canonical
      // folds, which read pre-smoothing rows out to +-4.
      aitems.push_back(Item{0, 4, 0, false});  // pre Phi (y only)
      aitems.push_back(Item{0, 4, 0, true});   // pre psa
    }
    // Advection exchange items: xi + sdot.
    std::vector<Item> vitems;
    for (int f = 0; f < p.fields3d; ++f)
      vitems.push_back(Item{0, 4, 3, false});
    vitems.push_back(Item{0, depth_z + 2, 0, true});  // psa full width
    vitems.push_back(Item{0, 4, 3, false});          // sdot

    const long long inner_vol = window_volume(g, -4, 0);

    for (int step = 0; step < p.steps; ++step) {
      // Former smoothing (S1), then the single deep exchange with the
      // inner eta1 computation overlapped.
      if (p.fuse_smoothing)
        s.add_compute(g.rank,
                      p.flops_smooth * static_cast<double>(
                                           window_volume(g, 0, 0)),
                      kPhaseCompute);
      const bool posted = emit_exchange_begin(s, g, aitems);
      if (p.overlap && inner_vol > 0)
        s.add_compute(g.rank,
                      (p.flops_adapt + p.flops_column) *
                          static_cast<double>(inner_vol),
                      kPhaseCompute);
      if (posted) s.add_waitall(g.rank, kPhaseStencil);

      int u = 0;
      for (int iter = 0; iter < M; ++iter) {
        for (int sub = 0; sub < 3; ++sub, ++u) {
          const int e = 3 * M - 1 - u;
          long long vol = window_volume(g, e, 0);
          if (iter == 0 && sub == 0 && p.overlap)
            vol = std::max<long long>(0, vol - inner_vol);
          s.add_compute(g.rank,
                        (p.flops_adapt + p.flops_column) *
                            static_cast<double>(vol),
                        kPhaseCompute);
          const bool fresh =
              sub > 0 || !p.ca.approximate_iteration;
          if (fresh)
            emit_c_collectives(s, p, g, m, zgroups,
                               p.ca.fresh_c_on_block_face
                                   ? window_face(g, 1)
                                   : window_face(g, e + 1));
          emit_filter(s, p, g, DecompScheme::kYZ, m, xgroups);
        }
      }

      // Advection: one exchange, three updates on shrinking windows.
      const bool aposted = emit_exchange_begin(s, g, vitems);
      const long long adv_inner = window_volume(g, -4, -2);
      if (p.overlap && adv_inner > 0)
        s.add_compute(g.rank,
                      p.flops_advect * static_cast<double>(adv_inner),
                      kPhaseCompute);
      if (aposted) s.add_waitall(g.rank, kPhaseStencil);
      for (int sub = 0; sub < 3; ++sub) {
        const int e = 2 - sub;
        long long vol = window_volume(g, e, e);
        if (sub == 0 && p.overlap)
          vol = std::max<long long>(0, vol - adv_inner);
        s.add_compute(g.rank, p.flops_advect * static_cast<double>(vol),
                      kPhaseCompute);
        emit_filter(s, p, g, DecompScheme::kYZ, m, xgroups);
      }
    }
  }
  return s;
}

int modeled_filter_rows(const ScheduleParams& params, int rank) {
  const mesh::Range yr = geom_of(params, rank).yr;
  const double band = ops::ModelParams{}.filter_band;
  int rows = 0;
  for (int gj = yr.begin; gj < yr.end(); ++gj)
    if (ops::filter_row_active(gj, static_cast<int>(params.mesh.ny), band))
      ++rows;
  return rows;
}

}  // namespace ca::core
