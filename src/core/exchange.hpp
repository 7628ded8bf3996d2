// Communication engines of the distributed dynamical core:
//   - physical boundary fills (periodic x, pole reflection, zero-gradient z)
//   - the neighbor halo exchange (blocking, and split begin/finish for the
//     communication/computation overlap of Algorithm 2)
//   - the distributed C operator: column partials + the two z-line
//     collectives (allreduce + exscan) + column finish
#pragma once

#include <span>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/topology.hpp"
#include "mesh/halo.hpp"
#include "ops/context.hpp"
#include "ops/tendency.hpp"
#include "state/state.hpp"

namespace ca::core {

/// Fills the halo sides that have no neighboring rank: x periodic wrap
/// when the rank owns full circles, pole reflection in y (U/Phi/psa
/// symmetric, V antisymmetric), zero-gradient in z.  Widths select how
/// deep to fill (clamped to the allocated halos).
void apply_physical_boundaries(const ops::OpContext& ctx, state::State& s,
                               int wx, int wy, int wz);

/// One field (3-D or 2-D) participating in a halo exchange, with
/// per-axis halo widths.
struct ExchangeItem {
  util::Array3D<double>* f3 = nullptr;
  util::Array2D<double>* f2 = nullptr;
  int wx = 0, wy = 0, wz = 0;
};

/// Neighbor halo exchange over the Cartesian topology.
///
/// Two message granularities:
///   - per-item (default): one message per (neighbor, item) pair — the
///     granularity the paper counts ("about 20 MPI_Isend and MPI_Recv
///     operations ... due to the length of xi being ten");
///   - coalesced (comm.coalesce_exchange): every item bound for one
///     neighbor packs into a single message, cutting messages per round
///     from ~items x neighbors to ~neighbors.  Both modes deliver
///     bitwise-identical halos.
///
/// Pack and receive buffers come from persistent per-exchanger pools:
/// after a warm-up step every acquire reuses existing capacity, so the
/// steady-state step loop performs no heap allocation here (asserted via
/// CommStats::pool()).
class HaloExchanger {
 public:
  HaloExchanger(comm::Context& ctx, const comm::CartTopology& topo,
                const mesh::DomainDecomp& decomp, bool coalesce = false)
      : ctx_(&ctx), topo_(&topo), decomp_(&decomp), coalesce_(coalesce) {}

  /// Switches message granularity (takes effect at the next begin()).
  void set_coalesce(bool on) { coalesce_ = on; }
  bool coalesce() const { return coalesce_; }

  /// Posts receives and sends for all items; returns immediately.  If a
  /// previous round still has receives in flight they are drained first
  /// (re-posting onto the same (neighbor, tag) triples would break FIFO
  /// matching).
  void begin(const std::vector<ExchangeItem>& items,
             const std::string& phase);
  /// Waits for every posted receive and unpacks it into the halos; a
  /// second finish() without a begin() in between is a no-op.
  void finish();
  /// begin + finish.
  void exchange(const std::vector<ExchangeItem>& items,
                const std::string& phase);

  /// Messages sent by the last begin() (for schedule validation).
  std::size_t last_message_count() const { return last_message_count_; }

 private:
  /// One contiguous slice of a received message, destined for one item's
  /// halo region.  Per-item messages have exactly one segment; coalesced
  /// messages carry one per participating item.
  struct UnpackSeg {
    int item = 0;
    mesh::Box box3{};
    bool is2d = false;
    int i0 = 0, i1 = 0, j0 = 0, j1 = 0;  // 2-D box
    std::size_t offset = 0;              // doubles into the message
    std::size_t count = 0;
  };

  struct PendingRecv {
    comm::Request request;
    std::span<double> buffer;  // view into recv_pool_
    std::size_t seg_begin = 0, seg_end = 0;  // range in segs_
    int nbr = -1;
  };

  /// Grabs the next pool slot resized to n doubles, recording whether the
  /// acquire had to grow the slot's heap capacity.
  std::span<double> acquire(std::vector<std::vector<double>>& pool,
                            std::size_t& cursor, std::size_t n);

  /// Receive-side geometry of item `it` from the neighbor at (dx, dy, dz).
  UnpackSeg recv_seg(const ExchangeItem& item, int it, int dx, int dy,
                     int dz) const;

  void post_per_item(int nbr, int dx, int dy, int dz);
  void post_coalesced(int nbr, int dx, int dy, int dz);

  /// Blocks on pr's message ("exchange_wait" phase) and unpacks it
  /// ("exchange" phase).
  void complete(PendingRecv& pr);
  /// Copies pr's message into the destination halo regions.
  void unpack(const PendingRecv& pr);

  comm::Context* ctx_;
  const comm::CartTopology* topo_;
  const mesh::DomainDecomp* decomp_;
  bool coalesce_ = false;
  std::vector<ExchangeItem> items_;
  std::vector<UnpackSeg> segs_;
  std::vector<PendingRecv> recvs_;
  std::vector<std::vector<double>> send_pool_, recv_pool_;
  std::size_t send_cursor_ = 0, recv_cursor_ = 0;
  std::size_t last_message_count_ = 0;
};

/// Computes the full diagnostics (LocalDiag + VertDiag) for an update
/// window, inserting the two z-line collectives when line_z has more than
/// one rank.  `stale_vert == true` refreshes only the local part and
/// leaves ws.vert untouched — the previous C products are reused (the
/// paper's C(psi^{i-2}) replacement, eq. 13), which is also how the
/// advection process obtains its sigma-dot without communication.
void compute_diagnostics(const ops::OpContext& ctx, comm::Context* comm_ctx,
                         const comm::Communicator* line_z,
                         const state::State& xi, const mesh::Box& window,
                         ops::DiagWorkspace& ws, bool stale_vert,
                         comm::AllreduceAlgorithm alg,
                         const std::string& phase);

/// Gathers every rank's owned interior into one full-domain state on rank
/// 0 of the topology's communicator (returned state is empty elsewhere).
/// Used by the equivalence tests and the examples' global diagnostics.
state::State gather_global(const ops::OpContext& ctx, comm::Context& cc,
                           const comm::CartTopology& topo,
                           const state::State& xi);

}  // namespace ca::core
