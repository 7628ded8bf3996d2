#include "dycore.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "comm/collectives.hpp"
#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/campaign.hpp"
#include "core/diagnostics.hpp"
#include "core/exchange.hpp"
#include "core/health.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"
#include "layers.hpp"
#include "mesh/latlon.hpp"
#include "physics/held_suarez.hpp"
#include "util/checkpoint.hpp"

namespace perfbench {

using namespace ca;

namespace {

// --- workload definitions -------------------------------------------------
//
// hs_ca_1x4x1: the paper's algorithm in production use.  A Held-Suarez
//   campaign on the CA core, Y-Z 1x4x1, 96x48x8, M = 3, forcing every
//   step.  nx = 2 ny like the paper's 720x360, so the filter's 48-point
//   half-length lines take the Bluestein FFT path, as 360 does.  The run
//   is compute-bound and dominated by the polar filter (only the two
//   polar ranks filter): it LOADS ops (F above all), fft, physics and the
//   core's load balance, and nearly BYPASSES comm (two deep-halo rounds
//   per step, no z-collectives at pz = 1).
// wave_orig_1x2x2: the paper's baseline in the communication-heavy
//   regime.  The original core on Y-Z 1x2x2, 32x24x8, M = 3, no forcing:
//   3M+4 neighbour rounds plus z-collectives per step on a 32x12x4 block
//   per rank.  It LOADS comm (many small messages and collectives) and
//   BYPASSES ops.F / fft (cheap radix-2 16-point lines) and physics.
//
// Both run the default configuration (per-item exchange, overlap off)
// with the health sentinel at cadence 1; its per-step allreduce keeps the
// ranks in lock-step, so rank 0's step intervals time the whole grid.
// The seed draws the planetary wave's jet speed and amplitude (+-5%); the
// program receives only those inputs.
constexpr DycoreSpec kHsCa{"hs_ca_1x4x1", true, {1, 4, 1}, 96, 48, 8, 3,
                           true, 5, false};
constexpr DycoreSpec kWaveOrig{"wave_orig_1x2x2", false, {1, 2, 2}, 32, 24,
                               8, 3, false, 20, true};

/// Steps of the correctness prefix compared with the serial core.
constexpr int kPrefixSteps = 2;
/// Documented accuracy classes against the serial core: the original
/// core reproduces it to round-off (core_parallel_equiv_test: 1e-8); the
/// CA core's approximate iteration stays within 1e-2 max-abs
/// (core_parallel_equiv_test, CAvsOriginal).
constexpr double kOriginalTolerance = 1e-8;
constexpr double kCATolerance = 1e-2;
/// Set-up repetitions per run (median reported).
constexpr int kSetupReps = 21;
/// Share of a traced run's seconds given to the service probe's open
/// loop (wave_orig_1x2x2 only).
constexpr double kServiceProbeShare = 0.5;
/// Calls per collective probe (every rank makes exactly this many).
constexpr int kCollectiveCalls = 40;
/// A segment's steps are scaled to the reference speed by the median
/// reference-kernel time of every rank over the segments within this
/// distance of it: the host's speed also drifts within a run.
constexpr std::size_t kSpeedWindow = 2;

/// Every rank's reference-kernel times of segments [lo, hi).
std::vector<double> reference_samples(const std::vector<RankAccount>& ranks,
                                      std::size_t lo, std::size_t hi) {
  std::vector<double> v;
  for (const RankAccount& a : ranks)
    v.insert(v.end(), a.ref_cpu_s.begin() + static_cast<std::ptrdiff_t>(lo),
             a.ref_cpu_s.begin() + static_cast<std::ptrdiff_t>(hi));
  return v;
}

state::InitialOptions inputs_from_seed(std::uint64_t seed) {
  Rng rng(seed);
  state::InitialOptions ic;
  ic.kind = state::InitialCondition::kPlanetaryWave;
  ic.jet_speed = 30.0 * (0.95 + 0.1 * rng.uniform());
  ic.wave_amplitude = 0.3 * (0.95 + 0.1 * rng.uniform());
  ic.seed = static_cast<unsigned>(seed);
  return ic;
}

void barrier(comm::Context& ctx) {
  double in = 0.0, out = 0.0;
  comm::allreduce<double>(ctx, ctx.world(), std::span<const double>(&in, 1),
                          std::span<double>(&out, 1), comm::ReduceOp::kMax);
}

/// True on every rank when any rank passes true.
bool any_rank(comm::Context& ctx, bool mine) {
  double in = mine ? 1.0 : 0.0, out = 0.0;
  comm::allreduce<double>(ctx, ctx.world(), std::span<const double>(&in, 1),
                          std::span<double>(&out, 1), comm::ReduceOp::kMax);
  return out > 0.0;
}

/// The state items of the workload's own halo round: the original core's
/// full-halo exchange of (U, V, Phi, p'_sa), or the CA core's deep y-only
/// adaptation round of the same fields at depth 3M + 1.
std::vector<core::ExchangeItem> halo_items(const DycoreSpec& spec,
                                           const mesh::DomainDecomp& decomp,
                                           state::State& s) {
  std::vector<core::ExchangeItem> items;
  if (spec.ca) {
    const int depth = 3 * spec.M + 1;
    for (auto* f : {&s.u(), &s.v(), &s.phi()})
      items.push_back({f, nullptr, 0, depth, 0});
    items.push_back({nullptr, &s.psa(), 0, s.psa().hy(), 0});
    return items;
  }
  const auto h = s.u().halo();
  const int wx = decomp.owns_full_x() ? 0 : h.x;
  for (auto* f : {&s.u(), &s.v(), &s.phi()})
    items.push_back({f, nullptr, wx, h.y, h.z});
  const int wx2 = decomp.owns_full_x() ? 0 : s.psa().hx();
  items.push_back({nullptr, &s.psa(), wx2, s.psa().hy(), 0});
  return items;
}

/// Rank-level probes, run by every rank after the timed segments.
template <typename Core>
RankProbe probe_ranks(const DycoreSpec& spec, Core& core, comm::Context& ctx,
                      state::State& xi, const WindowOptions& wo,
                      int parent) {
  SpanLog& log = *wo.log;
  const int rank = ctx.world_rank();
  const int run = wo.run_id;
  RankProbe p;

  core::HaloExchanger ex(ctx, core.topology(), core.decomp(), false);
  const auto items = halo_items(spec, core.decomp(), xi);
  barrier(ctx);
  p.halo_round_us = 1e6 * median_call_seconds(
                              log, "comm.halo_round", parent, run,
                              [&] { ex.exchange(items, "probe"); }, rank,
                              kCollectiveCalls, 0.0);

  // The C operator's z-line payload: [own_div | own_phi] over the block's
  // face ring.
  const auto face = static_cast<std::size_t>(core.decomp().lnx() + 2) *
                    (core.decomp().lny() + 2);
  std::vector<double> own(2 * face, 1.0), total(2 * face);
  const comm::Communicator& line_z = core.topology().line_z;
  barrier(ctx);
  p.allreduce_us =
      1e6 * median_call_seconds(
                log, "comm.allreduce", parent, run,
                [&] {
                  comm::allreduce<double>(ctx, line_z, own, total,
                                          comm::ReduceOp::kSum,
                                          core.config().z_allreduce);
                },
                rank, kCollectiveCalls, 0.0);

  core::HealthSentinel sentinel(core::HealthOptions{.cadence = 1});
  std::string verdict;
  barrier(ctx);
  p.health_ms = 1e3 * median_call_seconds(
                          log, "core.health", parent, run,
                          [&] {
                            auto d = core::local_diagnostics(
                                core.op_context(), xi);
                            d = core::reduce_diagnostics(ctx, ctx.world(), d);
                            verdict = sentinel.check(d);
                          },
                          rank, kCollectiveCalls, 0.0);
  if (!verdict.empty())
    throw std::runtime_error("probe health check failed: " + verdict);

  // Rank-local probes on rank 0's block (a polar block); the other ranks
  // wait at the barrier below.
  if (rank == 0) {
    physics::HeldSuarezForcing forcing(core.op_context());
    state::State scratch = xi;
    p.hs_ms = 1e3 * median_call_seconds(log, "physics.hs", parent, run, [&] {
                forcing.apply(scratch, core.config().dt_advect);
              });

    const mesh::LatLonMesh mesh(spec.nx, spec.ny, spec.nz);
    const std::string path = util::checkpoint_path(
        wo.work_dir + "/probe-" + std::to_string(run), rank);
    util::CheckpointSession session(path);
    std::int64_t step = 0;
    p.ckpt_write_ms =
        1e3 * median_call_seconds(
                  log, "ckpt.write", parent, run,
                  [&] {
                    ++step;
                    session.write(mesh, core.decomp(), xi, step,
                                  step * core.config().dt_advect);
                  },
                  0, 9, 0.0);
    p.ckpt_bytes = static_cast<double>(session.stats().bytes_written) /
                   static_cast<double>(session.stats().cadences);
    p.ckpt_restore_ms =
        1e3 * median_call_seconds(log, "ckpt.restore", parent, run, [&] {
          util::read_checkpoint_chain(path, mesh, core.decomp(), scratch);
        });
    std::filesystem::remove(path);
  }
  barrier(ctx);
  return p;
}

}  // namespace

core::DycoreConfig DycoreSpec::config() const {
  core::DycoreConfig c;
  c.nx = nx;
  c.ny = ny;
  c.nz = nz;
  c.M = M;
  return c;
}

Window run_window(const DycoreSpec& spec, const state::InitialOptions& ic,
                  const WindowOptions& wo) {
  const int p = spec.ranks();
  const core::DycoreConfig cfg = spec.config();
  comm::RunOptions run_opts;
  run_opts.obs.dump_dir = wo.work_dir;
  // A rank that dies leaves its peers blocked until this deadline; the
  // default (120 s) would overrun the benchmark's 180 s limit.
  run_opts.recv_timeout = std::chrono::seconds(30);

  Window w;
  w.ranks.resize(static_cast<std::size_t>(p));
  // Each rank writes only its own element of these and of w.ranks.
  std::vector<double> entry(p), ctor_end(p), init_end(p);
  SpanLog& log = *wo.log;

  const double spawn_cpu = process_cpu_us();
  const double spawn_start = now_us();
  auto rank_main = [&](comm::Context& ctx, auto make_core) {
    const int rank = ctx.world_rank();
    entry[rank] = now_us();
    auto core = make_core();
    ctor_end[rank] = now_us();
    state::State xi = core.make_state();
    core.initialize(xi, ic);
    init_end[rank] = now_us();
    barrier(ctx);
    if (rank == 0) {
      const double ready = now_us();
      w.setup.cpu_s = (process_cpu_us() - spawn_cpu) * 1e-6;
      w.setup.total_s = (ready - spawn_start) * 1e-6;
      for (int r = 0; r < p; ++r) {
        w.setup.spawn_s =
            std::max(w.setup.spawn_s, (entry[r] - spawn_start) * 1e-6);
        w.setup.ctor_s =
            std::max(w.setup.ctor_s, (ctor_end[r] - entry[r]) * 1e-6);
        w.setup.init_s =
            std::max(w.setup.init_s, (init_end[r] - ctor_end[r]) * 1e-6);
      }
      const int root = log.record("setup", spawn_start, ready, -1, wo.run_id);
      for (int r = 0; r < p; ++r) {
        log.record("spawn", spawn_start, entry[r], root, wo.run_id, r);
        log.record("core_ctor", entry[r], ctor_end[r], root, wo.run_id, r);
        log.record("initialize", ctor_end[r], init_end[r], root, wo.run_id,
                   r);
      }
    }
    if (wo.setup_only) return;

    physics::HeldSuarezForcing forcing(core.op_context());
    core::CampaignOptions co;
    co.health.cadence = 1;
    co.forcing = spec.forcing ? &forcing : nullptr;
    std::vector<double> stamps, cpu_stamps;
    co.on_step = [&](int) {
      stamps.push_back(now_us());
      cpu_stamps.push_back(thread_cpu_us());
    };

    RankAccount acct;
    std::vector<double> steps_s;
    int done = 0, segments = 0, failed = 0;
    const int timed_root =
        rank == 0 ? log.open("timed_window", -1, wo.run_id) : -1;
    const double t_start = now_us();
    for (;;) {
      acct.ref_cpu_s.push_back(reference_kernel_cpu_s());
      co.start_step = done;
      co.steps = done + spec.segment_steps;
      stamps.clear();
      cpu_stamps.clear();
      const auto s0 = ctx.stats().grand_totals();
      const auto& tm = ctx.timers();
      const double e0 = tm.total("exchange"), ew0 = tm.total("exchange_wait"),
                   c0 = tm.total("collective");
      const double seg0 = now_us();
      bool tripped = false;
      try {
        core::run_campaign(core, &ctx, xi, co);
      } catch (const core::NumericalError&) {
        // Thrown on every rank at the same step (identical reduced
        // verdict), so all ranks leave the loop together.
        tripped = true;
      }
      cpu_stamps.push_back(thread_cpu_us());
      const double seg1 = now_us();
      const auto s1 = ctx.stats().grand_totals();
      for (std::size_t i = 0; i + 1 < cpu_stamps.size(); ++i)
        acct.step_cpu_s.push_back((cpu_stamps[i + 1] - cpu_stamps[i]) * 1e-6);
      acct.segment_steps.push_back(cpu_stamps.size() - 1);
      acct.wall_s += (seg1 - seg0) * 1e-6;
      acct.exchange_s += tm.total("exchange") - e0;
      acct.exchange_wait_s += tm.total("exchange_wait") - ew0;
      acct.collective_s += tm.total("collective") - c0;
      acct.messages += s1.p2p_messages - s0.p2p_messages;
      acct.bytes += s1.p2p_bytes - s0.p2p_bytes;
      acct.collectives += s1.collective_calls - s0.collective_calls;
      ++segments;
      if (rank == 0) {
        const int seg_span =
            log.record("segment", seg0, seg1, timed_root, segments);
        stamps.push_back(seg1);
        for (std::size_t i = 0; i + 1 < stamps.size(); ++i) {
          steps_s.push_back((stamps[i + 1] - stamps[i]) * 1e-6);
          log.record("step_interval", stamps[i], stamps[i + 1], seg_span,
                     segments);
        }
      }
      if (tripped) {
        ++failed;
        break;
      }
      done += spec.segment_steps;
      const bool out_of_time =
          rank == 0 && (seg1 - t_start) >= wo.seconds * 1e6;
      if (any_rank(ctx, out_of_time)) break;
    }
    log.close(timed_root);

    w.ranks[static_cast<std::size_t>(rank)] = acct;
    if (rank == 0) {
      w.step_s = std::move(steps_s);
      w.steps = static_cast<int>(w.step_s.size());
      w.segments = segments;
      w.failed_segments = failed;
    }
    if (wo.probe && failed == 0) {
      const int probe_root =
          rank == 0 ? log.open("layer_probes", -1, wo.run_id) : -1;
      const RankProbe rp = probe_ranks(spec, core, ctx, xi, wo, probe_root);
      log.close(probe_root);
      if (rank == 0) w.probe = rp;
    }
  };

  try {
    comm::Runtime::run(p, run_opts, [&](comm::Context& ctx) {
      if (spec.ca)
        rank_main(ctx, [&] { return core::CACore(cfg, ctx, spec.dims); });
      else
        rank_main(ctx, [&] {
          return core::OriginalCore(cfg, ctx, core::DecompScheme::kYZ,
                                    spec.dims);
        });
    });
  } catch (const std::exception& e) {
    w.error = e.what();
  }
  if (!w.error.empty()) return w;
  // Every rank runs the same segments and steps, so the per-segment and
  // per-step vectors of the ranks line up.
  const std::size_t segments = w.ranks[0].segment_steps.size();
  w.ref_cpu_s = median(reference_samples(w.ranks, 0, segments));
  std::size_t i = 0;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    const std::size_t lo = seg >= kSpeedWindow ? seg - kSpeedWindow : 0;
    const std::size_t hi = std::min(seg + kSpeedWindow + 1, segments);
    const double scale = kReferenceKernelSeconds /
                         median(reference_samples(w.ranks, lo, hi));
    for (std::size_t end = i + w.ranks[0].segment_steps[seg]; i < end; ++i) {
      double mx = 0.0, sum = 0.0;
      for (const RankAccount& a : w.ranks) {
        mx = std::max(mx, a.step_cpu_s.at(i));
        sum += a.step_cpu_s.at(i);
      }
      w.step_cpu_max_s.push_back(mx);
      w.step_cpu_sum_s.push_back(sum);
      w.step_norm_max_s.push_back(scale * mx);
      w.step_norm_sum_s.push_back(scale * sum);
    }
  }
  return w;
}

Window run_window_with_setup_reps(const DycoreSpec& spec,
                                  const state::InitialOptions& ic,
                                  const WindowOptions& opts, int reps) {
  std::vector<SetupTimes> setups;
  WindowOptions setup_only = opts;
  setup_only.setup_only = true;
  setup_only.probe = false;
  for (int i = 0; i + 1 < reps; ++i) {
    const Window s = run_window(spec, ic, setup_only);
    if (!s.error.empty()) return s;
    setups.push_back(s.setup);
  }
  Window w = run_window(spec, ic, opts);
  setups.push_back(w.setup);
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return median(v);
  };
  w.setup = {med(&SetupTimes::cpu_s), med(&SetupTimes::total_s),
             med(&SetupTimes::spawn_s), med(&SetupTimes::ctor_s),
             med(&SetupTimes::init_s)};
  return w;
}

void set_rank_layer_metrics(Result& r, const Window& w) {
  double busy_max = 0.0, busy_sum = 0.0, wait_frac = 0.0, pack_frac = 0.0;
  double busiest_comm_frac = 0.0;
  std::uint64_t msgs = 0, bytes = 0, colls = 0;
  for (const auto& a : w.ranks) {
    const double wait = a.exchange_wait_s + a.collective_s;
    double busy = 0.0;  // the rank's own CPU time over the timed steps
    for (double x : a.step_cpu_s) busy += x;
    if (busy > busy_max && a.wall_s > 0.0)
      busiest_comm_frac = (wait + a.exchange_s) / a.wall_s;
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
    if (a.wall_s > 0.0) {
      wait_frac = std::max(wait_frac, wait / a.wall_s);
      pack_frac = std::max(pack_frac, a.exchange_s / a.wall_s);
    }
    msgs += a.messages;
    bytes += a.bytes;
    colls += a.collectives;
  }
  const double n = static_cast<double>(w.ranks.size());
  const double steps = std::max(1, w.steps);
  // The slowest (busiest) rank sets the step time; its own share of time
  // in communication is what a comm optimisation could save there.
  r.details["comm_frac_busiest_rank"] = busiest_comm_frac;
  r.set("core.busy_imbalance", busy_sum > 0.0 ? busy_max / (busy_sum / n) : 0.0,
        "ratio");
  r.set("core.health_ms", w.probe.health_ms, "ms");
  r.set("comm.msgs_per_step", static_cast<double>(msgs) / steps, "count");
  r.set("comm.bytes_per_step", static_cast<double>(bytes) / steps, "B");
  r.set("comm.collectives_per_step", static_cast<double>(colls) / steps,
        "count");
  r.set("comm.wait_frac", wait_frac, "ratio");
  r.set("comm.pack_frac", pack_frac, "ratio");
  r.set("comm.halo_round_us", w.probe.halo_round_us, "us");
  r.set("comm.allreduce_us", w.probe.allreduce_us, "us");
  r.set("physics.hs_ms", w.probe.hs_ms, "ms");
  r.set("ckpt.write_ms_p50", w.probe.ckpt_write_ms, "ms");
  r.set("ckpt.bytes_per_write", w.probe.ckpt_bytes, "B");
  r.set("ckpt.restore_ms_p50", w.probe.ckpt_restore_ms, "ms");
  r.set("setup.spawn_ms", 1e3 * w.setup.spawn_s, "ms");
  r.set("setup.core_ctor_ms", 1e3 * w.setup.ctor_s, "ms");
  r.set("setup.initialize_ms", 1e3 * w.setup.init_s, "ms");
}

// --- the dycore workloads -------------------------------------------------

namespace {

const DycoreSpec* find_spec(const std::string& name) {
  for (const DycoreSpec* s : {&kHsCa, &kWaveOrig})
    if (name == s->name) return s;
  return nullptr;
}

/// Correctness gate outside any timed window: kPrefixSteps steps of the
/// workload's core on its decomposition against the serial core.
void check_prefix(const DycoreSpec& spec, const state::InitialOptions& ic,
                  Result& r) {
  const core::DycoreConfig cfg = spec.config();
  core::SerialCore serial(cfg);
  state::State reference = serial.make_state();
  serial.initialize(reference, ic);
  serial.run(reference, kPrefixSteps);

  state::State global;
  comm::Runtime::run(spec.ranks(), [&](comm::Context& ctx) {
    auto finish = [&](auto& core) {
      state::State xi = core.make_state();
      core.initialize(xi, ic);
      core.run(xi, kPrefixSteps);
      state::State g =
          core::gather_global(core.op_context(), ctx, core.topology(), xi);
      if (ctx.world_rank() == 0) global = std::move(g);
    };
    if (spec.ca) {
      core::CACore core(cfg, ctx, spec.dims);
      finish(core);
    } else {
      core::OriginalCore core(cfg, ctx, core::DecompScheme::kYZ, spec.dims);
      finish(core);
    }
  });
  const double diff =
      state::State::max_abs_diff(global, reference, reference.interior());
  const double tol = spec.ca ? kCATolerance : kOriginalTolerance;
  r.details["prefix_steps"] = kPrefixSteps;
  r.details["prefix_max_abs_diff_vs_serial"] = diff;
  r.details["prefix_tolerance"] = tol;
  if (!(diff <= tol))
    r.problem("prefix differs from the serial core by " +
              std::to_string(diff) + " (tolerance " + std::to_string(tol) +
              ")");
}

/// The end-to-end metrics, all CPU times scaled to the reference speed:
/// wall times of lock-step ranks swing several-fold with other tenants of
/// a shared host (see perfbench/README.md).  The unscaled CPU and the
/// wall-clock figures go to the details.
void set_end_to_end(Result& r, const DycoreSpec& spec, const Window& w) {
  const double days = w.steps * spec.config().dt_advect / 86400.0;
  auto per_day = [days](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return days > 0.0 ? sum / days : 0.0;
  };
  // Set-up precedes the timed segments: the whole run's speed scales it.
  const double setup_scale =
      w.ref_cpu_s > 0.0 ? kReferenceKernelSeconds / w.ref_cpu_s : 0.0;
  r.set("setup_s", setup_scale * w.setup.cpu_s, "s");
  r.set("step_norm_ms_p50", 1e3 * quantile(w.step_norm_max_s, 0.5), "ms");
  r.set("step_norm_ms_p90", 1e3 * quantile(w.step_norm_max_s, 0.9), "ms");
  r.set("norm_cpu_s_per_model_day", per_day(w.step_norm_sum_s), "s");
  r.set("peak_rss_mb", peak_rss_mib(), "MiB");
  r.details["steps"] = w.steps;
  r.details["steps_beyond_p90"] = static_cast<double>(w.steps) * 0.1;
  r.details["reference_kernel_ms"] = 1e3 * w.ref_cpu_s;
  r.details["setup_cpu_s"] = w.setup.cpu_s;
  r.details["step_cpu_ms_p50"] = 1e3 * quantile(w.step_cpu_max_s, 0.5);
  r.details["step_cpu_ms_p90"] = 1e3 * quantile(w.step_cpu_max_s, 0.9);
  r.details["cpu_s_per_model_day"] = per_day(w.step_cpu_sum_s);
  r.details["setup_wall_s"] = w.setup.total_s;
  r.details["step_wall_ms_p50"] = 1e3 * quantile(w.step_s, 0.5);
  r.details["step_wall_ms_p90"] = 1e3 * quantile(w.step_s, 0.9);
  r.details["wall_s_per_model_day"] = per_day(w.step_s);
}

void count_operations(Result& r, const Window& w) {
  r.attempted += std::max(w.segments, w.error.empty() ? 0 : 1);
  r.failed += w.failed_segments + (w.error.empty() ? 0 : 1);
  if (!w.error.empty()) r.problems.push_back("rank group failed: " + w.error);
  if (w.failed_segments > 0)
    r.problems.push_back("health sentinel tripped");
}

}  // namespace

Result run_dycore_workload(const Args& args) {
  const DycoreSpec* spec = find_spec(args.workload);
  if (spec == nullptr)
    throw std::invalid_argument("unknown workload " + args.workload);
  const state::InitialOptions ic = inputs_from_seed(args.seed);

  Result r;
  util::Json dims = util::Json::array();
  for (int d : spec->dims) dims.push_back(d);
  r.provenance["core"] = spec->ca ? "ca" : "original";
  r.provenance["dims"] = dims;
  r.provenance["mesh"] = std::to_string(spec->nx) + "x" +
                         std::to_string(spec->ny) + "x" +
                         std::to_string(spec->nz);
  r.provenance["M"] = spec->M;
  r.provenance["held_suarez"] = spec->forcing;
  r.provenance["segment_steps"] = spec->segment_steps;
  r.provenance["jet_speed"] = ic.jet_speed;
  r.provenance["wave_amplitude"] = ic.wave_amplitude;

  check_prefix(*spec, ic, r);

  SpanLog off(false);
  WindowOptions wo;
  wo.work_dir = args.out_dir;
  wo.log = &off;
  if (!args.trace) {
    wo.seconds = args.seconds;
    const Window w = run_window_with_setup_reps(*spec, ic, wo, kSetupReps);
    count_operations(r, w);
    set_end_to_end(r, *spec, w);
    r.provenance["steps"] = w.steps;
    return r;
  }

  // Traced run: an untraced half gives the overhead baseline, then a
  // traced half gives the per-layer numbers, followed by the layer
  // probes (and the service probe on wave_orig_1x2x2).  The program's own
  // obs.trace stays off: on wave_orig_1x2x2 it made steps about 5x
  // slower, which would distort every comm figure.
  const double service_s = spec->service_probe ? kServiceProbeShare * args.seconds : 0.0;
  wo.seconds = (args.seconds - service_s) / 2;
  const Window untraced = run_window_with_setup_reps(*spec, ic, wo, kSetupReps);
  count_operations(r, untraced);

  SpanLog log(true);
  wo.log = &log;
  wo.probe = true;
  wo.run_id = 1;
  const Window traced = run_window_with_setup_reps(*spec, ic, wo, kSetupReps);
  count_operations(r, traced);
  r.provenance["steps"] = traced.steps;

  const int ops_root = log.open("serial_layer_probes", -1, 2);
  const OpsTimes ops = time_ops(spec->nx, spec->ny, spec->nz, spec->M, ic,
                                log, ops_root);
  const double line_us = time_real_line_us(spec->nx, log, ops_root);
  log.close(ops_root);

  set_serial_layer_metrics(r, ops, line_us);
  set_rank_layer_metrics(r, traced);
  if (spec->service_probe) {
    const int root = log.open("service_probe", -1, 3);
    probe_service(args, service_s, log, r);
    log.close(root);
  }
  const double base = quantile(untraced.step_norm_max_s, 0.5);
  const double with_spans = quantile(traced.step_norm_max_s, 0.5);
  r.set("obs.trace_overhead_frac", base > 0.0 ? (with_spans - base) / base : 0.0,
        "ratio");
  r.details["headline"] = "step_norm_ms_p50";
  r.details["hs_share_of_step"] =
      spec->forcing
          ? traced.probe.hs_ms / (1e3 * quantile(traced.step_cpu_max_s, 0.5))
          : 0.0;
  r.details["untraced_step_norm_ms_p50"] = 1e3 * base;
  r.details["traced_step_norm_ms_p50"] = 1e3 * with_spans;
  // Shares of a serial step's operator time, for the predicted contrasts.
  r.details["ops_F_share_of_ACLFS"] =
      ops.F / (ops.A + ops.C + ops.L + ops.F + ops.S);
  export_trace(log, args.out_dir + "/trace-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".json",
               r);
  return r;
}

}  // namespace perfbench
