// Cold control plane of the threaded rank engine: lane construction (brick
// sub-meshes, segment operators, field slices, run lists, mailbox wiring),
// the job broadcast protocol, failure cascade/reset, the tree allreduce of
// the gram partials, and stats collection. The hot per-step data plane lives
// inline in engine.hpp so the invariant linter's no-allocation rule covers
// exactly the code that runs per recurrence step.

#include "dd/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/context.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace dftfe::dd {

namespace {

/// Append [dst, dst+len) <- [src, src+len) to a run list, merging with the
/// previous run when both sides advance contiguously. Cold path only.
template <class RunT>
void push_run(std::vector<RunT>& runs, index_t dst, index_t src, index_t len) {
  if (len <= 0) return;
  if (!runs.empty() && runs.back().dst + runs.back().len == dst &&
      runs.back().src + runs.back().len == src) {
    runs.back().len += len;
    return;
  }
  runs.push_back({dst, src, len});
}

/// Per-thread OmpDriverPin count and the team size its first pin saved.
struct DriverPinState {
  int count = 0;
  int saved_threads = 1;
};
thread_local DriverPinState t_driver_pin;

}  // namespace

OmpDriverPin::OmpDriverPin() : owner_(std::this_thread::get_id()) {
#ifdef _OPENMP
  if (t_driver_pin.count++ == 0) {
    t_driver_pin.saved_threads = omp_get_max_threads();
    omp_set_num_threads(1);
  }
#endif
}

OmpDriverPin::~OmpDriverPin() {
#ifdef _OPENMP
  if (std::this_thread::get_id() != owner_) return;
  if (--t_driver_pin.count == 0) omp_set_num_threads(t_driver_pin.saved_threads);
#endif
}

template <class T>
RankEngine<T>::RankEngine(const fe::DofHandler& dofh, EngineOptions opt)
    : dofh_(&dofh),
      opt_(opt),
      part_(BrickPartition::cell_aligned(
          dofh, (opt.grid[0] > 0 && opt.grid[1] > 0 && opt.grid[2] > 0)
                    ? opt.grid
                    : BrickPartition::factorize(dofh, std::max(1, opt.nlanes)))) {
  build_lanes();
  start_lanes();
}

template <class T>
RankEngine<T>::~RankEngine() {
  {
    sched::LockGuard lk(mu_);
    job_ = Job{};
    job_.kind = JobKind::stop;
    ++job_seq_;
  }
  cv_job_.notify_all();
  for (auto& ln : lanes_)
    if (ln->th.joinable()) ln->th.join();
}

template <class T>
void RankEngine<T>::build_lanes() {
  const fe::Mesh& mesh = dofh_->mesh();
  const int R = part_.nranks();
  const int deg = dofh_->degree();
  const std::array<int, 3>& grid = part_.grid();
  index_t naxis[3];
  bool per[3];
  for (int a = 0; a < 3; ++a) {
    naxis[a] = part_.naxis(a);
    per[a] = part_.periodic(a);
  }

  // One mailbox per (rank, direction): channel r*26 + di carries rank r's
  // partial toward direction di; the receiver is neighbor(r, di) draining its
  // opposite-direction mailbox. Inactive directions leave their channel
  // unused (never init'd, never touched). A periodic axis with a single
  // brick wires a direction's send channel back to the same lane
  // (self-exchange), matching the slab engine's single-rank periodic wrap.
  channels_.resize(static_cast<std::size_t>(R) * kDirs);
  for (auto& ch : channels_) ch = std::make_unique<HaloChannel<T>>();
  auto chan = [&](int r, int di) {
    return channels_[static_cast<std::size_t>(r) * kDirs + di].get();
  };

  const auto& mass = dofh_->mass();
  const auto& bmask = dofh_->boundary_mask();

  lanes_.resize(R);
  for (int r = 0; r < R; ++r) {
    lanes_[r] = std::make_unique<Lane>();
    Lane& ln = *lanes_[r];
    const Brick& bk = part_.brick(r);
    const std::array<int, 3> c = part_.coords(r);
    ln.rank = r;

    index_t nc[3];
    bool lo_act[3], hi_act[3];
    for (int a = 0; a < 3; ++a) {
      nc[a] = bk.c_end[a] - bk.c_begin[a];
      ln.m[a] = nc[a] * deg + 1;  // closed dof box: upper layer is ghost when shared
      lo_act[a] = (c[a] > 0) || per[a];
      hi_act[a] = (c[a] < grid[a] - 1) || per[a];
      ln.own[a] = ln.m[a] - (hi_act[a] ? 1 : 0);
    }
    const index_t m0 = ln.m[0], m1 = ln.m[1], m2 = ln.m[2];
    ln.nloc = m0 * m1 * m2;
    ln.nown = ln.own[0] * ln.own[1] * ln.own[2];

    // Local dof -> global dof (wrap-aware: a periodic axis' closing ghost
    // layer maps back to global layer 0).
    ln.gmap.resize(static_cast<std::size_t>(ln.nloc));
    {
      index_t l = 0;
      for (index_t k = 0; k < m2; ++k)
        for (index_t j = 0; j < m1; ++j)
          for (index_t i = 0; i < m0; ++i, ++l) {
            const index_t loc[3] = {i, j, k};
            index_t gi[3];
            for (int a = 0; a < 3; ++a) {
              gi[a] = bk.c_begin[a] * deg + loc[a];
              if (per[a] && gi[a] >= naxis[a]) gi[a] -= naxis[a];
            }
            ln.gmap[static_cast<std::size_t>(l)] = gi[0] + naxis[0] * (gi[1] + naxis[1] * gi[2]);
          }
    }
    ln.grow0 = ln.gmap[0];
    // On a {1, 1, N} grid the owned rows are one contiguous global range
    // (full x/y extent per plane, consecutive planes) — the slab fast path
    // for gram/density spans over the global blocks.
    ln.contiguous_owned = (grid[0] == 1 && grid[1] == 1);

    // Run lists (maximal both-sides-contiguous row ranges). For slab-shaped
    // lanes these collapse to a handful of whole-plane-range runs, making the
    // hot copies identical to the historical plane arithmetic.
    for (index_t l = 0; l < ln.nloc; ++l)
      push_run(ln.gather_runs, l, ln.gmap[static_cast<std::size_t>(l)], 1);
    for (index_t k = 0; k < ln.own[2]; ++k)
      for (index_t j = 0; j < ln.own[1]; ++j)
        for (index_t i = 0; i < ln.own[0]; ++i) {
          const index_t l = i + m0 * (j + m1 * k);
          push_run(ln.owned_runs, ln.gmap[static_cast<std::size_t>(l)], l, 1);
        }

    // Slices of the *global* nodal fields. A brick-local DofHandler's own
    // mass/boundary data would be wrong on interface layers (it sees only
    // one side's cells and fabricates a Dirichlet face there).
    ln.ims.resize(static_cast<std::size_t>(ln.nloc));
    ln.bmask.resize(static_cast<std::size_t>(ln.nloc));
    ln.veff.assign(static_cast<std::size_t>(ln.nloc), 0.0);
    for (index_t l = 0; l < ln.nloc; ++l) {
      const index_t g = ln.gmap[static_cast<std::size_t>(l)];
      ln.ims[static_cast<std::size_t>(l)] = 1.0 / std::sqrt(mass[g]);
      ln.bmask[static_cast<std::size_t>(l)] = bmask[g];
    }

    // Segment the brick's cells: per axis, one boundary cell layer per
    // active interface plus the interior bulk; the cross product gives up to
    // 27 segments per lane. Boundary segments (any axis on an interface
    // layer) are computed first in lane_fused_step so the halo partials
    // leave as early as possible.
    struct AxisRange {
      index_t s0, s1;
      bool boundary;
    };
    std::array<std::vector<AxisRange>, 3> ranges;
    for (int a = 0; a < 3; ++a) {
      const bool lb = lo_act[a], ub = hi_act[a];
      if (nc[a] == 1) {
        ranges[a].push_back({0, 1, lb || ub});
      } else {
        if (lb) ranges[a].push_back({0, 1, true});
        if (ub) ranges[a].push_back({nc[a] - 1, nc[a], true});
        const index_t i0 = lb ? 1 : 0, i1 = nc[a] - (ub ? 1 : 0);
        if (i0 < i1) ranges[a].push_back({i0, i1, false});
      }
    }
    ln.segments.resize(ranges[0].size() * ranges[1].size() * ranges[2].size());
    std::size_t si = 0;
    for (const AxisRange& rz : ranges[2])
      for (const AxisRange& ry : ranges[1])
        for (const AxisRange& rx : ranges[0]) {
          Segment& sg = ln.segments[si++];
          sg.boundary = rx.boundary || ry.boundary || rz.boundary;
          sg.mesh = std::make_unique<fe::Mesh>(fe::make_brick_mesh(
              mesh, bk.c_begin[0] + rx.s0, bk.c_begin[0] + rx.s1, bk.c_begin[1] + ry.s0,
              bk.c_begin[1] + ry.s1, bk.c_begin[2] + rz.s0, bk.c_begin[2] + rz.s1));
          sg.dofh = std::make_unique<fe::DofHandler>(*sg.mesh, deg);
          sg.op = std::make_unique<fe::CellStiffness<T>>(*sg.dofh, opt_.coef_lap,
                                                         opt_.kpoint);
          sg.nrows = sg.dofh->ndofs();
          const index_t sm0 = (rx.s1 - rx.s0) * deg + 1;
          const index_t sm1 = (ry.s1 - ry.s0) * deg + 1;
          const index_t sm2 = (rz.s1 - rz.s0) * deg + 1;
          if (sg.nrows != sm0 * sm1 * sm2)
            throw std::logic_error("RankEngine: segment dof layout mismatch");
          for (index_t sk = 0; sk < sm2; ++sk)
            for (index_t sj = 0; sj < sm1; ++sj)
              push_run(sg.runs, sm0 * (sj + sm1 * sk),
                       rx.s0 * deg + m0 * ((ry.s0 * deg + sj) + m1 * (rz.s0 * deg + sk)),
                       sm0);
        }

    // Mailbox wiring + shared-region run lists for all 26 directions. The
    // send region in direction d is this brick's closed boundary layer
    // toward d (axis -1 -> layer 0, axis +1 -> layer m-1, axis 0 -> full
    // extent); the receiver accumulates it into its mirrored region, which
    // covers the same global dofs. Because cells are disjoint across lanes,
    // summing every sharer's partial assembles shared dofs exactly.
    for (int di = 0; di < kDirs; ++di) {
      const std::array<int, 3> d = dir_of(di);
      const int nbr = part_.neighbor(r, d[0], d[1], d[2]);
      Neighbor& nb = ln.nb[static_cast<std::size_t>(di)];
      if (nbr < 0) continue;
      nb.active = true;
      nb.send = chan(r, di);
      nb.recv = chan(nbr, opposite(di));
      index_t lo[3], hi[3];
      for (int a = 0; a < 3; ++a) {
        lo[a] = (d[a] > 0) ? ln.m[a] - 1 : 0;
        hi[a] = (d[a] < 0) ? 1 : ln.m[a];
      }
      nb.count = (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
      index_t off = 0;
      for (index_t k = lo[2]; k < hi[2]; ++k)
        for (index_t j = lo[1]; j < hi[1]; ++j) {
          push_run(nb.runs, off, lo[0] + m0 * (j + m1 * k), hi[0] - lo[0]);
          off += hi[0] - lo[0];
        }
    }

    // Epilogue row ranges: interior rows (no axis on a shared layer) can be
    // epilogued before the async receives land; shell rows wait for every
    // neighbor's partial. Stored as merged contiguous ranges; on a slab lane
    // they collapse to the historical [P, nloc-P) / [0, P) / [nloc-P, nloc).
    const index_t il[3] = {lo_act[0] ? 1 : 0, lo_act[1] ? 1 : 0, lo_act[2] ? 1 : 0};
    const index_t ih[3] = {m0 - (hi_act[0] ? 1 : 0), m1 - (hi_act[1] ? 1 : 0),
                           m2 - (hi_act[2] ? 1 : 0)};
    auto add_box = [&](std::vector<std::pair<index_t, index_t>>& out, index_t x0,
                       index_t x1, index_t y0, index_t y1, index_t z0, index_t z1) {
      if (x0 >= x1 || y0 >= y1 || z0 >= z1) return;
      for (index_t k = z0; k < z1; ++k)
        for (index_t j = y0; j < y1; ++j) {
          const index_t r0 = x0 + m0 * (j + m1 * k);
          const index_t r1 = r0 + (x1 - x0);
          if (!out.empty() && out.back().second == r0)
            out.back().second = r1;
          else
            out.emplace_back(r0, r1);
        }
    };
    add_box(ln.interior_rows, il[0], ih[0], il[1], ih[1], il[2], ih[2]);
    // Disjoint shell cover: x-extreme layers first, then y-extremes with x
    // interior, then z-extremes with x/y interior.
    if (lo_act[0]) add_box(ln.shell_rows, 0, 1, 0, m1, 0, m2);
    if (hi_act[0]) add_box(ln.shell_rows, m0 - 1, m0, 0, m1, 0, m2);
    if (lo_act[1]) add_box(ln.shell_rows, il[0], ih[0], 0, 1, 0, m2);
    if (hi_act[1]) add_box(ln.shell_rows, il[0], ih[0], m1 - 1, m1, 0, m2);
    if (lo_act[2]) add_box(ln.shell_rows, il[0], ih[0], il[1], ih[1], 0, 1);
    if (hi_act[2]) add_box(ln.shell_rows, il[0], ih[0], il[1], ih[1], m2 - 1, m2);
  }
}

template <class T>
void RankEngine<T>::start_lanes() {
  // Lanes install the spawning thread's telemetry context: under the svc
  // layer each job runs inside its own obs::Context, and the lane-side
  // spans/metrics (CF-lane, comm.lane.*) and FLOPs must land in that job's
  // context rather than the process default (obs/context.hpp lifetime rule).
  obs::Context* const ctx = &obs::Context::current();
  for (int r = 0; r < static_cast<int>(lanes_.size()); ++r)
    lanes_[r]->th = std::thread([this, r, ctx] {
      obs::ContextGuard guard(*ctx);
      lane_main(r);
    });
}

template <class T>
void RankEngine<T>::lane_main(int r) {
#ifdef _OPENMP
  // The cell kernels' inner `omp parallel for` must not spawn a team per
  // lane: lane-level concurrency replaces OpenMP scaling inside the engine.
  // num_threads is a per-thread ICV, so this pins only this lane.
  omp_set_num_threads(1);
#endif
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      sched::UniqueLock lk(mu_);
      cv_job_.wait(lk, [&] { return job_seq_ != seen; });
      seen = job_seq_;
      job = job_;
    }
    if (job.kind == JobKind::stop) return;
    try {
      run_job(r, job);
    } catch (...) {
      {
        sched::LockGuard lk(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      // Poison this lane's mailboxes so neighbors blocked on us unblock and
      // fail too — the failure cascades lane-to-lane instead of deadlocking,
      // and every lane still checks in below.
      close_lane_channels(*lanes_[r]);
    }
    {
      sched::LockGuard lk(mu_);
      if (++done_count_ == static_cast<int>(lanes_.size())) cv_done_.notify_all();
    }
  }
}

template <class T>
void RankEngine<T>::close_lane_channels(Lane& ln) {
  for (Neighbor& nb : ln.nb)
    if (nb.active) {
      nb.send->close();
      nb.recv->close();
    }
}

template <class T>
void RankEngine<T>::run_job(int r, const Job& job) {
  Lane& ln = *lanes_[r];
  if (job.fault_lane == r)
    throw std::runtime_error("dd::RankEngine: injected lane fault");
  // Per-job demotion error budget: snapshot the drift accumulators so the
  // check below sees exactly this job's wire traffic.
  const double n32 = ln.wire.drift_num, d32 = ln.wire.drift_den;
  const double nbf = ln.wire.bf16_drift_num, dbf = ln.wire.bf16_drift_den;
  switch (job.kind) {
    case JobKind::apply: {
      obs::TraceSpan span("Engine-apply", "dd", ln.rank);
      const index_t B = job.X->cols();
      la::Matrix<T>& Xl = ln.xb.acquire(ln.nloc, B);
      gather_block(ln, *job.X, 0, B, Xl);
      la::Matrix<T>& Yl = ln.yb.acquire(ln.nloc, B);
      lane_fused_step(ln, Xl, Yl, nullptr, 0.0, 1.0, 0.0, job.mode, 0);
      scatter_owned(ln, Yl, *job.Y, 0, B);
      break;
    }
    case JobKind::filter:
      lane_filter(ln, *job.Xf, job.col0, job.ncols, job.degree, job.a, job.b, job.a0,
                  job.mode);
      break;
    case JobKind::gram:
      lane_gram(ln, job);
      break;
    case JobKind::density:
      lane_density(ln, job);
      break;
    case JobKind::pulse: {
      // Minimal halo round: every lane posts to and receives from each
      // active neighbor once, in the fixed direction order. Used by the
      // fault-propagation stress tests.
      la::Matrix<T>& Yl = ln.yb.acquire_zeroed(ln.nloc, 1);
      for (Neighbor& nb : ln.nb) post_halo(ln, nb, Yl);
      double waited = 0.0;
      for (Neighbor& nb : ln.nb) waited += recv_halo(ln, nb, Yl);
      ln.steps[0].wait = waited;
      break;
    }
    default:
      break;
  }
  if (opt_.drift_budget > 0.0) {
    // Hard-fail the job when the relative L2 drift of this job's demoted
    // wire values exceeds the budget. `!(x <= b)` also trips on NaN — a
    // poisoned wire (Inf/NaN contamination) must not pass silently. The
    // throw rides the existing failure cascade: mailboxes are poisoned,
    // every lane unblocks, and the driver rethrows after resetting.
    const double r32 = (ln.wire.drift_den > d32)
                           ? std::sqrt((ln.wire.drift_num - n32) / (ln.wire.drift_den - d32))
                           : 0.0;
    const double rbf =
        (ln.wire.bf16_drift_den > dbf)
            ? std::sqrt((ln.wire.bf16_drift_num - nbf) / (ln.wire.bf16_drift_den - dbf))
            : 0.0;
    const double worst = std::max(r32, rbf);
    if (!(worst <= opt_.drift_budget))
      throw std::runtime_error(std::string("dd::RankEngine lane ") + std::to_string(r) +
                               ": wire demotion drift " + std::to_string(worst) +
                               " exceeds drift_budget " + std::to_string(opt_.drift_budget) +
                               " in job '" + job_name(job.kind) + "'");
  }
}

template <class T>
const char* RankEngine<T>::job_name(JobKind kind) {
  switch (kind) {
    case JobKind::apply: return "apply";
    case JobKind::filter: return "filter";
    case JobKind::gram: return "gram";
    case JobKind::density: return "density";
    case JobKind::pulse: return "pulse";
    case JobKind::stop: return "stop";
    default: return "none";
  }
}

template <class T>
void RankEngine<T>::submit(Job job) {
  job.mode = opt_.mode;
  sched::UniqueLock lk(mu_);
  if (job_active_) {
    // A second submit while a job is in flight would overwrite job_ and
    // done_count_ under the lanes, turning into a silent mailbox deadlock.
    // Fail loudly instead, naming both jobs; the in-flight job is untouched.
    throw std::logic_error(std::string("dd::RankEngine::submit: job '") +
                           job_name(job.kind) + "' submitted while job '" +
                           job_name(job_.kind) +
                           "' is in flight (public entry points must be called "
                           "from one driver thread at a time)");
  }
  job_active_ = true;
  job_ = job;
  done_count_ = 0;
  first_error_ = nullptr;
  ++job_seq_;
  cv_job_.notify_all();
  cv_done_.wait(lk, [&] { return done_count_ == static_cast<int>(lanes_.size()); });
  job_active_ = false;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    // All lanes are parked again; clear poisoned/in-flight mailbox state so
    // the engine is usable for the next job.
    for (auto& ch : channels_) ch->reset();
    std::rethrow_exception(e);
  }
}

template <class T>
void RankEngine<T>::ensure_wire_capacity(index_t ncols) {
  // Per-direction packet sizes: a face carries a full boundary plane, an
  // edge a line, a corner a single dof — each channel is sized for exactly
  // its shared region.
  for (auto& lp : lanes_)
    for (Neighbor& nb : lp->nb)
      if (nb.active) nb.send->init(opt_.wire, nb.count * ncols);
}

template <class T>
void RankEngine<T>::ensure_step_storage(int nsteps) {
  for (auto& ln : lanes_)
    if (ln->steps.size() < static_cast<std::size_t>(nsteps))
      ln->steps.resize(static_cast<std::size_t>(nsteps));
}

template <class T>
void RankEngine<T>::collect_step_stats(int nsteps) {
  step_stats_.assign(static_cast<std::size_t>(nsteps), EngineStepStats{});
  for (int k = 0; k < nsteps; ++k) {
    EngineStepStats& st = step_stats_[static_cast<std::size_t>(k)];
    for (auto& ln : lanes_) {
      st.compute = std::max(st.compute, ln->steps[static_cast<std::size_t>(k)].compute);
      st.wait = std::max(st.wait, ln->steps[static_cast<std::size_t>(k)].wait);
      st.modeled = std::max(st.modeled, ln->steps[static_cast<std::size_t>(k)].modeled);
    }
  }
}

template <class T>
void RankEngine<T>::publish_job_metrics(int nsteps) {
  obs::MetricsRegistry& m = obs::Context::current().metrics();
  std::int64_t d64b = 0, d32b = 0, d64m = 0, d32m = 0;
  std::int64_t dbfb = 0, dbfm = 0;
  double exposed = 0.0, modeled = 0.0, pack = 0.0;
  double drift_num = 0.0, drift_den = 0.0;
  double bf_num = 0.0, bf_den = 0.0;
  for (auto& lp : lanes_) {
    Lane& ln = *lp;
    const std::int64_t dbytes = ln.comm.bytes - ln.comm_pub.bytes;
    const std::int64_t dmsgs = ln.comm.messages - ln.comm_pub.messages;
    modeled += ln.comm.modeled_seconds - ln.comm_pub.modeled_seconds;
    pack += ln.comm.pack_seconds - ln.comm_pub.pack_seconds;
    d64b += ln.wire.fp64_bytes - ln.wire_pub.fp64_bytes;
    d32b += ln.wire.fp32_bytes - ln.wire_pub.fp32_bytes;
    d64m += ln.wire.fp64_messages - ln.wire_pub.fp64_messages;
    d32m += ln.wire.fp32_messages - ln.wire_pub.fp32_messages;
    dbfb += ln.wire.bf16_bytes - ln.wire_pub.bf16_bytes;
    dbfm += ln.wire.bf16_messages - ln.wire_pub.bf16_messages;
    drift_num += ln.wire.drift_num;
    drift_den += ln.wire.drift_den;
    bf_num += ln.wire.bf16_drift_num;
    bf_den += ln.wire.bf16_drift_den;
    double wait = 0.0;
    for (int k = 0; k < nsteps && k < static_cast<int>(ln.steps.size()); ++k)
      wait += ln.steps[static_cast<std::size_t>(k)].wait;
    exposed += wait;
    const std::string lane_prefix = "comm.lane" + std::to_string(ln.rank);
    m.counter_add(lane_prefix + ".bytes", static_cast<double>(dbytes));
    m.counter_add(lane_prefix + ".messages", static_cast<double>(dmsgs));
    m.counter_add(lane_prefix + ".exposed_wait_s", wait);
    // Lane working-set high water: every persistent WorkMatrix the lane owns.
    std::int64_t hw = ln.sl.highwater_bytes() + ln.xb.highwater_bytes() +
                      ln.yb.highwater_bytes() + ln.zb.highwater_bytes() +
                      ln.ga.highwater_bytes() + ln.gb.highwater_bytes() +
                      ln.gram.highwater_bytes();
    for (const Segment& sg : ln.segments)
      hw += sg.xs.highwater_bytes() + sg.ys.highwater_bytes();
    m.gauge_set("mem.lane" + std::to_string(ln.rank) + ".highwater_bytes",
                static_cast<double>(hw));
    ln.comm_pub = ln.comm;
    ln.wire_pub = ln.wire;
  }
  m.counter_add("comm.wire.fp64.bytes", static_cast<double>(d64b));
  m.counter_add("comm.wire.fp32.bytes", static_cast<double>(d32b));
  m.counter_add("comm.wire.bf16.bytes", static_cast<double>(dbfb));
  m.counter_add("comm.wire.fp64.messages", static_cast<double>(d64m));
  m.counter_add("comm.wire.fp32.messages", static_cast<double>(d32m));
  m.counter_add("comm.wire.bf16.messages", static_cast<double>(dbfm));
  m.counter_add("comm.halo.exposed_wait_s", exposed);
  m.counter_add("comm.halo.modeled_s", modeled);
  m.counter_add("comm.halo.pack_s", pack);
  const double r32 = (drift_den > 0.0) ? std::sqrt(drift_num / drift_den) : 0.0;
  const double rbf = (bf_den > 0.0) ? std::sqrt(bf_num / bf_den) : 0.0;
  if (drift_den > 0.0) m.gauge_set("comm.wire.fp32.drift_rms", r32);
  if (bf_den > 0.0) m.gauge_set("comm.wire.bf16.drift_rms", rbf);
  // Fraction of the configured error budget consumed by the worst cumulative
  // per-format drift (>= 1.0 would mean a job already hard-failed).
  if (opt_.drift_budget > 0.0 && (drift_den > 0.0 || bf_den > 0.0))
    m.gauge_set("comm.wire.drift_budget_used", std::max(r32, rbf) / opt_.drift_budget);
}

template <class T>
void RankEngine<T>::set_potential(const std::vector<double>& v_eff) {
  if (static_cast<index_t>(v_eff.size()) < dofh_->ndofs())
    throw std::invalid_argument("RankEngine::set_potential: field too short");
  for (auto& lp : lanes_) {
    Lane& ln = *lp;
    for (index_t l = 0; l < ln.nloc; ++l)
      ln.veff[static_cast<std::size_t>(l)] = v_eff[ln.gmap[static_cast<std::size_t>(l)]];
  }
}

template <class T>
void RankEngine<T>::apply(const la::Matrix<T>& X, la::Matrix<T>& Y) {
  if (X.rows() != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::apply: row count mismatch");
  Y.reshape(X.rows(), X.cols());
  ensure_wire_capacity(X.cols());
  ensure_step_storage(1);
  Job j;
  j.kind = JobKind::apply;
  j.X = &X;
  j.Y = &Y;
  submit(j);
  collect_step_stats(1);
  publish_job_metrics(1);
}

template <class T>
void RankEngine<T>::filter_block(la::Matrix<T>& X, index_t col0, index_t ncols,
                                 int degree, double a, double b, double a0) {
  if (X.rows() != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::filter_block: row count mismatch");
  if (col0 < 0 || ncols < 1 || col0 + ncols > X.cols())
    throw std::invalid_argument("RankEngine::filter_block: bad column range");
  if (degree < 1) throw std::invalid_argument("RankEngine::filter_block: degree >= 1");
  ensure_wire_capacity(ncols);
  ensure_step_storage(degree);
  Job j;
  j.kind = JobKind::filter;
  j.Xf = &X;
  j.col0 = col0;
  j.ncols = ncols;
  j.degree = degree;
  j.a = a;
  j.b = b;
  j.a0 = a0;
  submit(j);
  collect_step_stats(degree);
  publish_job_metrics(degree);
}

template <class T>
void RankEngine<T>::overlap(const la::Matrix<T>& A, const la::Matrix<T>& B,
                            la::Matrix<T>& S, index_t mp_block, bool mixed) {
  if (A.rows() != dofh_->ndofs() || B.rows() != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::overlap: row count mismatch");
  if (A.cols() != B.cols())
    throw std::invalid_argument("RankEngine::overlap: column count mismatch");
  ensure_step_storage(1);
  Job j;
  j.kind = JobKind::gram;
  j.X = &A;
  j.B2 = &B;
  j.mp_block = mp_block;
  j.mixed = mixed;
  submit(j);
  collect_step_stats(1);
  const index_t N = A.cols();
  // Multi-lane mixed gram reduction over the FP32 gram wire: before the
  // tree sum, each lane's strictly-upper off-diagonal tiles round-trip
  // through FP32 storage — the values genuinely pass through the reduced
  // precision whose bytes lane_gram accounts in the allreduce payload. The
  // gram wire is FP32 even under a BF16 halo wire (the paper's
  // mixed-precision CholGS/RR communication is FP32); diagonal blocks travel
  // in full precision, preserving the FP64 completion. Single-lane and FP64
  // runs keep today's bitwise path. Drift feeds the same FP32 error-budget
  // accumulators as the halo wire (lanes are parked here, so the driver may
  // write their stats), and is published with this job's metrics below.
  if (mixed && opt_.wire != Wire::fp64 && lanes_.size() > 1) {
    const index_t nb = std::max<index_t>(1, std::min(mp_block, N));
    la::ensure_scratch(gram_wire_, static_cast<std::size_t>(nb) * nb);
    for (auto& lp : lanes_) {
      Lane& ln = *lp;
      la::Matrix<T>& G = ln.gram.get();
      for (index_t J = 0; J < N; J += nb) {
        const index_t nj = std::min(nb, N - J);
        for (index_t I = 0; I < J; I += nb) {
          const index_t ni = std::min(nb, N - I);
          T* tile = G.data() + I + J * N;
          la::demote_panel(tile, N, ni, nj, gram_wire_.data());
          for (index_t jj = 0; jj < nj; ++jj)
            for (index_t ii = 0; ii < ni; ++ii) {
              T& x = tile[ii + jj * N];
              const T rt = static_cast<T>(gram_wire_[ii + jj * ni]);
              ln.wire.drift_num += scalar_traits<T>::abs2(x - rt);
              ln.wire.drift_den += scalar_traits<T>::abs2(x);
              x = rt;
            }
        }
      }
    }
  }
  publish_job_metrics(1);
  // Tree allreduce of the brick partials: stride-doubling pairwise sums over
  // the lane grid — the deterministic log2-depth association order a real
  // recursive-doubling allreduce pins down (and the one
  // CommModel::allreduce_time charges). Lanes are parked, so the driver may
  // sum their gram buffers in place; lane 0's buffer ends up holding the
  // total.
  {
    obs::TraceSpan span("Gram-tree", "dd", 0);
    const int R = static_cast<int>(lanes_.size());
    for (int stride = 1; stride < R; stride *= 2)
      for (int base = 0; base + stride < R; base += 2 * stride) {
        la::Matrix<T>& Acc = lanes_[static_cast<std::size_t>(base)]->gram.get();
        const la::Matrix<T>& Gp =
            lanes_[static_cast<std::size_t>(base + stride)]->gram.get();
        T* s = Acc.data();
        const T* g = Gp.data();
        for (index_t i = 0; i < N * N; ++i) s[i] += g[i];
      }
  }
  S.reshape(N, N);
  {
    const la::Matrix<T>& G0 = lanes_[0]->gram.get();
    std::copy(G0.data(), G0.data() + N * N, S.data());
  }
  la::overlap_hermitian_complete(S, mp_block);
}

template <class T>
void RankEngine<T>::accumulate_density(const la::Matrix<T>& X,
                                       const std::vector<double>& occ, double weight,
                                       std::vector<double>& rho) {
  if (X.rows() != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::accumulate_density: row count mismatch");
  if (static_cast<index_t>(occ.size()) < X.cols())
    throw std::invalid_argument("RankEngine::accumulate_density: occupations too short");
  if (static_cast<index_t>(rho.size()) != dofh_->ndofs())
    throw std::invalid_argument("RankEngine::accumulate_density: rho size mismatch");
  ensure_step_storage(1);
  Job j;
  j.kind = JobKind::density;
  j.X = &X;
  j.occ = &occ;
  j.weight = weight;
  j.rho = &rho;
  submit(j);
  collect_step_stats(1);
  publish_job_metrics(1);
}

template <class T>
CommStats RankEngine<T>::comm_stats() const {
  CommStats total;
  for (const auto& ln : lanes_) {
    total.bytes += ln->comm.bytes;
    total.messages += ln->comm.messages;
    total.modeled_seconds += ln->comm.modeled_seconds;
    total.pack_seconds += ln->comm.pack_seconds;
  }
  return total;
}

template <class T>
WireStats RankEngine<T>::wire_stats() const {
  WireStats total;
  for (const auto& ln : lanes_) {
    total.fp64_bytes += ln->wire.fp64_bytes;
    total.fp32_bytes += ln->wire.fp32_bytes;
    total.bf16_bytes += ln->wire.bf16_bytes;
    total.fp64_messages += ln->wire.fp64_messages;
    total.fp32_messages += ln->wire.fp32_messages;
    total.bf16_messages += ln->wire.bf16_messages;
    total.drift_num += ln->wire.drift_num;
    total.drift_den += ln->wire.drift_den;
    total.bf16_drift_num += ln->wire.bf16_drift_num;
    total.bf16_drift_den += ln->wire.bf16_drift_den;
  }
  return total;
}

template <class T>
void RankEngine<T>::clear_comm_stats() {
  for (auto& ln : lanes_) {
    ln->comm = CommStats{};
    ln->wire = WireStats{};
    // Keep the registry deltas exact across the reset.
    ln->comm_pub = CommStats{};
    ln->wire_pub = WireStats{};
  }
}

template <class T>
void RankEngine<T>::debug_fault(int lane) {
  if (lane < 0 || lane >= nlanes())
    throw std::invalid_argument("RankEngine::debug_fault: bad lane");
  ensure_wire_capacity(1);
  ensure_step_storage(1);
  Job j;
  j.kind = JobKind::pulse;
  j.fault_lane = lane;
  submit(j);
}

template class RankEngine<double>;
template class RankEngine<complex_t>;

}  // namespace dftfe::dd
