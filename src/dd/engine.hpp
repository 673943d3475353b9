#pragma once

// Threaded multi-rank brick execution engine — the paper's asynchronous
// compute/communication overlap (Sec. 5.4.2–5.4.3) executed for real instead
// of simulated. Each rank of a cell-aligned BrickPartition (an nx x ny x nz
// lane grid; a 1 x 1 x N grid is exactly the historical z-slab layout)
// becomes a std::thread "lane" that owns one brick of the operator:
//
//   * its own sub-mesh DofHandler and CellStiffness segments (one-layer
//     boundary segments along every active face plus the interior bulk), so
//     the cell-level batched-GEMM kernels of fe/cell_ops.hpp run unchanged on
//     the brick;
//   * lane-local slices of the global mass / potential / boundary-mask nodal
//     fields (sliced from the *global* DofHandler — a brick-local assembly
//     would be wrong on interface layers);
//   * persistent per-lane workspace blocks (la::WorkMatrix), so the steady
//     state of the recurrence allocates nothing after lane startup.
//
// Halo exchange goes through double-buffered HaloChannel mailboxes
// (dd/mailbox.hpp), one channel per (lane, direction): every lane posts to
// and drains up to 26 neighbors — 6 faces, 12 edges, 8 corners — carrying the
// closed-intersection *partial sums* of the kinetic apply in the exact
// FP64/FP32/BF16 wire format of dd/exchange.hpp. Because cells are
// partitioned disjointly, summing every sharer's partial assembles each
// shared dof exactly: a face dof (2 sharers) adds 1 received partial, an
// edge dof (4 sharers) adds 3 — two through face packets, one through the
// edge packet — and a corner dof (8 sharers) adds 7. Both execution modes
// run the same arithmetic in the same fixed neighbor order (dz-major
// ascending, posts and receives alike) — only the position of the receive
// differs:
//
//   sync  : boundary compute -> post halos -> WAIT -> interior compute
//           -> epilogue                             (exposed wire time)
//   async : boundary compute -> post halos -> interior compute
//           -> interior epilogue -> WAIT -> interface epilogue
//                                                   (wire time hidden)
//
// so sync and async produce bitwise-identical results and their wall-clock
// difference is exactly the measured overlap win (bench_ablation_async_overlap;
// dd/pipeline.hpp's simulate_sync/simulate_overlap now serve as analytic
// bounds on these measured times).
//
// Numerics: with the FP64 wire, a 2-sharer face dof combines as a + b on one
// side and b + a on the other (IEEE addition is commutative), so face ghosts
// stay bitwise consistent across lanes; with > 2 sharers (edges/corners) the
// sharers accumulate the same partials in different association orders, so
// ghost copies may differ at the last ulp — the owned copy is canonical, and
// the engine matches the undecomposed reference apply to FP-association
// order (~1e-15). With the FP32 wire each side adds the *other* sharers'
// demoted partials to its own full-precision one, reproducing the asymmetric
// interface rounding of a real distributed run.
//
// Gram reductions (CholGS/RR) combine the per-lane partial Gram blocks with
// a stride-doubling *tree* allreduce — log2-depth pairwise sums over the
// lane grid, the association order CommModel::allreduce_time charges for —
// instead of a flat all-to-lane-0 sum.
//
// Threading contract: lanes pin their OpenMP team to one thread (the GEMM
// kernels' inner `parallel for` would otherwise oversubscribe), and so does
// the thread that constructs the engine, for the engine's lifetime
// (OmpDriverPin): lane-level concurrency replaces OpenMP scaling when the
// engine is active.
// Pick nlanes ≈ physical cores for throughput; the public entry points
// (apply / filter_block / set_potential / set_mode) must be called from one
// driver thread. A lane failure poisons its mailboxes so every lane (and the
// submitter) unblocks; the first exception is rethrown on the driver thread
// and the engine resets to a usable state.

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "base/defs.hpp"
#include "base/timer.hpp"
#include "dd/exchange.hpp"
#include "dd/mailbox.hpp"
#include "dd/partition.hpp"
#include "dd/schedule.hpp"
#include "fe/cell_ops.hpp"
#include "fe/dofs.hpp"
#include "fe/mesh.hpp"
#include "la/matrix.hpp"
#include "la/mixed.hpp"
#include "la/view.hpp"
#include "la/workspace.hpp"
#include "obs/trace.hpp"

namespace dftfe::dd {

enum class EngineMode { sync, async };

struct EngineOptions {
  int nlanes = 2;
  // Explicit lane grid {nx, ny, nz}. All-zero (the default) factorizes
  // `nlanes` with BrickPartition::factorize; {1, 1, N} pins the historical
  // z-slab decomposition.
  std::array<int, 3> grid{0, 0, 0};
  EngineMode mode = EngineMode::async;
  Wire wire = Wire::fp64;
  CommModel model{};              // interconnect model for stats / injection
  bool inject_wire_delay = false; // sleep out the modeled wire time on receive
  bool hamiltonian = true;        // mass/potential/boundary epilogue vs bare stiffness
  double coef_lap = 0.5;          // 0.5 = kinetic operator, 1.0 = Poisson stiffness
  // Per-job demotion error budget: a job hard-fails when the relative L2
  // drift of the values it packed through a reduced-precision wire exceeds
  // this bound (<= 0 disables the check). The default admits FP32 halo drift
  // (~1e-8) and BF16 drift (~1e-3) with a wide margin while still catching a
  // numerically destroyed wire (NaN/Inf contamination, wrong scaling).
  double drift_budget = 1e-2;
  std::array<double, 3> kpoint{0.0, 0.0, 0.0};
};

/// Per-recurrence-step timing, reduced over lanes (max): `compute` excludes
/// halo waits, `wait` is the exposed receive time, `modeled` the interconnect
/// model's transfer time for the step's packets.
struct EngineStepStats {
  double compute = 0.0;
  double wait = 0.0;
  double modeled = 0.0;
};

/// Wire traffic split by precision, plus the per-format demotion drift
/// accumulators (sum |x - wire(x)|^2 / sum |x|^2 over every value packed
/// through a reduced-precision wire slot) that feed the RunReport
/// error-budget gauges and the per-job drift_budget hard-fail check.
struct WireStats {
  std::int64_t fp64_bytes = 0;
  std::int64_t fp32_bytes = 0;
  std::int64_t bf16_bytes = 0;
  std::int64_t fp64_messages = 0;
  std::int64_t fp32_messages = 0;
  std::int64_t bf16_messages = 0;
  double drift_num = 0.0;  // FP32 wire drift accumulators
  double drift_den = 0.0;
  double bf16_drift_num = 0.0;
  double bf16_drift_den = 0.0;
};

/// Pins the calling thread's OpenMP team to one thread while held. The
/// thread that drives an engine's lanes runs its own vector kernels between
/// jobs (the Poisson PCG's dots and axpys); at the default team size each of
/// those wakes N OpenMP workers that then spin on the cores the lanes need.
/// Pins count per thread rather than stack: the first pin a thread takes
/// saves its team size and its last release restores it, whatever order the
/// holders die in (a KohnShamDFT destroys its k-point backends before its
/// Poisson backend). Release a pin on the thread that took it; one released
/// on another thread leaves its owner pinned to one thread.
class OmpDriverPin {
 public:
  OmpDriverPin();
  ~OmpDriverPin();
  OmpDriverPin(const OmpDriverPin&) = delete;
  OmpDriverPin& operator=(const OmpDriverPin&) = delete;

 private:
  std::thread::id owner_;
};

template <class T>
class RankEngine {
 public:
  explicit RankEngine(const fe::DofHandler& dofh, EngineOptions opt = {});
  ~RankEngine();
  RankEngine(const RankEngine&) = delete;
  RankEngine& operator=(const RankEngine&) = delete;

  int nlanes() const { return static_cast<int>(lanes_.size()); }
  const BrickPartition& partition() const { return part_; }
  EngineMode mode() const { return opt_.mode; }
  /// Switch sync/async between jobs (driver thread only).
  void set_mode(EngineMode m) { opt_.mode = m; }

  /// Refresh the lane-local effective-potential slices (hamiltonian mode).
  void set_potential(const std::vector<double>& v_eff);

  /// Y = op(X) across all lanes (op = scaled Hamiltonian or bare stiffness,
  /// per EngineOptions). Blocks until every lane finished its brick.
  void apply(const la::Matrix<T>& X, la::Matrix<T>& Y);

  /// Run the degree-`degree` scaled-and-shifted Chebyshev recurrence of
  /// ks/chfes.hpp on columns [col0, col0+ncols) of X, in place: each lane
  /// executes the full recurrence on its brick, exchanging interface partial
  /// sums through the mailboxes each step. Lanes drift up to one exchange
  /// apart (double buffering) — the cross-block pipelining the simulator
  /// only modeled.
  void filter_block(la::Matrix<T>& X, index_t col0, index_t ncols, int degree,
                    double a, double b, double a0);

  /// Hermitian overlap S = A^H B distributed over lanes: each lane evaluates
  /// the upper block triangle of its owned-row span (the brick-local partial
  /// Gram matrix, FP32 off-diagonal when `mixed`), the driver combines the
  /// partials with a stride-doubling tree — the deterministic log2-depth
  /// allreduce of a real distributed run — and applies the Hermitian
  /// completion once.
  void overlap(const la::Matrix<T>& A, const la::Matrix<T>& B, la::Matrix<T>& S,
               index_t mp_block, bool mixed);

  /// rho[i] += weight * sum_j occ[j] |X(i,j)|^2 / mass[i], distributed over
  /// lanes: each lane accumulates exactly the rows of the global density
  /// vector its brick owns (disjoint ranges — no reduction needed beyond the
  /// shared-memory gather), reproducing the serial DC row arithmetic bitwise.
  void accumulate_density(const la::Matrix<T>& X, const std::vector<double>& occ,
                          double weight, std::vector<double>& rho);

  /// Aggregated wire traffic over all lanes since construction /
  /// clear_comm_stats(). Call between jobs.
  CommStats comm_stats() const;
  /// Same traffic split by wire precision, with the FP32 drift accumulators.
  WireStats wire_stats() const;
  void clear_comm_stats();

  /// Per-step timings of the most recent job (max over lanes).
  const std::vector<EngineStepStats>& last_step_stats() const { return step_stats_; }

  /// Test hook: run a minimal halo round in which `lane` throws instead of
  /// posting — exercises failure cascade + engine reset. Rethrows the lane's
  /// exception on the calling thread; the engine stays usable afterwards.
  void debug_fault(int lane);

 private:
  /// Neighbor directions (dx, dy, dz) in {-1, 0, 1}^3 \ {0}, enumerated
  /// dz-major ascending (dx fastest). This fixed order governs posts AND
  /// receives in both schedules, which is what keeps sync ≡ async bitwise;
  /// for a {1, 1, N} grid the two active directions come out lower-then-
  /// upper, the historical slab order.
  static constexpr int kDirs = 26;
  static constexpr std::array<int, 3> dir_of(int di) {
    const int full = di < 13 ? di : di + 1;  // skip the (0,0,0) center
    return {full % 3 - 1, (full / 3) % 3 - 1, full / 9 - 1};
  }
  static constexpr int opposite(int di) {
    const int full = di < 13 ? di : di + 1;
    const int opp = 26 - full;
    return opp < 13 ? opp : opp - 1;
  }

  enum class JobKind { none, apply, filter, gram, density, pulse, stop };
  struct Job {
    JobKind kind = JobKind::none;
    EngineMode mode = EngineMode::sync;
    const la::Matrix<T>* X = nullptr;  // apply / gram / density input
    la::Matrix<T>* Y = nullptr;        // apply output
    la::Matrix<T>* Xf = nullptr;       // filter in/out
    const la::Matrix<T>* B2 = nullptr;           // gram second factor
    index_t mp_block = 64;                       // gram mixed-precision tile
    bool mixed = false;                          // gram FP32 off-diagonal
    const std::vector<double>* occ = nullptr;    // density occupations
    double weight = 1.0;                         // density k-point weight
    std::vector<double>* rho = nullptr;          // density accumulator
    index_t col0 = 0, ncols = 0;
    int degree = 0;
    double a = 0.0, b = 0.0, a0 = 0.0;
    int fault_lane = -1;
  };
  /// A maximal row range that is contiguous on both of its sides (copy /
  /// packet / global indices advance in lockstep). Built cold in engine.cpp;
  /// the hot path only walks the lists.
  struct Run {
    index_t dst = 0;
    index_t src = 0;
    index_t len = 0;
  };
  struct Segment {
    std::unique_ptr<fe::Mesh> mesh;    // sub-mesh must outlive its DofHandler
    std::unique_ptr<fe::DofHandler> dofh;
    std::unique_ptr<fe::CellStiffness<T>> op;
    index_t nrows = 0;                 // rows covered (= dofh->ndofs())
    bool boundary = false;             // touches an interface (computed first)
    std::vector<Run> runs;             // dst: segment-local row, src: lane-local row
    la::WorkMatrix<T> xs, ys;          // gather / local-result chunks
  };
  struct Neighbor {
    HaloChannel<T>* send = nullptr;
    HaloChannel<T>* recv = nullptr;
    bool active = false;
    index_t count = 0;                 // shared-region values per column
    std::vector<Run> runs;             // dst: packet offset, src: lane-local row
  };
  struct Lane {
    int rank = 0;                      // brick rank (= lane index, trace dim)
    std::array<index_t, 3> m{0, 0, 0};    // local dof extent per axis (closed box)
    std::array<index_t, 3> own{0, 0, 0};  // owned local extent per axis
    index_t nloc = 0;                  // local rows = m0 * m1 * m2
    index_t nown = 0;                  // owned rows = own0 * own1 * own2
    index_t grow0 = 0;                 // first owned global row
    bool contiguous_owned = false;     // owned rows globally contiguous ({1,1,N})
    std::vector<index_t> gmap;         // local dof -> global dof (wrap-aware)
    std::vector<Run> gather_runs;      // dst: lane-local row, src: global row
    std::vector<Run> owned_runs;       // dst: global row, src: lane-local row
    std::vector<double> ims, veff, bmask;  // slices of the global nodal fields
    std::vector<Segment> segments;     // boundary layers first, interior bulk
    std::array<Neighbor, kDirs> nb;    // fixed dz-major neighbor order
    // Epilogue row ranges: interior rows touch no shared region (safe before
    // the async receives); shell rows are epilogued after every receive.
    std::vector<std::pair<index_t, index_t>> interior_rows, shell_rows;
    la::WorkMatrix<T> sl, xb, yb, zb;  // scaled input + recurrence blocks
    la::WorkMatrix<T> ga, gb;          // gathered owned rows (brick gram)
    la::WorkMatrix<T> gram;            // brick-local partial Gram block (N x N)
    std::vector<EngineStepStats> steps;
    CommStats comm;
    WireStats wire;
    // Snapshots of comm/wire at the last publish_job_metrics call, so the
    // registry counters receive exact per-job deltas.
    CommStats comm_pub;
    WireStats wire_pub;
    std::thread th;
  };

  // --- cold control plane (engine.cpp) ---------------------------------
  void build_lanes();
  void start_lanes();
  void lane_main(int r);
  void run_job(int r, const Job& job);
  void submit(Job job);
  static const char* job_name(JobKind kind);
  void ensure_wire_capacity(index_t ncols);
  void ensure_step_storage(int nsteps);
  void collect_step_stats(int nsteps);
  /// Push this job's comm/memory deltas into the current obs::Context under
  /// the RunReport ledger vocabulary (driver thread, after the job synced).
  void publish_job_metrics(int nsteps);
  void close_lane_channels(Lane& ln);

  std::int64_t wire_bytes(index_t count, index_t ncols) const {
    return halo_packet_bytes<T>(static_cast<std::int64_t>(count) * ncols, opt_.wire);
  }

  // --- hot data plane (runs on lane threads; allocation-free once warm) --

  /// Pack this lane's partial over the shared region with neighbor `nb`
  /// through the wire and publish it, stamped with the modeled transfer time.
  void post_halo(Lane& ln, Neighbor& nb, const la::Matrix<T>& Yl) {
    if (!nb.active) return;
    Timer tp;
    const index_t B = Yl.cols(), C = nb.count;
    const std::int64_t bytes = wire_bytes(C, B);
    const int s = nb.send->begin_post();
    if (opt_.wire == Wire::fp32) {
      la::low_precision_t<T>* w = nb.send->buf32(s);
      for (index_t j = 0; j < B; ++j) {
        const T* y = Yl.col(j);
        la::low_precision_t<T>* wj = w + j * C;
        for (const Run& rn : nb.runs) {
          la::demote(y + rn.src, wj + rn.dst, rn.len);
          // Error budget: relative L2 drift of the demoted interface partials.
          for (index_t i = 0; i < rn.len; ++i) {
            ln.wire.drift_num +=
                scalar_traits<T>::abs2(y[rn.src + i] - static_cast<T>(wj[rn.dst + i]));
            ln.wire.drift_den += scalar_traits<T>::abs2(y[rn.src + i]);
          }
        }
      }
      ln.wire.fp32_bytes += bytes;
      ln.wire.fp32_messages += 1;
    } else if (opt_.wire == Wire::bf16) {
      la::bf16_t* w = nb.send->bufbf(s);
      const index_t u = la::bf16_units<T>;
      for (index_t j = 0; j < B; ++j) {
        const T* y = Yl.col(j);
        la::bf16_t* wj = w + j * C * u;
        for (const Run& rn : nb.runs) {
          la::demote_bf16(y + rn.src, wj + rn.dst * u, rn.len);
          for (index_t i = 0; i < rn.len; ++i) {
            const T rt = la::bf16_load<T>(wj + (rn.dst + i) * u);
            ln.wire.bf16_drift_num += scalar_traits<T>::abs2(y[rn.src + i] - rt);
            ln.wire.bf16_drift_den += scalar_traits<T>::abs2(y[rn.src + i]);
          }
        }
      }
      ln.wire.bf16_bytes += bytes;
      ln.wire.bf16_messages += 1;
    } else {
      T* w = nb.send->buf64(s);
      for (index_t j = 0; j < B; ++j) {
        const T* y = Yl.col(j);
        T* wj = w + j * C;
        for (const Run& rn : nb.runs)
          std::copy(y + rn.src, y + rn.src + rn.len, wj + rn.dst);
      }
      ln.wire.fp64_bytes += bytes;
      ln.wire.fp64_messages += 1;
    }
    const double modeled = opt_.model.time(bytes, 1);
    auto ready = HaloChannel<T>::Clock::now();
    if (opt_.inject_wire_delay)
      ready += std::chrono::duration_cast<typename HaloChannel<T>::Clock::duration>(
          std::chrono::duration<double>(modeled));
    nb.send->finish_post(s, ready);
    ln.comm.bytes += bytes;
    ln.comm.messages += 1;
    ln.comm.pack_seconds += tp.seconds();
  }

  /// Wait for the neighbor's shared-region partial and accumulate it into
  /// Yl. Returns the exposed wait (block + residual wire time); unpack cost
  /// goes to pack_seconds.
  double recv_halo(Lane& ln, Neighbor& nb, la::Matrix<T>& Yl) {
    if (!nb.active) return 0.0;
    obs::TraceSpan span("CF-halo", "dd", ln.rank);
    Timer tw;
    const index_t B = Yl.cols(), C = nb.count;
    const int s = nb.recv->wait_packet();
    const double waited = tw.seconds();
    Timer tu;
    if (nb.recv->wire() == Wire::fp32) {
      const la::low_precision_t<T>* w = nb.recv->cbuf32(s);
      for (index_t j = 0; j < B; ++j) {
        T* y = Yl.col(j);
        const la::low_precision_t<T>* wj = w + j * C;
        for (const Run& rn : nb.runs)
          for (index_t i = 0; i < rn.len; ++i)
            y[rn.src + i] += static_cast<T>(wj[rn.dst + i]);
      }
      ln.wire.fp32_bytes += wire_bytes(C, B);
      ln.wire.fp32_messages += 1;
    } else if (nb.recv->wire() == Wire::bf16) {
      const la::bf16_t* w = nb.recv->cbufbf(s);
      const index_t u = la::bf16_units<T>;
      for (index_t j = 0; j < B; ++j) {
        T* y = Yl.col(j);
        const la::bf16_t* wj = w + j * C * u;
        for (const Run& rn : nb.runs)
          for (index_t i = 0; i < rn.len; ++i)
            y[rn.src + i] += la::bf16_load<T>(wj + (rn.dst + i) * u);
      }
      ln.wire.bf16_bytes += wire_bytes(C, B);
      ln.wire.bf16_messages += 1;
    } else {
      const T* w = nb.recv->cbuf64(s);
      for (index_t j = 0; j < B; ++j) {
        T* y = Yl.col(j);
        const T* wj = w + j * C;
        for (const Run& rn : nb.runs)
          for (index_t i = 0; i < rn.len; ++i) y[rn.src + i] += wj[rn.dst + i];
      }
      ln.wire.fp64_bytes += wire_bytes(C, B);
      ln.wire.fp64_messages += 1;
    }
    nb.recv->release(s);
    const std::int64_t bytes = wire_bytes(C, B);
    ln.comm.bytes += bytes;
    ln.comm.messages += 1;
    ln.comm.modeled_seconds += opt_.model.time(bytes, 1);
    ln.comm.pack_seconds += tu.seconds();
    return waited;
  }

  /// Yl[rows of sg] += A_seg * S[rows of sg] via the segment's cell kernels.
  void apply_segment(Segment& sg, const la::Matrix<T>& S, la::Matrix<T>& Yl) {
    const index_t B = S.cols();
    la::Matrix<T>& Xs = sg.xs.acquire(sg.nrows, B);
    la::Matrix<T>& Ys = sg.ys.acquire_zeroed(sg.nrows, B);
    for (index_t j = 0; j < B; ++j) {
      const T* s = S.col(j);
      T* xs = Xs.col(j);
      for (const Run& rn : sg.runs)
        std::copy(s + rn.src, s + rn.src + rn.len, xs + rn.dst);
    }
    sg.op->apply_add(Xs, Ys);
    for (index_t j = 0; j < B; ++j) {
      T* y = Yl.col(j);
      const T* ys = Ys.col(j);
      for (const Run& rn : sg.runs)
        for (index_t i = 0; i < rn.len; ++i) y[rn.src + i] += ys[rn.dst + i];
    }
  }

  /// The fused epilogue of ks::Hamiltonian::apply_fused on rows [r0, r1):
  /// Y = scale * ((Y * M^-1/2 + v X) * (1-bmask) - c X) - zc Z, with the same
  /// branch structure (and therefore the same arithmetic) as the reference.
  void epilogue_rows(Lane& ln, const la::Matrix<T>& Xl, la::Matrix<T>& Yl,
                     const la::Matrix<T>* Zl, double c, double scale, double zc,
                     index_t r0, index_t r1) {
    if (r0 >= r1) return;
    const index_t B = Xl.cols();
    if (!opt_.hamiltonian) {
      // Bare stiffness: identity epilogue for a plain apply, shift-scale
      // otherwise (so the filter recurrence still works on e.g. the Poisson
      // operator).
      if (Zl == nullptr && c == 0.0 && scale == 1.0) return;
      for (index_t j = 0; j < B; ++j)
        for (index_t i = r0; i < r1; ++i) {
          const T zterm = (Zl != nullptr) ? T(zc) * (*Zl)(i, j) : T{};
          Yl(i, j) = T(scale) * (Yl(i, j) - T(c) * Xl(i, j)) - zterm;
        }
      return;
    }
    const double* ims = ln.ims.data();
    const double* v = ln.veff.data();
    const double* bm = ln.bmask.data();
    if (Zl == nullptr && c == 0.0 && scale == 1.0) {
      for (index_t j = 0; j < B; ++j)
        for (index_t i = r0; i < r1; ++i)
          Yl(i, j) = (Yl(i, j) * T(ims[i]) + T(v[i]) * Xl(i, j)) * T(1.0 - bm[i]);
    } else if (Zl == nullptr) {
      for (index_t j = 0; j < B; ++j)
        for (index_t i = r0; i < r1; ++i) {
          const T h = (Yl(i, j) * T(ims[i]) + T(v[i]) * Xl(i, j)) * T(1.0 - bm[i]);
          Yl(i, j) = T(scale) * (h - T(c) * Xl(i, j));
        }
    } else {
      for (index_t j = 0; j < B; ++j)
        for (index_t i = r0; i < r1; ++i) {
          const T h = (Yl(i, j) * T(ims[i]) + T(v[i]) * Xl(i, j)) * T(1.0 - bm[i]);
          Yl(i, j) = T(scale) * (h - T(c) * Xl(i, j)) - T(zc) * (*Zl)(i, j);
        }
    }
  }

  /// One fused operator step Yl = scale*(op Xl - c Xl) - zc Zl on the lane's
  /// brick, including the halo exchange of interface partial sums with every
  /// active neighbor. Sync and async modes execute identical arithmetic in
  /// the same fixed neighbor order; only the receive position differs (see
  /// the schedule in the header comment).
  void lane_fused_step(Lane& ln, const la::Matrix<T>& Xl, la::Matrix<T>& Yl,
                       const la::Matrix<T>* Zl, double c, double scale, double zc,
                       EngineMode mode, int step) {
    Timer tstep;
    double waited = 0.0;
    const double modeled0 = ln.comm.modeled_seconds;
    const index_t nloc = ln.nloc, B = Xl.cols();
    la::Matrix<T>& S = ln.sl.acquire(nloc, B);
    if (opt_.hamiltonian) {
      const double* ims = ln.ims.data();
      const double* bm = ln.bmask.data();
      for (index_t j = 0; j < B; ++j) {
        const T* x = Xl.col(j);
        T* s = S.col(j);
        for (index_t i = 0; i < nloc; ++i) s[i] = x[i] * T(ims[i] * (1.0 - bm[i]));
      }
    } else {
      for (index_t j = 0; j < B; ++j) std::copy(Xl.col(j), Xl.col(j) + nloc, S.col(j));
    }
    Yl.zero();
    // Interface-adjacent cell layers first, so the halo partials leave as
    // early as possible... (interior segments never touch a shared region,
    // so every posted packet already carries this lane's full partial)
    for (Segment& sg : ln.segments)
      if (sg.boundary) apply_segment(sg, S, Yl);
    for (Neighbor& nb : ln.nb) post_halo(ln, nb, Yl);
    if (mode == EngineMode::sync)
      for (Neighbor& nb : ln.nb) waited += recv_halo(ln, nb, Yl);
    // ...then the interior bulk computes while the wire is busy.
    for (Segment& sg : ln.segments)
      if (!sg.boundary) apply_segment(sg, S, Yl);
    for (const auto& [r0, r1] : ln.interior_rows)
      epilogue_rows(ln, Xl, Yl, Zl, c, scale, zc, r0, r1);
    if (mode == EngineMode::async)
      for (Neighbor& nb : ln.nb) waited += recv_halo(ln, nb, Yl);
    for (const auto& [r0, r1] : ln.shell_rows)
      epilogue_rows(ln, Xl, Yl, Zl, c, scale, zc, r0, r1);
    EngineStepStats& st = ln.steps[static_cast<std::size_t>(step)];
    st.wait = waited;
    st.compute = tstep.seconds() - waited;
    st.modeled = ln.comm.modeled_seconds - modeled0;
  }

  /// Copy the lane's local rows (owned + ghost) of columns
  /// [col0, col0+ncols) out of the global block.
  void gather_block(Lane& ln, const la::Matrix<T>& X, index_t col0, index_t ncols,
                    la::Matrix<T>& Xl) {
    for (index_t j = 0; j < ncols; ++j) {
      const T* src = X.col(col0 + j);
      T* dst = Xl.col(j);
      for (const Run& rn : ln.gather_runs)
        std::copy(src + rn.src, src + rn.src + rn.len, dst + rn.dst);
    }
  }

  /// Scatter the lane's owned rows back into the global block (lanes write
  /// disjoint row sets, so concurrent scatters need no synchronization).
  void scatter_owned(Lane& ln, const la::Matrix<T>& Yl, la::Matrix<T>& Y, index_t col0,
                     index_t ncols) {
    for (index_t j = 0; j < ncols; ++j) {
      const T* src = Yl.col(j);
      T* dst = Y.col(col0 + j);
      for (const Run& rn : ln.owned_runs)
        std::copy(src + rn.src, src + rn.src + rn.len, dst + rn.dst);
    }
  }

  /// The full Chebyshev recurrence of ks::ChebyshevFilteredSolver::filter()
  /// on the lane's brick: three ping-pong blocks rotated by pointer, the
  /// shift-scale-subtract update fused into each step's epilogue.
  void lane_filter(Lane& ln, la::Matrix<T>& X, index_t col0, index_t ncols, int degree,
                   double a, double b, double a0, EngineMode mode) {
    obs::TraceSpan span("CF-lane", "dd", ln.rank);
    const index_t nloc = ln.nloc;
    la::Matrix<T>* Xb = &ln.xb.acquire(nloc, ncols);
    la::Matrix<T>* Yb = &ln.yb.acquire(nloc, ncols);
    la::Matrix<T>* Zb = &ln.zb.acquire(nloc, ncols);
    gather_block(ln, X, col0, ncols, *Xb);
    const double e = (b - a) / 2.0, c = (b + a) / 2.0;
    double sigma = e / (a0 - c);
    const double sigma1 = sigma;
    lane_fused_step(ln, *Xb, *Yb, nullptr, c, sigma1 / e, 0.0, mode, 0);
    for (int k = 2; k <= degree; ++k) {
      const double sigma2 = 1.0 / (2.0 / sigma1 - sigma);
      lane_fused_step(ln, *Yb, *Zb, Xb, c, 2.0 * sigma2 / e, sigma * sigma2, mode, k - 1);
      la::Matrix<T>* t = Xb;
      Xb = Yb;
      Yb = Zb;
      Zb = t;
      sigma = sigma2;
    }
    scatter_owned(ln, *Yb, X, col0, ncols);
  }

  /// Brick-local partial Gram block: the upper block triangle of
  /// A_r^H B_r over this lane's owned rows, written into the lane's
  /// persistent gram buffer. On a {1, 1, N} grid the owned rows are globally
  /// contiguous and the inputs are spans over the *global* blocks (no gather
  /// copy — the historical slab fast path, bitwise preserved); a true brick
  /// gathers its owned rows into lane-local panels first. The FP32
  /// off-diagonal policy matches the undecomposed overlap. The modeled
  /// interconnect cost of the subsequent log2-depth tree allreduce is
  /// accounted per lane (stats only — the actual reduction is the driver's
  /// deterministic stride-doubling sum in shared memory).
  void lane_gram(Lane& ln, const Job& job) {
    obs::TraceSpan span("Gram-lane", "dd", ln.rank);
    Timer tstep;
    const index_t N = job.X->cols();
    la::Matrix<T>& S = ln.gram.acquire_zeroed(N, N);
    if (ln.contiguous_owned) {
      la::overlap_hermitian_partial(la::cspan(*job.X).rows_range(ln.grow0, ln.nown),
                                    la::cspan(*job.B2).rows_range(ln.grow0, ln.nown), S,
                                    job.mp_block, job.mixed);
    } else {
      la::Matrix<T>& GA = ln.ga.acquire(ln.nown, N);
      la::Matrix<T>& GB = ln.gb.acquire(ln.nown, N);
      for (index_t j = 0; j < N; ++j) {
        const T* a = job.X->col(j);
        const T* b2 = job.B2->col(j);
        T* ga = GA.col(j);
        T* gb = GB.col(j);
        index_t p = 0;
        for (const Run& rn : ln.owned_runs) {
          std::copy(a + rn.dst, a + rn.dst + rn.len, ga + p);
          std::copy(b2 + rn.dst, b2 + rn.dst + rn.len, gb + p);
          p += rn.len;
        }
      }
      la::overlap_hermitian_partial(la::cspan(GA), la::cspan(GB), S, job.mp_block,
                                    job.mixed);
    }
    // Allreduce payload: with the mixed policy the diagonal blocks travel in
    // full precision and the off-diagonal triangle in FP32, mirroring the
    // paper's mixed-precision CholGS/RR communication.
    std::int64_t elems64 = static_cast<std::int64_t>(N) * N, elems32 = 0;
    if (job.mixed) {
      std::int64_t diag = 0;
      for (index_t b0 = 0; b0 < N; b0 += job.mp_block) {
        const std::int64_t w = std::min(job.mp_block, N - b0);
        diag += w * w;
      }
      elems32 = elems64 - diag;
      elems64 = diag;
    }
    const std::int64_t bytes =
        elems64 * static_cast<std::int64_t>(sizeof(T)) +
        elems32 * static_cast<std::int64_t>(sizeof(la::low_precision_t<T>));
    ln.wire.fp64_bytes += elems64 * static_cast<std::int64_t>(sizeof(T));
    ln.wire.fp64_messages += 1;
    if (elems32 > 0) {
      ln.wire.fp32_bytes += elems32 * static_cast<std::int64_t>(sizeof(la::low_precision_t<T>));
      ln.wire.fp32_messages += 1;
    }
    ln.comm.bytes += bytes;
    ln.comm.messages += 1;
    ln.comm.modeled_seconds +=
        opt_.model.allreduce_time(bytes, static_cast<int>(lanes_.size()));
    EngineStepStats& st = ln.steps[0];
    st.wait = 0.0;
    st.compute = tstep.seconds();
    st.modeled = opt_.model.allreduce_time(bytes, static_cast<int>(lanes_.size()));
  }

  /// Brick-local density accumulation: rho[g] += weight * sum_j occ_j
  /// |X(g,j)|^2 / mass[g] over this lane's owned (disjoint) rows — per-row
  /// arithmetic identical to the serial DC loop, so the threaded density is
  /// bitwise equal given the same subspace. The halo-reduced quadrature sums
  /// (density normalization / residual norms) stay driver-side: they read
  /// the fully assembled rho.
  void lane_density(Lane& ln, const Job& job) {
    obs::TraceSpan span("DC-lane", "dd", ln.rank);
    Timer tstep;
    const la::ConstSpan2D<T> X = la::cspan(*job.X);
    const std::vector<double>& f = *job.occ;
    const double* mass = dofh_->mass().data();
    double* rho = job.rho->data();
    for (const Run& rn : ln.owned_runs)
      for (index_t i = rn.dst; i < rn.dst + rn.len; ++i) {
        double s = 0.0;
        for (index_t j = 0; j < X.cols; ++j)
          if (f[j] > 1e-12) s += f[j] * scalar_traits<T>::abs2(X(i, j));
        rho[i] += job.weight * s / mass[i];
      }
    EngineStepStats& st = ln.steps[0];
    st.wait = 0.0;
    st.compute = tstep.seconds();
    st.modeled = 0.0;
  }

  OmpDriverPin driver_pin_;  // first in, last out: spans the lanes' lifetime
  const fe::DofHandler* dofh_;
  EngineOptions opt_;
  BrickPartition part_;
  std::vector<std::unique_ptr<HaloChannel<T>>> channels_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<EngineStepStats> step_stats_;
  // Driver-side FP32 gram wire buffer for the multi-lane mixed reduction
  // (grow-only; sized once per overlap shape in engine.cpp).
  std::vector<la::low_precision_t<T>> gram_wire_;

  // Job broadcast protocol: the driver publishes a Job under mu_ and bumps
  // job_seq_; parked lanes copy it and run; the driver sleeps on cv_done_
  // until every lane checked in (lane writes to their Lane state are
  // published to the driver by that same mutex). job_active_ guards against
  // a second submit while a job is in flight: overwriting job_/done_count_
  // mid-job would silently deadlock the mailboxes, so it is a hard
  // diagnostic error instead (named after both jobs). The primitives come
  // from the dd/schedule.hpp seam — std types in production, cooperative
  // model-checked types under DFTFE_MODEL_CHECK — so the engine handoff is
  // explorable by the same checker that owns the mailbox schedules.
  sched::Mutex mu_;
  sched::CondVar cv_job_, cv_done_;
  Job job_;
  std::uint64_t job_seq_ = 0;
  int done_count_ = 0;
  bool job_active_ = false;
  std::exception_ptr first_error_;
};

extern template class RankEngine<double>;
extern template class RankEngine<complex_t>;

/// Historical name: the slab engine is the {1, 1, N} special case of the
/// brick rank engine. Existing call sites keep compiling unchanged.
template <class T>
using SlabEngine = RankEngine<T>;

}  // namespace dftfe::dd
