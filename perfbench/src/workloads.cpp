#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/job.hpp"
#include "core/model.hpp"
#include "hw.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "svc/service.hpp"

namespace perfbench {

using namespace dftfe;

namespace {

// Set-up takes well under a millisecond, so it is repeated. The solve runs
// on one build; then set-ups are timed, each on a fresh model and job,
// until there are kSetupReps and the run has measured `seconds`. setup_s
// is their median: all of them find the heap in the same state.
constexpr int kSetupReps = 31;
// Reference rounds (hw.hpp) run by the on_iteration hook on the solving
// threads at every SCF iteration boundary: a dimer or lanes solve has about
// 14 iterations, a sweep about 200 on its two workers.
constexpr int kRoundsPerIteration = 7;
constexpr int kRoundsPerSweepIteration = 1;
// The sweep job re-run through core::JobState for the answer check and the
// layer probes.
constexpr int kRepresentativeJob = 8;

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Peak resident memory, less the reference buffers (resident throughout).
double peak_rss_mb(std::size_t reference_bytes) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // ru_maxrss is in KiB.
  return (static_cast<double>(ru.ru_maxrss) * 1024.0 - static_cast<double>(reference_bytes)) /
         (1024.0 * 1024.0);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Set-up timings, each preceded by one reference round on the same thread.
struct Setup {
  std::vector<double> wall, cpu;
  std::vector<double> round_wall, round_cpu;
};

// One set-up: a reference round, then construct the model and
// `job = make_job(model)`, timing both.
template <class Job, class MakeJob>
void set_up(const Inputs& in, SpanRecorder& rec, std::int64_t root, Reference& ref,
            Setup& setup, std::shared_ptr<const core::SharedModel>& model,
            std::unique_ptr<Job>& job, MakeJob&& make_job) {
  job.reset();
  model.reset();
  const ReferenceSample rs = ref.run(1, 1);
  setup.round_wall.push_back(rs.round_wall_s);
  setup.round_cpu.push_back(rs.round_cpu_s);
  const double c0 = cpu_s();
  const std::int64_t sid = rec.open("setup", root);
  const double t0 = now_s();
  model = std::make_shared<const core::SharedModel>(in.structure, in.model);
  const double t1 = now_s();
  job = make_job(model);
  const double t2 = now_s();
  rec.close(sid);
  rec.add("core.model_build", t0, t1, sid);
  rec.add("core.job_build", t1, t2, sid);
  setup.wall.push_back(t2 - t0);
  setup.cpu.push_back(cpu_s() - c0);
}

// The host-speed samples of one job's solve: at every iteration boundary
// the on_iteration hook runs reference rounds on the solving threads;
// `enter`/`leave` bracket each hook call.
struct Sampler {
  int rounds_per_call = 1;
  int threads = 1;
  std::vector<double> enter, leave;
  std::vector<double> round_wall, round_cpu;
  double cpu_s = 0.0;  // of all the rounds' threads
  void sample(Reference& ref) {
    enter.push_back(now_s());
    const ReferenceSample rs = ref.run(rounds_per_call, threads);
    leave.push_back(now_s());
    round_wall.push_back(rs.round_wall_s);
    round_cpu.push_back(rs.round_cpu_s);
    cpu_s += rs.cpu_s;
  }
  double paused_s() const {
    double s = 0.0;
    for (std::size_t i = 0; i < enter.size(); ++i) s += leave[i] - enter[i];
    return s;
  }
};

// One span per SCF iteration, between the hook calls. `start`/`end` bound
// the run when known (JobState::run); service jobs only give the
// iterations between their first and last hook call.
void iteration_spans(SpanRecorder& rec, std::int64_t parent, const Sampler& s,
                     double start = -1.0, double end = -1.0) {
  const std::size_t n = s.enter.size();
  if (n == 0) return;
  if (start >= 0.0) rec.add("ks.scf_iter", start, s.enter[0], parent);
  for (std::size_t i = 1; i < n; ++i) rec.add("ks.scf_iter", s.leave[i - 1], s.enter[i], parent);
  if (end >= 0.0) rec.add("ks.scf_iter", s.leave[n - 1], end, parent);
}

SolveRecord record_of(const std::string& name, const core::SimulationResult& r) {
  SolveRecord s;
  s.name = name;
  s.converged = r.scf.converged;
  s.energy = r.energy;
  return s;
}

// Record a solve and print its answer line.
bool record(RunOutput& out, const SolveRecord& sr, int iterations) {
  std::printf("perfbench: solve %s converged %d iterations %d energy %.12f\n", sr.name.c_str(),
              int(sr.converged && !sr.threw), iterations, sr.energy);
  return out.tally.record(sr);
}

// The one timed solve of a run.
struct Timed {
  double start = 0.0;         // of the run's measuring, for the `seconds` budget
  double wall_s = 0.0;        // first call into the solve to its last result
  double cpu_s = 0.0;         // process CPU seconds over the same interval
  double paused_s = 0.0;      // wall of the hooks' reference rounds, per solving thread
  double paused_cpu_s = 0.0;  // CPU seconds of the hooks' reference rounds
  double peak_rss_mb = 0.0;   // right after the solve, less the reference buffers
  int iterations = 0;         // summed over sweep jobs
  std::vector<double> round_wall, round_cpu;  // per hook call, taken inside the solve
};

// The end-to-end metrics: wall and CPU times with the reference rounds
// taken out, scaled to a host on which one round takes kReferenceRound_s
// (the solve by the rounds taken inside it, set-up by the rounds before
// each set-up), and peak memory as read.
void e2e_metrics(RunOutput& out, const Setup& setup, const Timed& t) {
  const double solve_wall = t.wall_s - t.paused_s;
  const double solve_cpu = t.cpu_s - t.paused_cpu_s;
  const double setup_wall = median(setup.wall), setup_cpu = median(setup.cpu);
  const double solve_s = solve_wall * kReferenceRound_s / mean(t.round_wall);
  const double setup_s = setup_wall * kReferenceRound_s / mean(setup.round_wall);
  const double cpu_s = solve_cpu * kReferenceRound_s / mean(t.round_cpu) +
                       setup_cpu * kReferenceRound_s / mean(setup.round_cpu);
  out.metrics.push_back({"solve_s", solve_s, "s"});
  out.metrics.push_back({"setup_s", setup_s, "s"});
  out.metrics.push_back({"cpu_s", cpu_s, "s"});
  out.metrics.push_back({"peak_rss_mb", t.peak_rss_mb, "MB"});
  std::printf(
      "perfbench: measured solve %.4f s, set-up %.6f s (median of %zu), cpu %.4f s\n"
      "perfbench: reference round in the solve %.6f s (mean of %zu hook calls), before "
      "set-ups %.6f s (mean of %zu)\nperfbench: scf_iterations %d\n",
      solve_wall, setup_wall, setup.wall.size(), solve_cpu + setup_cpu, mean(t.round_wall),
      t.round_wall.size(), mean(setup.round_wall), setup.round_wall.size(), t.iterations);
}

void layer_metrics(RunOutput& out, MetricMap& m, SpanRecorder& rec, int iterations,
                   bool with_p90) {
  set_metric(m, "core.model_build_s", median(rec.durations("core.model_build")), "s");
  set_metric(m, "core.job_build_s", median(rec.durations("core.job_build")), "s");
  set_metric(m, "ks.scf_iterations", iterations, "count");
  const auto iters = rec.durations("ks.scf_iter");
  set_metric(m, "ks.scf_iter_s", median(iters), "s");
  if (with_p90) set_metric(m, "ks.scf_iter_p90_s", percentile(iters, 90.0), "s");
  const double iter_s = median(iters);
  if (iter_s > 0.0)
    set_metric(m, "bench.unattributed_share",
               1.0 - (m["ks.veff_s"].value + m["ks.chfes_cycle_s"].value +
                      m["ks.density_s"].value) /
                         iter_s,
               "ratio");
  for (auto& [name, metric] : m) out.metrics.push_back(metric);
}

// dimer and lanes: one JobState, one timed run().
void run_single(const RunOptions& opt, Inputs& in, SpanRecorder& rec, std::int64_t root,
                RunOutput& out) {
  const bool lanes = opt.workload == Workload::lanes;
  // Set-ups run on one thread; a lanes solve on two.
  Reference ref(lanes ? 2 : 1);
  Sampler sampler;
  sampler.rounds_per_call = kRoundsPerIteration;
  sampler.threads = lanes ? 2 : 1;
  in.jobs[0].on_iteration = [&](core::JobState&, int) { sampler.sample(ref); };

  Timed t;
  t.start = now_s();
  Setup setup;  // the set-ups timed after the solve: setup_s
  std::shared_ptr<const core::SharedModel> model;
  std::unique_ptr<core::JobState> job;
  const auto make_job = [&](const auto& m) {
    return std::make_unique<core::JobState>(m, in.jobs[0]);
  };
  Setup first;  // the build the solve runs on; not in setup_s
  set_up(in, rec, root, ref, first, model, job, make_job);
  SolveRecord sr;
  sr.name = in.jobs[0].name;
  const std::int64_t run_span = rec.open("core.job_run", root);
  const double c0 = cpu_s(), t0 = now_s();
  try {
    const auto res = job->run();
    sr = record_of(sr.name, res);
    t.iterations = res.scf.iterations;
  } catch (const std::exception& e) {
    sr.threw = true;
    sr.error = e.what();
  }
  const double t1 = now_s();
  t.cpu_s = cpu_s() - c0;
  rec.close(run_span);
  t.wall_s = t1 - t0;
  t.peak_rss_mb = peak_rss_mb(ref.bytes());
  t.paused_s = sampler.paused_s();
  t.paused_cpu_s = sampler.cpu_s;
  t.round_wall = sampler.round_wall;
  t.round_cpu = sampler.round_cpu;
  iteration_spans(rec, run_span, sampler, t0, t1);
  {
    std::shared_ptr<const core::SharedModel> m2;
    std::unique_ptr<core::JobState> j2;
    while (setup.wall.size() < kSetupReps || now_s() - t.start < opt.seconds)
      set_up(in, rec, root, ref, setup, m2, j2, make_job);
  }
  e2e_metrics(out, setup, t);

  // Answer checks, after every timed and memory reading.
  std::optional<double> reference;
  if (!lanes) {
    reference = dimer_reference_energy(opt.seed);
  } else {
    core::JobOptions ref_opt = in.jobs[0];
    ref_opt.on_iteration = nullptr;
    ref_opt.backend = dd::BackendOptions{};
    ref_opt.backend.wire = dd::Wire::fp64;
    try {
      core::JobState ref(model, ref_opt);
      const auto rr = ref.run();
      out.tally.check(rr.scf.converged, "lanes serial reference solve converges");
      reference = rr.energy;
    } catch (const std::exception& e) {
      out.tally.check(false, std::string("lanes serial reference solve threw: ") + e.what());
    }
  }
  sr.reference = reference;
  sr.tolerance = 1e-8;
  const bool ok = record(out, sr, t.iterations);
  if (!rec.enabled() || !ok) return;

  MetricMap m;
  const std::int64_t pid = rec.open("probes", root);
  ProbeTarget target{*job, in.jobs[0].scf, in.jobs[0].backend};
  probe_solver_layers(target, rec, pid, m);
  if (lanes) probe_dd(target, rec, pid, m);
  probe_hardware(rec, pid, m);
  rec.close(pid);
  layer_metrics(out, m, rec, t.iterations, false);
}

// sweep: 16 jobs through one svc::JobService on the one shared model; one
// submitter feeds the bounded queue, 2 workers run the jobs.
void run_sweep(const RunOptions& opt, Inputs& in, SpanRecorder& rec, std::int64_t root,
               RunOutput& out) {
  constexpr int workers = 2;
  // One Reference per service worker, allocated here before any timing;
  // each worker takes its own at its first hook call. Set-ups, which never
  // overlap the jobs, use the first.
  Reference worker_refs[workers];
  Reference& ref = worker_refs[0];
  std::atomic<int> next_ref{0};
  const std::size_t njobs = in.jobs.size();
  std::vector<Sampler> samplers(njobs);
  for (std::size_t j = 0; j < njobs; ++j) {
    samplers[j].rounds_per_call = kRoundsPerSweepIteration;
    in.jobs[j].on_iteration = [s = &samplers[j], &worker_refs, &next_ref](core::JobState&, int) {
      thread_local Reference* mine = &worker_refs[next_ref++ % workers];
      s->sample(*mine);
    };
  }
  core::JobOptions representative = in.jobs[kRepresentativeJob];
  representative.on_iteration = nullptr;

  Timed t;
  t.start = now_s();
  Setup setup;  // the set-ups timed after the solve: setup_s
  std::shared_ptr<const core::SharedModel> model;
  std::unique_ptr<svc::JobService> service;
  const auto make_service = [&](const auto& m) {
    return std::make_unique<svc::JobService>(m, in.service);
  };
  Setup first;  // the build the sweep runs on; not in setup_s
  const std::int64_t builds_before = core::SharedModel::built_count();
  set_up(in, rec, root, ref, first, model, service, make_service);
  std::vector<svc::JobOutcome> outcomes;
  std::string error;
  const std::int64_t sweep_span = rec.open("svc.sweep", root);
  const double c0 = cpu_s(), t0 = now_s();
  try {
    for (const auto& job : in.jobs) {
      const double s0 = now_s();
      const bool accepted = service->submit(job);
      rec.add("svc.submit", s0, now_s(), sweep_span);
      if (!accepted) throw std::runtime_error("JobService refused a submission");
    }
    const std::int64_t drain_span = rec.open("svc.drain", sweep_span);
    outcomes = service->drain();
    rec.close(drain_span);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double t1 = now_s();
  t.cpu_s = cpu_s() - c0;
  rec.close(sweep_span);
  t.wall_s = t1 - t0;
  t.peak_rss_mb = peak_rss_mb(worker_refs[0].bytes() + worker_refs[1].bytes());
  const std::int64_t builds = core::SharedModel::built_count() - builds_before;
  for (const auto& o : outcomes) t.iterations += o.result.scf.iterations;
  // The two workers pause in turn, so the sweep's wall holds about half of
  // the hooks' rounds.
  for (const auto& s : samplers) {
    t.paused_s += s.paused_s() / workers;
    t.paused_cpu_s += s.cpu_s;
    t.round_wall.insert(t.round_wall.end(), s.round_wall.begin(), s.round_wall.end());
    t.round_cpu.insert(t.round_cpu.end(), s.round_cpu.begin(), s.round_cpu.end());
    iteration_spans(rec, sweep_span, s);
  }
  {
    std::shared_ptr<const core::SharedModel> m2;
    std::unique_ptr<svc::JobService> s2;
    while (setup.wall.size() < kSetupReps || now_s() - t.start < opt.seconds)
      set_up(in, rec, root, ref, setup, m2, s2, make_service);
  }
  e2e_metrics(out, setup, t);

  // Answer checks: every job converges, each sweep built its model once,
  // and the representative job re-run alone reproduces its service outcome.
  out.tally.check(builds == 1, "SharedModel built exactly once for the sweep (built " +
                                   std::to_string(builds) + ")");
  std::unique_ptr<core::JobState> rep_job;
  std::optional<double> rep_reference;
  try {
    rep_job = std::make_unique<core::JobState>(model, representative);
    const auto rr = rep_job->run();
    out.tally.check(rr.scf.converged, "representative re-run converges");
    rep_reference = rr.energy;
  } catch (const std::exception& e) {
    out.tally.check(false, std::string("representative re-run threw: ") + e.what());
    rep_job.reset();
  }
  bool rep_ok = true;
  for (std::size_t j = 0; j < njobs; ++j) {
    SolveRecord sr;
    sr.name = "sep_" + std::to_string(j);
    int iterations = 0;
    if (j < outcomes.size()) {
      const auto& o = outcomes[j];
      sr = record_of(o.name, o.result);
      sr.threw = !o.ok;
      sr.error = o.error;
      iterations = o.result.scf.iterations;
    } else {
      sr.threw = true;
      sr.error = error.empty() ? "no outcome" : error;
    }
    if (static_cast<int>(j) == kRepresentativeJob) {
      sr.reference = rep_reference;
      sr.tolerance = 1e-10;
      rep_ok = record(out, sr, iterations) && rep_ok;
    } else {
      record(out, sr, iterations);
    }
  }
  if (!rec.enabled() || !rep_ok || !rep_job) return;

  MetricMap m;
  double submit_s = 0.0;
  for (double d : rec.durations("svc.submit")) submit_s += d;
  set_metric(m, "svc.submit_blocked_s", submit_s, "s");
  const std::int64_t pid = rec.open("probes", root);
  ProbeTarget target{*rep_job, representative.scf, representative.backend};
  probe_solver_layers(target, rec, pid, m);
  probe_checkpoint(target, opt.out_dir + "/probe", rec, pid, m);
  probe_hardware(rec, pid, m);
  rec.close(pid);
  layer_metrics(out, m, rec, t.iterations, true);
}

}  // namespace

RunOutput run_workload(const RunOptions& opt) {
  std::filesystem::remove_all(opt.out_dir);
  std::filesystem::create_directories(opt.out_dir);
  const std::string run_id =
      std::string(workload_name(opt.workload)) + "-" + std::to_string(opt.seed);
  SpanRecorder rec(opt.trace, run_id);
  Inputs in =
      make_inputs(opt.workload, opt.seed, opt.data_dir + "/mlxc_weights.txt", opt.out_dir);
  RunOutput out;
  const std::int64_t run_span = rec.open("run");
  if (opt.workload == Workload::sweep)
    run_sweep(opt, in, rec, run_span, out);
  else
    run_single(opt, in, rec, run_span, out);
  rec.close(run_span);
  if (rec.enabled()) {
    out.spans_path = opt.out_dir + "/spans.json";
    if (!rec.write_json(out.spans_path)) out.tally.check(false, "spans file written");
  }
  return out;
}

}  // namespace perfbench
