#include "svc/service.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "obs/context.hpp"
#include "obs/log.hpp"
#include "svc/checkpoint.hpp"

namespace dftfe::svc {

JobService::JobService(std::shared_ptr<const core::SharedModel> model, ServiceOptions opt)
    : model_(std::move(model)),
      opt_(std::move(opt)),
      queue_(opt_.queue_capacity),
      arena_(WorkspaceArena::global()) {
  if (model_ == nullptr) throw std::invalid_argument("JobService: null SharedModel");
  if (opt_.workers < 1) opt_.workers = 1;
  std::error_code ec;  // best effort; a missing dir surfaces as a write failure
  if (!opt_.checkpoint_dir.empty()) std::filesystem::create_directories(opt_.checkpoint_dir, ec);
  if (!opt_.report_dir.empty()) std::filesystem::create_directories(opt_.report_dir, ec);
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int w = 0; w < opt_.workers; ++w) workers_.emplace_back([this, w] { worker_main(w); });
}

JobService::~JobService() {
  queue_.close();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
}

bool JobService::submit(core::JobOptions job) {
  if (drained_) return false;
  Spec spec;
  spec.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  spec.job = std::move(job);
  if (!queue_.push(std::move(spec))) return false;
  obs::Context::current().metrics().counter_add("svc.jobs.submitted", 1.0);
  return true;
}

std::vector<JobOutcome> JobService::drain() {
  if (!drained_) {
    drained_ = true;
    queue_.close();
    for (auto& t : workers_) t.join();
    workers_.clear();
    auto& m = obs::Context::current().metrics();
    m.gauge_set("svc.workers", static_cast<double>(opt_.workers));
    m.gauge_set("svc.queue.capacity", static_cast<double>(queue_.capacity()));
    m.gauge_set("svc.queue.highwater", static_cast<double>(queue_.highwater()));
    arena_.publish_metrics();
  }
  std::lock_guard<std::mutex> lk(outcomes_mu_);
  std::sort(outcomes_.begin(), outcomes_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<JobOutcome> out;
  out.reserve(outcomes_.size());
  for (auto& [seq, o] : outcomes_) out.push_back(o);
  return out;
}

void JobService::worker_main(int w) {
  while (auto spec = queue_.pop()) {
    const std::uint64_t seq = spec->seq;
    JobOutcome out = run_one(w, std::move(*spec));
    std::lock_guard<std::mutex> lk(outcomes_mu_);
    outcomes_.emplace_back(seq, std::move(out));
  }
}

std::string JobService::checkpoint_path(const std::string& name) const {
  std::string path = opt_.checkpoint_dir;
  if (!path.empty() && path.back() != '/') path += '/';
  return path + name + ".ckpt.json";
}

JobOutcome JobService::run_one(int w, Spec spec) {
  JobOutcome out;
  out.name = spec.job.name;
  out.worker = w;
  // The process registry, resolved before the job's context installs: the
  // svc.jobs.* fleet counters cross job boundaries.
  obs::MetricsRegistry& proc = obs::Context::current().metrics();
  // Ordering is load-bearing: the workspace lease outlives the job's
  // context, which outlives the job — the job's engine lanes (which install
  // the context and lease scratch) are joined by the solver teardown before
  // either unwinds (see the obs/context.hpp lifetime rule).
  WorkspaceArena::Lease lease(arena_);
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  try {
    if (spec.job.report_path.empty() && !opt_.report_dir.empty()) {
      spec.job.report_path = opt_.report_dir;
      if (spec.job.report_path.back() != '/') spec.job.report_path += '/';
    }
    std::optional<ks::ScfState> resume;
    if (!opt_.checkpoint_dir.empty()) {
      const std::string ckpt = checkpoint_path(spec.job.name);
      if (auto cp = read_checkpoint(ckpt); cp && cp->label == spec.job.name)
        resume = std::move(cp->scf);
      const int every = std::max(1, opt_.checkpoint_every);
      const std::string name = spec.job.name;
      auto user_hook = std::move(spec.job.on_iteration);
      spec.job.on_iteration = [ckpt, every, name,
                               user_hook = std::move(user_hook)](core::JobState& j, int done) {
        if (done % every == 0) {
          if (write_checkpoint(ckpt, {name, j.save_scf_state()}))
            obs::Context::current().metrics().counter_add("job.checkpoint.writes", 1.0);
          else
            DFTFE_LOG(warn) << "[svc] checkpoint write failed: " << ckpt;
        }
        if (user_hook) user_hook(j, done);
      };
    }
    core::JobState job(model_, std::move(spec.job));
    if (resume) {
      job.set_resume_state(std::move(*resume));
      proc.counter_add("svc.jobs.resumed", 1.0);
      DFTFE_LOG(info) << "[svc] job " << out.name << " resuming from checkpoint";
    }
    out.result = job.run();
    out.resumed_from = job.resumed_from();
    // Drop the solver before the lease returns its pools, so no job-owned
    // buffer outlives the bundle binding.
    job.release_solver();
    out.ok = true;
    proc.counter_add("svc.jobs.completed", 1.0);
  } catch (const std::exception& e) {
    out.error = e.what();
    proc.counter_add("svc.jobs.failed", 1.0);
    DFTFE_LOG(warn) << "[svc] job " << out.name << " failed: " << e.what();
  }
  return out;
}

}  // namespace dftfe::svc
