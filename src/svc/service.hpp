#pragma once

// svc::JobService — multi-tenant scheduler for Kohn-Sham jobs against one
// immutable core::SharedModel. Submitters push core::JobOptions into a
// bounded queue (svc/queue.hpp; push blocks when full — admission control);
// N worker threads pop and run one core::JobState each, concurrently. Per
// job, a worker:
//
//   1. leases a workspace bundle from the global WorkspaceArena
//      (svc/arena.hpp) — la::Workspace<T>::global() resolves to the job's
//      private pools for the job's whole lifetime;
//   2. installs a per-job obs::Context — the job's metrics/traces/FLOPs/
//      report land in the job's own context, not interleaved with other
//      tenants;
//   3. wires checkpointing: if a dftfe.checkpoint.v1 artifact for the job
//      name exists in checkpoint_dir, the job resumes from it; every
//      checkpoint_every completed iterations the current ks::ScfState is
//      written back (atomic tmp+rename, svc/checkpoint.hpp);
//   4. runs the job, releases the solver, returns the lease.
//
// A killed service re-runs the same submissions and every interrupted job
// resumes mid-SCF to the identical converged energy (see tests/test_svc.cpp
// and the service-soak CI job).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/job.hpp"
#include "core/model.hpp"
#include "svc/arena.hpp"
#include "svc/queue.hpp"

namespace dftfe::svc {

struct ServiceOptions {
  int workers = 2;
  std::size_t queue_capacity = 8;
  /// Directory for dftfe.checkpoint.v1 artifacts ("<dir>/<name>.ckpt.json").
  /// Empty disables checkpointing. Created lazily by the first write.
  std::string checkpoint_dir;
  /// Checkpoint after every N completed SCF iterations (N >= 1).
  int checkpoint_every = 1;
  /// Default RunReport directory: jobs without their own report_path emit
  /// "<dir>/<name>.report.json". Empty leaves report_path untouched.
  std::string report_dir;
};

struct JobOutcome {
  std::string name;
  bool ok = false;
  std::string error;              // exception text when !ok
  core::SimulationResult result;  // valid when ok
  int resumed_from = 0;           // checkpoint iteration resumed from (0 = fresh)
  int worker = -1;                // worker thread index that ran the job
};

class JobService {
 public:
  JobService(std::shared_ptr<const core::SharedModel> model, ServiceOptions opt = {});
  ~JobService();
  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Enqueue a job; blocks while the queue is full. False after drain().
  bool submit(core::JobOptions job);

  /// Close the queue, join the workers, publish the svc.* process gauges,
  /// and return all outcomes in submission order.
  std::vector<JobOutcome> drain();

  const ServiceOptions& options() const { return opt_; }
  const core::SharedModel& model() const { return *model_; }

 private:
  struct Spec {
    std::uint64_t seq = 0;
    core::JobOptions job;
  };

  void worker_main(int w);
  JobOutcome run_one(int w, Spec spec);
  std::string checkpoint_path(const std::string& name) const;

  std::shared_ptr<const core::SharedModel> model_;
  ServiceOptions opt_;
  BoundedQueue<Spec> queue_;
  WorkspaceArena& arena_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_seq_{0};
  bool drained_ = false;

  std::mutex outcomes_mu_;
  std::vector<std::pair<std::uint64_t, JobOutcome>> outcomes_;
};

}  // namespace dftfe::svc
