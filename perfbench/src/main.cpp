// perfbench — the repo benchmark binary. One process runs one workload and
// prints, as its last stdout line, the result JSON:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
//
//   perfbench --workload dimer|sweep|lanes --seed N --seconds S --trace 0|1
//             --data DIR --out DIR
//   perfbench --make-weights PATH     (regenerate the committed MLXC weights)
//
// OpenMP is pinned to one thread for the whole process, service workers and
// engine lanes included: the process re-executes itself with
// OMP_NUM_THREADS=1 when started without it. At the default thread count
// the dimer's Poisson solve (above 8,192 dofs) crashes on the thread_local
// PCG scratch, and the workloads must keep at most 2 cores busy. The
// process is bound to one core (dimer) or two (sweep, lanes).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/model.hpp"
#include "hw.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dimer|sweep|lanes --seed N "
               "--seconds S --trace 0|1 --data DIR --out DIR\n"
               "       perfbench --make-weights PATH\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (omp == nullptr || std::strcmp(omp, "1") != 0) {
    setenv("OMP_NUM_THREADS", "1", 1);
    execv("/proc/self/exe", argv);
    std::perror("perfbench: re-exec with OMP_NUM_THREADS=1 failed");
    return 2;
  }

  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--make-weights") {
      dftfe::core::train_surrogate_mlxc().save(v);
      std::printf("perfbench: wrote MLXC weights to %s\n", v.c_str());
      return 0;
    } else if (a == "--workload") {
      const auto w = perfbench::parse_workload(v);
      if (!w) return usage(("unknown workload " + v).c_str());
      opt.workload = *w;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--data") {
      opt.data_dir = v;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload || opt.data_dir.empty() || opt.out_dir.empty())
    return usage("--workload, --data and --out are required");

  // One core for the dimer's solving thread, two for the lanes or the
  // service workers; every thread started later inherits the mask.
  const int cores = opt.workload == perfbench::Workload::dimer ? 1 : 2;
  const std::string cpus = perfbench::pin_to_first_cpus(cores);
  std::cout << "perfbench: fingerprint " << perfbench::fingerprint_json() << std::endl;
  std::cout << "perfbench: pinned to cpus " << (cpus.empty() ? "(none)" : cpus) << std::endl;
  perfbench::RunOutput out = perfbench::run_workload(opt);
  for (const auto& p : out.tally.problems()) std::cout << "perfbench: " << p << "\n";
  if (!out.spans_path.empty()) std::cout << "perfbench: spans " << out.spans_path << "\n";
  std::cout << perfbench::result_json(out.tally, out.metrics) << std::endl;
  return 0;
}
