#pragma once

// Hardware ceilings measured by the benchmark itself, and the machine
// fingerprint every result carries. The ceilings are the denominators of
// the roofline fractions (ks.cf_pct_fma_peak): a measured FMA throughput
// per ISA width and a STREAM triad over arrays far larger than the
// last-level cache. Results with different fingerprints are never compared.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct FmaPeak {
  std::string isa;  // "sse2", "fma128", "fma256", "avx512"
  int width_bits = 0;
  double gflops = 0.0;  // one core, double precision
};

/// FMA throughput on one core for each vector width the host supports
/// (median of `reps` timed runs per width).
std::vector<FmaPeak> measure_fma_peaks(int reps = 5);

struct TriadResult {
  double gbytes_s = 0.0;       // one core, 24 bytes per element (no write-allocate)
  std::size_t array_bytes = 0;  // per array; three arrays
  std::size_t llc_bytes = 0;    // last-level cache the host reports
};

/// STREAM triad a = b + s c with each array max(4 x LLC, 1.2 GiB), median
/// of `reps` passes.
TriadResult measure_triad(int reps = 5);

/// Host-speed reference: a fixed round of benchmark-owned work shaped like
/// the solver's iterations, the same on every run and untouched by any
/// change to the program. A round is a finite-element cell kernel (gather
/// 96 cells of 125 nodes x 16 vectors, multiply by a dense 125 x 125 cell
/// matrix, scatter-add) interleaved with two sweeps of a strided stencil
/// over 8 MiB vectors (memory-bound, like the Poisson and density work). The
/// benchmark runs rounds on the solving threads between SCF iterations and
/// before every set-up, and scales the end-to-end times by
/// kReferenceRound_s / (mean round time), so a host that runs everything
/// slower for a while does not move them.
constexpr double kReferenceRound_s = 0.012;

/// Rounds run by one Reference::run call.
struct ReferenceSample {
  double wall_s = 0.0;        // of the whole call
  double cpu_s = 0.0;         // CPU seconds of all its threads
  double round_wall_s = 0.0;  // wall_s per round
  double round_cpu_s = 0.0;   // CPU seconds per round and thread
};

class Reference {
 public:
  /// Buffers for up to `threads` threads: the calling one and helpers.
  explicit Reference(int threads = 1);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;
  /// Run `rounds` rounds on each of `threads` threads (at most the number
  /// the buffers were made for); the call ends when all are done.
  ReferenceSample run(int rounds, int threads = 1);
  /// Bytes of the buffers, all resident from construction on.
  std::size_t bytes() const;

 private:
  struct Buffers;
  std::vector<std::unique_ptr<Buffers>> bufs_;
};

/// Restrict the process to the first `n` CPUs it may run on, so the
/// solving threads and the reference rounds share the same cores. Returns
/// the CPUs chosen ("0,1"), or "" when the host has fewer.
std::string pin_to_first_cpus(int n);

/// One-line JSON object: ISA, cores, LLC, compiler, flags, and the
/// DFTFE_NATIVE_ARCH and DFTFE_ENABLE_TRACING build settings (both fixed
/// by the benchmark's build: portable ISA, tracing on).
std::string fingerprint_json();

}  // namespace perfbench
