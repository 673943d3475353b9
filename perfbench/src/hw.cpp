#include "hw.hpp"

#include <immintrin.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <memory>
#include <thread>

#include "spans.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

// Twelve independent dependent chains per kernel: enough to cover FMA
// latency x issue ports on current x86 cores, few enough to stay in
// registers at every width.
constexpr int kChains = 12;
constexpr long kSteps = 10'000'000;

volatile double g_sink = 0.0;

double run_sse2(double x, double y) {
  __m128d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm_set1_pd(x + c);
  const __m128d m = _mm_set1_pd(y), a = _mm_set1_pd(1e-9);
  for (long i = 0; i < kSteps; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm_add_pd(_mm_mul_pd(acc[c], m), a);
  __m128d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm_add_pd(s, acc[c]);
  return _mm_cvtsd_f64(s);
}

__attribute__((target("fma"))) double run_fma128(double x, double y) {
  __m128d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm_set1_pd(x + c);
  const __m128d m = _mm_set1_pd(y), a = _mm_set1_pd(1e-9);
  for (long i = 0; i < kSteps; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm_fmadd_pd(acc[c], m, a);
  __m128d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm_add_pd(s, acc[c]);
  return _mm_cvtsd_f64(s);
}

__attribute__((target("avx2,fma"))) double run_fma256(double x, double y) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(x + c);
  const __m256d m = _mm256_set1_pd(y), a = _mm256_set1_pd(1e-9);
  for (long i = 0; i < kSteps; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], m, a);
  __m256d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm256_add_pd(s, acc[c]);
  return _mm256_cvtsd_f64(s);
}

__attribute__((target("avx512f"))) double run_fma512(double x, double y) {
  __m512d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(x + c);
  const __m512d m = _mm512_set1_pd(y), a = _mm512_set1_pd(1e-9);
  for (long i = 0; i < kSteps; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_pd(acc[c], m, a);
  __m512d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_pd(s, acc[c]);
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, s);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] + lanes[6] + lanes[7];
}

// Every kernel step is a multiply and an add (fused or not) per lane.
FmaPeak time_kernel(const char* isa, int width_bits, double (*kernel)(double, double), int reps) {
  std::vector<double> rates;
  const double lanes = width_bits / 64.0;
  const double flops = 2.0 * lanes * kChains * static_cast<double>(kSteps);
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    g_sink = g_sink + kernel(1.0 + 1e-3 * r, 0.999999);
    rates.push_back(flops / (now_s() - t0) * 1e-9);
  }
  return {isa, width_bits, median(rates)};
}

std::string host_isa() {
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "sse2";
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

// A round is kSteps steps. Each step runs 12 cells of the cell kernel
// (cells overlap like a chain of hexahedra: cell c holds nodes
// [100 c, 100 c + 125) of the global block) and a quarter of one sweep of a
// 9-point strided stencil over vectors of 2^20 doubles, far larger than L2,
// like the solver's streaming Poisson and density work: two sweeps per
// round, u -> w then w -> u. On a quiet 4-core AVX-512 Xeon VM the cell
// kernel takes about 70% of a round.
struct Reference::Buffers {
  static constexpr int kSteps = 8;
  static constexpr int kCells = 96, kNodes = 125, kVecs = 16;
  static constexpr int kGlobal = 100 * kCells + kNodes - 100;
  static constexpr std::size_t kStencil = std::size_t{1} << 20;
  static constexpr std::size_t kReach = 1000;
  std::vector<double> k, x, y, xc, yc, u, w;
  double sum = 0.0;
  Buffers()
      : k(kNodes * kNodes), x(kGlobal * kVecs), y(kGlobal * kVecs), xc(kNodes * kVecs),
        yc(kNodes * kVecs), u(kStencil), w(kStencil) {
    for (int i = 0; i < kNodes * kNodes; ++i) k[i] = 1e-3 * ((i * 7) % 11 - 5);
    for (int i = 0; i < kGlobal * kVecs; ++i) x[i] = 1e-3 * (i % 19);
    for (std::size_t i = 0; i < kStencil; ++i) u[i] = 1e-3 * static_cast<double>(i % 23);
  }
  std::size_t bytes() const {
    return sizeof(double) * (k.size() + x.size() + y.size() + xc.size() + yc.size() +
                             u.size() + w.size());
  }
  void step(int s) {
    for (int c = s * kCells / kSteps; c < (s + 1) * kCells / kSteps; ++c) {
      const int base = 100 * c;
      for (int l = 0; l < kNodes; ++l)
        for (int v = 0; v < kVecs; ++v) xc[l * kVecs + v] = x[(base + l) * kVecs + v];
      std::fill(yc.begin(), yc.end(), 0.0);
      for (int i = 0; i < kNodes; ++i)
        for (int j = 0; j < kNodes; ++j) {
          const double kij = k[i * kNodes + j];
          for (int v = 0; v < kVecs; ++v) yc[i * kVecs + v] += kij * xc[j * kVecs + v];
        }
      for (int l = 0; l < kNodes; ++l)
        for (int v = 0; v < kVecs; ++v) y[(base + l) * kVecs + v] += 1e-9 * yc[l * kVecs + v];
    }
    const int chunks = kSteps / 2, chunk = s % chunks;
    const std::size_t span = (kStencil - 2 * kReach) / chunks;
    const std::size_t lo = kReach + chunk * span;
    const std::size_t hi = chunk + 1 == chunks ? kStencil - kReach : lo + span;
    const double* __restrict src = s < chunks ? u.data() : w.data();
    double* __restrict dst = s < chunks ? w.data() : u.data();
    for (std::size_t i = lo; i < hi; ++i)
      dst[i] = (1.0 / 9.0) * (src[i - 1000] + src[i - 100] + src[i - 10] + src[i - 1] + src[i] +
                              src[i + 1] + src[i + 10] + src[i + 100] + src[i + 1000]);
    if (s + 1 == kSteps) sum += y[77] + u[kStencil / 2];
  }
};

Reference::Reference(int threads) {
  for (int t = 0; t < std::max(1, threads); ++t) bufs_.push_back(std::make_unique<Buffers>());
}

Reference::~Reference() {
  for (const auto& b : bufs_) g_sink = g_sink + b->sum;
}

std::size_t Reference::bytes() const {
  std::size_t n = 0;
  for (const auto& b : bufs_) n += b->bytes();
  return n;
}

// With several threads, they meet at a barrier after every step, as the
// program's lanes meet at every halo exchange, so a round takes as long as
// its slowest thread.
ReferenceSample Reference::run(int rounds, int threads) {
  threads = std::clamp(threads, 1, static_cast<int>(bufs_.size()));
  std::barrier sync(threads);
  std::vector<double> cpu(static_cast<std::size_t>(threads), 0.0);
  auto work = [&](int t) {
    const double c0 = thread_cpu_s();
    for (int r = 0; r < rounds; ++r)
      for (int st = 0; st < Buffers::kSteps; ++st) {
        bufs_[t]->step(st);
        if (threads > 1) sync.arrive_and_wait();
      }
    cpu[t] = thread_cpu_s() - c0;
  };
  const double t0 = now_s();
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(work, t);
  work(0);
  for (auto& h : helpers) h.join();
  ReferenceSample s;
  s.wall_s = now_s() - t0;
  for (double c : cpu) s.cpu_s += c;
  s.round_wall_s = s.wall_s / rounds;
  s.round_cpu_s = s.cpu_s / (rounds * threads);
  return s;
}

std::vector<FmaPeak> measure_fma_peaks(int reps) {
  std::vector<FmaPeak> out;
  out.push_back(time_kernel("sse2", 128, run_sse2, reps));
  if (__builtin_cpu_supports("fma")) {
    out.push_back(time_kernel("fma128", 128, run_fma128, reps));
    if (__builtin_cpu_supports("avx2"))
      out.push_back(time_kernel("fma256", 256, run_fma256, reps));
  }
  if (__builtin_cpu_supports("avx512f"))
    out.push_back(time_kernel("avx512", 512, run_fma512, reps));
  return out;
}

TriadResult measure_triad(int reps) {
  TriadResult r;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  r.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
  const std::size_t floor_bytes = static_cast<std::size_t>(1.2 * (1u << 30));
  r.array_bytes = std::max<std::size_t>(4 * r.llc_bytes, floor_bytes);
  const std::size_t n = r.array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0 + 1e-9 * static_cast<double>(i & 1023);
    c[i] = 2.0;
  }
  const double s = 0.5 + 1e-3 * static_cast<double>(reps);
  std::vector<double> rates;
  for (int k = 0; k < reps; ++k) {
    double* __restrict pa = a.get();
    const double* __restrict pb = b.get();
    const double* __restrict pc = c.get();
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    const double dt = now_s() - t0;
    g_sink = g_sink + pa[n / 2];
    rates.push_back(3.0 * static_cast<double>(r.array_bytes) / dt * 1e-9);
  }
  r.gbytes_s = median(rates);
  return r;
}

std::string pin_to_first_cpus(int n) {
  cpu_set_t allowed, chosen;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "";
  CPU_ZERO(&chosen);
  std::string list;
  for (int c = 0, k = 0; c < CPU_SETSIZE && k < n; ++c)
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &chosen);
      list += (k++ ? "," : "") + std::to_string(c);
    }
  if (CPU_COUNT(&chosen) < n || sched_setaffinity(0, sizeof chosen, &chosen) != 0) return "";
  return list;
}

std::string fingerprint_json() {
  char buf[1024];
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::snprintf(buf, sizeof buf,
                "{\"isa\": \"%s\", \"cores\": %u, \"llc_bytes\": %ld, \"compiler\": \"%s\", "
                "\"cxx_flags\": \"%s\", \"DFTFE_NATIVE_ARCH\": false, "
                "\"DFTFE_ENABLE_TRACING\": true}",
                host_isa().c_str(), std::thread::hardware_concurrency(), llc,
                PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS);
  return buf;
}

}  // namespace perfbench
