// Microbenchmarks (google-benchmark) of the hot kernels: dense GEMM,
// strided-batched cell GEMM, the full cell-level Hamiltonian apply
// (gather + batched GEMM + assembly), mixed-precision GEMM, and the
// FP32/FP64 wire pack. These are the building blocks whose throughputs the
// table/figure benches aggregate.
//
// Unlike the plain BENCHMARK_MAIN() harness, this binary runs with a
// reporter that mirrors every finished benchmark into the metrics registry
// (wall time per iteration, user counters such as GFLOPS/GB/s, workspace
// allocation counts) and writes BENCH_kernels.json on exit, so kernel
// throughput is trackable across commits like the table benches.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.hpp"
#include "dd/exchange.hpp"
#include "fe/cell_ops.hpp"
#include "ks/hamiltonian.hpp"
#include "la/batched.hpp"
#include "la/blas.hpp"
#include "la/mixed.hpp"
#include "la/workspace.hpp"
#include "obs/context.hpp"

using namespace dftfe;

static void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  la::MatrixD A(n, n), B(n, n), C(n, n);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = B.data()[i] = 0.5 + 1e-6 * i;
  for (auto _ : state) la::gemm('N', 'N', 1.0, A, B, 0.0, C);
  state.counters["GFLOPS"] =
      benchmark::Counter(2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Arg(512);

static void BM_GemmComplex(benchmark::State& state) {
  const index_t n = state.range(0);
  la::MatrixZ A(n, n), B(n, n), C(n, n);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = B.data()[i] = complex_t(0.5, 0.1);
  for (auto _ : state) la::gemm('C', 'N', complex_t(1), A, B, complex_t(0), C);
  state.counters["GFLOPS"] =
      benchmark::Counter(8.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmComplex)->Arg(128)->Arg(256);

static void BM_BatchedCellGemm(benchmark::State& state) {
  // (p+1)^3 x (p+1)^3 cell matrix applied to B-column blocks over a batch of
  // cells — the paper's xGEMMStridedBatched workload.
  const int p = static_cast<int>(state.range(0));
  const index_t nd = (p + 1) * (p + 1) * (p + 1), B = 64, batch = 32;
  la::MatrixD A(nd, nd);
  std::vector<double> X(nd * B * batch, 0.3), Y(nd * B * batch);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = 1e-4 * (i % 97);
  for (auto _ : state)
    la::gemm_strided_batched<double>('N', 'N', nd, B, nd, 1.0, A.data(), nd, 0, X.data(), nd,
                                     nd * B, 0.0, Y.data(), nd, nd * B, batch);
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * nd * nd * B * batch * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchedCellGemm)->Arg(4)->Arg(6)->Arg(8);

static void BM_HamiltonianApply(benchmark::State& state) {
  const index_t bf = state.range(0);
  static fe::Mesh mesh = fe::make_uniform_mesh(10.0, 3, true);
  static fe::DofHandler dofh(mesh, 5);
  static ks::Hamiltonian<double> H = [] {
    ks::Hamiltonian<double> h(dofh);
    h.set_potential(std::vector<double>(dofh.ndofs(), -0.4));
    return h;
  }();
  la::MatrixD X(dofh.ndofs(), bf), Y;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.01 * i);
  H.apply(X, Y);  // warm up persistent workspace buffers
  la::WorkspaceCounters::reset();
  for (auto _ : state) H.apply(X, Y);
  // Steady-state applies must be allocation-free: this counter is expected
  // to stay 0 (also asserted by tests/test_workspace.cpp).
  state.counters["ws_allocs"] =
      benchmark::Counter(static_cast<double>(la::WorkspaceCounters::allocations()));
  state.counters["GFLOPS"] = benchmark::Counter(
      H.kinetic().flops_per_apply(bf) * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HamiltonianApply)->Arg(16)->Arg(64)->Arg(128);

static void BM_MixedPrecisionGemm(benchmark::State& state) {
  const index_t n = state.range(0);
  la::MatrixD A(n, n), B(n, n), C(n, n);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = B.data()[i] = 0.5;
  for (auto _ : state)
    la::gemm_low_precision<double>('N', 'N', n, n, n, A.data(), n, B.data(), n, C.data(), n);
  state.counters["GFLOPS"] =
      benchmark::Counter(2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MixedPrecisionGemm)->Arg(256);

static void BM_WirePack(benchmark::State& state) {
  const bool fp32 = state.range(0) == 32;
  static fe::Mesh mesh = fe::make_uniform_mesh(10.0, 4, true);
  static fe::DofHandler dofh(mesh, 4);
  static dd::SlabPartition part(dofh, 8);
  dd::BoundaryExchange<double> ex(part, fp32 ? dd::Wire::fp32 : dd::Wire::fp64);
  la::MatrixD X(dofh.ndofs(), 64);
  for (auto _ : state) ex.exchange(X);
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(ex.stats().bytes) / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WirePack)->Arg(64)->Arg(32);

namespace {

/// Console reporter that additionally mirrors every finished run into the
/// metrics registry: `bench.kernels.<name>.wall_s` (per-iteration wall time)
/// plus one gauge per user counter (GFLOPS, GB/s, ws_allocs). Counter values
/// arrive already finalized (rates divided by elapsed time).
class MetricsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    auto& m = obs::Context::current().metrics();
    for (const auto& run : reports) {
      if (run.error_occurred) continue;
      std::string key = "bench.kernels." + run.benchmark_name();
      for (char& c : key)
        if (c == '/' || c == ':' || c == ' ') c = '.';
      const double iters = std::max<double>(1.0, static_cast<double>(run.iterations));
      m.gauge_set(key + ".wall_s", run.real_accumulated_time / iters);
      for (const auto& kv : run.counters) m.gauge_set(key + "." + kv.first, kv.second);
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MetricsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  bench::emit_bench_artifact("kernels");
  return 0;
}
