#pragma once
/// \file bench.hpp
/// Shared pieces of the repository benchmark: run options, the result
/// report (metric tables, JSON output), benchmark-side span tracing around
/// calls into the library, and the computed work of network layers.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/execution_context.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point after_seconds(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string socket = "perfbench.sock";  ///< unix socket of the serving workload
  std::string source_id = "unknown";      ///< git SHA or source digest of the build
  /// Self-test fault injection into the benchmark's own comparisons:
  /// "history" perturbs one recorded simulation History entry before the replay
  /// comparison, "reply" flips one bit of one served reply before the
  /// reference comparison. Empty for real runs.
  std::string corrupt;
};

/// Partition width pinned for every workload before anything is built.
/// Width 1 is the steadiest on a shared 4-core host: at width 2 the
/// quartile spread of trad_paper's p90 over five seeds was 39% and of its
/// throughput 18%, against 5% at width 1 (each parallel region wakes pool
/// threads on vCPUs that may be descheduled).
constexpr size_t kPinnedWidth = 1;

/// Stand-in for a normalizer fitted on training histograms (min 0): 500 is
/// the t = 0 peak bin count of the paper load (32000 cold-beam electrons
/// over 64 position bins in one velocity row). No trained paper-size bundle
/// exists, so the DL-PIC and serving workloads use untrained weights.
constexpr double kHistogramMax = 500.0;

/// Share of --seconds each measured phase of a run gets: a traced run
/// splits the same budget over its phases, so it takes as long as an
/// untraced run.
inline double phase_seconds(double seconds, bool trace, size_t traced_phases) {
  return trace ? seconds / static_cast<double>(traced_phases) : seconds;
}

/// Deterministic per-stream seed (splitmix64 of seed and stream index).
uint64_t derive_seed(uint64_t seed, uint64_t stream);

/// Quantile q in [0, 1] by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);

/// One completed operation: when it completed, in seconds of timed region
/// since the region began, and how long it took.
struct Op {
  double done_s;
  double latency_ms;
};

/// End-to-end figures of a timed region. The region is cut into windows of
/// about one second; throughput, p50 and p90 are taken per window and the
/// median across windows is reported, so a stall on a shared host moves
/// one window rather than the run.
struct Summary {
  double throughput_per_s = 0.0;
  double latency_ms_p50 = 0.0;
  double latency_ms_p90 = 0.0;
  size_t windows = 0;
  size_t samples = 0;
};
Summary summarize(std::vector<Op> ops, double seconds);

/// Latencies of `ops`, in completion order.
std::vector<double> latencies(const std::vector<Op>& ops);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Last-level cache size in MiB (0 when the host does not report it).
double llc_mb();

/// The result of one run. End-to-end metrics are printed for trace 0 runs
/// and per-layer metrics for trace 1 runs, each in the fixed table order
/// that BENCHMARK.json lists. A per-layer metric a workload never exercises
/// (the network layers on trad_paper, say) reads 0.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Sets a metric value; the name must be in the table of the run's kind.
  void metric(const std::string& name, double value);
  /// Adds a run-context entry (printed on the context line).
  void context(const std::string& key, double value);
  void context(const std::string& key, const std::string& value);
  /// Marks the run incorrect and logs the reason on stderr.
  void fail(const std::string& why);
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] bool trace() const { return trace_; }

  size_t attempted = 0;
  size_t failed = 0;

  /// Prints the context line, then the result object as the last line.
  void print();

 private:
  bool trace_;
  bool correct_ = true;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> context_;  // JSON-encoded values
};

/// Spans recorded by the benchmark around calls into library functions:
/// name, parent span, operation id (cycle or request) and start/end times.
/// Spans stay in memory and are aggregated when the run ends.
class Tracer {
 public:
  struct Span {
    int name;
    int64_t parent;  // index of the enclosing span, -1 at top level
    uint64_t op;
    Clock::time_point t0, t1;
  };

  /// RAII span: opens on construction, closes on destruction; nested scopes
  /// record their enclosing span as parent.
  class Scope {
   public:
    Scope(Tracer& tracer, int name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    size_t index_;
  };

  /// Interned id of a span name.
  int id(const std::string& name);
  /// Records a span whose start and end were taken by the caller (a
  /// request that starts and ends in different places).
  void record(int name, Clock::time_point t0, Clock::time_point t1);
  /// Operation id stamped on spans opened from now on.
  void set_op(uint64_t op) { op_ = op; }

  [[nodiscard]] size_t calls(const std::string& name) const;
  /// Mean span duration in ms (0 when no span of that name was recorded).
  [[nodiscard]] double mean_ms(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t op_ = 0;
};

/// Forward pass layer by layer through the public Layer::forward, one span
/// "nn.<i>_<type>" per layer inside one span "nn.forward" — the same calls,
/// in the same order, as Sequential::predict.
class TracedForward {
 public:
  TracedForward(Tracer& tracer, dlpic::nn::Sequential& model);
  const dlpic::nn::Tensor& operator()(dlpic::nn::ExecutionContext& ctx,
                                      const dlpic::nn::Tensor& input);

 private:
  Tracer& tracer_;
  dlpic::nn::Sequential& model_;
  int forward_span_;
  std::vector<int> layer_spans_;
};

/// One way a model's forward calls ran: rows per call, precision, and
/// whether the quantized path found precomputed weights.
struct ForwardKind {
  size_t rows = 1;
  dlpic::nn::Precision precision = dlpic::nn::Precision::kF64;
  bool weight_cache = false;
  double call_share = 1.0;  ///< share of the traced forward calls of this kind
};

/// Sets nn.<i>_<type>.ms for every layer, and for Dense/Conv2D layers the
/// computed nn.<i>_<type>.gflops and .gbytes_per_s (operation and byte
/// counts from shapes and precision, divided by the measured time), plus
/// nn.forward.ms and nn.weight_mb.
void report_nn(Report& report, const Tracer& tracer, dlpic::nn::Sequential& model,
               const std::vector<size_t>& sample_shape, const std::vector<ForwardKind>& kinds);

/// f64 weight and bias storage of a model in MiB.
double weight_mb(dlpic::nn::Sequential& model);

/// Workload entry points; each fills `report`.
void run_simulation_workload(const Options& options, Report& report);
void run_serve_workload(const Options& options, Report& report);

}  // namespace perfbench
