#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& end_to_end_table() {
  static const std::vector<MetricSpec> table = {
      {"throughput_per_s", "1/s"}, {"latency_ms_p50", "ms"}, {"latency_ms_p90", "ms"},
      {"setup_s", "s"},            {"peak_rss_mb", "MiB"},   {"success_rate", "ratio"},
  };
  return table;
}

// Layer types of the paper MLP and CNN in model order (nn/model_zoo.cpp);
// their per-layer metric names are nn.<index>_<type>.
const std::vector<std::vector<std::string>>& paper_model_layers() {
  static const std::vector<std::vector<std::string>> models = {
      {"dense", "relu", "dense", "relu", "dense", "relu", "dense"},
      {"reshape4", "conv2d", "relu", "conv2d", "relu", "maxpool2d", "conv2d", "relu",
       "conv2d", "relu", "maxpool2d", "flatten", "dense", "relu", "dense", "relu", "dense",
       "relu", "dense"},
  };
  return models;
}

bool is_gemm_layer(const std::string& type) { return type == "dense" || type == "conv2d"; }

const std::vector<MetricSpec>& per_layer_table() {
  static const std::vector<MetricSpec> table = [] {
    std::vector<MetricSpec> t = {
        {"pic.push.ms", "ms"},           {"pic.deposit.ms", "ms"},
        {"pic.poisson.ms", "ms"},        {"pic.efield.ms", "ms"},
        {"pic.diagnostics.ms", "ms"},    {"pic.sort.ms", "ms"},
        {"pic.sort.calls", "count"},     {"pic.episode_e_max", "norm"},
        {"phase_space.bin.ms", "ms"},    {"phase_space.clamped_frac", "ratio"},
        {"data.normalize.ms", "ms"},     {"core.field_stage.ms", "ms"},
        {"nn.forward.ms", "ms"},         {"nn.weight_mb", "MiB"},
        {"host.llc_mb", "MiB"},
    };
    for (const auto& layers : paper_model_layers())
      for (size_t i = 0; i < layers.size(); ++i) {
        const std::string base = "nn." + std::to_string(i) + "_" + layers[i];
        t.push_back({base + ".ms", "ms"});
        if (is_gemm_layer(layers[i])) {
          t.push_back({base + ".gflops", "GFLOP/s"});
          t.push_back({base + ".gbytes_per_s", "GB/s"});
        }
      }
    for (const MetricSpec& m : std::vector<MetricSpec>{
             {"serve.mean_batch.f64", "count"},
             {"serve.mean_batch.int8", "count"},
             {"serve.queue_depth_mean", "count"},
             {"serve.expired", "count"},
             {"serve.inproc_latency_ms_p50", "ms"},
             {"net.overhead_ms_p50", "ms"},
             {"net.protocol_errors", "count"},
             {"net.app_errors", "count"},
             {"trace.overhead_frac", "ratio"},
         })
      t.push_back(m);
    return t;
  }();
  return table;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Summary summarize(std::vector<Op> ops, double seconds) {
  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) { return a.done_s < b.done_s; });
  const size_t n = std::clamp<size_t>(static_cast<size_t>(seconds), 1, 60);
  const double width = seconds / static_cast<double>(n);
  std::vector<double> rate, p50, p90;
  // A window's throughput is its ops over the time from the previous
  // window's last completion to its own last completion, so whole-op
  // granularity does not quantize the rate.
  double previous_end = 0.0;
  size_t i = 0;
  for (size_t w = 0; w < n && i < ops.size(); ++w) {
    std::vector<double> lat;
    double end = previous_end;
    for (; i < ops.size() && ops[i].done_s < width * static_cast<double>(w + 1); ++i) {
      lat.push_back(ops[i].latency_ms);
      end = ops[i].done_s;
    }
    if (lat.empty() || end <= previous_end) continue;
    rate.push_back(static_cast<double>(lat.size()) / (end - previous_end));
    p50.push_back(quantile(lat, 0.5));
    p90.push_back(quantile(lat, 0.9));
    previous_end = end;
  }
  Summary s;
  s.throughput_per_s = quantile(rate, 0.5);
  s.latency_ms_p50 = quantile(p50, 0.5);
  s.latency_ms_p90 = quantile(p90, 0.5);
  s.windows = rate.size();
  s.samples = ops.size();
  return s;
}

std::vector<double> latencies(const std::vector<Op>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const Op& op : ops) out.push_back(op.latency_ms);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double llc_mb() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) : 0.0;
}

// ------------------------------------------------------------------ Report --

void Report::metric(const std::string& name, double value) {
  auto in = [&name](const std::vector<MetricSpec>& table) {
    return std::any_of(table.begin(), table.end(),
                       [&name](const MetricSpec& m) { return m.name == name; });
  };
  if (!in(end_to_end_table()) && !in(per_layer_table()))
    throw std::logic_error("unknown metric " + name);
  if (!in(trace_ ? per_layer_table() : end_to_end_table())) return;  // the other run kind
  for (auto& [n, v] : values_)
    if (n == name) {
      v = value;
      return;
    }
  values_.emplace_back(name, value);
}

void Report::context(const std::string& key, double value) {
  context_.emplace_back(key, json_number(value));
}

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, json_string(value));
}

void Report::fail(const std::string& why) {
  if (correct_) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  correct_ = false;
}

void Report::print() {
  const auto& table = trace_ ? per_layer_table() : end_to_end_table();
  std::string metrics;
  for (const MetricSpec& spec : table) {
    double value = 0.0;
    bool set = false;
    for (const auto& [n, v] : values_)
      if (n == spec.name) {
        value = v;
        set = true;
      }
    if (!set && !trace_) fail("end-to-end metric " + spec.name + " was not measured");
    if (!std::isfinite(value)) {
      fail("metric " + spec.name + " is not finite");
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(spec.unit) + "}";
  }
  std::string context;
  for (const auto& [k, v] : context_) {
    if (!context.empty()) context += ", ";
    context += json_string(k) + ": " + v;
  }
  std::printf("{\"context\": {%s}}\n", context.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct_ ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ Tracer --

Tracer::Scope::Scope(Tracer& tracer, int name) : tracer_(tracer) {
  const int64_t parent =
      tracer.open_.empty() ? -1 : static_cast<int64_t>(tracer.open_.back());
  index_ = tracer.spans_.size();
  tracer.spans_.push_back({name, parent, tracer.op_, Clock::now(), {}});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].t1 = Clock::now();
  tracer_.open_.pop_back();
}

void Tracer::record(int name, Clock::time_point t0, Clock::time_point t1) {
  const int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({name, parent, op_, t0, t1});
}

int Tracer::id(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

size_t Tracer::calls(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return 0;
  const int id = static_cast<int>(it - names_.begin());
  return static_cast<size_t>(std::count_if(spans_.begin(), spans_.end(),
                                           [id](const Span& s) { return s.name == id; }));
}

double Tracer::mean_ms(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return 0.0;
  const int id = static_cast<int>(it - names_.begin());
  double total = 0.0;
  size_t n = 0;
  for (const Span& s : spans_)
    if (s.name == id) {
      total += ms_between(s.t0, s.t1);
      ++n;
    }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

// ------------------------------------------------------------ nn helpers --

TracedForward::TracedForward(Tracer& tracer, dlpic::nn::Sequential& model)
    : tracer_(tracer), model_(model), forward_span_(tracer.id("nn.forward")) {
  for (size_t i = 0; i < model.layer_count(); ++i)
    layer_spans_.push_back(
        tracer.id("nn." + std::to_string(i) + "_" + model.layer(i).type() + ".ms"));
}

const dlpic::nn::Tensor& TracedForward::operator()(dlpic::nn::ExecutionContext& ctx,
                                                   const dlpic::nn::Tensor& input) {
  Tracer::Scope forward(tracer_, forward_span_);
  const dlpic::nn::Tensor* x = &input;
  for (size_t i = 0; i < model_.layer_count(); ++i) {
    Tracer::Scope layer(tracer_, layer_spans_[i]);
    x = &model_.layer(i).forward(ctx, *x, /*training=*/false);
  }
  return *x;
}

double weight_mb(dlpic::nn::Sequential& model) {
  double values = 0.0;
  for (const auto& p : model.params()) values += static_cast<double>(p.value->size());
  return values * sizeof(double) / (1024.0 * 1024.0);
}

namespace {

size_t code_bytes(dlpic::nn::Precision p) {
  switch (p) {
    case dlpic::nn::Precision::kInt8: return 1;
    case dlpic::nn::Precision::kInt16: return 2;
    case dlpic::nn::Precision::kF64: break;
  }
  return 8;
}

size_t volume(const std::vector<size_t>& shape) {
  size_t v = 1;
  for (const size_t d : shape) v *= d;
  return v;
}

}  // namespace

void report_nn(Report& report, const Tracer& tracer, dlpic::nn::Sequential& model,
               const std::vector<size_t>& sample_shape, const std::vector<ForwardKind>& kinds) {
  report.metric("nn.forward.ms", tracer.mean_ms("nn.forward"));
  report.metric("nn.weight_mb", weight_mb(model));
  // Per kind: the input shape of each layer as the shapes propagate.
  std::vector<std::vector<size_t>> shapes;
  for (const ForwardKind& kind : kinds) {
    std::vector<size_t> shape = sample_shape;
    shape.insert(shape.begin(), kind.rows);
    shapes.push_back(shape);
  }
  for (size_t i = 0; i < model.layer_count(); ++i) {
    const dlpic::nn::Layer& layer = model.layer(i);
    const std::string base = "nn." + std::to_string(i) + "_" + layer.type();
    const double ms = tracer.mean_ms(base + ".ms");
    report.metric(base + ".ms", ms);
    // Computed work per call, weighted by each kind's share of the calls:
    // flops of the GEMM; bytes of the weights at the GEMM operand width,
    // plus the f64 read and code write of a per-call weight quantization
    // when no cache holds them, plus the f64 input and output activations.
    double flops = 0.0;
    double bytes = 0.0;
    for (size_t k = 0; k < kinds.size(); ++k) {
      const std::vector<size_t> out = layer.output_shape(shapes[k]);
      double weights = 0.0;
      double macs = 0.0;
      if (const auto* dense = dynamic_cast<const dlpic::nn::Dense*>(&layer)) {
        weights = static_cast<double>(dense->in_features() * dense->out_features());
        macs = static_cast<double>(kinds[k].rows) * weights;
      } else if (const auto* conv = dynamic_cast<const dlpic::nn::Conv2D*>(&layer)) {
        const auto& c = conv->config();
        weights = static_cast<double>(c.out_channels * c.in_channels * c.kernel_h * c.kernel_w);
        macs = static_cast<double>(volume(out)) *
               static_cast<double>(c.in_channels * c.kernel_h * c.kernel_w);
      }
      const bool requantize = is_quantized(kinds[k].precision) && !kinds[k].weight_cache;
      const double weight_bytes =
          weights * (static_cast<double>(code_bytes(kinds[k].precision)) +
                     (requantize ? 8.0 + static_cast<double>(code_bytes(kinds[k].precision))
                                 : 0.0));
      const double act_bytes =
          8.0 * static_cast<double>(volume(shapes[k]) + volume(out));
      flops += kinds[k].call_share * 2.0 * macs;
      bytes += kinds[k].call_share * (weight_bytes + act_bytes);
      shapes[k] = out;
    }
    if (is_gemm_layer(layer.type()) && ms > 0.0) {
      report.metric(base + ".gflops", flops / (ms * 1e6));
      report.metric(base + ".gbytes_per_s", bytes / (ms * 1e6));
    }
  }
}

}  // namespace perfbench
