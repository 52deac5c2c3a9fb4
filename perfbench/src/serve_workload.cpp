/// \file serve_workload.cpp
/// serve_mlp_mixed: a closed loop over a unix socket against NetServer +
/// Router serving the paper MLP as an f64 bundle and an int8 bundle, one
/// request in four on the f64 bundle. Each client thread owns one
/// connection and keeps a fixed window of requests in flight, like DL-PIC
/// runs that each wait for their field. Every reply is checked bit for bit
/// against a serial in-process forward of the same histogram at the same
/// precision.
///
/// Traced runs add a traced repeat of the wire loop (client-side request
/// spans and a queue-depth sampler), the same mix through Router::submit
/// with no wire, and a layer-by-layer replay of the served batch shapes.
/// The traced repeat's request spans are the tracing whose cost
/// trace.overhead_frac measures.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "nn/model_zoo.hpp"
#include "phase_space/binner.hpp"
#include "pic/simulation.hpp"

namespace perfbench {

namespace {

using namespace dlpic;

constexpr size_t kInputDim = 64 * 64;  // the paper's 64x64 phase-space histogram
constexpr size_t kPayloads = 32;      // distinct histograms the requests draw from
constexpr size_t kClients = 2;        // client threads, one connection each
constexpr size_t kBatchers = 1;       // server batcher threads
constexpr size_t kWindow = 8;         // requests each client keeps in flight
constexpr size_t kF64Every = 4;       // one request in four goes to the f64 bundle
constexpr size_t kSetupRepeats = 5;
constexpr double kWarmupSeconds = 0.5;
const char* const kF64Model = "mlp_f64";
const char* const kInt8Model = "mlp_int8";

/// Request inputs and their reference replies.
struct Mix {
  std::vector<std::vector<double>> payloads;  // raw histograms
  std::vector<std::vector<double>> ref_f64;
  std::vector<std::vector<double>> ref_int8;
};

/// Histograms of a traditional two-stream episode, sampled along the run,
/// as the DL-PIC callers of the service would send them.
std::vector<std::vector<double>> make_payloads(uint64_t seed) {
  pic::SimulationConfig cfg;
  cfg.seed = derive_seed(seed, 7);
  pic::TraditionalPic sim(cfg);
  const phase_space::PhaseSpaceBinner binner(phase_space::BinnerConfig{});
  std::vector<std::vector<double>> payloads;
  const size_t stride = cfg.nsteps / kPayloads;
  while (payloads.size() < kPayloads) {
    payloads.push_back(binner.bin(sim.electrons()));
    sim.run(stride);
  }
  return payloads;
}

/// The served stack. Members are destroyed clients first, model last.
struct Stack {
  nn::Sequential model;
  data::MinMaxNormalizer normalizer{0.0, kHistogramMax};
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<net::Client>> clients;
};

std::unique_ptr<Stack> build_stack(const std::string& socket_path, size_t clients) {
  auto stack = std::make_unique<Stack>();
  stack->model = nn::build_mlp(nn::MlpSpec{});
  net::RouterConfig rc;
  rc.replicas = 1;
  // Batchers run their GEMMs serially, at the pinned width of 1.
  rc.server.worker_threads = kBatchers;
  rc.server.context_worker_cap = kPinnedWidth;
  stack->router = std::make_unique<net::Router>(rc);
  serve::ModelConfig f64;
  serve::ModelConfig int8;
  int8.precision = nn::Precision::kInt8;
  stack->router->add_model(kF64Model, stack->model, kInputDim, f64, &stack->normalizer);
  stack->router->add_model(kInt8Model, stack->model, kInputDim, int8, &stack->normalizer);
  const auto address = net::Address::unix_socket(socket_path);
  stack->server = std::make_unique<net::NetServer>(*stack->router, address);
  for (size_t c = 0; c < clients; ++c)
    stack->clients.push_back(std::make_unique<net::Client>(address));
  return stack;
}

Mix make_mix(uint64_t seed, nn::Sequential& model, const data::MinMaxNormalizer& normalizer) {
  Mix mix;
  mix.payloads = make_payloads(seed);
  // Serial references: batch-1 f64 forward, and int8 forward with a weight
  // cache built exactly as the registry builds the bundle's.
  nn::ExecutionContext f64_ctx(1);
  nn::ExecutionContext int8_ctx(1);
  nn::QuantizedWeightCache cache;
  cache.build(model, nn::Precision::kInt8);
  int8_ctx.set_precision(nn::Precision::kInt8);
  int8_ctx.set_weight_cache(&cache);
  for (const auto& payload : mix.payloads) {
    nn::Tensor x({1, payload.size()}, payload);
    normalizer.apply(x.vec());
    mix.ref_f64.push_back(model.predict(f64_ctx, x).vec());
    mix.ref_int8.push_back(model.predict(int8_ctx, x).vec());
  }
  return mix;
}

/// What one closed-loop phase measured.
struct LoopResult {
  std::vector<Op> requests;  // requests completed inside the timed region
  size_t attempted = 0;
  size_t failed = 0;
  double queue_depth_mean = 0.0;
};

/// One request in flight.
template <class Future>
struct Inflight {
  Future future;
  Clock::time_point sent;
  size_t payload;
  bool f64;
};

/// Runs `clients` closed-loop threads for `seconds`. `submit(client, f64,
/// payload)` sends one request and returns its future; `reply(future)`
/// returns the result row, or nothing for a non-OK reply. Requests still in
/// flight at the end are drained and checked but not timed. With `tracer_on`
/// every client records a span per request; with `sample_depth` a thread
/// samples the queue depth every millisecond.
template <class SubmitFn, class ReplyFn>
LoopResult closed_loop(size_t clients, double seconds, uint64_t seed, const Mix& mix,
                       SubmitFn submit, ReplyFn reply, bool corrupt_first, bool tracer_on,
                       const std::function<size_t()>& sample_depth) {
  using Future = decltype(submit(size_t{0}, false, size_t{0}));
  std::vector<LoopResult> per_client(clients);
  std::atomic<bool> corrupt_pending{corrupt_first};
  const auto start = Clock::now();
  const auto stop = after_seconds(seconds);

  auto client_loop = [&](size_t c) {
    LoopResult& out = per_client[c];
    std::optional<Tracer> tracer;
    int request_span = 0;
    if (tracer_on) {
      tracer.emplace();
      request_span = tracer->id("net.request");
    }
    uint64_t state = derive_seed(seed, 100 + c);
    size_t sent_count = 0;
    std::deque<Inflight<Future>> inflight;
    auto send = [&] {
      // Every fourth request of a client is f64, staggered across clients;
      // the seed picks the histograms.
      const bool f64 = (sent_count++ + c * 2) % kF64Every == 0;
      state = derive_seed(state, 0);
      const size_t payload = static_cast<size_t>(state % mix.payloads.size());
      const auto sent = Clock::now();
      inflight.push_back({submit(c, f64, payload), sent, payload, f64});
      ++out.attempted;
    };
    auto receive = [&](bool timed) {
      Inflight<Future> request = std::move(inflight.front());
      inflight.pop_front();
      std::optional<std::vector<double>> row;
      try {
        row = reply(request.future);
      } catch (const std::exception&) {
      }
      const auto done = Clock::now();
      if (row && corrupt_pending.exchange(false) && !row->empty()) {
        uint64_t bits;
        std::memcpy(&bits, row->data(), sizeof bits);
        bits ^= 1;
        std::memcpy(row->data(), &bits, sizeof bits);
      }
      const auto& want = request.f64 ? mix.ref_f64[request.payload] : mix.ref_int8[request.payload];
      const bool ok = row && row->size() == want.size() &&
                      std::memcmp(row->data(), want.data(), want.size() * sizeof(double)) == 0;
      if (!ok) ++out.failed;
      if (tracer) tracer->record(request_span, request.sent, done);
      if (timed && ok && done <= stop)
        out.requests.push_back({s_between(start, done), ms_between(request.sent, done)});
    };
    for (size_t i = 0; i < kWindow; ++i) send();
    while (Clock::now() < stop) {
      receive(true);
      send();
    }
    while (!inflight.empty()) receive(false);
  };

  auto client_main = [&](size_t c) {
    try {
      client_loop(c);
    } catch (const std::exception& e) {
      // A dead connection: count it and end this client.
      std::fprintf(stderr, "perfbench: client %zu: %s\n", c, e.what());
      ++per_client[c].failed;
    }
  };
  std::atomic<bool> sampling{static_cast<bool>(sample_depth)};
  double depth_sum = 0.0;
  size_t depth_samples = 0;
  std::thread sampler;
  if (sample_depth)
    sampler = std::thread([&] {
      while (sampling.load()) {
        depth_sum += static_cast<double>(sample_depth());
        ++depth_samples;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_main, c);
  for (auto& t : threads) t.join();
  sampling.store(false);
  if (sampler.joinable()) sampler.join();

  LoopResult total;
  for (const auto& r : per_client) {
    total.requests.insert(total.requests.end(), r.requests.begin(), r.requests.end());
    total.attempted += r.attempted;
    total.failed += r.failed;
  }
  total.queue_depth_mean = depth_samples > 0 ? depth_sum / static_cast<double>(depth_samples) : 0.0;
  return total;
}

LoopResult wire_loop(Stack& stack, double seconds, uint64_t seed, const Mix& mix,
                     bool corrupt_first, bool traced) {
  auto submit = [&](size_t c, bool f64, size_t payload) {
    return stack.clients[c]->submit_async(f64 ? kF64Model : kInt8Model, mix.payloads[payload]);
  };
  auto reply = [](std::future<net::NetResponse>& f) -> std::optional<std::vector<double>> {
    net::NetResponse r = f.get();
    if (r.status != net::Status::kOk) return std::nullopt;
    return std::move(r.payload);
  };
  std::function<size_t()> depth;
  if (traced)
    depth = [&stack] {
      size_t d = 0;
      for (size_t i = 0; i < stack.router->replica_count(); ++i)
        d += stack.router->replica(i).queue_depth();
      return d;
    };
  return closed_loop(stack.clients.size(), seconds, seed, mix, submit, reply, corrupt_first,
                     traced, depth);
}

LoopResult inproc_loop(Stack& stack, double seconds, uint64_t seed, const Mix& mix) {
  auto submit = [&](size_t, bool f64, size_t payload) {
    return stack.router->submit(f64 ? kF64Model : kInt8Model, mix.payloads[payload]);
  };
  auto reply = [](std::future<std::vector<double>>& f) -> std::optional<std::vector<double>> {
    return f.get();
  };
  return closed_loop(stack.clients.size(), seconds, seed, mix, submit, reply, false, false, {});
}

void reset_stats(Stack& stack) {
  for (size_t i = 0; i < stack.router->replica_count(); ++i)
    stack.router->replica(i).reset_stats();
}

/// Replays the served batch shapes layer by layer: batches of each
/// bundle's mean size, in the bundles' measured proportion of forward
/// passes, on serial contexts as the batchers use.
void replay_batches(Report& report, Stack& stack, const Mix& mix, double seconds) {
  const serve::ModelStats f64 = stack.router->model_stats(kF64Model);
  const serve::ModelStats int8 = stack.router->model_stats(kInt8Model);
  const double total = static_cast<double>(f64.batches + int8.batches);
  if (total == 0.0) return;
  const double f64_share = static_cast<double>(f64.batches) / total;
  auto rows_of = [](const serve::ModelStats& s) {
    return std::max<size_t>(1, static_cast<size_t>(std::lround(s.mean_batch())));
  };
  const size_t f64_rows = rows_of(f64), int8_rows = rows_of(int8);

  nn::QuantizedWeightCache cache;
  cache.build(stack.model, nn::Precision::kInt8);
  nn::ExecutionContext f64_ctx(1);
  nn::ExecutionContext int8_ctx(1);
  int8_ctx.set_precision(nn::Precision::kInt8);
  int8_ctx.set_weight_cache(&cache);
  auto batch_of = [&](size_t rows) {
    const size_t dim = mix.payloads.front().size();
    nn::Tensor x({rows, dim});
    for (size_t r = 0; r < rows; ++r) {
      std::copy(mix.payloads[r % mix.payloads.size()].begin(),
                mix.payloads[r % mix.payloads.size()].end(), x.data() + r * dim);
    }
    stack.normalizer.apply(x.vec());
    return x;
  };
  const nn::Tensor x64 = batch_of(f64_rows);
  const nn::Tensor x8 = batch_of(int8_rows);

  Tracer tracer;
  TracedForward forward(tracer, stack.model);
  size_t f64_calls = 0, calls = 0;
  const auto deadline = after_seconds(seconds);
  while (Clock::now() < deadline || calls < 4) {
    // Error diffusion keeps the f64 share of calls at the measured share.
    const bool use_f64 = static_cast<double>(f64_calls) < f64_share * static_cast<double>(calls + 1);
    if (use_f64) {
      (void)forward(f64_ctx, x64);
      ++f64_calls;
    } else {
      (void)forward(int8_ctx, x8);
    }
    ++calls;
  }
  const double f64_call_share = static_cast<double>(f64_calls) / static_cast<double>(calls);
  report_nn(report, tracer, stack.model, {mix.payloads.front().size()},
            {{f64_rows, nn::Precision::kF64, false, f64_call_share},
             {int8_rows, nn::Precision::kInt8, true, 1.0 - f64_call_share}});
}

}  // namespace

void run_serve_workload(const Options& options, Report& report) {
  const size_t clients = kClients;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = build_stack(options.socket, clients);
    setup_s.push_back(s_between(t0, Clock::now()));
  }
  const Mix mix = make_mix(options.seed, stack->model, stack->normalizer);

  LoopResult warm = wire_loop(*stack, kWarmupSeconds, derive_seed(options.seed, 1), mix, false,
                              false);
  if (warm.failed > 0) report.fail("warm-up requests failed");
  reset_stats(*stack);

  const bool corrupt = options.corrupt == "reply";
  // Traced runs split the budget: untraced wire, traced wire, in-process.
  const double seconds = phase_seconds(options.seconds, report.trace(), 3);
  const LoopResult run = wire_loop(*stack, seconds, options.seed, mix, corrupt, false);
  report.attempted = run.attempted;
  report.failed = run.failed;
  if (run.failed > 0)
    report.fail(std::to_string(run.failed) + " replies failed or differed from the reference");
  const Summary summary = summarize(run.requests, seconds);
  const double p50 = quantile(latencies(run.requests), 0.5);

  const serve::ModelStats f64_stats = stack->router->model_stats(kF64Model);
  const serve::ModelStats int8_stats = stack->router->model_stats(kInt8Model);
  report.context("clients", static_cast<double>(clients));
  report.context("window", static_cast<double>(kWindow));
  report.context("requests_timed", static_cast<double>(summary.samples));
  report.context("windows", static_cast<double>(summary.windows));
  report.context("serve_mean_batch_f64", f64_stats.mean_batch());
  report.context("serve_mean_batch_int8", int8_stats.mean_batch());
  report.context("nn_weight_mb", weight_mb(stack->model));

  if (!report.trace()) {
    report.metric("throughput_per_s", summary.throughput_per_s);
    report.metric("latency_ms_p50", summary.latency_ms_p50);
    report.metric("latency_ms_p90", summary.latency_ms_p90);
    report.metric("setup_s", quantile(setup_s, 0.5));
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("success_rate", 1.0 - static_cast<double>(run.failed) /
                                            static_cast<double>(run.attempted));
    return;
  }

  reset_stats(*stack);
  const LoopResult traced = wire_loop(*stack, seconds, options.seed, mix, false, true);
  const LoopResult inproc = inproc_loop(*stack, seconds, options.seed, mix);
  if (traced.failed + inproc.failed > 0) report.fail("traced or in-process requests failed");
  const serve::ModelStats f64_traced = stack->router->model_stats(kF64Model);
  const serve::ModelStats int8_traced = stack->router->model_stats(kInt8Model);
  const net::NetServerStats net_stats = stack->server->stats();
  const double inproc_p50 = quantile(latencies(inproc.requests), 0.5);

  report.metric("serve.mean_batch.f64", f64_traced.mean_batch());
  report.metric("serve.mean_batch.int8", int8_traced.mean_batch());
  report.metric("serve.queue_depth_mean", traced.queue_depth_mean);
  report.metric("serve.expired", static_cast<double>(stack->router->stats().total.expired));
  report.metric("serve.inproc_latency_ms_p50", inproc_p50);
  report.metric("net.overhead_ms_p50", p50 - inproc_p50);
  report.metric("net.protocol_errors", static_cast<double>(net_stats.protocol_errors));
  report.metric("net.app_errors", static_cast<double>(net_stats.app_errors));
  report.metric("host.llc_mb", llc_mb());
  report.metric("trace.overhead_frac", (quantile(latencies(traced.requests), 0.5) - p50) / p50);
  replay_batches(report, *stack, mix, std::min(seconds / 2, 2.0));
}

}  // namespace perfbench
