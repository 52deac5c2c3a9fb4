/// \file sim_workloads.cpp
/// The four simulation workloads: back-to-back 200-cycle episodes at the
/// paper configuration, with the traditional cycle (trad_paper) or the
/// DL-PIC cycle with the paper MLP at f64 (dlpic_mlp) or int16 without a
/// weight cache (dlpic_mlp_int16), or the paper CNN at f64 (dlpic_cnn).
///
/// Untraced runs time TraditionalPic::step / DlPicSimulation::step. Traced
/// runs first repeat the untraced measurement, then replay the same
/// episodes stage by stage through the public functions the simulations call,
/// with a span around each call, and require the replayed History to equal
/// the simulation's bit for bit.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "bench.hpp"
#include "core/dlpic.hpp"
#include "math/rng.hpp"
#include "nn/model_zoo.hpp"
#include "pic/deposit.hpp"
#include "pic/efield.hpp"
#include "pic/mover.hpp"
#include "pic/sorter.hpp"

namespace perfbench {

namespace {

using namespace dlpic;

enum class Method { kTraditional, kMlpF64, kMlpInt16, kCnnF64 };

// Set-ups per run; setup_s is their median. The traditional set-up takes
// about 2 ms, so it repeats more to steady its median.
constexpr size_t kSetupRepeats = 5;
// Cycles between the per-cycle checks that cost more than the cycle's own
// finite-E test (histogram total, int16 budget), and always the last cycle.
constexpr size_t kCheckEvery = 20;
// The int16 field may differ from an f64 forward of the same histogram by
// this share of the f64 field's rms, the int16 budget of the quantized
// inference tests (tests/nn/test_quantize.cpp).
constexpr double kInt16Budget = 0.01;
constexpr double kMomentumDriftLimit = 1e-12;

Method method_of(const std::string& workload) {
  if (workload == "trad_paper") return Method::kTraditional;
  if (workload == "dlpic_mlp") return Method::kMlpF64;
  if (workload == "dlpic_mlp_int16") return Method::kMlpInt16;
  if (workload == "dlpic_cnn") return Method::kCnnF64;
  throw std::invalid_argument("not a simulation workload: " + workload);
}

/// The paper configuration (the SimulationConfig defaults, spelled out).
pic::SimulationConfig paper_config(uint64_t seed) {
  pic::SimulationConfig c;
  c.ncells = 64;
  c.particles_per_cell = 1000;
  c.nsteps = 200;
  c.shape = pic::Shape::CIC;
  c.solver = "spectral";
  c.sort_interval = 25;
  c.seed = seed;
  return c;
}

uint64_t episode_seed(uint64_t seed, size_t episode) { return derive_seed(seed, episode); }

std::shared_ptr<core::DlFieldSolver> make_solver(Method method) {
  if (method == Method::kTraditional) return nullptr;
  nn::Sequential model =
      method == Method::kCnnF64 ? nn::build_cnn(nn::CnnSpec{}) : nn::build_mlp(nn::MlpSpec{});
  auto solver = std::make_shared<core::DlFieldSolver>(
      std::move(model), data::MinMaxNormalizer(0.0, kHistogramMax), phase_space::BinnerConfig{});
  // The quantized tier as a user runs it in the loop today: the precision
  // set on the solver's context, no weight cache attached.
  if (method == Method::kMlpInt16) solver->context().set_precision(nn::Precision::kInt16);
  return solver;
}

bool bitwise_equal(const pic::StepDiagnostics& a, const pic::StepDiagnostics& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool all_finite(const std::vector<double>& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

double episode_e_max(const pic::History& history) {
  double e = 0.0;
  for (const auto& d : history.entries()) e = std::max(e, d.e_max);
  return e;
}

/// Correctness checks on the simulation's output, run between timed cycles.
class Checker {
 public:
  Checker(Report& report, Method method, core::DlFieldSolver* solver)
      : report_(report), method_(method), solver_(solver) {
    if (solver_ != nullptr) binner_.emplace(solver_->binner_config());
  }

  /// Per-cycle check; returns false when this cycle's output is wrong.
  template <class Sim>
  bool cycle(const Sim& sim, bool sampled) {
    if (!all_finite(sim.efield())) {
      report_.fail("non-finite E at cycle " + std::to_string(sim.steps_taken()));
      return false;
    }
    if (!sampled || !binner_) return true;
    const auto hist = binner_->bin(sim.electrons());
    const double n = static_cast<double>(sim.electrons().size());
    clamped_sum_ += static_cast<double>(binner_->clamped_particles()) / n;
    ++clamped_samples_;
    if (std::abs(phase_space::PhaseSpaceBinner::total_count(hist) - n) > 1e-9 * n) {
      report_.fail("histogram total count != particle count");
      return false;
    }
    if (method_ == Method::kMlpInt16) return int16_within_budget(hist, sim.efield());
    return true;
  }

  /// End-of-episode check; returns false when the episode is wrong.
  bool episode(const pic::History& history) {
    for (const auto& d : history.entries())
      if (!std::isfinite(d.field_energy) || !std::isfinite(d.kinetic_energy) ||
          !std::isfinite(d.total_energy)) {
        report_.fail("non-finite energy in an episode");
        return false;
      }
    if (method_ == Method::kTraditional &&
        !(history.max_momentum_drift() <= kMomentumDriftLimit)) {
      report_.fail("momentum drift " + std::to_string(history.max_momentum_drift()) +
                   " above " + std::to_string(kMomentumDriftLimit));
      return false;
    }
    return true;
  }

  [[nodiscard]] double clamped_frac() const {
    return clamped_samples_ > 0 ? clamped_sum_ / static_cast<double>(clamped_samples_) : 0.0;
  }
  [[nodiscard]] double int16_max_rel_error() const { return int16_max_rel_; }

 private:
  bool int16_within_budget(const std::vector<double>& hist, const std::vector<double>& e16) {
    nn::Tensor x({1, hist.size()}, hist);
    solver_->normalizer().apply(x.vec());
    const auto& e64 = solver_->model().predict(f64_ctx_, x).vec();
    double rms = 0.0;
    double max_err = 0.0;
    for (size_t i = 0; i < e64.size(); ++i) {
      rms += e64[i] * e64[i];
      max_err = std::max(max_err, std::abs(e64[i] - e16[i]));
    }
    rms = std::sqrt(rms / static_cast<double>(e64.size()));
    const double rel = rms > 0.0 ? max_err / rms : max_err;
    int16_max_rel_ = std::max(int16_max_rel_, rel);
    if (!(rel <= kInt16Budget)) {
      report_.fail("int16 field off the f64 forward by " + std::to_string(rel) + " of rms");
      return false;
    }
    return true;
  }

  Report& report_;
  Method method_;
  core::DlFieldSolver* solver_;
  std::optional<phase_space::PhaseSpaceBinner> binner_;
  nn::ExecutionContext f64_ctx_;
  double clamped_sum_ = 0.0;
  size_t clamped_samples_ = 0;
  double int16_max_rel_ = 0.0;
};

template <class Sim>
std::unique_ptr<Sim> make_sim(const std::shared_ptr<core::DlFieldSolver>& solver,
                              uint64_t seed) {
  if constexpr (std::is_same_v<Sim, pic::TraditionalPic>)
    return std::make_unique<Sim>(paper_config(seed));
  else
    return std::make_unique<Sim>(paper_config(seed), solver);
}

/// What the untraced step loop measured.
struct TimedRun {
  std::vector<Op> cycles;
  std::vector<uint64_t> seeds;           // episode seeds, in run order
  std::vector<pic::History> histories;   // one per episode (the last may be partial)
  std::vector<double> e_max;             // per completed episode
};

/// Times back-to-back episodes for `seconds`; the first episode is `first`,
/// built during set-up. Checks run between cycles and their time is taken
/// out of the timed region.
template <class Sim>
TimedRun run_timed(const std::shared_ptr<core::DlFieldSolver>& solver, std::unique_ptr<Sim> first,
                uint64_t seed, double seconds, Checker& checker, Report& report) {
  TimedRun run;
  std::unique_ptr<Sim> sim = std::move(first);
  run.seeds.push_back(episode_seed(seed, 0));
  const size_t episode_cycles = sim->config().nsteps;
  double excluded_s = 0.0;
  size_t failed_cycles = 0;  // of the current episode
  const Clock::time_point start = Clock::now();

  // A failed episode check fails every cycle of the episode.
  auto close_episode = [&] {
    const auto t = Clock::now();
    run.histories.push_back(sim->history());
    if (sim->steps_taken() == episode_cycles) {
      run.e_max.push_back(episode_e_max(sim->history()));
      if (!checker.episode(sim->history())) failed_cycles = sim->steps_taken();
    }
    report.failed += failed_cycles;
    failed_cycles = 0;
    excluded_s += s_between(t, Clock::now());
  };

  for (;;) {
    if (sim->steps_taken() == episode_cycles) {
      close_episode();
      run.seeds.push_back(episode_seed(seed, run.seeds.size()));
      sim.reset();
      sim = make_sim<Sim>(solver, run.seeds.back());
    }
    const auto t0 = Clock::now();
    sim->step();
    const auto t1 = Clock::now();
    run.cycles.push_back({s_between(start, t1) - excluded_s, ms_between(t0, t1)});
    ++report.attempted;
    const size_t k = sim->steps_taken();
    if (!checker.cycle(*sim, k % kCheckEvery == 0 || k == episode_cycles))
      ++failed_cycles;
    const auto t2 = Clock::now();
    excluded_s += s_between(t1, t2);
    if (s_between(start, t2) - excluded_s >= seconds) break;
  }
  close_episode();
  return run;
}

/// Stage-by-stage replay of the simulations through their public functions,
/// with a span around each call.
class Replayer {
 public:
  Replayer(Tracer& tracer, core::DlFieldSolver* solver)
      : tracer_(tracer),
        solver_(solver),
        sort_(tracer.id("pic.sort")),
        push_(tracer.id("pic.push")),
        deposit_(tracer.id("pic.deposit")),
        poisson_(tracer.id("pic.poisson")),
        efield_(tracer.id("pic.efield")),
        diagnostics_(tracer.id("pic.diagnostics")),
        bin_(tracer.id("phase_space.bin")),
        normalize_(tracer.id("data.normalize")),
        field_stage_(tracer.id("core.field_stage")),
        cycle_(tracer.id("core.cycle")) {
    if (solver_ != nullptr) {
      binner_.emplace(solver_->binner_config());
      forward_.emplace(tracer, solver_->model());
    }
  }

  /// Replays up to `cycles` cycles of the episode with `seed`, stopping
  /// early once `deadline` passes; returns the replayed History.
  pic::History episode(uint64_t seed, size_t cycles, Clock::time_point deadline,
                       std::vector<double>& cycle_ms) {
    const pic::SimulationConfig cfg = paper_config(seed);
    const pic::Grid1D grid(cfg.ncells, cfg.length);
    math::Rng rng(cfg.seed);
    pic::Species electrons = pic::load_two_stream(grid, cfg.total_particles(), cfg.beams, rng);
    State s{grid, electrons, cfg.shape, {}, {}, {}, 0.0, nullptr};
    if (solver_ == nullptr) {
      s.background =
          -electrons.charge() * static_cast<double>(electrons.size()) / grid.length();
      s.rho = grid.make_field();
      s.phi = grid.make_field();
      s.E = grid.make_field();
      s.poisson = pic::make_poisson_solver(cfg.solver);
    }
    pic::History history;
    double time = 0.0;
    field_stage(s);
    pic::stagger_velocities_back(grid, cfg.shape, s.E, s.electrons, cfg.dt);
    history.record(pic::compute_diagnostics(grid, s.electrons, s.E, time));
    for (size_t k = 0; k < cycles && Clock::now() < deadline; ++k) {
      tracer_.set_op(++op_);
      const auto t0 = Clock::now();
      {
        Tracer::Scope cycle(tracer_, cycle_);
        // TraditionalPic::step sorts before the push every sort_interval
        // steps; DlPicSimulation::step never sorts.
        if (solver_ == nullptr && cfg.sort_interval > 0 && k > 0 && k % cfg.sort_interval == 0) {
          Tracer::Scope span(tracer_, sort_);
          pic::sort_by_cell(grid, s.electrons);
        }
        {
          Tracer::Scope span(tracer_, push_);
          pic::leapfrog_step(grid, cfg.shape, s.E, s.electrons, cfg.dt);
        }
        field_stage(s);
        time += cfg.dt;
        Tracer::Scope span(tracer_, diagnostics_);
        history.record(pic::compute_diagnostics(grid, s.electrons, s.E, time));
      }
      cycle_ms.push_back(ms_between(t0, Clock::now()));
    }
    return history;
  }

  [[nodiscard]] double clamped_frac() const {
    return binned_ > 0 ? clamped_ / binned_ : 0.0;
  }

 private:
  struct State {
    const pic::Grid1D& grid;
    pic::Species& electrons;
    pic::Shape shape;
    std::vector<double> rho, phi, E;
    double background = 0.0;
    std::unique_ptr<pic::PoissonSolver> poisson;
  };

  void field_stage(State& s) {
    Tracer::Scope stage(tracer_, field_stage_);
    if (solver_ == nullptr) {  // TraditionalPic::solve_field
      s.rho.assign(s.grid.ncells(), 0.0);
      {
        Tracer::Scope span(tracer_, deposit_);
        pic::deposit_charge(s.grid, s.shape, s.electrons, s.rho);
        for (auto& r : s.rho) r += s.background;
      }
      {
        Tracer::Scope span(tracer_, poisson_);
        s.poisson->solve(s.grid, s.rho, s.phi);
      }
      Tracer::Scope span(tracer_, efield_);
      pic::efield_from_phi(s.grid, s.phi, s.E);
      return;
    }
    // DlFieldSolver::solve: bin, stage in the context's workspace,
    // normalize, forward.
    std::vector<double> hist;
    {
      Tracer::Scope span(tracer_, bin_);
      hist = binner_->bin(s.electrons);
    }
    clamped_ += static_cast<double>(binner_->clamped_particles()) /
                static_cast<double>(s.electrons.size());
    binned_ += 1.0;
    nn::ExecutionContext& ctx = solver_->context();
    nn::Tensor& x = ctx.workspace().tensor(this, 0, {1, hist.size()});
    std::copy(hist.begin(), hist.end(), x.data());
    {
      Tracer::Scope span(tracer_, normalize_);
      solver_->normalizer().apply(x.vec());
    }
    s.E = (*forward_)(ctx, x).vec();
  }

  Tracer& tracer_;
  core::DlFieldSolver* solver_;
  std::optional<phase_space::PhaseSpaceBinner> binner_;
  std::optional<TracedForward> forward_;
  int sort_, push_, deposit_, poisson_, efield_, diagnostics_, bin_, normalize_, field_stage_,
      cycle_;
  uint64_t op_ = 0;
  double clamped_ = 0.0;
  double binned_ = 0.0;
};

template <class Sim>
void run_method(const Options& options, Method method, Report& report) {
  // Set-up, repeated: models, solver and the first episode's simulation.
  std::vector<double> setup_s;
  std::shared_ptr<core::DlFieldSolver> solver;
  std::unique_ptr<Sim> first;
  const size_t repeats = method == Method::kTraditional ? 21 : kSetupRepeats;
  for (size_t r = 0; r < repeats; ++r) {
    first.reset();
    solver.reset();
    const auto t0 = Clock::now();
    solver = make_solver(method);
    first = make_sim<Sim>(solver, episode_seed(options.seed, 0));
    setup_s.push_back(s_between(t0, Clock::now()));
  }

  // Warm-up on a throwaway episode: thread pool, FFT plans, workspaces.
  {
    auto warm = make_sim<Sim>(solver, derive_seed(options.seed, 1u << 30));
    const auto t0 = Clock::now();
    for (size_t k = 0; k < 25 && (k < 2 || s_between(t0, Clock::now()) < 0.3); ++k) warm->step();
  }

  Checker checker(report, method, solver.get());
  // Traced runs split the budget: untraced step loop, then traced replay.
  const double seconds = phase_seconds(options.seconds, report.trace(), 2);
  TimedRun run = run_timed<Sim>(solver, std::move(first), options.seed, seconds, checker, report);
  const Summary summary = summarize(run.cycles, seconds);
  double e_max = 0.0;
  if (!run.e_max.empty()) {
    for (const double e : run.e_max) e_max += e;
    e_max /= static_cast<double>(run.e_max.size());
  } else {
    e_max = episode_e_max(run.histories.back());
  }

  report.context("cycles_timed", static_cast<double>(summary.samples));
  report.context("windows", static_cast<double>(summary.windows));
  report.context("episodes", static_cast<double>(run.histories.size()));
  report.context("episode_e_max", e_max);
  if (solver) {
    report.context("phase_space_clamped_frac", checker.clamped_frac());
    report.context("nn_weight_mb", weight_mb(solver->model()));
  }
  if (method == Method::kMlpInt16)
    report.context("int16_max_err_over_rms", checker.int16_max_rel_error());

  if (!report.trace()) {
    report.metric("throughput_per_s", summary.throughput_per_s);
    report.metric("latency_ms_p50", summary.latency_ms_p50);
    report.metric("latency_ms_p90", summary.latency_ms_p90);
    report.metric("setup_s", quantile(setup_s, 0.5));
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("success_rate", 1.0 - static_cast<double>(report.failed) /
                                            static_cast<double>(report.attempted));
    return;
  }

  if (options.corrupt == "history" && !run.histories.empty() &&
      run.histories.front().size() > 1) {
    // Rebuild the first history with one entry's momentum nudged by one ulp.
    auto entries = run.histories.front().entries();
    entries[1].momentum = std::nextafter(entries[1].momentum, 1e300);
    pic::History corrupted;
    for (const auto& d : entries) corrupted.record(d);
    run.histories.front() = corrupted;
  }

  // Traced replay of the same episodes for the same time budget.
  Tracer tracer;
  Replayer replayer(tracer, solver.get());
  std::vector<double> traced_ms;
  size_t compared = 0;
  const auto deadline = after_seconds(seconds);
  const size_t episode_cycles = paper_config(0).nsteps;
  for (size_t e = 0; Clock::now() < deadline; ++e) {
    const uint64_t seed = e < run.seeds.size() ? run.seeds[e] : episode_seed(options.seed, e);
    const pic::History replayed = replayer.episode(seed, episode_cycles, deadline, traced_ms);
    if (e >= run.histories.size()) continue;
    const auto& want = run.histories[e].entries();
    const auto& got = replayed.entries();
    const size_t n = std::min(want.size(), got.size());
    for (size_t i = 0; i < n; ++i)
      if (!bitwise_equal(want[i], got[i])) {
        report.fail("replayed History differs from the simulation's at episode " +
                    std::to_string(e) + " entry " + std::to_string(i));
        break;
      }
    compared += n;
  }
  if (compared < 2) report.fail("traced replay compared no cycle with the simulation");
  report.context("replay_entries_compared", static_cast<double>(compared));

  const size_t cycles = traced_ms.size();
  const double traced_cycles = static_cast<double>(std::max<size_t>(cycles, 1));
  report.metric("pic.push.ms", tracer.mean_ms("pic.push"));
  report.metric("pic.deposit.ms", tracer.mean_ms("pic.deposit"));
  report.metric("pic.poisson.ms", tracer.mean_ms("pic.poisson"));
  report.metric("pic.efield.ms", tracer.mean_ms("pic.efield"));
  report.metric("pic.diagnostics.ms", tracer.mean_ms("pic.diagnostics"));
  report.metric("pic.sort.ms", tracer.mean_ms("pic.sort"));
  report.metric("pic.sort.calls", static_cast<double>(tracer.calls("pic.sort")) /
                                       traced_cycles * static_cast<double>(episode_cycles));
  report.metric("pic.episode_e_max", e_max);
  report.metric("phase_space.bin.ms", tracer.mean_ms("phase_space.bin"));
  report.metric("phase_space.clamped_frac", replayer.clamped_frac());
  report.metric("data.normalize.ms", tracer.mean_ms("data.normalize"));
  report.metric("core.field_stage.ms", tracer.mean_ms("core.field_stage"));
  report.metric("host.llc_mb", llc_mb());
  if (solver) {
    ForwardKind kind;
    kind.precision = solver->context().precision();
    const auto& bc = solver->binner_config();
    report_nn(report, tracer, solver->model(), {bc.nx * bc.nv}, {kind});
  }
  const double p50 = quantile(latencies(run.cycles), 0.5);
  const double traced_p50 = quantile(traced_ms, 0.5);
  report.context("untraced_cycle_ms_p50", p50);
  report.context("traced_cycle_ms_p50", traced_p50);
  report.metric("trace.overhead_frac", (traced_p50 - p50) / p50);
  report.context("traced_cycles", static_cast<double>(cycles));
}

}  // namespace

void run_simulation_workload(const Options& options, Report& report) {
  const Method method = method_of(options.workload);
  if (method == Method::kTraditional)
    run_method<pic::TraditionalPic>(options, method, report);
  else
    run_method<core::DlPicSimulation>(options, method, report);
}

}  // namespace perfbench
