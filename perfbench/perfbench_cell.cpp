// perfbench_cell: one measured unit of the repository benchmark (run.py).
//
// Each invocation is one process, so its peak RSS and CPU belong to one
// workload repetition. It prints one JSON object on stdout; run.py turns the
// objects of a run into the benchmark's metrics and checks.
//
//   perfbench_cell cell --apps FFT3D,UR --routing UGALg --scale 64 --seed 1
//       --cell-threads 4 --workdir DIR [--trace] [--tiny]
//   perfbench_cell campaign --plan perfbench/fig4_campaign.cfg --scale 64
//       --seed 1 --jobs 4 --workdir DIR [--trace] [--tiny]
//
// `cell` builds one Study with each of its (one or two) apps on half the
// machine (the pairwise shape, as in run_pairwise), runs it and writes its report
// JSON to DIR/report.json. `campaign` loads the plan, expands it and runs it
// through run_plan with a JsonlSink (DIR/campaign.jsonl) and a PlanJournal
// (DIR/campaign.journal). Both set up kSetups times first and report each
// set-up time.
//
// --trace adds the per-layer pass. Every cell of the workload is run again,
// untraced through Study (report and JSON timed on their own) and traced:
// rebuilt from the constructors Study::build uses, with a timing decorator
// around the RoutingAlgorithm and another around the MessageEvents sink. The
// traced cell runs on the sequential engine; its executed events and
// makespan must equal the untraced cell's Report or the run is flagged.
//
// Every layer is timed from outside, with std::chrono::steady_clock around
// calls into the public APIs; no simulator source is changed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/blueprint.hpp"
#include "core/journal.hpp"
#include "core/json_report.hpp"
#include "core/plan.hpp"
#include "core/study.hpp"
#include "mpi/job.hpp"
#include "net/network.hpp"
#include "routing/factory.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"
#include "topo/placement.hpp"
#include "workloads/factory.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace dfly::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per process; run.py takes the fastest, since noise only adds time.
constexpr int kSetups = 25;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process so far (all threads).
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

std::int64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

// --- layer timers ------------------------------------------------------------

/// Counts every call into a layer and times one call in kSampleEvery with two
/// steady_clock reads; busy time is the sampled time scaled up to all calls,
/// less the calibrated cost of the clock reads themselves.
class LayerTimer {
 public:
  static constexpr std::uint64_t kSampleEvery = 8;

  class Scope {
   public:
    explicit Scope(LayerTimer& timer)
        : timer_(timer), sampled_(timer.calls_++ % kSampleEvery == 0) {
      if (sampled_) start_ = Clock::now();
    }
    ~Scope() {
      if (sampled_) {
        timer_.sampled_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now() - start_)
                                  .count();
        ++timer_.sampled_;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerTimer& timer_;
    bool sampled_;
    Clock::time_point start_{};
  };

  std::uint64_t calls() const { return calls_; }

  double busy_s(double clock_cost_ns) const {
    if (sampled_ == 0) return 0;
    const double per_call_ns =
        std::max(0.0, static_cast<double>(sampled_ns_) / static_cast<double>(sampled_) -
                          clock_cost_ns);
    return per_call_ns * static_cast<double>(calls_) * 1e-9;
  }

 private:
  std::uint64_t calls_{0};
  std::uint64_t sampled_{0};
  std::int64_t sampled_ns_{0};
};

/// Mean nanoseconds a sampled Scope around nothing reports.
double calibrate_clock_cost_ns() {
  LayerTimer timer;
  constexpr int kReps = 200000;
  for (int i = 0; i < kReps; ++i) LayerTimer::Scope scope(timer);
  return timer.busy_s(0) * 1e9 / kReps;
}

/// Forwards every routing hook to the real policy, timing the calls.
class TimedRouting final : public RoutingAlgorithm {
 public:
  explicit TimedRouting(std::unique_ptr<RoutingAlgorithm> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  RouteDecision route(Router& router, Packet& pkt) override {
    LayerTimer::Scope scope(timer_);
    return inner_->route(router, pkt);
  }
  void on_arrival(Router& router, Packet& pkt) override {
    LayerTimer::Scope scope(timer_);
    inner_->on_arrival(router, pkt);
  }
  void on_forward(Router& router, const Packet& pkt, int out_port) override {
    LayerTimer::Scope scope(timer_);
    inner_->on_forward(router, pkt, out_port);
  }

  const LayerTimer& timer() const { return timer_; }

 private:
  std::unique_ptr<RoutingAlgorithm> inner_;
  LayerTimer timer_;
};

/// Installed with Network::set_sink in front of the MpiSystem: forwards every
/// message completion to it, timing the MPI layer's reaction.
class TimedSink final : public MessageEvents {
 public:
  explicit TimedSink(MessageEvents& inner) : inner_(inner) {}

  void message_sent(std::uint64_t msg_id) override {
    LayerTimer::Scope scope(timer_);
    inner_.message_sent(msg_id);
  }
  void message_delivered(std::uint64_t msg_id) override {
    LayerTimer::Scope scope(timer_);
    inner_.message_delivered(msg_id);
  }

  const LayerTimer& timer() const { return timer_; }

 private:
  MessageEvents& inner_;
  LayerTimer timer_;
};

// --- one cell ----------------------------------------------------------------

/// A cell in the pairwise shape (run_pairwise): each app gets half the
/// machine; a standalone cell has one app.
struct CellSpec {
  StudyConfig config;
  std::vector<std::string> apps;
};

int half_machine(const StudyConfig& config) { return config.topo.num_nodes() / 2; }

/// The untraced cell, exactly as a user runs it through Study.
struct UntracedCell {
  double setup_s{0};   ///< Study construction + add_app
  double run_s{0};     ///< Study::run
  double report_s{0};  ///< Study::report, called again after run
  double json_s{0};    ///< report_to_json
  Report report;
  std::string report_json;
  PdesStats pdes;  ///< num_domains = 1 when the cell ran sequentially
};

UntracedCell run_untraced(const CellSpec& spec) {
  UntracedCell out;
  const auto t0 = Clock::now();
  Study study(spec.config);
  for (const std::string& app : spec.apps) study.add_app(app, half_machine(spec.config));
  const auto t1 = Clock::now();
  out.report = study.run();
  const auto t2 = Clock::now();
  const Report again = study.report();
  const auto t3 = Clock::now();
  out.report_json = report_to_json(out.report);
  const auto t4 = Clock::now();
  if (report_to_json(again) != out.report_json) {
    throw std::runtime_error("Study::report() after run() differs from run()'s report");
  }
  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.report_s = seconds_between(t2, t3);
  out.json_s = seconds_between(t3, t4);
  if (study.pdes() != nullptr) out.pdes = study.pdes()->stats();
  return out;
}

/// The traced cell: Study::build's steps, one by one, with the decorators.
struct TracedCell {
  double blueprint_s{0};  ///< SystemBlueprint::build
  double place_s{0};      ///< Placer + workloads::make_app
  double build_s{0};      ///< routing + Network + MpiSystem + jobs
  double run_s{0};        ///< job start + Engine::run
  std::uint64_t events{0};
  SimTime makespan{0};
  bool completed{false};
  std::uint64_t packets{0};
  double hop_sum{0};
  std::uint64_t peak_queue{0};
  std::uint64_t routing_calls{0};
  double routing_busy_s{0};
  std::uint64_t mpi_calls{0};
  double mpi_busy_s{0};
};

TracedCell run_traced(const CellSpec& spec, double clock_cost_ns) {
  const StudyConfig& config = spec.config;
  TracedCell out;
  const auto t0 = Clock::now();
  const std::shared_ptr<const SystemBlueprint> blueprint = SystemBlueprint::build(config);
  const auto t1 = Clock::now();

  Placer placer(blueprint->topo(), config.placement, Rng(config.seed, 0x9 /*placement stream*/),
                &blueprint->placement_pool());
  std::vector<std::unique_ptr<mpi::Motif>> motifs;
  std::vector<std::vector<int>> nodes;
  for (const std::string& app : spec.apps) {
    workloads::AppInstance instance =
        workloads::make_app(app, half_machine(config), config.scale);
    motifs.push_back(std::move(instance.motif));
    nodes.push_back(placer.allocate(instance.nodes));
  }
  const auto t2 = Clock::now();

  Engine engine;
  routing::RoutingContext context{&engine,     &blueprint->topo(), &blueprint->net(),
                                  config.seed, config.ugal,        config.qadp,
                                  blueprint->initial_qtables()};
  TimedRouting routing(routing::make_routing(config.routing, context));
  Network network(engine, *blueprint, routing, static_cast<int>(spec.apps.size()), config.seed,
                  config.observability);
  mpi::MpiSystem mpi_system(network);
  TimedSink sink(mpi_system);
  network.set_sink(sink);
  std::vector<std::unique_ptr<mpi::Job>> jobs;
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    const int app_id = static_cast<int>(i);
    jobs.push_back(std::make_unique<mpi::Job>(engine, network, mpi_system, app_id, spec.apps[i],
                                              *motifs[i], std::move(nodes[i]), config.seed,
                                              config.protocol));
    network.set_app_class(app_id, 0);
  }
  const auto t3 = Clock::now();

  for (auto& job : jobs) job->start();
  engine.run(config.time_limit);
  const auto t4 = Clock::now();

  out.blueprint_s = seconds_between(t0, t1);
  out.place_s = seconds_between(t1, t2);
  out.build_s = seconds_between(t2, t3);
  out.run_s = seconds_between(t3, t4);
  out.events = engine.executed();
  out.peak_queue = engine.peak_queued();
  out.completed = true;
  for (const auto& job : jobs) {
    out.completed = out.completed && job->done();
    out.makespan = std::max(out.makespan, job->finish_time());
    const std::uint64_t packets = network.packet_log().delivered_packets(job->app_id());
    out.packets += packets;
    out.hop_sum += network.packet_log().mean_hops(job->app_id()) * static_cast<double>(packets);
  }
  out.routing_calls = routing.timer().calls();
  out.routing_busy_s = routing.timer().busy_s(clock_cost_ns);
  out.mpi_calls = sink.timer().calls();
  out.mpi_busy_s = sink.timer().busy_s(clock_cost_ns);
  return out;
}

// --- JSON output -------------------------------------------------------------

void write_untraced(JsonWriter& w, const UntracedCell& cell) {
  std::uint64_t packets = 0;
  double hop_sum = 0;
  for (const AppReport& app : cell.report.apps) {
    packets += app.packets;
    hop_sum += app.mean_hops * static_cast<double>(app.packets);
  }
  w.key("setup_s").value(cell.setup_s);
  w.key("run_s").value(cell.run_s);
  w.key("report_s").value(cell.report_s);
  w.key("json_s").value(cell.json_s);
  w.key("completed").value(cell.report.completed);
  w.key("events").value(cell.report.events_executed);
  w.key("makespan").value(static_cast<std::int64_t>(cell.report.makespan));
  w.key("packets").value(packets);
  w.key("hop_sum").value(hop_sum);
  w.key("pdes_domains").value(static_cast<std::int64_t>(cell.pdes.num_domains));
  w.key("pdes_windows").value(cell.pdes.windows);
  w.key("pdes_merged").value(cell.pdes.merged_events);
  w.key("pdes_cross_domain").value(cell.pdes.cross_domain_events);
}

void write_traced(JsonWriter& w, const TracedCell& cell) {
  w.key("blueprint_s").value(cell.blueprint_s);
  w.key("place_s").value(cell.place_s);
  w.key("build_s").value(cell.build_s);
  w.key("run_s").value(cell.run_s);
  w.key("completed").value(cell.completed);
  w.key("events").value(cell.events);
  w.key("makespan").value(static_cast<std::int64_t>(cell.makespan));
  w.key("packets").value(cell.packets);
  w.key("hop_sum").value(cell.hop_sum);
  w.key("peak_queue").value(cell.peak_queue);
  w.key("routing_calls").value(cell.routing_calls);
  w.key("routing_busy_s").value(cell.routing_busy_s);
  w.key("mpi_calls").value(cell.mpi_calls);
  w.key("mpi_busy_s").value(cell.mpi_busy_s);
}

void write_build_info(JsonWriter& w) {
  w.key("build").begin_object();
#ifdef __clang__
  w.key("compiler").value("clang " __clang_version__);
#else
  w.key("compiler").value("gcc " __VERSION__);
#endif
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  w.key("assertions").value(false);
#else
  w.key("assertions").value(true);
#endif
  w.end_object();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Runs fn(i) for every i < n on `workers` threads (the caller is one of
/// them); the first exception thrown by any fn(i) is rethrown after all
/// threads have joined.
template <class Fn>
void parallel_for(std::size_t n, int workers, const Fn& fn) {
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 1; t < workers; ++t) threads.emplace_back(worker);
    worker();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// The per-layer pass over `specs`, in two phases on `workers` threads:
/// every cell untraced through Study, then every cell traced. The phases'
/// wall (and process CPU) times make the tracing overhead.
struct TracePass {
  std::vector<UntracedCell> untraced;
  std::vector<TracedCell> traced;
  double untraced_wall_s{0};
  double untraced_cpu_s{0};
  double traced_wall_s{0};
};

TracePass trace_pass(const std::vector<CellSpec>& specs, int workers, double clock_cost_ns) {
  TracePass pass;
  pass.untraced.resize(specs.size());
  pass.traced.resize(specs.size());
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  parallel_for(specs.size(), workers,
               [&](std::size_t i) { pass.untraced[i] = run_untraced(specs[i]); });
  const auto t1 = Clock::now();
  pass.untraced_cpu_s = process_cpu_s() - cpu0;
  parallel_for(specs.size(), workers,
               [&](std::size_t i) { pass.traced[i] = run_traced(specs[i], clock_cost_ns); });
  pass.untraced_wall_s = seconds_between(t0, t1);
  pass.traced_wall_s = seconds_between(t1, Clock::now());
  return pass;
}

/// Writes the pass's counters into `w` and each untraced cell's report JSON
/// to workdir/trace_cell_<i>.json.
void write_trace_pass(JsonWriter& w, const TracePass& pass, double clock_cost_ns,
                      const std::filesystem::path& workdir) {
  for (std::size_t i = 0; i < pass.untraced.size(); ++i) {
    write_file(workdir / ("trace_cell_" + std::to_string(i) + ".json"),
               pass.untraced[i].report_json);
  }
  w.key("clock_cost_ns").value(clock_cost_ns);
  w.key("untraced_wall_s").value(pass.untraced_wall_s);
  w.key("untraced_cpu_s").value(pass.untraced_cpu_s);
  w.key("traced_wall_s").value(pass.traced_wall_s);
  w.key("trace_cells").begin_array();
  for (std::size_t i = 0; i < pass.untraced.size(); ++i) {
    w.begin_object();
    w.key("untraced").begin_object();
    write_untraced(w, pass.untraced[i]);
    w.end_object();
    w.key("traced").begin_object();
    write_traced(w, pass.traced[i]);
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

// --- modes -------------------------------------------------------------------

struct Options {
  std::string mode;
  std::vector<std::string> apps;
  std::string routing{"UGALg"};
  std::string plan_path;
  int scale{64};
  std::uint64_t seed{1};
  int cell_threads{1};
  int jobs{1};
  std::filesystem::path workdir{"."};
  bool trace{false};
  bool tiny{false};
};

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int positive_int(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const int value = std::stoi(text, &used);
  if (used != text.size() || value < 1) {
    throw std::invalid_argument(flag + " wants a positive integer, got '" + text + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_cell cell|campaign [flags]");
  Options options;
  options.mode = argv[1];
  if (options.mode != "cell" && options.mode != "campaign") {
    throw std::invalid_argument("unknown mode '" + options.mode + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      options.trace = true;
      continue;
    }
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--apps") {
      options.apps = split_commas(value);
    } else if (flag == "--routing") {
      options.routing = value;
    } else if (flag == "--plan") {
      options.plan_path = value;
    } else if (flag == "--scale") {
      options.scale = positive_int(flag, value);
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--cell-threads") {
      options.cell_threads = positive_int(flag, value);
    } else if (flag == "--jobs") {
      options.jobs = positive_int(flag, value);
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.mode == "cell" && (options.apps.empty() || options.apps.size() > 2)) {
    throw std::invalid_argument("cell mode needs --apps with one or two apps");
  }
  if (options.mode == "campaign" && options.plan_path.empty()) {
    throw std::invalid_argument("campaign mode needs --plan");
  }
  return options;
}

void write_setups(JsonWriter& w, const std::vector<double>& setups) {
  w.key("setup_s").begin_array();
  for (const double s : setups) w.value(s);
  w.end_array();
}

/// One Study-run cell: kSetups constructions (the last one is run), then
/// the run, the report and its JSON written to workdir/report.json. With
/// --trace, only the per-layer pass runs.
std::string run_cell_mode(const Options& options) {
  CellSpec spec;
  spec.config.topo = options.tiny ? DragonflyParams::tiny() : DragonflyParams::paper();
  spec.config.routing = options.routing;
  spec.config.seed = options.seed;
  spec.config.scale = options.scale;
  spec.config.cell_threads = options.cell_threads;
  spec.apps = options.apps;

  JsonWriter w;
  w.begin_object();
  w.key("mode").value("cell");
  if (options.trace) {
    const double clock_cost_ns = calibrate_clock_cost_ns();
    write_trace_pass(w, trace_pass({spec}, 1, clock_cost_ns), clock_cost_ns,
                     options.workdir);
  } else {
    std::vector<double> setups;
    std::unique_ptr<Study> study;
    for (int i = 0; i < kSetups; ++i) {
      study.reset();
      const auto t0 = Clock::now();
      study = std::make_unique<Study>(spec.config);
      for (const std::string& app : spec.apps) study->add_app(app, half_machine(spec.config));
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    write_setups(w, setups);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const Report report = study->run();
    write_file(options.workdir / "report.json", report_to_json(report));
    const auto t1 = Clock::now();
    const double cpu_s = process_cpu_s() - cpu0;
    PdesStats pdes;
    if (study->pdes() != nullptr) pdes = study->pdes()->stats();

    w.key("wall_s").value(seconds_between(t0, t1));
    w.key("cpu_s").value(cpu_s);
    w.key("cells").value(1);
    w.key("completed_cells").value(report.completed ? 1 : 0);
    w.key("events").value(report.events_executed);
    w.key("pdes_domains").value(static_cast<std::int64_t>(pdes.num_domains));
  }
  w.key("peak_rss_kb").value(peak_rss_kb());
  write_build_info(w);
  w.end_object();
  return w.str();
}

/// One campaign: plan load + expansion (kSetups times), then run_plan with
/// the JSONL sink and the journal, as `dflysim --plan --jsonl --journal`.
std::string run_campaign_mode(const Options& options) {
  std::vector<double> setups;
  ExperimentPlan plan;
  std::vector<PlanCell> cells;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    plan = load_plan(options.plan_path);
    plan.base.seed = options.seed;
    plan.base.scale = options.scale;
    if (options.tiny) plan.base.topo = DragonflyParams::tiny();
    cells = plan.expand();
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  JsonWriter w;
  w.begin_object();
  w.key("mode").value("campaign");
  write_setups(w, setups);
  const std::filesystem::path jsonl_path = options.workdir / "campaign.jsonl";
  const std::filesystem::path journal_path = options.workdir / "campaign.journal";
  std::filesystem::remove(jsonl_path);
  std::filesystem::remove(journal_path);

  RunPlanOptions run_options;
  run_options.jobs = options.jobs;
  run_options.cell_threads = 1;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  PlanOutcome outcome;
  {
    JsonlSink sink(jsonl_path.string());
    PlanJournal journal(journal_path.string());
    run_options.journal = &journal;
    run_options.output_offset = [&sink] { return sink.bytes_written(); };
    outcome = run_plan(plan, sink, run_options);
  }
  const auto t1 = Clock::now();
  const double cpu_s = process_cpu_s() - cpu0;

  int attempts = 0;
  for (const JournalRecord& record : PlanJournal::recover(journal_path.string())) {
    attempts += record.attempts;
  }
  w.key("wall_s").value(seconds_between(t0, t1));
  w.key("cpu_s").value(cpu_s);
  w.key("cells").value(static_cast<std::uint64_t>(outcome.cells));
  w.key("completed_cells").value(static_cast<std::uint64_t>(outcome.completed));
  w.key("failed_cells").value(static_cast<std::uint64_t>(outcome.failures.size()));
  w.key("attempts").value(attempts);
  w.key("worker_errors").value(outcome.worker_errors.any());
  if (options.trace) {
    std::vector<CellSpec> specs;
    for (const PlanCell& cell : cells) {
      if (cell.kind != PlanCellKind::kPairwise) {
        throw std::runtime_error("the traced campaign pass handles pairwise cells only");
      }
      CellSpec spec{cell.config, {cell.target}};
      if (cell.background != "None" && !cell.background.empty()) {
        spec.apps.push_back(cell.background);
      }
      specs.push_back(std::move(spec));
    }
    const double clock_cost_ns = calibrate_clock_cost_ns();
    write_trace_pass(w, trace_pass(specs, options.jobs, clock_cost_ns), clock_cost_ns,
                     options.workdir);
  }
  w.key("peak_rss_kb").value(peak_rss_kb());
  write_build_info(w);
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace dfly::perfbench

int main(int argc, char** argv) {
  try {
    const dfly::perfbench::Options options = dfly::perfbench::parse(argc, argv);
    const std::string line = options.mode == "cell"
                                 ? dfly::perfbench::run_cell_mode(options)
                                 : dfly::perfbench::run_campaign_mode(options);
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_cell: %s\n", e.what());
    return 1;
  }
}
