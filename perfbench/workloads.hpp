#pragma once

// The benchmark's three workloads, each run through the library's public
// API (core::DsmSortJob, core::run_dsm_sort, tenant::run_tenancy), and
// descriptions of their generated inputs for the layer replays.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "asu/params.hpp"
#include "core/workload.hpp"
#include "obs/json.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Size { Full, Tiny };

/// Run variants. Normal is the workload as defined; the others exist for
/// the traced run's comparisons and are never timed as the workload.
enum class Variant {
  Normal,
  TelemetryOff,  // the workload's histograms/sampler switched off
  HistogramsOn,  // per-stage latency histograms on (queue-wait probe)
};

/// Everything the simulated machine decides. Deterministic for a given
/// workload, size and seed: repetitions must agree bit for bit.
struct SimOutcome {
  double pass1_s = 0;
  double makespan_s = 0;
  double job_p50_s = 0;
  double job_p99_s = 0;
  double goodput = 0;  // completed jobs per simulated second
  std::uint64_t events = 0;
  std::uint64_t digest = 0;

  bool operator==(const SimOutcome&) const = default;
};

/// One repetition of a workload.
struct Rep {
  std::uint64_t seed = 0;       // the input stream this repetition ran
  double setup_s = 0;           // host seconds before the first event
  double wall_s = 0;            // host seconds of the run, set-up excluded
  double arrivals_build_s = 0;  // host seconds building the arrival schedule
  std::size_t records = 0;      // records generated, classified and sorted
  SimOutcome sim;

  std::size_t attempted = 0;  // validations (jobs) attempted
  std::size_t failed = 0;     // failed validations or uncompleted jobs
  std::string failure;        // first failure, for the log

  lmas::obs::Json metrics;     // the engine's registry snapshot
  lmas::obs::Json histograms;  // latency summaries; null when histograms off

  std::size_t admission_waits = 0;
  std::size_t lm_decisions = 0;
  std::uint64_t lm_migrations = 0;
  std::uint64_t lm_router_switches = 0;
  double host_imbalance_mean = 0;
};

/// The generated inputs of one DSM-Sort job, as the program derives them
/// from its configuration and seed.
struct DsmInputs {
  std::size_t records = 0;
  unsigned asus = 0;
  unsigned alpha = 0;
  std::size_t run_length = 0;      // records per sorted run (beta)
  std::size_t packet_records = 0;  // records per network packet
  lmas::core::KeyDist dist = lmas::core::KeyDist::Uniform;
  bool sampled_splitters = false;
  bool merge_pass = false;
  std::uint64_t seed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual lmas::asu::MachineParams machine() const = 0;

  /// One repetition. With a recorder, the set-up and run are recorded as
  /// children of `parent`.
  [[nodiscard]] virtual Rep run(std::uint64_t seed, Variant v,
                                SpanRecorder* spans,
                                std::size_t parent) const = 0;

  /// The DSM-Sort jobs the workload runs, for the data-path replays.
  [[nodiscard]] virtual std::vector<DsmInputs> dsm_inputs(
      std::uint64_t seed) const = 0;

  /// Item counts of the R-tree bulk loads the workload submits.
  [[nodiscard]] virtual std::vector<std::size_t> rtree_loads(
      std::uint64_t /*seed*/) const {
    return {};
  }

  /// Whether the workload itself runs with telemetry on (histograms and
  /// sampler), so TelemetryOff differs from Normal.
  [[nodiscard]] virtual bool telemetry() const = 0;

  /// Whether Variant::HistogramsOn yields a to_sort queue-wait histogram.
  [[nodiscard]] virtual bool stage_histograms() const = 0;

  /// Whether DSM jobs are constructed (splitters built) inside the run
  /// rather than before it.
  [[nodiscard]] virtual bool builds_jobs_in_run() const = 0;

  /// Whether the sort router sits under a load manager's switchable router.
  [[nodiscard]] virtual bool managed_router() const = 0;

  /// Simulated processes alive at once in a typical instant, for the
  /// bare-engine dispatch replay.
  [[nodiscard]] virtual unsigned live_processes() const = 0;

  /// Independent input streams an untraced run draws from its seed.
  /// Workloads whose results swing with the draw (open arrivals) report
  /// the median over several streams instead of one.
  [[nodiscard]] virtual unsigned seed_streams() const { return 1; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, Size size);

}  // namespace perfbench
