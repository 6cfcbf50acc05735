// LMAS benchmark: runs one workload through the library's public
// API for a fixed time, checks every output, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   lmas_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--size full|tiny] [--spans FILE]
//
// Host time is what the simulator takes; "sim" time is what the modelled
// machine would take. Simulated results are deterministic per seed, and
// every repetition is checked to reproduce them bit for bit.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "probes.hpp"
#include "sim/random.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using lmas::obs::Json;
using perfbench::Rep;
using perfbench::SimOutcome;
using perfbench::SpanRecorder;
using perfbench::Variant;
using perfbench::Workload;

/// Seed of the warm-up repetition, whose simulated results the committed
/// baseline records (the simulated-behaviour guard).
constexpr std::uint64_t kReferenceSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  perfbench::Size size = perfbench::Size::Full;
  std::string spans_path;
};

bool parse(int argc, char** argv, Options& o) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && o.seconds > 0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o.trace = val == "1";
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") return false;
      o.size = val == "full" ? perfbench::Size::Full : perfbench::Size::Tiny;
    } else if (key == "--spans") {
      o.spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// "median X, pNN Y (n=N)": the highest percentile with at least ten
/// samples beyond it, when the sample supports one above the median.
std::string describe(std::vector<double> v, const char* unit) {
  char buf[160];
  const std::size_t n = v.size();
  std::sort(v.begin(), v.end());
  if (n >= 20) {
    const double p = 1.0 - 10.0 / double(n);
    const std::size_t idx = std::size_t(std::ceil(p * double(n))) - 1;
    std::snprintf(buf, sizeof buf, "median %.6g %s, p%.0f %.6g %s (n=%zu)",
                  median(v), unit, std::floor(p * 100), v[idx], unit, n);
  } else {
    std::snprintf(buf, sizeof buf,
                  "median %.6g %s, range %.6g..%.6g (n=%zu; no percentile "
                  "above the median has 10 samples beyond it)",
                  median(v), unit, n ? v.front() : 0.0, n ? v.back() : 0.0, n);
  }
  return buf;
}

std::vector<double> collect(const std::vector<Rep>& reps,
                            const std::function<double(const Rep&)>& f) {
  std::vector<double> out;
  for (const auto& r : reps) out.push_back(f(r));
  return out;
}

Rep run_checked(const Workload& w, std::uint64_t seed, Variant v,
                SpanRecorder* spans, std::size_t parent) {
  try {
    return w.run(seed, v, spans, parent);
  } catch (const std::exception& e) {
    Rep r;
    r.attempted = 1;
    r.failed = 1;
    r.failure = std::string("exception: ") + e.what();
    return r;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Sum of registry instruments in `section` whose name satisfies `pred`.
double sum_metrics(const Json& metrics, const char* section,
                   const std::function<bool(std::string_view)>& pred) {
  const Json* sec = metrics.find(section);
  if (sec == nullptr) return 0;
  double total = 0;
  for (const auto& [name, val] : sec->members()) {
    if (pred(name) && val.is_number()) total += val.as_double();
  }
  return total;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Node resources are named host<i>.<kind> / asu<i>.<kind>.
bool is_node_resource(std::string_view name, std::string_view node,
                      std::string_view kind_suffix) {
  return name.starts_with(node) && name.size() > node.size() &&
         name[node.size()] >= '0' && name[node.size()] <= '9' &&
         ends_with(name, kind_suffix);
}

double p99_of(const Json& histograms, const char* name) {
  const Json* h = histograms.find(name);
  if (h == nullptr) return 0;
  const Json* p = h->find("p99");
  return p != nullptr && p->is_number() ? p->as_double() : 0;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

void print_guard(const Options& o, const char* role, std::uint64_t seed,
                 const SimOutcome& s) {
  Json j = Json::object();
  j["role"] = role;
  j["workload"] = o.workload;
  j["size"] = o.size == perfbench::Size::Full ? "full" : "tiny";
  j["seed"] = std::to_string(seed);  // 64-bit: kept exact as text
  j["sim_pass1_s"] = s.pass1_s;
  j["sim_makespan_s"] = s.makespan_s;
  j["job_p50_sim_s"] = s.job_p50_s;
  j["job_p99_sim_s"] = s.job_p99_s;
  j["goodput_jobs_per_sim_s"] = s.goodput;
  j["sim_events"] = (unsigned long long)(s.events);
  j["digest"] = hex(s.digest);
  std::printf("# sim-guard %s\n", j.dump().c_str());
}

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: lmas_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--spans FILE]\n");
    return 2;
  }
  const auto w = perfbench::make_workload(o.workload, o.size);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::printf("# workload %s, seed %" PRIu64 ", %g s, %s run, %s size\n",
              o.workload.c_str(), o.seed, o.seconds,
              o.trace ? "traced" : "untraced",
              o.size == perfbench::Size::Full ? "full" : "tiny");

  std::size_t attempted = 0, failed = 0;
  std::map<std::string, std::size_t> problems;  // failure -> repetitions
  auto account = [&](const Rep& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed != 0) ++problems[r.failure];
  };

  // Warm-up at the reference seed (caches and allocator settle before
  // timing); its simulated results are the guard against the baseline.
  const Rep warm =
      run_checked(*w, kReferenceSeed, Variant::Normal, nullptr, 0);
  account(warm);
  print_guard(o, "reference", kReferenceSeed, warm.sim);

  std::unique_ptr<SpanRecorder> spans;
  std::size_t root = SpanRecorder::kNoParent;
  if (o.trace) {
    spans = std::make_unique<SpanRecorder>(
        o.workload + "-" + std::to_string(o.seed) + "-" +
        std::to_string(::getpid()));
    root = spans->begin("workload:" + o.workload, SpanRecorder::kNoParent);
  }

  // Timed repetitions. An untraced run cycles through the workload's
  // input streams (stream 0 is the run's seed; the others derive from
  // it): every stream at least once, stream 0 at least twice. The traced
  // run stays on the run's seed and interleaves spanned repetitions,
  // plain ones and (for workloads with telemetry) telemetry-off ones, so
  // their medians compare under the same noise.
  const unsigned streams = o.trace ? 1 : std::max(1u, w->seed_streams());
  auto stream_seed = [&](std::size_t k) {
    return k == 0 ? o.seed
                  : o.seed ^ lmas::sim::stream_id("perfbench.stream", k);
  };
  std::vector<Rep> plain, traced, telemetry_off;
  const std::size_t min_reps = std::max<std::size_t>(
      streams + 1, o.size == perfbench::Size::Full ? 3 : 2);
  const std::size_t variants = !o.trace ? 1 : (w->telemetry() ? 3 : 2);
  const double deadline = now_s() + o.seconds;
  for (std::size_t i = 0;; ++i) {
    const bool enough = plain.size() >= min_reps &&
                        (!o.trace || traced.size() >= min_reps) &&
                        (variants < 3 || telemetry_off.size() >= min_reps);
    if (enough && now_s() >= deadline && i % variants == 0) break;
    Rep r;
    switch (i % variants) {
      case 0: {
        const std::uint64_t seed = stream_seed(plain.size() % streams);
        r = run_checked(*w, seed, Variant::Normal, nullptr, 0);
        r.seed = seed;
        plain.push_back(r);
        break;
      }
      case 1: {
        perfbench::ScopedSpan rep(spans.get(), "rep", root);
        r = run_checked(*w, o.seed, Variant::Normal, spans.get(), rep.id());
        r.seed = o.seed;
        traced.push_back(r);
        break;
      }
      default:
        r = run_checked(*w, o.seed, Variant::TelemetryOff, nullptr, 0);
        r.seed = o.seed;
        telemetry_off.push_back(r);
        break;
    }
    account(r);
  }

  // Determinism: every repetition of one input stream reproduces the
  // simulated results and the engine digest bit for bit. Telemetry is
  // documented as digest-neutral, so the telemetry-off runs must agree
  // too.
  std::vector<SimOutcome> outcomes;  // per stream, from its first rep
  for (std::size_t k = 0; k < streams; ++k) {
    outcomes.push_back(plain.at(k).sim);
    print_guard(o, "run", plain.at(k).seed, plain.at(k).sim);
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    mismatches += plain[i].sim == outcomes[i % streams] ? 0 : 1;
  }
  for (const auto& r : traced) mismatches += r.sim == outcomes[0] ? 0 : 1;
  if (o.seed == kReferenceSeed && !(warm.sim == outcomes[0])) ++mismatches;
  for (const auto& r : telemetry_off) {
    const SimOutcome& ref = outcomes[0];
    mismatches += (r.sim.digest == ref.digest &&
                   r.sim.events == ref.events &&
                   r.sim.pass1_s == ref.pass1_s &&
                   r.sim.makespan_s == ref.makespan_s)
                      ? 0
                      : 1;
  }
  if (mismatches != 0) {
    attempted += mismatches;
    failed += mismatches;
    problems["repetition did not reproduce the simulated results of its "
             "stream's first"] += mismatches;
  }
  std::printf("# determinism: %zu repetition(s) over %u stream(s) %s\n",
              plain.size() + traced.size() + telemetry_off.size(), streams,
              mismatches == 0 ? "identical (sim metrics and digest)"
                              : "DIFFER");
  // Simulated metrics: the median over streams of each.
  auto sim_median = [&](double SimOutcome::*field) {
    std::vector<double> v;
    for (const auto& s : outcomes) v.push_back(s.*field);
    return median(v);
  };
  const SimOutcome& ref = outcomes[0];

  const std::vector<double> walls =
      collect(plain, [](const Rep& r) { return r.wall_s; });
  const double wall = median(walls);
  const std::vector<double> setups =
      collect(plain, [](const Rep& r) { return r.setup_s; });
  const std::vector<double> rec_rate = collect(plain, [](const Rep& r) {
    return r.wall_s > 0 ? double(r.records) / r.wall_s : 0;
  });
  const std::vector<double> ev_rate = collect(plain, [](const Rep& r) {
    return r.wall_s > 0 ? double(r.sim.events) / r.wall_s : 0;
  });
  std::printf("# wall_s: %s\n", describe(walls, "s").c_str());
  std::printf("# setup_s: %s\n", describe(setups, "s").c_str());
  std::printf("# records_per_s: %s\n", describe(rec_rate, "1/s").c_str());
  std::printf("# sim_events_per_s: %s\n", describe(ev_rate, "1/s").c_str());
  std::printf("# simulated (median over streams): pass1 %.6g s, makespan "
              "%.6g s, job p50 %.6g s, p99 %.6g s, goodput %.6g jobs/s\n",
              sim_median(&SimOutcome::pass1_s),
              sim_median(&SimOutcome::makespan_s),
              sim_median(&SimOutcome::job_p50_s),
              sim_median(&SimOutcome::job_p99_s),
              sim_median(&SimOutcome::goodput));
  std::printf("# error_rate: %zu failed / %zu attempted\n", failed,
              attempted);

  Json metrics = Json::object();
  if (!o.trace) {
    metrics["wall_s"] = metric(wall, "s");
    metrics["setup_s"] = metric(median(setups), "s");
    metrics["records_per_s"] = metric(median(rec_rate), "1/s");
    metrics["sim_events_per_s"] = metric(median(ev_rate), "1/s");
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
    metrics["sim_pass1_s"] =
        metric(sim_median(&SimOutcome::pass1_s), "sim_s");
    metrics["sim_makespan_s"] =
        metric(sim_median(&SimOutcome::makespan_s), "sim_s");
    metrics["job_p50_sim_s"] =
        metric(sim_median(&SimOutcome::job_p50_s), "sim_s");
    metrics["job_p99_sim_s"] =
        metric(sim_median(&SimOutcome::job_p99_s), "sim_s");
    metrics["goodput_jobs_per_sim_s"] =
        metric(sim_median(&SimOutcome::goodput), "1/sim_s");
  } else {
    // ---- layer replays, each under its own span ----------------------
    const Rep& base = plain.front();
    const auto machine = w->machine();
    const auto jobs = w->dsm_inputs(o.seed);
    const perfbench::DataPathTimes dp =
        perfbench::replay_data_path(jobs, *spans, root);
    if (!dp.merge_sorted) {
      ++attempted;
      ++failed;
      ++problems["replayed merge produced unsorted output"];
    }
    const double dispatch_s = perfbench::replay_dispatch(
        ref.events, w->live_processes(), *spans, root);

    auto requests = [&](std::string_view kind) {
      return sum_metrics(base.metrics, "counters", [&](std::string_view n) {
        return is_node_resource(n, "host", kind) ||
               is_node_resource(n, "asu", kind);
      });
    };
    const double cpu_calls = requests(".cpu.requests");
    const double disk_calls = requests(".disk.requests");
    const double nic_calls = requests(".nic.requests");
    const double charge_calls = cpu_calls + disk_calls + nic_calls;
    const perfbench::ChargeReplay ch = perfbench::replay_charges(
        machine, std::uint64_t(cpu_calls), std::uint64_t(disk_calls),
        std::uint64_t(nic_calls), *spans, root);
    const double charge_ns =
        ch.calls > 0 ? ch.seconds * 1e9 / double(ch.calls) : 0;
    const double charge_self_per_call =
        ch.calls > 0
            ? std::max(0.0, ch.seconds - ch.dispatch_seconds) /
                  double(ch.calls)
            : 0;
    const double charge_s = charge_self_per_call * charge_calls;

    auto busy = [&](std::string_view node, std::string_view kind) {
      return sum_metrics(base.metrics, "gauges", [&](std::string_view n) {
        return is_node_resource(n, node, kind);
      });
    };

    const double route_decisions =
        sum_metrics(base.metrics, "counters", [](std::string_view n) {
          return n.starts_with("route.sort.target.");
        });
    const double route_ns =
        jobs.empty() ? 0
                     : perfbench::replay_routing_ns(
                           w->managed_router(), jobs.front().alpha, machine,
                           std::uint64_t(route_decisions), *spans, root);

    double packets = 0, packet_records = 0;
    if (const Json* c = base.metrics.find("counters")) {
      for (const auto& [name, val] : c->members()) {
        if (!ends_with(name, ".packets")) continue;
        packets += val.as_double();
        const std::string stem = name.substr(0, name.size() - 8);
        if (const Json* r = c->find(stem + ".records")) {
          packet_records += r->as_double();
        }
      }
    }
    double wait_p99 = 0;
    if (w->telemetry() && w->stage_histograms()) {
      wait_p99 = p99_of(base.histograms, "to_sort.queue_wait_seconds");
    } else if (w->stage_histograms()) {
      perfbench::ScopedSpan s(spans.get(), "probe.histogram_run", root);
      const Rep h =
          run_checked(*w, o.seed, Variant::HistogramsOn, nullptr, 0);
      account(h);
      if (h.sim.digest != ref.digest) {
        ++attempted;
        ++failed;
        ++problems["histograms moved the digest"];
      }
      wait_p99 = p99_of(h.histograms, "to_sort.queue_wait_seconds");
    }

    double rtree_s = 0;
    if (const auto loads = w->rtree_loads(o.seed); !loads.empty()) {
      rtree_s = perfbench::replay_rtree(loads, o.seed, *spans, root);
      if (rtree_s < 0) {
        ++attempted;
        ++failed;
        ++problems["R-tree replay lost items"];
        rtree_s = 0;
      }
    }
    spans->end(root);

    const double traced_wall =
        median(collect(traced, [](const Rep& r) { return r.wall_s; }));
    const double telemetry_s =
        telemetry_off.empty()
            ? 0
            : wall - median(collect(telemetry_off,
                                    [](const Rep& r) { return r.wall_s; }));
    const double routing_s = route_decisions * route_ns * 1e-9;
    const double attributed =
        dispatch_s + charge_s + dp.keygen_s + dp.classify_s +
        dp.run_formation_s + dp.merge_s + routing_s + telemetry_s +
        (w->builds_jobs_in_run() ? dp.build_s : 0);

    metrics["sim.events"] = metric(double(ref.events), "count");
    metrics["sim.dispatch_s"] = metric(dispatch_s, "s");
    metrics["sim.dispatch_share"] =
        metric(wall > 0 ? dispatch_s / wall : 0, "ratio");
    metrics["asu.charge_calls"] = metric(charge_calls, "count");
    metrics["asu.charge_ns"] = metric(charge_ns, "ns");
    metrics["asu.charge_s"] = metric(charge_s, "s");
    metrics["asu.host_cpu_busy_s"] =
        metric(busy("host", ".cpu.busy_seconds"), "sim_s");
    metrics["asu.asu_cpu_busy_s"] =
        metric(busy("asu", ".cpu.busy_seconds"), "sim_s");
    metrics["asu.disk_busy_s"] =
        metric(busy("asu", ".disk.busy_seconds"), "sim_s");
    metrics["asu.nic_busy_s"] = metric(
        busy("host", ".nic.busy_seconds") + busy("asu", ".nic.busy_seconds"),
        "sim_s");
    metrics["core.pipeline.packets"] = metric(packets, "count");
    metrics["core.pipeline.records_per_packet"] =
        metric(packets > 0 ? packet_records / packets : 0, "ratio");
    metrics["core.pipeline.to_sort_wait_p99_s"] = metric(wait_p99, "sim_s");
    metrics["core.workload.keygen_s"] = metric(dp.keygen_s, "s");
    metrics["core.splitters.classify_s"] = metric(dp.classify_s, "s");
    metrics["core.splitters.build_s"] = metric(dp.build_s, "s");
    metrics["extmem.run_formation_s"] = metric(dp.run_formation_s, "s");
    metrics["extmem.merge_s"] = metric(dp.merge_s, "s");
    metrics["core.routing.decisions"] = metric(route_decisions, "count");
    metrics["core.routing.route_ns"] = metric(route_ns, "ns");
    metrics["core.load_manager.decisions"] =
        metric(double(base.lm_decisions), "count");
    metrics["core.load_manager.migrations"] =
        metric(double(base.lm_migrations), "count");
    metrics["core.load_manager.router_switches"] =
        metric(double(base.lm_router_switches), "count");
    metrics["core.load_manager.migration_yield"] = metric(
        base.lm_decisions > 0
            ? double(base.lm_migrations) / double(base.lm_decisions)
            : 0,
        "ratio");
    metrics["core.load_manager.host_imbalance_mean"] =
        metric(base.host_imbalance_mean, "ratio");
    metrics["obs.telemetry_s"] = metric(telemetry_s, "s");
    metrics["fault.retries"] = metric(
        sum_metrics(base.metrics, "counters",
                    [](std::string_view n) {
                      return ends_with(n, ".fault_retries");
                    }),
        "count");
    metrics["tenant.admission_waits"] =
        metric(double(base.admission_waits), "count");
    metrics["tenant.arrivals_build_s"] = metric(
        median(collect(plain, [](const Rep& r) { return r.arrivals_build_s; })),
        "s");
    metrics["gis.rtree_build_s"] = metric(rtree_s, "s");
    metrics["unattributed_s"] = metric(wall - attributed, "s");
    metrics["trace.overhead_s"] = metric(traced_wall - wall, "s");

    std::printf("# layer self time (host s, from spans; share of wall_s "
                "%.4g s)\n", wall);
    for (const auto& sp : spans->spans()) {
      if (sp.parent != root || sp.name == "rep" ||
          sp.name.starts_with("probe.")) {
        continue;
      }
      const double self = spans->self_seconds(sp.id);
      std::printf("#   %-28s %10.4f s  %6.1f%%\n", sp.name.c_str(), self,
                  wall > 0 ? 100.0 * self / wall : 0.0);
    }
    std::printf("#   asu charging less its own dispatch: %.4f s; routing "
                "%.4f s; telemetry %.4f s; unattributed %.4f s\n",
                charge_s, routing_s, telemetry_s, wall - attributed);
    std::printf("# tracing overhead: %.4f s (traced median %.4f s - "
                "untraced median %.4f s, %zu/%zu reps)\n",
                traced_wall - wall, traced_wall, wall, traced.size(),
                plain.size());
    if (!o.spans_path.empty()) {
      if (spans->write(o.spans_path, o.workload)) {
        std::printf("# spans: %s\n", o.spans_path.c_str());
      } else {
        ++attempted;
        ++failed;
        ++problems["could not write " + o.spans_path];
      }
    }
  }

  for (const auto& [what, n] : problems) {
    std::printf("# FAILURE (%zu): %s\n", n, what.c_str());
  }
  Json result = Json::object();
  result["correct"] = failed == 0;
  result["attempted"] = (unsigned long long)(attempted);
  result["failed"] = (unsigned long long)(failed);
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  return failed == 0 ? 0 : 1;
}
