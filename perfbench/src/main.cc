// gqe_perfbench: runs one benchmark workload and prints its metrics as the
// last line of standard output.
//
//   gqe_perfbench --workload omq_guarded --seed 1 --seconds 20 --trace 0
//   gqe_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 alternates untraced and traced rounds of the workload (their
// latency difference is the tracing overhead), then gives each of the
// other workloads a shorter traced slice, so every per-layer metric is
// measured on the workload whose path it lies on. Spans are written to
// .bench_out/trace-<workload>-<seed>.json.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "base/interner.h"
#include "common.h"
#include "workload.h"

namespace perfbench {
namespace {

/// The workloads a traced run gives a slice each, one per path through
/// the layers; serve_one's path is serve_mix's.
const char* const kLayerWorkloads[] = {"omq_guarded", "chase_materialize",
                                       "cqs_query", "serve_mix"};

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "omq_guarded") return MakeOmqGuarded();
  if (name == "chase_materialize") return MakeChaseMaterialize();
  if (name == "cqs_query") return MakeCqsQuery();
  if (name == "serve_mix") return MakeServeMix(/*single=*/false);
  if (name == "serve_one") return MakeServeMix(/*single=*/true);
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gqe_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       gqe_perfbench --self-test\n"
               "workloads: omq_guarded chase_materialize cqs_query "
               "serve_mix serve_one\n");
  return 2;
}

/// Share of a traced run's time given to the selected workload; the rest
/// is split evenly over the other three.
constexpr double kTracedOwnShare = 0.55;

/// The quantile of one request kind's latencies over a run's rounds that
/// stands for that kind. In-process requests are single-threaded CPU
/// work, which other tenants of a shared machine slow by 20-60% in phases
/// lasting seconds; every kind meets such phases in some rounds and not
/// in others, so a low quantile reads the program's own cost where the
/// median of all requests reads how much of the run was slowed.
constexpr double kKindQuantile = 0.1;

struct Latency {
  double p50_ms = 0;
  double p90_ms = 0;
  double rps = 0;
};

/// In-process workloads: quantiles over request kinds of each kind's
/// kKindQuantile latency, and the rate of a round at those latencies.
/// serve_mix: quantiles over all requests, and completed requests per
/// second of wall time of the measured rounds.
Latency Summarize(const RoundLog& log) {
  Latency out;
  if (log.by_kind.empty()) {
    out.p50_ms = Quantile(log.latency_ms, 0.5);
    out.p90_ms = Quantile(log.latency_ms, 0.9);
    out.rps = log.busy_ms > 0 ? static_cast<double>(log.latency_ms.size()) *
                                    1000.0 / log.busy_ms
                              : 0;
    return out;
  }
  std::vector<double> per_kind;
  for (const auto& [kind, ms] : log.by_kind) {
    per_kind.push_back(Quantile(ms, kKindQuantile));
  }
  out.p50_ms = Quantile(per_kind, 0.5);
  out.p90_ms = Quantile(per_kind, 0.9);
  out.rps = static_cast<double>(per_kind.size()) * 1000.0 / Sum(per_kind);
  return out;
}

int Run(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      return Usage();
    }
  }
  if (self_test) {
    const int missed = RunOracleSelfTest(seed);
    std::printf("{\"self_test\": %s, \"unrejected\": %d}\n",
                missed == 0 ? "true" : "false", missed);
    return missed == 0 ? 0 : 1;
  }
  std::unique_ptr<Workload> selected = Make(workload);
  if (selected == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  const std::string out_dir = ".bench_out";
  const std::string work_dir = out_dir + "/" + workload + "-" +
                               std::to_string(::getpid());
  std::filesystem::create_directories(work_dir);

  std::vector<std::unique_ptr<Workload>> all;
  all.push_back(std::move(selected));
  if (trace) {
    for (const std::string other : kLayerWorkloads) {
      if (other != workload &&
          !(other == "serve_mix" && workload == "serve_one")) {
        all.push_back(Make(other));
      }
    }
  }
  Workload& main = *all[0];

  // Set-up: inputs, program files, daemon start-up and one untraced
  // warm-up round per workload. None of it is in the timings below.
  bool ok = true;
  std::string problem;
  for (auto& w : all) {
    std::string error;
    if (!w->Setup(seed, work_dir + "/" + w->name(), &error)) {
      problem = w->name() + " set-up: " + error;
      ok = false;
      break;
    }
    RoundLog warm;
    w->RunRound(nullptr, &warm);
    // serve_mix's digest probe fails every round; a round where every
    // request fails means the workload cannot run.
    if (warm.failed == warm.attempted) {
      problem = w->name() + ": warm-up requests failed";
      ok = false;
      break;
    }
  }
  const double setup_s = MsSince(process_start) / 1000.0;

  Tracer tracer;
  // The selected workload's untraced and traced rounds; in a traced run
  // their latencies differ by the tracing overhead.
  RoundLog untraced, traced;
  double measured_ms = 0;
  if (ok) {
    const double own_ms =
        seconds * 1000.0 * (trace ? kTracedOwnShare : 1.0);
    const auto start = Clock::now();
    for (bool traced_round = false; MsSince(start) < own_ms;
         traced_round = trace && !traced_round) {
      main.RunRound(traced_round ? &tracer : nullptr,
                    traced_round ? &traced : &untraced);
    }
    measured_ms = MsSince(start);
    if (trace) {
      const double slice_ms =
          seconds * 1000.0 * (1.0 - kTracedOwnShare) / (all.size() - 1);
      for (size_t i = 1; i < all.size(); ++i) {
        RoundLog other;
        const auto slice_start = Clock::now();
        do {
          all[i]->RunRound(&tracer, &other);
        } while (MsSince(slice_start) < slice_ms);
        // A slice's wrong outputs show in Check(); its counts stay out of
        // attempted and failed, so that their share is the selected
        // workload's in every run.
      }
    }
  }
  const double peak_rss_mb = main.PeakRssMb();

  for (auto& w : all) {
    const std::string stopped = w->Stop();
    if (ok && !stopped.empty()) {
      problem = w->name() + ": " + stopped;
      ok = false;
    }
  }
  for (auto& w : all) {
    if (!ok) break;
    const std::string why = w->Check();
    if (!why.empty()) {
      problem = why;
      ok = false;
    }
  }
  if (!problem.empty()) std::fprintf(stderr, "perfbench: %s\n", problem.c_str());

  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed;
  const Latency latency = Summarize(untraced);
  Metrics metrics;
  if (!trace) {
    metrics.Set("setup_s", setup_s, "s");
    metrics.Set("latency_p50_ms", latency.p50_ms, "ms");
    metrics.Set("latency_p90_ms", latency.p90_ms, "ms");
    metrics.Set("throughput_rps", latency.rps, "1/s");
    metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    for (auto& w : all) w->ReportLayers(&metrics);
    // The base layer is shared: interner size and this process's memory.
    gqe::Interner& interner = gqe::Interner::Global();
    metrics.Set("base.interned_names",
                static_cast<double>(
                    interner.PoolSize(gqe::Interner::Pool::kConstant) +
                    interner.PoolSize(gqe::Interner::Pool::kVariable) +
                    interner.PoolSize(gqe::Interner::Pool::kPredicate)),
                "count");
    metrics.Set("base.peak_rss_mb", PeakRssMb(), "MB");
    const double base = latency.p50_ms;
    const double overhead = Summarize(traced).p50_ms - base;
    metrics.Set("trace.overhead_ms", overhead, "ms");
    metrics.Set("trace.overhead_pct", base > 0 ? overhead * 100.0 / base : 0.0,
                "%");
    const std::string trace_path = out_dir + "/trace-" + workload + "-" +
                                   std::to_string(seed) + ".json";
    if (!tracer.WriteJson(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
    metrics.Set("trace.spans", static_cast<double>(tracer.size()), "count");
  }
  std::error_code ignored;
  std::filesystem::remove_all(work_dir, ignored);
  std::fprintf(stderr,
               "perfbench: %s seed=%llu measured %.1f s, %llu requests, "
               "set-up %.2f s; over all requests p50 %.3f ms, p90 %.3f ms\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               measured_ms / 1000.0, static_cast<unsigned long long>(attempted),
               setup_s, Quantile(untraced.latency_ms, 0.5),
               Quantile(untraced.latency_ms, 0.9));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      ok ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
