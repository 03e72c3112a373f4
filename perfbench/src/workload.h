// The benchmark workloads behind one interface.
#ifndef GQE_PERFBENCH_WORKLOAD_H_
#define GQE_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// What the measured phase of a run gathered.
struct RoundLog {
  std::vector<double> latency_ms;  // one per completed request
  // In-process workloads: the same latencies keyed by request kind (the
  // index of the input program in the round).
  std::map<size_t, std::vector<double>> by_kind;
  double busy_ms = 0;              // wall time spent inside requests
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Generates the seeded inputs (and, for serving, writes the program
  /// files and starts the daemon). Warm-up is a separate untraced round.
  virtual bool Setup(uint64_t seed, const std::string& work_dir,
                     std::string* error) = 0;
  /// Runs every request of one round once, in the fixed interleaved
  /// order. With a tracer, records spans around each call into a layer
  /// and appends per-layer samples.
  virtual void RunRound(Tracer* tracer, RoundLog* log) = 0;
  /// Checks every output seen against the independent oracles. Returns
  /// an empty string when all agree.
  virtual std::string Check() = 0;
  /// Peak resident memory of the evaluating process, in MB.
  virtual double PeakRssMb() = 0;
  /// Stops anything Setup started; returns "" or a problem found there.
  virtual std::string Stop() { return ""; }
  /// Per-layer metrics this workload owns, from its traced rounds.
  virtual void ReportLayers(Metrics* out) = 0;

 protected:
  LayerSamples layers_;
};

std::unique_ptr<Workload> MakeOmqGuarded();
std::unique_ptr<Workload> MakeChaseMaterialize();
std::unique_ptr<Workload> MakeCqsQuery();
/// serve_mix over min(4, nproc) connections, or over one (serve_one).
std::unique_ptr<Workload> MakeServeMix(bool single);

/// Feeds each oracle a perturbed answer set (one answer dropped, one
/// non-answer added; Boolean answers flipped) and returns the number of perturbations it failed
/// to reject; prints one line per case to stderr.
int RunOracleSelfTest(uint64_t seed);

}  // namespace perfbench

#endif  // GQE_PERFBENCH_WORKLOAD_H_
