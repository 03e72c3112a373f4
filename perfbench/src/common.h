// Shared pieces of the gqe benchmark binary: clocks, sample statistics,
// the metric sink, the in-memory span tracer and /proc readers.
#ifndef GQE_PERFBENCH_COMMON_H_
#define GQE_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Interpolated quantile of `values` (q in [0,1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Metrics printed in the final JSON line, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One span around a call into a layer, recorded by the benchmark's own
/// code (the program carries no tracing). Times are microseconds since the
/// tracer was created.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  int64_t request = -1;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name, int64_t request);
  void End(int index);
  size_t size() const { return spans_.size(); }
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that also times itself: Close() returns its duration with or
/// without a tracer, and a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int64_t request = -1)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(name, request) : -1),
        start_(Clock::now()) {}
  ~Scope() { Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Ends the span early and returns its duration in ms.
  double Close() {
    if (!closed_) {
      closed_ = true;
      ms_ = MsSince(start_);
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    return ms_;
  }

 private:
  Tracer* tracer_;
  int index_;
  Clock::time_point start_;
  bool closed_ = false;
  double ms_ = 0;
};

/// Per-layer samples gathered from traced requests, keyed by metric name.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Peak resident set (VmHWM) of `pid` (0 = self) in MB; -1 if unreadable.
double PeakRssMb(int pid = 0);
/// utime+stime and cutime+cstime of `pid` in ms, from /proc/<pid>/stat.
bool ProcCpuMs(int pid, double* self_ms, double* children_ms);

/// CRC-32 (IEEE, reflected, as zlib) written here so result digests can
/// be recomputed without the program's codec.
uint32_t Crc32(const std::string& data);

/// 64-bit mixer for seeded input generation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ull) {}
  uint64_t Next();
  uint32_t Below(uint32_t bound) {
    return bound == 0 ? 0 : static_cast<uint32_t>(Next() % bound);
  }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // GQE_PERFBENCH_COMMON_H_
