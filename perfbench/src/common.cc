#include "common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  char buffer[64];
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + order_[i] + "\": {\"value\": " + buffer + ", \"unit\": \"" +
           unit + "\"}";
  }
  return out + "}";
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  spans_[index].end_us = NowUs();
  // Spans nest strictly; tolerate an out-of-order close by unwinding.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  char buffer[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"request\": %lld}",
                  i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                  static_cast<long long>(s.request));
    out << buffer << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

bool ProcCpuMs(int pid, double* self_ms, double* children_ms) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!std::getline(in, text)) return false;
  // The command name may contain spaces; fields resume after its ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(text.substr(close + 2));
  std::vector<std::string> f;
  std::string token;
  while (fields >> token) f.push_back(token);
  // After ')': state(3) ... utime(14) stime(15) cutime(16) cstime(17),
  // i.e. indices 11..14 of this tail.
  if (f.size() < 15) return false;
  const double tick_ms = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  *self_ms = (std::stod(f[11]) + std::stod(f[12])) * tick_ms;
  *children_ms = (std::stod(f[13]) + std::stod(f[14])) * tick_ms;
  return true;
}

uint32_t Crc32(const std::string& data) {
  static uint32_t table[256];
  static bool ready = false;
  if (!ready) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    ready = true;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char ch : data) crc = (crc >> 8) ^ table[(crc ^ ch) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

uint64_t Rng::Next() {
  // splitmix64
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
