// serve_mix: gqe_serve --listen with --journal-dir and --verify, driven by a
// closed loop of at most nproc connections from this process. Each round
// sends every request template once under a fresh id, plus same-id
// resends of requests completed in the previous round (journal hits).
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "base/subprocess.h"
#include "cqs/evaluation.h"
#include "inputs.h"
#include "net/frame.h"
#include "omq/evaluation.h"
#include "parser/parser.h"
#include "query/evaluation.h"
#include "serve/journal.h"
#include "serve/request.h"
#include "serve/service.h"
#include "serve/worker.h"
#include "verify/verifier.h"
#include "verify/witness.h"
#include "workload.h"

namespace perfbench {
namespace {

/// One kind of request the mix sends every round.
struct Template {
  std::string kind;  // chase | cq | cqs | omq
  std::string program;
  std::string query;
};

struct ProgramFile {
  Spec spec;
  std::string text;
  OrgCounts counts;
};

struct Sent {
  std::string id;
  size_t templ = 0;
  bool resend = false;
  std::string line;
  std::string payload;  // result frame payload
  bool answered = false;
};

struct Connection {
  int fd = -1;
  gqe::FrameDecoder decoder;
  int64_t in_flight = -1;  // index into sent_
  Clock::time_point sent_at;
};

std::map<std::string, std::string> ResultFields(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

Db Prefixed(const Db& db, const std::string& prefix) {
  Db out;
  for (const auto& [pred, tuples] : db.rel) {
    for (Tuple t : tuples) {
      for (std::string& v : t) v = prefix + v;
      out.Add(pred, std::move(t));
    }
  }
  return out;
}

/// A fixed program, the same for every seed, whose first constant in text
/// order sorts last: pr_b is interned before pr_a, so gqe's engines return
/// qp's answers as (pr_b), (pr_a). worker.h documents a result's crc as
/// that of the sorted answer list, which puts (pr_a) first; FoldAnswers
/// digests the engine's order instead, so this request's crc differs from
/// the sorted one every time until that is mended.
Spec DigestProbe() {
  Spec s;
  s.db.Add("probe_link", {"b", "a"});
  s.db.Add("probe_node", {"a"});
  s.db.Add("probe_node", {"b"});
  s.queries.push_back({"qp", {"X"}, {{"probe_node", {"X"}}}});
  return s;
}

class ServeMix : public Workload {
 public:
  /// `single`: one connection instead of min(4, nproc).
  explicit ServeMix(bool single) : single_(single) {}
  ~ServeMix() override { Stop(); }

  std::string name() const override {
    return single_ ? "serve_one" : "serve_mix";
  }

  bool Setup(uint64_t seed, const std::string& work_dir,
             std::string* error) override {
    dir_ = std::filesystem::absolute(work_dir).string();
    std::filesystem::create_directories(dir_ + "/programs");
    // Small programs: engine work stays small, so fork/IPC, the journal,
    // frames and verification on the supervisor are what is measured.
    files_["tc.gqe"].spec = TransitiveClosure(seed, 10, 14);
    files_["org.gqe"].spec = Organisation(seed, 40, &files_["org.gqe"].counts);
    files_["family.gqe"].spec = GuardedFamily(seed, 2);
    files_["company.gqe"].spec = Company(seed, 40);
    files_["probe.gqe"].spec = DigestProbe();
    for (auto& [file, program] : files_) {
      // Constants of different files, and of this workload and the
      // in-process ones, never share a name. This is a workaround for a
      // fault of gqe_serve: a result's crc digests the answers in the
      // engine's order, which follows the daemon's interning order, so
      // with shared names it would depend on which files the daemon had
      // parsed first. With disjoint names that order is the order of a
      // file's own constants, which this process reproduces
      // (Expected::engine_crc). The probe file shows the fault itself.
      program.spec.db = Prefixed(program.spec.db, file.substr(0, 2) + "_");
      program.text = program.spec.Render();
      std::ofstream(dir_ + "/programs/" + file) << program.text;
    }
    // The probe sits second: resends repeat the first, middle and last
    // fresh request of a round, so it is never resent.
    templates_ = {{"chase", "tc.gqe", ""},
                  {"cq", "probe.gqe", "qp"},
                  {"chase", "org.gqe", ""}};
    probe_ = 1;
    probe_expected_.method = "cq";
    probe_expected_.answers = 2;
    probe_expected_.canonical_crc =
        CanonicalCrc("qp", JoinAnswers(files_["probe.gqe"].spec.db,
                                       files_["probe.gqe"].spec.queries[0]));
    for (const char* q : {"qa", "qb", "qc", "qd", "qe"}) {
      templates_.push_back({"omq", "family.gqe", q});
    }
    for (const char* q : {"q1", "q2", "q3", "q4", "q5"}) {
      templates_.push_back({"cqs", "company.gqe", q});
    }
    for (const char* q : {"q1", "q2", "q5"}) {
      templates_.push_back({"cq", "company.gqe", q});
    }
    connections_ =
        single_ ? 1u
                : std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    return StartDaemon(error);
  }

  void RunRound(Tracer* tracer, RoundLog* log) override {
    // This round: every template under a fresh id, then resends of the
    // previous round's first, middle and last requests.
    std::vector<size_t> batch;
    std::vector<size_t> fresh;
    for (size_t t = 0; t < templates_.size(); ++t) {
      Sent s;
      s.id = "r" + std::to_string(round_) + "-" + std::to_string(t);
      s.templ = t;
      s.line = RequestLine(s.id, templates_[t]);
      fresh.push_back(sent_.size());
      batch.push_back(sent_.size());
      sent_.push_back(std::move(s));
    }
    for (size_t prev : previous_round_) {
      Sent s = sent_[prev];
      s.resend = true;
      s.payload.clear();
      s.answered = false;
      batch.push_back(sent_.size());
      sent_.push_back(std::move(s));
    }
    previous_round_ = {fresh.front(), fresh[fresh.size() / 2], fresh.back()};
    ++round_;

    double cpu_self0 = 0, cpu_children0 = 0;
    ProcCpuMs(daemon_pid_, &cpu_self0, &cpu_children0);
    const auto start = Clock::now();
    Drive(batch, tracer, log);
    log->busy_ms += MsSince(start);
    double cpu_self1 = 0, cpu_children1 = 0;
    ProcCpuMs(daemon_pid_, &cpu_self1, &cpu_children1);
    layers_["serve.daemon_cpu_ms"].push_back(cpu_self1 - cpu_self0);
    layers_["serve.worker_cpu_ms"].push_back(cpu_children1 - cpu_children0);
    layers_["serve.round_requests"].push_back(static_cast<double>(batch.size()));
    if (tracer != nullptr) {
      for (size_t index : fresh) Decompose(sent_[index], tracer);
    }
  }

  double PeakRssMb() override {
    return daemon_pid_ > 0 ? perfbench::PeakRssMb(daemon_pid_) : -1.0;
  }

  std::string Stop() override {
    if (daemon_pid_ <= 0) return "";
    for (Connection& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    journal_bytes_ = DirectoryBytes(dir_ + "/journal");
    ::kill(daemon_pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 2000 && !exited; ++i) {
      exited = ::waitpid(daemon_pid_, &status, WNOHANG) == daemon_pid_;
      if (!exited) ::usleep(10000);
    }
    if (!exited) {
      ::kill(daemon_pid_, SIGKILL);
      ::waitpid(daemon_pid_, &status, 0);
    }
    daemon_pid_ = -1;
    if (!exited || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return "daemon did not drain to exit 0";
    }
    return ReadDrainLine();
  }

  std::string Check() override {
    if (!problem_.empty()) return problem_;
    // The daemon's own tallies must match what this client saw.
    uint64_t frames = 0;
    for (const Sent& s : sent_) frames += s.answered ? 1 : 0;
    if (drained_.count("completed") == 0) return "serve_mix: no drain line";
    const uint64_t completed = std::stoull(drained_["completed"]);
    const uint64_t hits = std::stoull(drained_["journal_hits"]);
    if (completed + hits != frames) {
      return "serve_mix: daemon completed+journal_hits " +
             std::to_string(completed + hits) + " != result frames " +
             std::to_string(frames);
    }
    for (const char* zero : {"failed", "shed_overloaded", "shed_shutdown",
                             "degraded", "bad_requests", "protocol_errors"}) {
      if (drained_[zero] != "0") {
        return std::string("serve_mix: daemon reports ") + zero + "=" +
               drained_[zero];
      }
    }
    if (probes_failed_ > 0) {
      std::fprintf(stderr, "perfbench: %s digest probe failed %llu of %llu "
                   "times (counted in failed): %s\n", name().c_str(),
                   static_cast<unsigned long long>(probes_failed_),
                   static_cast<unsigned long long>(probes_),
                   probe_failure_.c_str());
    }
    std::vector<Expected> expected(templates_.size());
    for (size_t t = 0; t < templates_.size(); ++t) {
      if (t == probe_) continue;
      std::string why = Expect(templates_[t], &expected[t]);
      if (!why.empty()) return "serve_mix/" + TemplateName(t) + ": " + why;
    }
    std::map<std::string, const Sent*> first;
    for (const Sent& s : sent_) {
      if (!s.answered) return "serve_mix: no result for " + s.id;
      if (s.resend) {
        auto it = first.find(s.id);
        if (it == first.end() || it->second->payload != s.payload) {
          return "serve_mix: resend of " + s.id + " is not byte-identical";
        }
        continue;
      }
      if (!first.emplace(s.id, &s).second) {
        return "serve_mix: duplicate id " + s.id;
      }
      if (s.templ == probe_) continue;  // checked on arrival
      std::string why = CheckResult(s, &expected[s.templ]);
      if (!why.empty()) return "serve_mix/" + s.id + ": " + why;
    }
    return "";
  }

  void ReportLayers(Metrics* out) override {
    auto med = [&](const char* k) { return Median(layers_[k]); };
    const double requests = Sum(layers_["serve.round_requests"]);
    auto per_request = [&](const char* k) {
      return requests > 0 ? Sum(layers_[k]) / requests : 0.0;
    };
    out->Set("serve.daemon_cpu_ms_per_req", per_request("serve.daemon_cpu_ms"),
             "ms");
    out->Set("serve.worker_cpu_ms_per_req", per_request("serve.worker_cpu_ms"),
             "ms");
    out->Set("serve.spawn_ms", med("serve.spawn_ms"), "ms");
    out->Set("serve.worker_eval_ms", med("serve.worker_eval_ms"), "ms");
    out->Set("serve.journal_append_us", med("serve.journal_append_us"), "us");
    const double admitted =
        drained_.count("admitted") ? std::stod(drained_["admitted"]) : 0.0;
    out->Set("serve.journal_bytes_per_req",
             admitted > 0 ? static_cast<double>(journal_bytes_) / admitted : 0,
             "bytes");
    out->Set("serve.result_decode_us", med("serve.result_decode_us"), "us");
    out->Set("net.frame_encode_us", med("net.frame_encode_us"), "us");
    out->Set("net.frame_decode_us", med("net.frame_decode_us"), "us");
    out->Set("net.bytes_per_req", med("net.bytes_per_req"), "bytes");
    out->Set("verify.check_us", med("verify.check_us"), "us");
    out->Set("serve.completed",
             drained_.count("completed") ? std::stod(drained_["completed"]) : 0,
             "count");
    out->Set("serve.journal_hits",
             drained_.count("journal_hits") ? std::stod(drained_["journal_hits"])
                                            : 0,
             "count");
  }

 private:
  struct Expected {
    uint64_t answers = 0;
    // Query results: the crc of the oracle's answers in sorted order
    // (what worker.h documents), or else of the same answers in the
    // order this process's engine returns them (what FoldAnswers digests
    // today); neither is set for chase results.
    std::optional<uint32_t> canonical_crc;
    std::optional<uint32_t> engine_crc;
    std::string method;
    // Chase programs: every id must report the same instance digest.
    std::string chase_crc;
  };

  std::string TemplateName(size_t t) const {
    const Template& tp = templates_[t];
    return tp.kind + "/" + tp.program + (tp.query.empty() ? "" : "/" + tp.query);
  }

  static std::string RequestLine(const std::string& id, const Template& t) {
    std::string line = "id=" + id + " kind=" + t.kind + " program=" + t.program;
    if (!t.query.empty()) line += " query=" + t.query;
    return line;
  }

  bool StartDaemon(std::string* error) {
    char self[4096];
    const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (len <= 0) {
      *error = "cannot locate own binary";
      return false;
    }
    self[len] = '\0';
    const std::string binary =
        std::filesystem::path(self).parent_path().string() + "/gqe_serve";
    const std::string port_file = dir_ + "/port";
    log_path_ = dir_ + "/daemon.log";
    const std::string concurrency = std::to_string(connections_);
    std::vector<std::string> args = {
        binary, "--listen", "0", "--port-file", port_file,
        "--program-root", dir_ + "/programs", "--journal-dir",
        dir_ + "/journal", "--no-journal-fsync", "--verify",
        "--concurrency", concurrency, "--work-dir", dir_ + "/checkpoints",
        // A traced run of another workload leaves these connections idle
        // for longer than the daemon's default 30 s idle timeout.
        "--idle-timeout-ms", "600000", "--quiet-ops"};
    daemon_pid_ = ::fork();
    if (daemon_pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (daemon_pid_ == 0) {
      const int log_fd = ::open(log_path_.c_str(),
                                O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, 1);
        ::dup2(log_fd, 2);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    int port = 0;
    for (int i = 0; i < 1000 && port == 0; ++i) {
      std::ifstream in(port_file);
      if (!(in >> port)) port = 0;
      if (port == 0) ::usleep(10000);
    }
    if (port == 0) {
      *error = "daemon did not report a port (see " + log_path_ + ")";
      return false;
    }
    conns_.resize(connections_);
    for (Connection& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        *error = "connect failed";
        return false;
      }
    }
    // Ready means answering: one PING/PONG round trip.
    if (!WriteAll(conns_[0].fd, gqe::EncodeFrame(gqe::FrameType::kPing, "up"))) {
      *error = "ping failed";
      return false;
    }
    gqe::Frame frame;
    if (!ReadFrame(conns_[0], &frame, 10000) ||
        frame.type != gqe::FrameType::kPong) {
      *error = "no PONG";
      return false;
    }
    for (const auto& [file, program] : files_) {
      parsed_[file] = gqe::ParseProgram(program.text).program;
    }
    return true;
  }

  bool ReadFrame(Connection& c, gqe::Frame* frame, int timeout_ms) {
    std::string error;
    while (true) {
      const auto r = c.decoder.Next(frame, &error);
      if (r == gqe::FrameDecoder::Result::kFrame) return true;
      if (r == gqe::FrameDecoder::Result::kError) return false;
      pollfd p{c.fd, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return false;
      char buffer[65536];
      const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
      if (n <= 0) return false;
      c.decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    }
  }

  /// Closed loop over the connections until every request of the batch
  /// has its result frame.
  void Drive(const std::vector<size_t>& batch, Tracer* tracer, RoundLog* log) {
    size_t next = 0, done = 0;
    while (done < batch.size()) {
      for (Connection& c : conns_) {
        if (c.in_flight >= 0 || next >= batch.size()) continue;
        Sent& s = sent_[batch[next++]];
        const int64_t request = static_cast<int64_t>(&s - sent_.data());
        ++log->attempted;
        std::string bytes;
        c.sent_at = Clock::now();
        {
          Scope span(tracer, "net.EncodeFrame", request);
          bytes = gqe::EncodeFrame(gqe::FrameType::kRequest, s.line);
          if (tracer) {
            layers_["net.frame_encode_us"].push_back(span.Close() * 1000.0);
          }
        }
        if (!WriteAll(c.fd, bytes)) {
          Fail(log, "send failed");
          return;
        }
        c.in_flight = request;
        if (tracer) bytes_out_[request] = bytes.size();
      }
      std::vector<pollfd> fds;
      for (Connection& c : conns_) fds.push_back({c.fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 30000) <= 0) {
        Fail(log, "no response within 30 s");
        return;
      }
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Connection& c = conns_[i];
        char buffer[65536];
        const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
        if (n <= 0) {
          Fail(log, "connection closed by daemon");
          return;
        }
        gqe::Frame frame;
        std::string error;
        gqe::FrameDecoder::Result r;
        {
          Scope span(tracer, "net.FrameDecoder", c.in_flight);
          c.decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
          r = c.decoder.Next(&frame, &error);
          if (tracer && r == gqe::FrameDecoder::Result::kFrame) {
            layers_["net.frame_decode_us"].push_back(span.Close() * 1000.0);
          }
        }
        if (r == gqe::FrameDecoder::Result::kNeedMore) continue;
        if (r == gqe::FrameDecoder::Result::kError || c.in_flight < 0) {
          Fail(log, "bad frame: " + error);
          return;
        }
        const double ms = MsSince(c.sent_at);
        Sent& s = sent_[c.in_flight];
        if (tracer) {
          layers_["net.bytes_per_req"].push_back(
              static_cast<double>(bytes_out_[c.in_flight] +
                                  gqe::kFrameHeaderSize +
                                  frame.payload.size()));
        }
        c.in_flight = -1;
        ++done;
        if (frame.type != gqe::FrameType::kResult) {
          ++log->failed;
          if (problem_.empty()) problem_ = "serve_mix: " + frame.payload;
          continue;
        }
        s.payload = std::move(frame.payload);
        s.answered = true;
        if (s.templ == probe_) {
          // Fails every time today (see DigestProbe): counted as failed,
          // not as a wrong output.
          ++probes_;
          const std::string why = CheckResult(s, &probe_expected_);
          if (!why.empty()) {
            ++log->failed;
            ++probes_failed_;
            probe_failure_ = why;
            continue;
          }
        }
        log->latency_ms.push_back(ms);
      }
    }
  }

  void Fail(RoundLog* log, const std::string& what) {
    ++log->failed;
    if (problem_.empty()) problem_ = "serve_mix: " + what;
    for (Connection& c : conns_) c.in_flight = -1;
  }

  /// Replays one completed request through the serving layers' public
  /// functions in this process: journal append, fork, worker evaluation,
  /// result decoding and witness verification.
  void Decompose(const Sent& s, Tracer* tracer) {
    const int64_t request = static_cast<int64_t>(&s - sent_.data());
    const Template& t = templates_[s.templ];
    Scope decompose(tracer, "decompose", request);
    gqe::EvalRequest eval;
    std::string error;
    gqe::Manifest manifest;
    if (!gqe::ParseManifest(s.line, dir_ + "/programs", &manifest, &error) ||
        manifest.requests.size() != 1) {
      if (problem_.empty()) problem_ = "serve_mix: manifest: " + error;
      return;
    }
    eval = manifest.requests[0];

    if (!journal_.open()) {
      gqe::JournalOptions options;
      options.fsync_each_record = false;  // as the daemon runs
      journal_.Open(dir_ + "/trace-journal", options, nullptr);
    }
    {
      Scope span(tracer, "serve.RequestJournal::Append", request);
      journal_.AppendAdmitted(s.id, gqe::FormatRequestLine(eval));
      journal_.AppendResult(s.id, gqe::TerminalState::kCompleted, s.payload,
                            std::string());
      layers_["serve.journal_append_us"].push_back(span.Close() * 1000.0);
    }
    {
      Scope span(tracer, "serve.WorkerProcess::Spawn", request);
      gqe::WorkerProcess worker;
      std::string spawn_error;
      const bool spawned = gqe::WorkerProcess::Spawn(
          gqe::WorkerLimits{}, [](int, int) { return 0; }, &worker,
          &spawn_error);
      if (spawned) worker.WaitReaped(5000);
      layers_["serve.spawn_ms"].push_back(span.Close());
    }
    gqe::WorkerInvocation invocation;
    invocation.request = eval;
    invocation.collect_witness = true;
    std::string bytes;
    {
      Scope span(tracer, "serve.RunWorkerInProcess", request);
      FILE* sink = std::fopen((dir_ + "/worker-result").c_str(), "w+b");
      if (sink == nullptr) return;
      gqe::RunWorkerInProcess(invocation, ::fileno(sink), -1);
      layers_["serve.worker_eval_ms"].push_back(span.Close());
      std::fflush(sink);
      std::rewind(sink);
      char buffer[65536];
      size_t n;
      while ((n = std::fread(buffer, 1, sizeof(buffer), sink)) > 0) {
        bytes.append(buffer, n);
      }
      std::fclose(sink);
    }
    gqe::WorkerResult result;
    {
      Scope span(tracer, "serve.DecodeWorkerResult", request);
      const bool ok = gqe::DecodeWorkerResult(bytes, &result).ok();
      layers_["serve.result_decode_us"].push_back(span.Close() * 1000.0);
      if (!ok) {
        if (problem_.empty()) problem_ = "serve_mix: undecodable worker result";
        return;
      }
    }
    {
      Scope span(tracer, "verify.check", request);
      const bool ok = VerifyWitness(t, result);
      layers_["verify.check_us"].push_back(span.Close() * 1000.0);
      if (!ok && problem_.empty()) {
        problem_ = "serve_mix: witness rejected for " + s.id;
      }
    }
  }

  /// The supervisor's --verify checks, called through the verify layer.
  bool VerifyWitness(const Template& t, const gqe::WorkerResult& result) {
    const gqe::Program& program = parsed_.at(t.program);
    gqe::EvalWitness witness;
    if (!gqe::DecodeEvalWitnessFromString(result.witness, &witness).ok()) {
      return false;
    }
    gqe::Instance replayed;
    const gqe::Instance* target = &program.database;
    if (witness.kind == gqe::EvalWitness::Kind::kDerivation ||
        witness.kind == gqe::EvalWitness::Kind::kChaseAndAnswers) {
      gqe::DerivationCheckOptions options;
      options.check_model = witness.kind == gqe::EvalWitness::Kind::kDerivation;
      if (!gqe::VerifyDerivation(program.database, program.tgds,
                                 witness.derivation, &replayed, options)
               .ok()) {
        return false;
      }
      target = &replayed;
    }
    for (const gqe::HomWitness& hom : witness.answers) {
      auto q = program.queries.find(hom.query);
      if (q == program.queries.end()) return false;
      if (!gqe::VerifyHomomorphism(q->second, *target, hom).ok()) return false;
    }
    return true;
  }

  std::string ReadDrainLine() {
    std::ifstream in(log_path_);
    std::string line, last;
    while (std::getline(in, line)) {
      if (line.find("drained") != std::string::npos) last = line;
    }
    const size_t at = last.find("net:");
    if (at == std::string::npos) return "no drain line in daemon log";
    std::istringstream fields(last.substr(at + 4));
    std::string token;
    while (fields >> token) {
      const size_t eq = token.find('=');
      if (eq != std::string::npos) {
        drained_[token.substr(0, eq)] = token.substr(eq + 1);
      }
    }
    return "";
  }

  /// What a template's result must report, from the oracles. The answer
  /// set must equal the oracle's (lie within its sandwich for omq); the
  /// engine is run here only for the order FoldAnswers digests today.
  std::string Expect(const Template& t, Expected* e) {
    const ProgramFile& file = files_.at(t.program);
    const gqe::Program& program = parsed_.at(t.program);
    if (t.kind == "chase") {
      if (file.spec.db.rel.count("edge")) {
        e->answers = file.spec.db.Size() +
                     Reachability(file.spec.db.rel.at("edge")).size();
      } else {
        e->answers = file.counts.facts;
      }
      e->method = "chase";
      return "";
    }
    const gqe::UCQ& ucq = program.queries.at(t.query);
    const Query* query = nullptr;
    for (const Query& q : file.spec.queries) {
      if (q.name == t.query) query = &q;
    }
    std::vector<std::vector<gqe::Term>> answers;
    std::string why;
    gqe::WitnessOptions witness;
    witness.collect = true;
    if (t.kind == "omq") {
      gqe::OmqEvalOptions options;
      options.witness = witness;
      answers = gqe::EvaluateOmq(gqe::Omq::WithFullDataSchema(program.tgds, ucq),
                                 program.database, options)
                    .answers;
      TupleSet lower, upper;
      OpenWorldBounds(file.spec, *query, kGuardedLowerLevel, &lower, &upper);
      why = CheckSandwich(lower, AsSet(answers), upper);
      e->method = "guarded-portion";
    } else {
      if (t.kind == "cq") {
        std::vector<gqe::HomWitness> homs;
        answers = gqe::EvaluateUCQWithWitnesses(ucq, program.database, &homs);
      } else {
        answers = gqe::EvaluateCqs(gqe::Cqs{program.tgds, ucq},
                                   program.database, true, nullptr, witness)
                      .answers;
      }
      why = CheckEqual(JoinAnswers(file.spec.db, *query), AsSet(answers));
      e->method = t.kind;
    }
    if (!why.empty()) return why;
    std::vector<Tuple> ordered;
    for (const auto& a : answers) ordered.push_back(AsTuple(a));
    e->answers = ordered.size();
    // The set passed the oracle above (for omq the sandwich's bounds meet).
    e->canonical_crc = CanonicalCrc(t.query, AsSet(answers));
    e->engine_crc = Crc32(AnswerDigest(t.query, ordered));
    return "";
  }

  std::string CheckResult(const Sent& s, Expected* e) {
    std::map<std::string, std::string> f = ResultFields(s.payload);
    if (f["id"] != s.id) return "result names id " + f["id"];
    if (f["state"] != "completed") return "state " + f["state"];
    if (f["status"] != "completed") return "status " + f["status"];
    if (f["exact"] != "yes") return "not exact";
    if (f["verified"] != "yes") return "not verified";
    if (f["method"] != e->method) return "method " + f["method"];
    if (f["answers"] != std::to_string(e->answers)) {
      return "answers=" + f["answers"] + ", oracle " +
             std::to_string(e->answers);
    }
    if (e->canonical_crc) {
      const std::string sorted = Hex(*e->canonical_crc);
      if (f["crc"] != sorted &&
          !(e->engine_crc && f["crc"] == Hex(*e->engine_crc))) {
        return "crc " + f["crc"] + ", oracle (sorted answers) " + sorted;
      }
    } else if (e->chase_crc.empty()) {
      e->chase_crc = f["crc"];
    } else if (e->chase_crc != f["crc"]) {
      return "instance digest differs between requests";
    }
    return "";
  }

  static std::string Hex(uint32_t crc) {
    char text[16];
    std::snprintf(text, sizeof(text), "%08x", crc);
    return text;
  }
  static uint32_t CanonicalCrc(const std::string& query,
                               const TupleSet& answers) {
    return Crc32(AnswerDigest(query, {answers.begin(), answers.end()}));
  }

  static Tuple AsTuple(const std::vector<gqe::Term>& terms) {
    Tuple out;
    for (gqe::Term t : terms) out.push_back(t.ToString());
    return out;
  }
  static TupleSet AsSet(const std::vector<std::vector<gqe::Term>>& answers) {
    TupleSet out;
    for (const auto& a : answers) out.insert(AsTuple(a));
    return out;
  }

  std::string dir_;
  std::string log_path_;
  std::map<std::string, ProgramFile> files_;
  std::map<std::string, gqe::Program> parsed_;
  std::vector<Template> templates_;
  size_t probe_ = 0;
  Expected probe_expected_;
  uint64_t probes_ = 0;
  uint64_t probes_failed_ = 0;
  std::string probe_failure_;
  bool single_ = false;
  unsigned connections_ = 1;
  std::vector<Connection> conns_;
  pid_t daemon_pid_ = -1;
  std::vector<Sent> sent_;
  std::vector<size_t> previous_round_;
  std::map<int64_t, size_t> bytes_out_;
  uint64_t round_ = 0;
  uint64_t journal_bytes_ = 0;
  std::map<std::string, std::string> drained_;
  gqe::RequestJournal journal_;
  std::string problem_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix(bool single) {
  return std::make_unique<ServeMix>(single);
}

}  // namespace perfbench
