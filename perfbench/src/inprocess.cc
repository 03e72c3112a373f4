// The in-process workloads: omq_guarded, chase_materialize and cqs_query.
// A request is one program text turned into final answers: ParseProgram
// plus the engine call, timed together with threads=1.
#include <algorithm>
#include <functional>

#include "chase/chase.h"
#include "cqs/evaluation.h"
#include "guarded/chase_tree.h"
#include "guarded/saturation.h"
#include "inputs.h"
#include "omq/evaluation.h"
#include "parser/parser.h"
#include "query/evaluation.h"
#include "workload.h"

namespace perfbench {

namespace {

Tuple Names(const std::vector<gqe::Term>& terms) {
  Tuple out;
  out.reserve(terms.size());
  for (gqe::Term t : terms) out.push_back(t.ToString());
  return out;
}

TupleSet ToSet(const std::vector<std::vector<gqe::Term>>& answers) {
  TupleSet out;
  for (const auto& a : answers) out.insert(Names(a));
  return out;
}

/// Order-independent digest of an answer list, so repeated requests can
/// be compared with the first (oracle-checked) one cheaply.
uint64_t Fingerprint(const std::vector<std::vector<gqe::Term>>& answers) {
  uint64_t sum = answers.size();
  for (const auto& a : answers) {
    std::string text;
    for (gqe::Term t : a) text += t.ToString() + ",";
    sum += std::hash<std::string>()(text) * 0x9e3779b97f4a7c15ull;
  }
  return sum;
}

size_t MaxQueryVariables(const gqe::UCQ& query) {
  size_t max_vars = 0;
  for (const gqe::CQ& cq : query.disjuncts()) {
    max_vars = std::max(max_vars, cq.AllVariables().size());
  }
  return max_vars;
}

/// One input program of an in-process workload.
struct Program {
  std::string label;
  Spec spec;
  std::string text;
  // Outputs of the first measured request (checked against the oracle)
  // and the fingerprint every later request must reproduce.
  bool seen = false;
  TupleSet first;
  uint64_t fingerprint = 0;
  size_t facts = 0;
  size_t nulls = 0;
  std::string problem;
  OrgCounts counts;  // chase_materialize organisation programs only
};

void Observe(Program* p, uint64_t fingerprint,
             const std::function<TupleSet()>& answers) {
  if (!p->seen) {
    p->seen = true;
    p->fingerprint = fingerprint;
    p->first = answers();
  } else if (p->fingerprint != fingerprint && p->problem.empty()) {
    p->problem = p->label + ": output differs between repeated requests";
  }
}

void Flag(Program* p, const std::string& what) {
  if (p->problem.empty()) p->problem = p->label + ": " + what;
}

class InProcessWorkload : public Workload {
 public:
  double PeakRssMb() override { return perfbench::PeakRssMb(); }

  void RunRound(Tracer* tracer, RoundLog* log) override {
    for (size_t i = 0; i < programs_.size(); ++i) {
      Program& p = programs_[i];
      const int64_t id = static_cast<int64_t>(next_request_++);
      ++log->attempted;
      const double ms = Request(p, tracer, id);
      if (ms < 0) {
        ++log->failed;
        Flag(&p, "request failed");
        continue;
      }
      log->latency_ms.push_back(ms);
      log->by_kind[i].push_back(ms);
      log->busy_ms += ms;
    }
  }

  std::string Check() override {
    for (Program& p : programs_) {
      if (!p.problem.empty()) return p.problem;
      if (!p.seen) continue;
      std::string why = CheckProgram(p);
      if (!why.empty()) return p.label + ": " + why;
    }
    return "";
  }

 protected:
  /// Times one request; returns its latency in ms, or -1 on failure.
  /// With a tracer, records spans around its calls into the layers and
  /// then decomposes the engine call into its layers, outside the timed
  /// request.
  virtual double Request(Program& p, Tracer* tracer, int64_t id) = 0;
  virtual std::string CheckProgram(Program& p) = 0;

  void Sample(const std::string& name, double value) {
    layers_[name].push_back(value);
  }

  std::vector<Program> programs_;
  uint64_t next_request_ = 0;
};

// --- omq_guarded ----------------------------------------------------------

class OmqGuarded : public InProcessWorkload {
 public:
  std::string name() const override { return "omq_guarded"; }

  bool Setup(uint64_t seed, const std::string&, std::string*) override {
    // Sizes interleave fastest, so a slow phase of the machine spreads
    // over all of them; eight sizes put the latency quantiles inside a
    // dense spread of request costs.
    const int sizes[] = {2, 4, 6, 8, 10, 12, 14, 16};
    std::vector<Spec> families;
    for (int n : sizes) families.push_back(GuardedFamily(seed, n));
    const size_t queries = families[0].queries.size();
    for (size_t q = 0; q < queries; ++q) {
      for (size_t f = 0; f < families.size(); ++f) {
        Program p;
        p.spec = families[f];
        p.spec.queries = {families[f].queries[q]};
        p.label = "omq_guarded/n" + std::to_string(sizes[f]) + "/" +
                  p.spec.queries[0].name;
        p.text = p.spec.Render();
        programs_.push_back(std::move(p));
      }
    }
    return true;
  }

  void ReportLayers(Metrics* out) override {
    auto med = [&](const char* k) { return Median(layers_[k]); };
    out->Set("omq.eval_ms", med("omq.eval_ms"), "ms");
    out->Set("guarded.saturation_ms", med("guarded.saturation_ms"), "ms");
    out->Set("guarded.shapes", med("guarded.shapes"), "count");
    out->Set("guarded.ground_facts", med("guarded.ground_facts"), "count");
    out->Set("guarded.unfold_ms", med("guarded.unfold_ms"), "ms");
    out->Set("guarded.bags", med("guarded.bags"), "count");
    out->Set("guarded.blocked_bags", med("guarded.blocked_bags"), "count");
    out->Set("guarded.portion_facts", med("guarded.portion_facts"), "count");
    out->Set("guarded.portion_query_ms", med("guarded.portion_query_ms"),
             "ms");
  }

 protected:
  double Request(Program& p, Tracer* tracer, int64_t id) override {
    Scope request(tracer, "request", id);
    gqe::ParseResult parsed;
    {
      Scope s(tracer, "parser.ParseProgram", id);
      parsed = gqe::ParseProgram(p.text);
    }
    if (!parsed.ok) return -1;
    const auto& [qname, ucq] = *parsed.program.queries.begin();
    gqe::Omq omq = gqe::Omq::WithFullDataSchema(parsed.program.tgds, ucq);
    gqe::OmqEvalResult result;
    {
      Scope s(tracer, "omq.EvaluateOmq", id);
      result = gqe::EvaluateOmq(omq, parsed.program.database);
      if (tracer) Sample("omq.eval_ms", s.Close());
    }
    const double ms = request.Close();
    Record(p, result);
    if (tracer == nullptr) return ms;

    // Decomposition of the guarded-portion method through the guarded
    // layer's public entry points, on the same input.
    Scope decompose(tracer, "decompose", id);
    const gqe::Instance& db = parsed.program.database;
    const gqe::TgdSet& sigma = parsed.program.tgds;
    double saturation_ms = 0;
    {
      Scope s(tracer, "guarded.GroundSaturation", id);
      gqe::TypeClosureEngine engine(sigma);
      gqe::Instance saturated = gqe::GroundSaturation(db, sigma, &engine);
      saturation_ms = s.Close();
      Sample("guarded.shapes", static_cast<double>(engine.num_shapes()));
      Sample("guarded.ground_facts", static_cast<double>(saturated.size()));
    }
    Sample("guarded.saturation_ms", saturation_ms);
    gqe::ChaseTree tree;
    {
      Scope s(tracer, "guarded.BuildChaseTree", id);
      gqe::ChaseTreeOptions options;
      // The blocking depth EvaluateOmq's guarded path uses: query
      // variables plus one repeat of slack.
      options.blocking_repeats = static_cast<int>(MaxQueryVariables(ucq)) + 1;
      tree = gqe::BuildChaseTree(db, sigma, options);
      Sample("guarded.unfold_ms", s.Close() - saturation_ms);
    }
    size_t blocked = 0;
    for (const gqe::ChaseBag& bag : tree.bags) blocked += bag.blocked ? 1 : 0;
    Sample("guarded.bags", static_cast<double>(tree.bags.size()));
    Sample("guarded.blocked_bags", static_cast<double>(blocked));
    Sample("guarded.portion_facts", static_cast<double>(tree.portion.size()));
    {
      Scope s(tracer, "query.EvaluateUCQ", id);
      gqe::EvaluateUCQ(ucq, tree.portion);
      Sample("guarded.portion_query_ms", s.Close());
    }
    return ms;
  }

  std::string CheckProgram(Program& p) override {
    TupleSet lower, upper;
    OpenWorldBounds(p.spec, p.spec.queries[0], kGuardedLowerLevel, &lower,
                    &upper);
    std::string why = CheckSandwich(lower, p.first, upper);
    if (!why.empty()) return why;
    if (lower == upper) ++bounds_met_;
    return "";
  }

  std::string Check() override {
    const std::string why = InProcessWorkload::Check();
    std::fprintf(stderr, "perfbench: open-world bounds met on %d of %zu "
                 "omq_guarded programs\n", bounds_met_, programs_.size());
    return why;
  }

 private:
  void Record(Program& p, const gqe::OmqEvalResult& result) {
    if (result.method != "guarded-portion") Flag(&p, "method " + result.method);
    if (!result.exact || result.partial) Flag(&p, "answers not exact");
    Observe(&p, Fingerprint(result.answers),
            [&] { return ToSet(result.answers); });
  }

  int bounds_met_ = 0;
};

// --- chase_materialize ----------------------------------------------------

class ChaseMaterialize : public InProcessWorkload {
 public:
  std::string name() const override { return "chase_materialize"; }

  bool Setup(uint64_t seed, const std::string&, std::string*) override {
    // Eight sizes of each family, interleaved, so the latency quantiles
    // fall inside a dense spread of request costs rather than in the gap
    // between two clusters.
    for (int i = 1; i <= 8; ++i) {
      const int nodes = 18 + 12 * i;
      Program tc;
      tc.spec = TransitiveClosure(seed, nodes, nodes * 5 / 2);
      tc.label = "chase_materialize/tc" + std::to_string(nodes);
      tc.text = tc.spec.Render();
      programs_.push_back(std::move(tc));
      const int employees = 750 * i;
      Program org;
      org.spec = Organisation(seed, employees, &org.counts);
      org.label = "chase_materialize/org" + std::to_string(employees);
      org.text = org.spec.Render();
      programs_.push_back(std::move(org));
    }
    return true;
  }

  void ReportLayers(Metrics* out) override {
    auto med = [&](const char* k) { return Median(layers_[k]); };
    const double fired = Sum(layers_["chase.triggers_fired"]);
    const double candidates = Sum(layers_["chase.candidates"]);
    out->Set("chase.merge_ms", med("chase.merge_ms"), "ms");
    out->Set("chase.discovery_ms", med("chase.discovery_ms"), "ms");
    out->Set("chase.trigger_yield", candidates > 0 ? fired / candidates : 0,
             "ratio");
    const double chase_ms = Sum(layers_["chase.chase_ms"]);
    out->Set("chase.facts_per_s",
             chase_ms > 0 ? Sum(layers_["chase.facts"]) * 1000.0 / chase_ms
                          : 0,
             "1/s");
    out->Set("chase.rounds", med("chase.rounds"), "count");
    out->Set("chase.candidates", med("chase.candidates"), "count");
    out->Set("chase.triggers_fired", med("chase.triggers_fired"), "count");
    out->Set("chase.facts", med("chase.facts"), "count");
  }

 protected:
  double Request(Program& p, Tracer* tracer, int64_t id) override {
    Scope request(tracer, "request", id);
    gqe::ParseResult parsed;
    {
      Scope s(tracer, "parser.ParseProgram", id);
      parsed = gqe::ParseProgram(p.text);
    }
    if (!parsed.ok) return -1;
    gqe::ChaseResult result;
    {
      Scope s(tracer, "chase.Chase", id);
      result = gqe::Chase(parsed.program.database, parsed.program.tgds);
      if (tracer) Sample("chase.chase_ms", s.Close());
    }
    const double ms = request.Close();
    Record(p, result);
    if (tracer == nullptr) return ms;
    double merge = 0, discovery = 0, candidates = 0;
    for (const gqe::ChaseRoundStats& r : result.round_stats) {
      merge += r.merge_ms;
      discovery += r.discovery_ms;
      candidates += static_cast<double>(r.candidates);
    }
    Sample("chase.merge_ms", merge);
    Sample("chase.discovery_ms", discovery);
    Sample("chase.candidates", candidates);
    Sample("chase.triggers_fired", static_cast<double>(result.triggers_fired));
    Sample("chase.rounds", static_cast<double>(result.round_stats.size()));
    Sample("chase.facts", static_cast<double>(result.instance.size()));
    return ms;
  }

  std::string CheckProgram(Program& p) override {
    if (p.spec.db.rel.count("edge")) {
      const TupleSet want = Reachability(p.spec.db.rel.at("edge"));
      std::string why = CheckEqual(want, p.first);
      if (!why.empty()) return why;
      if (p.facts != p.spec.db.Size() + want.size()) return "fact count";
      return "";
    }
    return CheckCounts(p.counts, p.facts, p.nulls);
  }

 private:
  void Record(Program& p, const gqe::ChaseResult& result) {
    if (!result.complete) Flag(&p, "chase not complete");
    // The path facts are the answers of a transitive-closure program; an
    // organisation program is checked by its fact and null counts.
    std::vector<std::vector<gqe::Term>> answers;
    std::set<uint32_t> nulls;
    const gqe::PredicateId path = gqe::predicates::Lookup("path");
    for (const gqe::Atom& atom : result.instance.atoms()) {
      if (atom.predicate() == path) answers.push_back(atom.args());
      for (gqe::Term t : atom.args()) {
        if (t.kind() == gqe::Term::Kind::kNull) nulls.insert(t.bits());
      }
    }
    const bool first = !p.seen;
    Observe(&p, Fingerprint(answers) + result.instance.size() * 31 +
                    nulls.size(),
            [&] { return ToSet(answers); });
    if (first) {
      p.facts = result.instance.size();
      p.nulls = nulls.size();
    }
  }
};

// --- cqs_query --------------------------------------------------------------

class CqsQuery : public InProcessWorkload {
 public:
  std::string name() const override { return "cqs_query"; }

  bool Setup(uint64_t seed, const std::string&, std::string*) override {
    const int sizes[] = {600, 900, 1200, 1500, 1800, 2100, 2400, 2700};
    std::vector<Spec> dbs;
    for (int n : sizes) dbs.push_back(Company(seed, n));
    for (size_t q = 0; q < dbs[0].queries.size(); ++q) {
      for (size_t d = 0; d < dbs.size(); ++d) {
        Program p;
        p.spec = dbs[d];
        p.spec.queries = {dbs[d].queries[q]};
        p.label = "cqs_query/n" + std::to_string(sizes[d]) + "/" +
                  p.spec.queries[0].name;
        p.text = p.spec.Render();
        programs_.push_back(std::move(p));
      }
    }
    return true;
  }

  void ReportLayers(Metrics* out) override {
    auto med = [&](const char* k) { return Median(layers_[k]); };
    out->Set("parser.parse_ms", med("parser.parse_ms"), "ms");
    const double parse_ms = Sum(layers_["parser.parse_ms"]);
    out->Set("parser.mb_per_s",
             parse_ms > 0
                 ? Sum(layers_["parser.bytes"]) / 1e6 / (parse_ms / 1000.0)
                 : 0,
             "MB/s");
    out->Set("cqs.promise_ms", med("cqs.promise_ms"), "ms");
    out->Set("query.eval_ms", med("query.eval_ms"), "ms");
    const double eval_ms = Sum(layers_["query.eval_ms"]);
    out->Set("query.answers_per_s",
             eval_ms > 0 ? Sum(layers_["query.answers"]) * 1000.0 / eval_ms
                         : 0,
             "1/s");
    out->Set("query.answers", med("query.answers"), "count");
  }

 protected:
  double Request(Program& p, Tracer* tracer, int64_t id) override {
    Scope request(tracer, "request", id);
    gqe::ParseResult parsed;
    {
      Scope s(tracer, "parser.ParseProgram", id);
      parsed = gqe::ParseProgram(p.text);
      if (tracer) {
        Sample("parser.parse_ms", s.Close());
        Sample("parser.bytes", static_cast<double>(p.text.size()));
      }
    }
    if (!parsed.ok) return -1;
    const gqe::UCQ& ucq = parsed.program.queries.begin()->second;
    gqe::Cqs cqs{parsed.program.tgds, ucq};
    gqe::CqsEvalResult result;
    {
      Scope s(tracer, "cqs.EvaluateCqs", id);
      result = gqe::EvaluateCqs(cqs, parsed.program.database,
                                /*check_promise=*/true);
    }
    const double ms = request.Close();
    Record(p, result);
    if (tracer == nullptr) return ms;

    // Decomposition: the promise check and the closed-world evaluation.
    Scope decompose(tracer, "decompose", id);
    {
      Scope s(tracer, "chase.Satisfies", id);
      gqe::Satisfies(parsed.program.database, parsed.program.tgds);
      Sample("cqs.promise_ms", s.Close());
    }
    {
      Scope s(tracer, "query.EvaluateUCQ", id);
      auto answers = gqe::EvaluateUCQ(ucq, parsed.program.database);
      Sample("query.eval_ms", s.Close());
      Sample("query.answers", static_cast<double>(answers.size()));
    }
    return ms;
  }

  std::string CheckProgram(Program& p) override {
    return CheckEqual(JoinAnswers(p.spec.db, p.spec.queries[0]), p.first);
  }

 private:
  void Record(Program& p, const gqe::CqsEvalResult& result) {
    if (!result.promise_ok) Flag(&p, "promise reported violated");
    if (result.status != gqe::Status::kCompleted) Flag(&p, "not completed");
    Observe(&p, Fingerprint(result.answers),
            [&] { return ToSet(result.answers); });
  }
};

}  // namespace

std::unique_ptr<Workload> MakeOmqGuarded() {
  return std::make_unique<OmqGuarded>();
}
std::unique_ptr<Workload> MakeChaseMaterialize() {
  return std::make_unique<ChaseMaterialize>();
}
std::unique_ptr<Workload> MakeCqsQuery() { return std::make_unique<CqsQuery>(); }

}  // namespace perfbench
