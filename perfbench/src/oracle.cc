#include "oracle.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "chase/chase.h"
#include "parser/parser.h"

namespace perfbench {

size_t Db::Size() const {
  size_t n = 0;
  for (const auto& [pred, tuples] : rel) n += tuples.size();
  return n;
}

std::set<std::string> Db::Domain() const {
  std::set<std::string> out;
  for (const auto& [pred, tuples] : rel) {
    for (const Tuple& t : tuples) out.insert(t.begin(), t.end());
  }
  return out;
}

bool IsVariable(const std::string& term) {
  return !term.empty() && term[0] >= 'A' && term[0] <= 'Z';
}

namespace {

std::string AtomText(const PAtom& atom) {
  std::string out = atom.pred + "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += atom.args[i];
  }
  return out + ")";
}

std::string AtomsText(const std::vector<PAtom>& atoms) {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += AtomText(atoms[i]);
  }
  return out;
}

/// Lazily built per-(relation, position) hash indexes over one Db.
class Index {
 public:
  explicit Index(const Db& db) : db_(db) {}

  const std::vector<const Tuple*>& All(const std::string& pred) {
    auto key = pred + "#*";
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second[""];
    auto& bucket = cache_[key][""];
    auto rel = db_.rel.find(pred);
    if (rel != db_.rel.end()) {
      for (const Tuple& t : rel->second) bucket.push_back(&t);
    }
    return bucket;
  }

  const std::vector<const Tuple*>& With(const std::string& pred, size_t pos,
                                        const std::string& value) {
    auto key = pred + "#" + std::to_string(pos);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      auto& by_value = cache_[key];
      auto rel = db_.rel.find(pred);
      if (rel != db_.rel.end()) {
        for (const Tuple& t : rel->second) {
          if (pos < t.size()) by_value[t[pos]].push_back(&t);
        }
      }
      it = cache_.find(key);
    }
    auto hit = it->second.find(value);
    return hit == it->second.end() ? empty_ : hit->second;
  }

 private:
  const Db& db_;
  std::unordered_map<std::string,
                     std::unordered_map<std::string, std::vector<const Tuple*>>>
      cache_;
  std::vector<const Tuple*> empty_;
};

void Join(const std::vector<PAtom>& body, size_t next,
          std::map<std::string, std::string>* binding, Index* index,
          const std::vector<std::string>& head, TupleSet* out) {
  if (next == body.size()) {
    Tuple answer;
    answer.reserve(head.size());
    for (const std::string& v : head) {
      answer.push_back(IsVariable(v) ? binding->at(v) : v);
    }
    out->insert(std::move(answer));
    return;
  }
  const PAtom& atom = body[next];
  // Probe on the first argument whose value is already fixed.
  const std::vector<const Tuple*>* candidates = nullptr;
  for (size_t i = 0; i < atom.args.size() && candidates == nullptr; ++i) {
    const std::string& a = atom.args[i];
    if (!IsVariable(a)) {
      candidates = &index->With(atom.pred, i, a);
    } else if (auto b = binding->find(a); b != binding->end()) {
      candidates = &index->With(atom.pred, i, b->second);
    }
  }
  if (candidates == nullptr) candidates = &index->All(atom.pred);
  for (const Tuple* tuple : *candidates) {
    if (tuple->size() != atom.args.size()) continue;
    std::vector<std::string> newly_bound;
    bool ok = true;
    for (size_t i = 0; i < atom.args.size() && ok; ++i) {
      const std::string& a = atom.args[i];
      if (!IsVariable(a)) {
        ok = (*tuple)[i] == a;
      } else if (auto b = binding->find(a); b != binding->end()) {
        ok = b->second == (*tuple)[i];
      } else {
        (*binding)[a] = (*tuple)[i];
        newly_bound.push_back(a);
      }
    }
    if (ok) Join(body, next + 1, binding, index, head, out);
    for (const std::string& v : newly_bound) binding->erase(v);
  }
}

/// Orders body atoms so each one after the first shares a variable with
/// an earlier one when possible (keeps the nested loops indexed).
std::vector<PAtom> JoinOrder(const std::vector<PAtom>& body) {
  std::vector<PAtom> rest = body, order;
  std::set<std::string> bound;
  while (!rest.empty()) {
    size_t best = 0;
    int best_score = -1;
    for (size_t i = 0; i < rest.size(); ++i) {
      int score = 0;
      for (const std::string& a : rest[i].args) {
        if (!IsVariable(a) || bound.count(a)) ++score;
      }
      if (score > best_score) best_score = score, best = i;
    }
    for (const std::string& a : rest[best].args) {
      if (IsVariable(a)) bound.insert(a);
    }
    order.push_back(rest[best]);
    rest.erase(rest.begin() + static_cast<long>(best));
  }
  return order;
}

}  // namespace

std::string Spec::Render() const {
  std::string out;
  for (const auto& [pred, tuples] : db.rel) {
    for (const Tuple& t : tuples) {
      out += pred + "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        out += t[i];
      }
      out += ").\n";
    }
  }
  for (const Rule& r : rules) {
    out += AtomsText(r.body) + " -> " + AtomsText(r.head) + ".\n";
  }
  for (const Query& q : queries) {
    out += q.name + "(";
    for (size_t i = 0; i < q.head.size(); ++i) {
      if (i > 0) out += ", ";
      out += q.head[i];
    }
    out += ") :- " + AtomsText(q.body) + ".\n";
  }
  return out;
}

TupleSet JoinAnswers(const Db& db, const Query& query,
                     const std::set<std::string>* domain) {
  Index index(db);
  std::map<std::string, std::string> binding;
  TupleSet raw;
  Join(JoinOrder(query.body), 0, &binding, &index, query.head, &raw);
  if (domain == nullptr) return raw;
  TupleSet out;
  for (const Tuple& t : raw) {
    bool inside = true;
    for (const std::string& v : t) inside = inside && domain->count(v) != 0;
    if (inside) out.insert(t);
  }
  return out;
}

Db SkolemCollapsedModel(const Db& db, const std::vector<Rule>& rules) {
  // Collapse: existential variables become one constant per rule.
  std::vector<Rule> full = rules;
  for (size_t r = 0; r < full.size(); ++r) {
    std::set<std::string> body_vars;
    for (const PAtom& a : full[r].body) {
      for (const std::string& v : a.args) {
        if (IsVariable(v)) body_vars.insert(v);
      }
    }
    for (PAtom& a : full[r].head) {
      for (std::string& v : a.args) {
        if (IsVariable(v) && !body_vars.count(v)) {
          v = "sk" + std::to_string(r) + "_" + v;
        }
      }
    }
  }
  Db model = db;
  for (bool changed = true; changed;) {
    changed = false;
    for (const Rule& rule : full) {
      Query body_query;
      std::set<std::string> vars;
      for (const PAtom& a : rule.body) {
        for (const std::string& v : a.args) {
          if (IsVariable(v) && vars.insert(v).second) {
            body_query.head.push_back(v);
          }
        }
      }
      body_query.body = rule.body;
      const TupleSet matches = JoinAnswers(model, body_query);
      for (const Tuple& m : matches) {
        std::map<std::string, std::string> binding;
        for (size_t i = 0; i < m.size(); ++i) {
          binding[body_query.head[i]] = m[i];
        }
        for (const PAtom& h : rule.head) {
          Tuple fact;
          for (const std::string& v : h.args) {
            fact.push_back(IsVariable(v) ? binding.at(v) : v);
          }
          if (model.rel[h.pred].insert(std::move(fact)).second) changed = true;
        }
      }
    }
  }
  return model;
}

void OpenWorldBounds(const Spec& spec, const Query& query, int level,
                     TupleSet* lower, TupleSet* upper) {
  Spec one = spec;
  one.queries.clear();
  gqe::ParseResult parsed = gqe::ParseProgram(one.Render());
  gqe::ChaseOptions options;
  options.max_level = level;
  gqe::ChaseResult bounded =
      gqe::Chase(parsed.program.database, parsed.program.tgds, options);
  Db chased;
  for (const gqe::Atom& atom : bounded.instance.atoms()) {
    Tuple args;
    for (gqe::Term t : atom.args()) args.push_back(t.ToString());
    chased.Add(std::string(gqe::predicates::Name(atom.predicate())),
               std::move(args));
  }
  const std::set<std::string> domain = spec.db.Domain();
  *lower = JoinAnswers(chased, query, &domain);
  *upper = JoinAnswers(SkolemCollapsedModel(spec.db, spec.rules), query,
                       &domain);
}

TupleSet Reachability(const TupleSet& edges) {
  std::map<std::string, std::vector<std::string>> succ;
  for (const Tuple& e : edges) succ[e[0]].push_back(e[1]);
  TupleSet out;
  for (const auto& [source, first] : succ) {
    std::set<std::string> seen;
    std::deque<std::string> frontier(first.begin(), first.end());
    while (!frontier.empty()) {
      std::string node = frontier.front();
      frontier.pop_front();
      if (!seen.insert(node).second) continue;
      out.insert({source, node});
      auto it = succ.find(node);
      if (it == succ.end()) continue;
      for (const std::string& next : it->second) frontier.push_back(next);
    }
  }
  return out;
}

std::string AnswerDigest(const std::string& name,
                         const std::vector<Tuple>& ordered) {
  std::string out;
  for (const Tuple& t : ordered) {
    out += name + "(";
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ", ";
      out += t[i];
    }
    out += ")\n";
  }
  return out;
}

namespace {

std::string TupleText(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) out += (i ? "," : "") + t[i];
  return out + ")";
}

}  // namespace

std::string CheckSandwich(const TupleSet& lower, const TupleSet& got,
                          const TupleSet& upper) {
  for (const Tuple& t : lower) {
    if (!got.count(t)) return "missing certain answer " + TupleText(t);
  }
  for (const Tuple& t : got) {
    if (!upper.count(t)) return "answer outside the finite model " + TupleText(t);
  }
  return "";
}

std::string CheckEqual(const TupleSet& want, const TupleSet& got) {
  for (const Tuple& t : want) {
    if (!got.count(t)) return "missing answer " + TupleText(t);
  }
  for (const Tuple& t : got) {
    if (!want.count(t)) return "extra answer " + TupleText(t);
  }
  return "";
}

}  // namespace perfbench
