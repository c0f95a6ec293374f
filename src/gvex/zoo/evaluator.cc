#include "gvex/zoo/evaluator.h"

#include <algorithm>
#include <cstdlib>

#include "gvex/common/text_codec.h"
#include "gvex/common/stopwatch.h"
#include "gvex/metrics/metrics.h"
#include "gvex/zoo/factory.h"

namespace gvex {
namespace zoo {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Minimal strict cursor over the canonical scorecard line.
struct Cursor {
  const std::string& s;
  size_t pos = 0;

  bool Literal(const std::string& lit) {
    if (s.compare(pos, lit.size(), lit) != 0) return false;
    pos += lit.size();
    return true;
  }

  bool QuotedString(std::string* out) {
    if (pos >= s.size() || s[pos] != '"') return false;
    ++pos;
    out->clear();
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') {
        ++pos;
        if (pos >= s.size()) return false;
      }
      out->push_back(s[pos++]);
    }
    if (pos >= s.size()) return false;
    ++pos;  // closing quote
    return true;
  }

  bool Number(double* out) {
    const char* begin = s.c_str() + pos;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin) return false;
    pos += static_cast<size_t>(end - begin);
    *out = v;
    return true;
  }

  bool Unsigned(uint64_t* out) {
    const char* begin = s.c_str() + pos;
    char* end = nullptr;
    unsigned long long v = std::strtoull(begin, &end, 10);
    if (end == begin) return false;
    pos += static_cast<size_t>(end - begin);
    *out = v;
    return true;
  }
};

}  // namespace

Result<EvalSpec> ParseEvalSpec(const std::string& text) {
  EvalSpec spec;
  TextReader in(text);
  std::string_view token;
  while (!in.AtEnd() && in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("eval spec: expected key=value, got: " +
                                     std::string(token));
    }
    const std::string key(token.substr(0, eq));
    const std::string_view value = token.substr(eq + 1);
    if (value.empty()) {
      return Status::InvalidArgument("eval spec: empty value for " + key);
    }
    bool parsed = true;
    if (key == "dataset") {
      spec.dataset = value;
    } else if (key == "scale") {
      parsed = ParseNumber(value, &spec.scale);
    } else if (key == "seed") {
      parsed = ParseNumber(value, &spec.seed);
    } else if (key == "graphs") {
      parsed = ParseNumber(value, &spec.graphs);
    } else {
      return Status::InvalidArgument("eval spec: unknown key: " + key);
    }
    if (!parsed) {
      return Status::InvalidArgument("eval spec: bad " + key + ": " +
                                     std::string(value));
    }
  }
  if (spec.scale <= 0.0 || spec.scale > 1.0) {
    return Status::InvalidArgument("eval spec: scale must be in (0, 1]");
  }
  return spec;
}

std::string EvalSpecToString(const EvalSpec& spec) {
  TextWriter out;
  out << "dataset=" << spec.dataset << " scale=" << spec.scale
      << " seed=" << spec.seed << " graphs=" << spec.graphs;
  return out.Take();
}

std::string ScorecardToJson(const Scorecard& card) {
  TextWriter out;
  out << "{\"scorecard\":\"" << kScorecardMarker << "\""
      << ",\"route\":\"" << JsonEscape(card.route) << "\""
      << ",\"kind\":\"" << JsonEscape(card.kind) << "\""
      << ",\"dataset\":\"" << JsonEscape(card.dataset) << "\""
      << ",\"scale\":" << card.scale << ",\"seed\":" << card.seed
      << ",\"graphs\":" << card.graphs
      << ",\"fidelity_plus\":" << card.fidelity_plus
      << ",\"fidelity_minus\":" << card.fidelity_minus
      << ",\"sparsity\":" << card.sparsity
      << ",\"accuracy\":" << card.accuracy << "}";
  return out.Take();
}

Result<Scorecard> ScorecardFromJson(const std::string& json) {
  Cursor c{json};
  Scorecard card;
  std::string marker;
  double scale = 0.0;
  auto fail = [&](const char* where) {
    return Status::InvalidArgument(std::string("scorecard: malformed near ") +
                                   where);
  };
  if (!c.Literal("{\"scorecard\":") || !c.QuotedString(&marker)) {
    return fail("scorecard");
  }
  if (marker != kScorecardMarker) {
    return Status::InvalidArgument("scorecard: unknown marker: " + marker);
  }
  if (!c.Literal(",\"route\":") || !c.QuotedString(&card.route)) {
    return fail("route");
  }
  if (!c.Literal(",\"kind\":") || !c.QuotedString(&card.kind)) {
    return fail("kind");
  }
  if (!c.Literal(",\"dataset\":") || !c.QuotedString(&card.dataset)) {
    return fail("dataset");
  }
  if (!c.Literal(",\"scale\":") || !c.Number(&scale)) return fail("scale");
  card.scale = scale;
  if (!c.Literal(",\"seed\":") || !c.Unsigned(&card.seed)) return fail("seed");
  if (!c.Literal(",\"graphs\":") || !c.Unsigned(&card.graphs)) {
    return fail("graphs");
  }
  if (!c.Literal(",\"fidelity_plus\":") || !c.Number(&card.fidelity_plus)) {
    return fail("fidelity_plus");
  }
  if (!c.Literal(",\"fidelity_minus\":") || !c.Number(&card.fidelity_minus)) {
    return fail("fidelity_minus");
  }
  if (!c.Literal(",\"sparsity\":") || !c.Number(&card.sparsity)) {
    return fail("sparsity");
  }
  if (!c.Literal(",\"accuracy\":") || !c.Number(&card.accuracy)) {
    return fail("accuracy");
  }
  if (!c.Literal("}") || c.pos != json.size()) return fail("end");
  return card;
}

std::string GraphScoreRow(const GraphScore& row) {
  TextWriter out;
  out << "graph " << row.graph_index << " label " << row.label << " nodes "
      << row.explanation_nodes << " truth " << row.truth_nodes
      << " recovered " << row.recovered;
  return out.Take();
}

Result<Scorecard> EvaluateRoute(const ExplainerRouteConfig& config,
                                const GcnClassifier& model,
                                const EvalSpec& spec,
                                const CancellationToken* cancel,
                                std::vector<GraphScore>* rows) {
  GVEX_RETURN_NOT_OK(ValidateRouteConfig(config));
  datasets::MotifTruth truth;
  GVEX_ASSIGN_OR_RETURN(
      GraphDatabase db,
      datasets::MakeByNameWithTruth(spec.dataset, spec.scale, spec.seed,
                                    &truth));
  std::unique_ptr<Explainer> explainer = MakeExplainer(config, &model);
  if (explainer == nullptr) {
    return Status::Internal("zoo factory returned no explainer");
  }

  size_t limit = db.size();
  if (spec.graphs != 0) limit = std::min<size_t>(limit, spec.graphs);

  Stopwatch watch;
  std::vector<GraphExplanation> explanations;
  double accuracy_sum = 0.0;
  size_t accuracy_graphs = 0;
  size_t scored = 0;
  for (size_t gi = 0; gi < limit; ++gi) {
    if (cancel != nullptr && cancel->cancelled()) {
      Status cause = cancel->cause();
      return cause.ok() ? Status::Timeout("evaluation cancelled") : cause;
    }
    if (config.budget_ms != 0 &&
        watch.ElapsedSeconds() * 1000.0 >=
            static_cast<double>(config.budget_ms)) {
      break;  // partial scorecard over the graphs scored so far
    }
    const Graph& g = db.graph(gi);
    ClassLabel label = model.Predict(g);
    auto nodes = explainer->ExplainGraph(g, label,
                                         static_cast<size_t>(config.max_nodes),
                                         cancel);
    if (!nodes.ok()) {
      if (cancel != nullptr && cancel->cancelled()) return nodes.status();
      continue;  // infeasible graph: skipped, like the bench adapters
    }
    GraphScore row;
    row.graph_index = gi;
    row.label = label;
    row.explanation_nodes = nodes->size();
    static const std::vector<NodeId> kNoTruth;
    const std::vector<NodeId>& planted =
        gi < truth.nodes.size() ? truth.nodes[gi] : kNoTruth;
    row.truth_nodes = planted.size();
    for (NodeId v : *nodes) {
      if (std::binary_search(planted.begin(), planted.end(), v)) {
        ++row.recovered;
      }
    }
    if (!planted.empty()) {
      accuracy_sum += static_cast<double>(row.recovered) /
                      static_cast<double>(planted.size());
      ++accuracy_graphs;
    }
    explanations.push_back({gi, std::move(*nodes)});
    if (rows != nullptr) rows->push_back(row);
    ++scored;
  }

  FidelityReport fidelity = EvaluateFidelity(model, db, explanations);
  Scorecard card;
  card.route = config.route;
  card.kind = KindName(config.kind);
  card.dataset = spec.dataset;
  card.scale = spec.scale;
  card.seed = spec.seed;
  card.graphs = scored;
  card.fidelity_plus = fidelity.fidelity_plus;
  card.fidelity_minus = fidelity.fidelity_minus;
  card.sparsity = fidelity.sparsity;
  card.accuracy =
      accuracy_graphs == 0 ? 0.0 : accuracy_sum / static_cast<double>(accuracy_graphs);
  return card;
}

}  // namespace zoo
}  // namespace gvex
