// Served evaluation (gvex::zoo): score one zoo route's explainer against
// planted-motif ground truth from the dataset generators. The result is a
// canonical one-line scorecard JSON ("zoo-scorecard-v1") whose encoding
// is byte-stable — the acceptance contract is that evaluating a served
// route over the wire reproduces the direct in-process scorecard
// byte-identically — plus streamed per-graph rows for operators.
//
// Metrics: fidelity+ / fidelity- / sparsity from gvex/metrics (Eqs. 8-10,
// scored against the model's own predictions), and motif-recovery
// accuracy — the mean fraction of planted motif nodes the explanation
// recovers, the signal the evaluation gate trips on.
#pragma once

#include <string>
#include <vector>

#include "gvex/common/cancellation.h"
#include "gvex/common/result.h"
#include "gvex/datasets/datasets.h"
#include "gvex/gnn/model.h"
#include "gvex/zoo/route_config.h"

namespace gvex {
namespace zoo {

/// The scorecard marker / JSON "scorecard" field value.
inline constexpr char kScorecardMarker[] = "zoo-scorecard-v1";

/// What to evaluate against, parsed from the kEvaluate request text
/// ("key=value" tokens, e.g. "dataset=SYN scale=0.15 seed=7 graphs=16";
/// empty text keeps every default).
struct EvalSpec {
  std::string dataset = "SYN";  ///< must export planted-motif ground truth
  double scale = 0.15;          ///< generator scale in (0, 1]
  uint64_t seed = 0;            ///< generator seed offset
  uint64_t graphs = 0;          ///< cap on graphs scored (0 = all)
};

Result<EvalSpec> ParseEvalSpec(const std::string& text);

/// Canonical spec echo ("dataset=SYN scale=0.15 seed=0 graphs=0").
std::string EvalSpecToString(const EvalSpec& spec);

/// One streamed per-graph row.
struct GraphScore {
  uint64_t graph_index = 0;
  ClassLabel label = -1;       ///< the model's prediction, what was explained
  uint64_t explanation_nodes = 0;
  uint64_t truth_nodes = 0;    ///< planted motif size
  uint64_t recovered = 0;      ///< |explanation ∩ truth|
};

/// The aggregate scorecard.
struct Scorecard {
  std::string route;
  std::string kind;     ///< KindName of the route's explainer
  std::string dataset;
  double scale = 0.0;
  uint64_t seed = 0;
  uint64_t graphs = 0;  ///< graphs actually scored
  double fidelity_plus = 0.0;
  double fidelity_minus = 0.0;
  double sparsity = 0.0;
  double accuracy = 0.0;  ///< mean motif-recovery fraction

  bool operator==(const Scorecard&) const = default;
};

/// Canonical one-line JSON: fixed key order, round-trip-exact doubles
/// (`%.17g`, text_codec.h), no whitespace. Equal scorecards encode to
/// equal bytes.
std::string ScorecardToJson(const Scorecard& card);

/// Strict inverse of ScorecardToJson (what the CLI gate parses out of the
/// response text). kInvalidArgument on anything but a v1 scorecard line.
Result<Scorecard> ScorecardFromJson(const std::string& json);

/// Render one per-graph row ("graph 3 label 1 nodes 6 truth 11
/// recovered 5").
std::string GraphScoreRow(const GraphScore& row);

/// Score `config`'s explainer over `spec`'s dataset with `model`.
/// Deterministic for a fixed (config, spec, model): graphs are scored in
/// corpus order and every explainer seeds a fresh RNG per call. The
/// cancellation token (the serve deadline/shutdown signal) is checked
/// between graphs and inside each explainer; `config.budget_ms` bounds
/// the whole evaluation on top of it (0 = unbounded). `rows` (optional)
/// receives one GraphScore per scored graph.
Result<Scorecard> EvaluateRoute(const ExplainerRouteConfig& config,
                                const GcnClassifier& model,
                                const EvalSpec& spec,
                                const CancellationToken* cancel = nullptr,
                                std::vector<GraphScore>* rows = nullptr);

}  // namespace zoo
}  // namespace gvex
