// explain_enz: the offline view build of Fig. 9. Every build clears the
// MatchCache first (an offline job starts cold) and runs
// ParallelApproxExplain for all six labels; the cold first build of the
// process runs inside set-up, so the timed builds see steady state. One
// operation is one graph explained: ops_per_s is graphs per build second,
// op_p50_us the median time of a whole build.
//
// Traced run: builds alternate with tracing off and on (the gap is the
// tracing overhead), one untraced build gives the MatchCache traffic, then
// the layer replay (layers.h) runs; its explain section is here.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "fixture.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/everify.h"
#include "gvex/explain/psum.h"
#include "gvex/influence/influence.h"
#include "gvex/matching/match_cache.h"
#include "gvex/mining/pgen.h"
#include "gvex/obs/obs.h"
#include "layers.h"

namespace perfbench {

using gvex::ClassLabel;

namespace {

// Replays of the database in the traced run: 6 x 180 graphs put more than
// ten samples beyond the p99 of explain.graph_us.
constexpr size_t kReplayReps = 6;

struct Build {
  double seconds = 0.0;
  size_t graphs = 0;
  double steal = 0.0;  // share of CPU time the hypervisor took meanwhile
};

// One timed build plus its correctness checks (outside the timing).
std::optional<Build> TimedBuild(const Fixture& fx, RunResult* result) {
  gvex::ParallelExplainReport report;
  StealMeter meter;
  const double t0 = NowSeconds();
  auto set = BuildViews(fx, &report);
  Build b;
  b.seconds = NowSeconds() - t0;
  b.steal = meter.Lap();
  for (const auto& [label, stats] : report.per_view) b.graphs += stats.attempted;
  if (!set.ok()) {
    result->Attempt(fx.db.size());
    result->Fail(fx.db.size(), "build: " + set.status().ToString());
    return std::nullopt;
  }
  result->Attempt(b.graphs);
  std::string why;
  if (uint64_t bad = CheckViews(fx, *set, &why); bad > 0) {
    result->Fail(bad, why);
  }
  auto fp = Fingerprint(*set, fx.model);
  if (!fp.ok() || *fp != fx.fingerprint) {
    result->Fail(1, "views differ from the set-up build of the same seed");
  }
  return b;
}

struct Rates {
  double graphs_per_s = 0.0;
  double build_us = 0.0;
};

// Medians of graphs/s and of the build time over the builds QuietWindows
// keeps.
Rates QuietRates(const std::vector<Build>& builds) {
  std::vector<double> steal, rates, build_us;
  for (const Build& b : builds) steal.push_back(b.steal);
  const std::vector<bool> keep = QuietWindows(steal, "builds");
  for (size_t i = 0; i < builds.size(); ++i) {
    if (!keep[i]) continue;
    rates.push_back(builds[i].graphs / builds[i].seconds);
    build_us.push_back(builds[i].seconds * 1e6);
  }
  Rates r;
  r.graphs_per_s = Median(rates);
  r.build_us = Median(build_us);
  std::printf("graphs/s per kept build: q1 %.1f, median %.1f, q3 %.1f\n",
              NearestRank(rates, 0.25, 0).value_or(0.0), r.graphs_per_s,
              NearestRank(rates, 0.75, 0).value_or(0.0));
  return r;
}

}  // namespace

void ReplayExplain(const Fixture& fx, SpanLog* log, RunResult* result) {
  // VF2 calls over one whole (parallel) build, the workload's unit, before
  // tracing starts.
  {
    ObsDelta delta;
    auto set = BuildViews(fx);
    if (!set.ok()) result->Fail(1, set.status().ToString());
    result->Metric("matching.vf2_calls",
                   static_cast<double>(delta.Counter("vf2.calls")), "count");
  }
  gvex::obs::SetTraceEnabled(true);
  Samples graph_us, influence_us, everify_us;
  size_t items = 0, everify_calls = 0;
  uint64_t forward_calls = 0, everify_sum_us = 0, influence_sum_us = 0;
  double explain_sum_us = 0.0;
  std::vector<gvex::ExplanationSubgraph> explained;
  uint64_t id = 0;
  for (size_t rep = 0; rep < kReplayReps; ++rep) {
    gvex::MatchCache::Global().Clear();
    ObsDelta delta;
    for (ClassLabel l : fx.labels) {
      for (size_t gi : gvex::GraphDatabase::LabelGroup(fx.assigned, l)) {
        gvex::ApproxGvex solver(fx.model.get(), fx.config);
        ScopedSpan span(log, "bench.explain_graph", ++id);
        auto sub = solver.ExplainGraph(fx.db.graph(gi), gi, l);
        const double us = span.ElapsedUs();
        graph_us.Add(us);
        explain_sum_us += us;
        everify_calls += solver.stats().everify_calls;
        ++items;
        if (rep == 0 && sub.ok()) explained.push_back(std::move(*sub));
      }
    }
    forward_calls += delta.Counter("gnn.forward_calls");
    everify_sum_us += delta.HistogramSum("everify.verify_us");
    influence_sum_us += delta.HistogramSum("influence.build_us");
  }

  const gvex::InfluenceOptions influence = fx.config.MakeInfluenceOptions();
  for (size_t gi = 0; gi < fx.db.size(); ++gi) {
    ScopedSpan span(log, "bench.influence_build", ++id);
    auto analyzer = gvex::InfluenceAnalyzer::Build(*fx.model, fx.db.graph(gi),
                                                   influence);
    influence_us.Add(span.ElapsedUs());
    if (!analyzer.ok()) result->Fail(1, analyzer.status().ToString());
  }

  // EVerify on the growing prefixes of each explanation: the node-set
  // sizes the greedy loop verifies on its way to the answer.
  gvex::EVerify verifier(fx.model.get());
  for (size_t e = 0; e < explained.size(); ++e) {
    const auto& s = explained[e];
    const ClassLabel l = fx.assigned[s.graph_index];
    for (size_t k = 1; k <= s.nodes.size(); ++k) {
      std::vector<gvex::NodeId> prefix(s.nodes.begin(), s.nodes.begin() + k);
      ScopedSpan span(log, "bench.everify", ++id);
      gvex::EVerifyResult r =
          verifier.Verify(fx.db.graph(s.graph_index), prefix, l);
      everify_us.Add(span.ElapsedUs());
      if (k == s.nodes.size() && !r.IsExplanation()) {
        result->Fail(1, "replayed explanation fails EVerify C2");
      }
    }
  }

  for (ClassLabel l : fx.labels) {
    std::vector<gvex::Graph> raw;
    for (const auto& s : explained) {
      if (fx.assigned[s.graph_index] == l) raw.push_back(s.subgraph);
    }
    const std::string suffix = ".l" + std::to_string(l);
    gvex::PgenOptions pgen = fx.config.pgen;
    pgen.min_pattern_nodes = std::max<size_t>(pgen.min_pattern_nodes, 2);
    {
      ObsDelta delta;
      ScopedSpan span(log, "bench.pgen", ++id);
      auto candidates = gvex::GeneratePatternCandidates(raw, pgen);
      result->Metric("mining.pgen_ms" + suffix, span.ElapsedUs() / 1000.0,
                     "ms");
      result->Metric("mining.pgen_enumerated" + suffix,
                     static_cast<double>(delta.Counter("pgen.enumerated")),
                     "count");
    }
    {
      gvex::MatchCache::Global().Clear();
      ScopedSpan span(log, "bench.psum", ++id);
      gvex::PsumResult summary = gvex::Psum(raw, fx.config);
      result->Metric("explain.psum_ms" + suffix, span.ElapsedUs() / 1000.0,
                     "ms");
      if (!summary.full_node_coverage) {
        result->Fail(1, "Psum left nodes uncovered for label " +
                            std::to_string(l));
      }
    }
  }

  gvex::obs::SetTraceEnabled(false);

  result->PercentileMetric("explain.graph_us.p50", graph_us, 0.50);
  result->PercentileMetric("explain.graph_us.p99", graph_us, 0.99);
  result->Metric("explain.graph_us.n", static_cast<double>(graph_us.size()),
                 "count");
  result->Metric("explain.graph_ms_total", explain_sum_us / 1000.0, "ms");
  result->PercentileMetric("explain.everify_us.p50", everify_us, 0.50);
  result->Metric("explain.everify_us.n",
                 static_cast<double>(everify_us.size()), "count");
  result->Metric("explain.everify_calls_per_graph",
                 static_cast<double>(everify_calls) / items, "count");
  result->Metric("explain.everify_share",
                 static_cast<double>(everify_sum_us) / explain_sum_us, "ratio");
  result->Metric("gnn.forward_calls_per_graph",
                 static_cast<double>(forward_calls) / items, "count");
  result->PercentileMetric("influence.build_us.p50", influence_us, 0.50);
  result->Metric("influence.build_us.n",
                 static_cast<double>(influence_us.size()), "count");
  result->Metric("influence.share",
                 static_cast<double>(influence_sum_us) / explain_sum_us,
                 "ratio");
}

void RunExplainEnz(const Options& options, RunResult* result) {
  std::unique_ptr<Fixture> fx = RepeatSetup<Fixture>(
      [&]() -> gvex::Result<std::unique_ptr<Fixture>> {
        GVEX_ASSIGN_OR_RETURN(Fixture made, MakeFixture(options.seed));
        return std::make_unique<Fixture>(std::move(made));
      },
      [](const Fixture& f) { return f.fingerprint; }, result);
  if (fx == nullptr) return;

  std::string why;
  if (uint64_t bad = CheckViews(*fx, fx->views, &why); bad > 0) {
    result->Attempt(bad);
    result->Fail(bad, "set-up build: " + why);
  }
  std::printf("explain_enz: %zu graphs, %zu labels, %zu threads, views %s\n",
              fx->db.size(), fx->labels.size(), fx->threads,
              fx->fingerprint.c_str());

  std::vector<Build> plain, traced;
  const double end = NowSeconds() + (options.trace ? options.seconds / 2
                                                   : options.seconds);
  size_t builds = 0;
  while (builds < 3 || NowSeconds() < end) {
    const bool trace_this = options.trace && builds % 2 == 1;
    gvex::obs::SetTraceEnabled(trace_this);
    auto b = TimedBuild(*fx, result);
    gvex::obs::SetTraceEnabled(false);
    if (trace_this) gvex::obs::Registry::Global().Reset();  // drop the spans
    ++builds;
    if (b.has_value()) (trace_this ? traced : plain).push_back(*b);
  }
  const Rates rates = QuietRates(plain);
  if (!options.trace) {
    result->Metric("ops_per_s", rates.graphs_per_s, "op/s");
    result->Metric("op_p50_us", rates.build_us, "us");
  } else {
    const double rate = rates.graphs_per_s;
    const double traced_rate = QuietRates(traced).graphs_per_s;
    std::printf("tracing overhead: %.0f graphs/s untraced, %.0f traced\n",
                rate, traced_rate);
    result->Metric("trace.overhead_pct",
                   100.0 * (rate - traced_rate) / rate, "%");
    {
      // The traced builds above reset the counters; one more build, untraced.
      ObsDelta delta;
      auto set = BuildViews(*fx);
      if (!set.ok()) result->Fail(1, set.status().ToString());
      CacheMetrics(delta, result);
    }
    ReplayLayers(*fx, options, result);
  }
}

}  // namespace perfbench
