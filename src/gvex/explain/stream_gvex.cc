#include "gvex/explain/stream_gvex.h"

#include <algorithm>

#include "gvex/common/failpoint.h"
#include "gvex/common/rng.h"
#include "gvex/common/thread_pool.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/influence/influence.h"
#include "gvex/matching/match_cache.h"
#include "gvex/matching/vf2.h"
#include "gvex/mining/canonical.h"
#include "gvex/mining/pgen.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace {

// Visit u's neighbors in the undirected sense (directed graphs store
// out-edges only; in-neighbors need a scan, acceptable at repair rates).
template <typename Fn>
void ForEachNeighborBothDirections(const Graph& g, NodeId u, Fn&& fn) {
  for (const auto& nb : g.neighbors(u)) fn(nb.node);
  if (g.directed()) {
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      if (w != u && g.HasEdge(w, u)) fn(w);
    }
  }
}

}  // namespace

Result<ExplanationSubgraph> StreamGvex::ExplainGraphStream(
    const Graph& g, size_t graph_index, ClassLabel l,
    std::vector<Graph>* patterns, std::unordered_set<std::string>* codes,
    const std::vector<NodeId>* order) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot explain an empty graph");
  }
  GVEX_SPAN("stream.explain_graph");
  GVEX_COUNTER_INC("stream.graphs");
  Result<CoverageConstraint> bound = config_.ConstraintFor(l, g.num_nodes());
  if (!bound.ok()) {
    if (bound.status().IsInfeasible()) ++stats_.graphs_infeasible;
    return bound.status();
  }
  const CoverageConstraint cc = *bound;

  // IncEVerify surrogate: the influence/diversity state is prepared once
  // and queried incrementally per arriving node (same asymptotics as the
  // paper's per-arrival Jacobian update, which touches every node once).
  GVEX_ASSIGN_OR_RETURN(
      InfluenceAnalyzer analyzer,
      InfluenceAnalyzer::Build(*model_, g, config_.MakeInfluenceOptions()));
  const float gamma = config_.gamma;

  std::vector<NodeId> stream;
  if (order != nullptr) {
    stream = *order;
  } else {
    stream.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) stream[v] = v;
  }

  InfluenceAccumulator acc(&analyzer);
  std::vector<NodeId> vs;
  std::vector<NodeId> vu;  // rejected/evicted candidates, for the repair

  for (NodeId v : stream) {
    // IncUpdateVS (Procedure 4) is the per-arrival hot path of the
    // streaming solver; an armed failpoint interrupts a run mid-graph.
    // All pattern-state mutation happens after the loop, so an injected
    // error leaves `patterns`/`codes` untouched and the graph replays
    // cleanly on resume.
    GVEX_FAILPOINT_RETURN("stream.inc_update_vs");
    ++stats_.nodes_processed;
    GVEX_COUNTER_INC("stream.nodes");
    if (vs.size() < cc.upper) {
      // Case (a): budget available, accept.
      vs.push_back(v);
      acc.Add(v);
      ++stats_.accepts;
      GVEX_COUNTER_INC("stream.accepts");
      continue;
    }
    // Case (b): does v contribute new pattern structure? IncPGen over its
    // local neighborhood; if every one of its top-ranked local patterns is
    // already known, skip. The screen reads codes only, so it ranks them
    // without building a pattern, and mines with tightened bounds.
    PgenOptions screen = config_.pgen;
    screen.max_pattern_nodes = std::min<size_t>(screen.max_pattern_nodes, 3);
    screen.max_candidates = 16;
    screen.max_enumerated_per_graph =
        std::min<size_t>(screen.max_enumerated_per_graph, 300);
    const std::vector<std::string> local =
        LocalPatternCodes(g, v, config_.stream_hops, screen);
    const bool contributes =
        std::any_of(local.begin(), local.end(), [&](const std::string& code) {
          return codes->find(code) == codes->end();
        });
    if (!contributes) {
      vu.push_back(v);
      ++stats_.skips;
      GVEX_COUNTER_INC("stream.skips");
      continue;
    }
    // Case (c): Procedure 4 swap. Find the cached node whose removal
    // loses the least explainability.
    const double current = acc.Score(gamma);
    size_t victim_at = 0;
    double min_loss = 1e18;
    for (size_t i = 0; i < vs.size(); ++i) {
      double loss = current - acc.ScoreWithout(vs[i], gamma);
      if (loss < min_loss) {
        min_loss = loss;
        victim_at = i;
      }
    }
    const NodeId victim = vs[victim_at];
    // Gains measured against V_u = V_S \ {v-} (Procedure 4 line 3); the
    // victim's own gain there is its removal loss.
    acc.Remove(victim);
    double w_new = acc.ScoreWith(v, gamma) - acc.Score(gamma);
    if (w_new >= 2.0 * min_loss) {
      vs.erase(vs.begin() + static_cast<ptrdiff_t>(victim_at));
      vs.push_back(v);
      acc.Add(v);
      vu.push_back(victim);
      ++stats_.swaps;
      GVEX_COUNTER_INC("stream.swaps");
    } else {
      acc.Add(victim);
      vu.push_back(v);
      ++stats_.skips;
      GVEX_COUNTER_INC("stream.skips");
    }
  }

  // Gradient saliency, used by the C2 repairs below to probe
  // label-critical nodes the f-driven cache may have passed over (cf.
  // ApproxGVEX).
  const std::vector<float> saliency = GradientSaliency(*model_, g, l);

  // Nothing to top up or grow. Algorithm 3 line 10 tops V_S up to b_l from
  // the pool V_u, and a greedy C2 repair could grow V_S from V_u up to u_l;
  // both need |V_S| < u_l and a non-empty V_u. But Procedure 4 puts a node
  // into V_u (cases (b) and (c)) only once V_S holds u_l nodes, and a swap
  // keeps |V_S|, so V_u is empty whenever |V_S| < u_l. V_S falls short of
  // b_l only when the stream delivers fewer than b_l nodes, and then no
  // pool node can fill it.
  if (vs.size() < cc.lower) {
    ++stats_.graphs_infeasible;
    return Status::Infeasible("stream could not meet coverage lower bound");
  }
  std::sort(vu.begin(), vu.end());
  vu.erase(std::unique(vu.begin(), vu.end()), vu.end());
  auto in_vs = [&](NodeId v) {
    return std::find(vs.begin(), vs.end(), v) != vs.end();
  };
  std::sort(vs.begin(), vs.end());
  ++stats_.everify_calls;
  EVerifyResult check = verifier_.Verify(g, vs, l);
  // Swap repair: when the cache is at capacity but C2 fails (important
  // nodes were evicted by the f-driven 2x rule, which guards
  // explainability only), hill-climb over (victim, candidate) swaps
  // guided by saliency and EVerify progress until validity is restored or
  // progress stalls. Bounded by u_l rounds of (3 x 8) probes.
  if (!check.IsExplanation() && vs.size() == cc.upper && !vu.empty()) {
    double progress = check.Margin();
    for (size_t round = 0; round < cc.upper && !check.IsExplanation();
         ++round) {
      // Victims: cheapest explainability removals first.
      const double current = acc.Score(gamma);
      std::vector<std::pair<double, NodeId>> victims;
      for (NodeId cached : vs) {
        victims.emplace_back(current - acc.ScoreWithout(cached, gamma),
                             cached);
      }
      std::sort(victims.begin(), victims.end());
      // Candidates: most salient pool nodes first.
      std::vector<NodeId> cands;
      for (NodeId u : vu) {
        if (!in_vs(u)) cands.push_back(u);
      }
      SortBySaliency(saliency, &cands);
      const size_t victim_probe = std::min<size_t>(victims.size(), 3);
      const size_t cand_probe = std::min<size_t>(cands.size(), 8);
      std::vector<NodeId> best_trial;
      NodeId best_victim = kInvalidNode;
      NodeId best_cand = kInvalidNode;
      EVerifyResult best_ev;
      double best_progress = progress;
      for (size_t vi = 0; vi < victim_probe; ++vi) {
        // One victim's row of swaps is verified across the shared pool,
        // then scanned serially in candidate order.
        const NodeId victim = victims[vi].second;
        std::vector<std::vector<NodeId>> trials(cand_probe);
        std::vector<EVerifyResult> evs(cand_probe);
        ThreadPool::Shared().ParallelFor(cand_probe, [&](size_t ci) {
          std::vector<NodeId>& trial = trials[ci];
          trial.reserve(vs.size());
          for (NodeId cached : vs) {
            if (cached != victim) trial.push_back(cached);
          }
          trial.push_back(cands[ci]);
          std::sort(trial.begin(), trial.end());
          evs[ci] = verifier_.Verify(g, trial, l);
        });
        stats_.everify_calls += cand_probe;
        for (size_t ci = 0; ci < cand_probe; ++ci) {
          const EVerifyResult& ev = evs[ci];
          double p = ev.Margin();
          if (ev.IsExplanation()) p += 10.0;
          if (p > best_progress + 1e-9) {
            best_progress = p;
            best_trial = std::move(trials[ci]);
            best_victim = victim;
            best_cand = cands[ci];
            best_ev = ev;
          }
        }
        if (best_progress > 9.0) break;  // found a valid completion
      }
      if (best_trial.empty()) break;  // no improving swap: stall
      vs = std::move(best_trial);
      acc.Remove(best_victim);
      acc.Add(best_cand);
      check = best_ev;
      progress = best_progress;
      ++stats_.swaps;
    }
  }
  // Saturated-model fallback: when the classifier's probabilities are
  // near 0/1, partial explanations give the hill-climb no gradient. Try
  // the top-saliency node sets directly (constant extra EVerify work).
  // `acc` is not read past this point: the final score comes from the
  // analyzer, so a region taken here does not update it.
  if (!check.IsExplanation()) {
    // Anytime semantics: only nodes the stream has delivered may appear.
    std::vector<bool> seen(g.num_nodes(), false);
    for (NodeId v : stream) seen[v] = true;
    std::vector<NodeId> by_saliency;
    by_saliency.reserve(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (seen[v]) by_saliency.push_back(v);
    }
    SortBySaliency(saliency, &by_saliency);
    // From each of the top seeds, grow a connected region by always
    // absorbing the most salient neighbor (explanations are localized
    // substructures; a bare top-k saliency set is usually disconnected).
    const size_t seed_probe = std::min<size_t>(by_saliency.size(), 3);
    for (size_t si = 0; si < seed_probe && !check.IsExplanation(); ++si) {
      std::vector<NodeId> region{by_saliency[si]};
      std::vector<bool> in_region(g.num_nodes(), false);
      in_region[by_saliency[si]] = true;
      while (region.size() < cc.upper) {
        NodeId best_nb = kInvalidNode;
        float best_sal = -1.0f;
        for (NodeId r : region) {
          ForEachNeighborBothDirections(g, r, [&](NodeId w) {
            if (!in_region[w] && seen[w] && saliency[w] > best_sal) {
              best_sal = saliency[w];
              best_nb = w;
            }
          });
        }
        if (best_nb == kInvalidNode) break;
        in_region[best_nb] = true;
        region.push_back(best_nb);
        if (region.size() >= std::max<size_t>(cc.lower, 3)) {
          std::vector<NodeId> trial = region;
          std::sort(trial.begin(), trial.end());
          ++stats_.everify_calls;
          EVerifyResult ev = verifier_.Verify(g, trial, l);
          if (ev.IsExplanation()) {
            vs = std::move(trial);
            check = ev;
            break;
          }
        }
      }
    }
  }
  if (!check.IsExplanation()) {
    ++stats_.graphs_infeasible;
    return Status::Infeasible("stream found no valid explanation subgraph");
  }

  // IncUpdateP: make sure the incremental pattern set covers the final
  // V_S; uncovered nodes trigger localized mining, then singletons.
  Graph subgraph = g.InducedSubgraph(vs);
  CoverageResult cov = ComputeCoverage(*patterns, subgraph, config_.match);
  for (NodeId local = 0; local < subgraph.num_nodes(); ++local) {
    if (cov.covered_nodes.Test(local)) continue;
    bool covered = false;
    std::vector<PatternCandidate> local_cands = GenerateLocalPatternCandidates(
        subgraph, local, config_.stream_hops, config_.pgen);
    // Among the unseen candidates that cover this node, adopt the one
    // covering the most structure (edges, then nodes) — the small-edge-miss
    // goal of Procedure 5.
    const Graph* best_pattern = nullptr;
    const std::string* best_code = nullptr;
    size_t best_edges = 0;
    size_t best_nodes = 0;
    CoverageResult best_cov;
    size_t evaluated = 0;
    for (const auto& cand : local_cands) {
      if (codes->count(cand.canonical) > 0) continue;
      if (++evaluated > 12) break;
      CoverageResult c1 =
          MatchCache::Global().Coverage(cand.pattern, subgraph, config_.match);
      if (!c1.covered_nodes.Test(local)) continue;
      size_t e = c1.covered_edges.Count();
      size_t n = c1.covered_nodes.Count();
      if (best_pattern == nullptr || e > best_edges ||
          (e == best_edges && n > best_nodes)) {
        best_pattern = &cand.pattern;
        best_code = &cand.canonical;
        best_edges = e;
        best_nodes = n;
        best_cov = std::move(c1);
      }
    }
    if (best_pattern != nullptr) {
      patterns->push_back(*best_pattern);
      codes->insert(*best_code);
      for (size_t idx : best_cov.covered_nodes.ToVector()) {
        cov.covered_nodes.Set(idx);
      }
      covered = true;
    }
    if (!covered) {
      Graph singleton;
      singleton.AddNode(subgraph.node_type(local));
      std::string code = CanonicalCode(singleton);
      if (codes->insert(code).second) {
        patterns->push_back(std::move(singleton));
      }
      cov.covered_nodes.Set(local);
    }
  }

  // Edge mop-up (Procedure 5's "small edge misses" goal): edges whose
  // endpoints are covered can still be missed by the pattern tier; give
  // each uncovered edge a chance to contribute a pattern — minimally its
  // own 2-node edge pattern.
  {
    CoverageResult ecov =
        ComputeCoverage(*patterns, subgraph, config_.match);
    auto edges = EdgeList(subgraph);
    size_t budget = 10;
    for (size_t e = 0; e < edges.size() && budget > 0; ++e) {
      if (ecov.covered_edges.Test(e)) continue;
      auto [u, v] = edges[e];
      Graph edge_pattern(subgraph.directed());
      edge_pattern.AddNode(subgraph.node_type(u));
      edge_pattern.AddNode(subgraph.node_type(v));
      Status st = edge_pattern.AddEdge(0, 1, subgraph.GetEdgeType(u, v));
      (void)st;
      std::string code = CanonicalCode(edge_pattern);
      if (codes->insert(code).second) {
        patterns->push_back(std::move(edge_pattern));
        --budget;
      }
    }
  }

  ExplanationSubgraph out;
  out.graph_index = graph_index;
  out.nodes = vs;
  out.subgraph = std::move(subgraph);
  out.explainability =
      (static_cast<double>(analyzer.InfluenceScore(vs)) +
       static_cast<double>(gamma) *
           static_cast<double>(analyzer.DiversityScore(vs))) /
      static_cast<double>(g.num_nodes());
  ++stats_.graphs_explained;
  return out;
}

Result<ExplanationView> StreamGvex::ExplainLabel(
    const GraphDatabase& db, const std::vector<ClassLabel>& assigned,
    ClassLabel l, const CancellationToken* cancel, uint64_t order_seed) {
  GVEX_SPAN("stream.explain_label");
  // Start fresh unless we are resuming this exact label (after a deadline
  // expiry or injected fault, possibly via Snapshot()/Restore()).
  if (!label_in_progress_ || resume_label_ != l) {
    // Abandoning a half-finished run for a different label retires its
    // partial subgraphs: they are discarded below and never queried
    // again, so drop their cache entries eagerly instead of letting
    // them squat in the shards until an epoch dump (match_cache.h).
    if (label_in_progress_ && resume_label_ != l) {
      for (const auto& s : partial_view_.subgraphs) {
        MatchCache::Global().InvalidateTarget(s.subgraph);
      }
    }
    OpenSession(l);
  }

  std::vector<size_t> group = GraphDatabase::LabelGroup(assigned, l);
  while (group_pos_ < group.size()) {
    size_t gi = group[group_pos_];
    if (cancel != nullptr && cancel->cancelled()) {
      Status cause = cancel->cause();
      if (!cause.IsTimeout()) return cause;
      return Status::Timeout("stream label explanation exceeded time budget");
    }
    const Graph& g = db.graph(gi);
    std::vector<NodeId> order(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
    if (order_seed != 0) {
      Rng rng(order_seed + gi);
      rng.Shuffle(&order);
    }
    Status st = CommitGraph(
        ExplainGraphStream(g, gi, l, &label_patterns_, &label_codes_, &order));
    // Resume state is retained for Snapshot() on an error.
    if (!st.ok() && !st.IsInfeasible()) return st;
  }

  ExplanationView view = Finalized(std::move(partial_view_));
  label_in_progress_ = false;
  partial_view_ = ExplanationView{};
  label_patterns_.clear();
  label_codes_.clear();
  return view;
}

void StreamGvex::OpenSession(ClassLabel l) {
  label_in_progress_ = true;
  resume_label_ = l;
  group_pos_ = 0;
  partial_view_ = ExplanationView{};
  partial_view_.label = l;
  label_patterns_.clear();
  label_codes_.clear();
  committed_stats_ = stats_;
}

Status StreamGvex::CommitGraph(Result<ExplanationSubgraph> sub,
                               double* explainability) {
  if (sub.ok()) {
    if (explainability != nullptr) *explainability = sub->explainability;
    partial_view_.explainability += sub->explainability;
    partial_view_.subgraphs.push_back(std::move(*sub));
  } else if (!sub.status().IsInfeasible()) {
    stats_ = committed_stats_;  // the graph replays in full
    return sub.status();
  }
  ++group_pos_;
  committed_stats_ = stats_;
  return sub.status();
}

ExplanationView StreamGvex::Finalized(ExplanationView view) const {
  std::vector<Graph> raw;
  raw.reserve(view.subgraphs.size());
  for (const auto& s : view.subgraphs) raw.push_back(s.subgraph);
  view.patterns = ReducePatterns(label_patterns_, raw, config_).patterns;
  return view;
}

StreamGvexSnapshot StreamGvex::Snapshot() const {
  StreamGvexSnapshot snap;
  snap.in_progress = label_in_progress_;
  snap.label = resume_label_;
  snap.graphs_done = group_pos_;
  snap.partial = partial_view_;
  snap.patterns = label_patterns_;
  snap.codes.assign(label_codes_.begin(), label_codes_.end());
  snap.stats = committed_stats_;
  return snap;
}

Status StreamGvex::Restore(const StreamGvexSnapshot& snapshot) {
  if (label_in_progress_) {
    return Status::FailedPrecondition(
        "restore into a solver with resident state for label " +
        std::to_string(resume_label_) +
        " (finish or discard the in-flight run first)");
  }
  label_in_progress_ = snapshot.in_progress;
  resume_label_ = snapshot.label;
  group_pos_ = snapshot.graphs_done;
  partial_view_ = snapshot.partial;
  label_patterns_ = snapshot.patterns;
  label_codes_.clear();
  label_codes_.insert(snapshot.codes.begin(), snapshot.codes.end());
  stats_ = snapshot.stats;
  committed_stats_ = snapshot.stats;
  return Status::OK();
}

Status StreamGvex::IngestGraph(const Graph& g, size_t graph_index,
                               ClassLabel l, double* explainability) {
  if (!label_in_progress_) {
    OpenSession(l);
  } else if (resume_label_ != l) {
    return Status::FailedPrecondition(
        "resident session holds label " + std::to_string(resume_label_) +
        ", cannot ingest label " + std::to_string(l));
  }
  return CommitGraph(
      ExplainGraphStream(g, graph_index, l, &label_patterns_, &label_codes_),
      explainability);
}

Result<ExplanationView> StreamGvex::ResidentView() const {
  if (!label_in_progress_) {
    return Status::FailedPrecondition("no resident ingest state to finalize");
  }
  return Finalized(partial_view_);
}

Result<ExplanationViewSet> StreamGvex::Explain(
    const GraphDatabase& db, const std::vector<ClassLabel>& assigned,
    const std::vector<ClassLabel>& labels, const CancellationToken* cancel,
    uint64_t order_seed) {
  GVEX_RETURN_NOT_OK(CheckDistinctLabels(labels));
  ExplanationViewSet set;
  for (ClassLabel l : labels) {
    GVEX_ASSIGN_OR_RETURN(
        ExplanationView view,
        ExplainLabel(db, assigned, l, cancel, order_seed));
    set.views.push_back(std::move(view));
  }
  return set;
}

}  // namespace gvex
