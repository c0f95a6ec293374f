#include "gvex/explain/stream_gvex.h"

#include <algorithm>

#include "gvex/common/bitset.h"
#include "gvex/common/failpoint.h"
#include "gvex/common/logging.h"
#include "gvex/common/rng.h"
#include "gvex/common/thread_pool.h"
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
  CoverageConstraint cc = config_.ConstraintFor(l);
  if (cc.lower > cc.upper || cc.upper == 0) {
    return Status::InvalidArgument("invalid coverage constraint");
  }
  // Keep the counterfactual test meaningful: never cache the whole graph.
  cc.upper = std::min(cc.upper, g.num_nodes() - 1);
  cc.lower = std::min(cc.lower, cc.upper);
  if (cc.upper == 0) {
    ++stats_.graphs_infeasible;
    return Status::Infeasible("single-node graph has no proper subgraph");
  }

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
  std::vector<NodeId> vu;  // rejected/evicted candidates, for the top-up

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

  // Gradient saliency, used by the C2 repair phase to probe label-critical
  // nodes the f-driven cache may have passed over (cf. ApproxGVEX).
  std::vector<float> saliency(g.num_nodes(), 0.0f);
  {
    GcnTrace trace = model_->Forward(g);
    if (!trace.logits.empty() && l >= 0 &&
        static_cast<size_t>(l) < trace.probs.size()) {
      Matrix grad = model_->InputLogitGradient(trace, l);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        saliency[v] = grad.RowL1Norm(v);
      }
    }
  }
  float max_saliency = 0.0f;
  for (float s : saliency) max_saliency = std::max(max_saliency, s);
  const float inv_saliency =
      max_saliency > 0.0f ? 1.0f / max_saliency : 0.0f;

  // Lower-bound top-up from V_u (Algorithm 3 line 10).
  std::sort(vu.begin(), vu.end());
  vu.erase(std::unique(vu.begin(), vu.end()), vu.end());
  auto in_vs = [&](NodeId v) {
    return std::find(vs.begin(), vs.end(), v) != vs.end();
  };
  while (vs.size() < cc.lower && !vu.empty()) {
    double base_score = acc.Score(gamma);
    size_t best_i = static_cast<size_t>(-1);
    double best_gain = -1e18;
    for (size_t i = 0; i < vu.size(); ++i) {
      if (in_vs(vu[i])) continue;
      double gain = acc.ScoreWith(vu[i], gamma) - base_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_i = i;
      }
    }
    if (best_i == static_cast<size_t>(-1)) break;
    vs.push_back(vu[best_i]);
    acc.Add(vu[best_i]);
    vu.erase(vu.begin() + static_cast<ptrdiff_t>(best_i));
  }
  if (vs.size() < cc.lower) {
    ++stats_.graphs_infeasible;
    return Status::Infeasible("stream could not meet coverage lower bound");
  }

  // Finalize C2: if the maintained cache is not yet consistent +
  // counterfactual, repair greedily from V_u within the budget.
  std::sort(vs.begin(), vs.end());
  ++stats_.everify_calls;
  EVerifyResult check = verifier_.Verify(g, vs, l);
  while (!check.IsExplanation() && vs.size() < cc.upper && !vu.empty()) {
    // Rank the pool by marginal f-gain, then EVerify the top few and pick
    // the one that makes the most consistency/counterfactual progress —
    // the same guided selection ApproxGVEX's VpExtend performs.
    double base_score = acc.Score(gamma);
    std::vector<std::pair<double, size_t>> ranked;
    ranked.reserve(vu.size());
    for (size_t i = 0; i < vu.size(); ++i) {
      if (in_vs(vu[i])) continue;
      double gain = acc.ScoreWith(vu[i], gamma) - base_score;
      ranked.emplace_back(
          gain / static_cast<double>(g.num_nodes()) +
              static_cast<double>(config_.saliency_weight) *
                  static_cast<double>(saliency[vu[i]] * inv_saliency),
          i);
    }
    if (ranked.empty()) break;
    std::sort(ranked.rbegin(), ranked.rend());
    size_t probe = std::min<size_t>(ranked.size(),
                                    std::max<size_t>(1, config_.everify_top_k));
    // The probes are independent: verify them across the shared pool, then
    // pick serially in rank order.
    std::vector<EVerifyResult> evs(probe);
    ThreadPool::Shared().ParallelFor(probe, [&](size_t p) {
      std::vector<NodeId> trial = vs;
      trial.push_back(vu[ranked[p].second]);
      std::sort(trial.begin(), trial.end());
      evs[p] = verifier_.Verify(g, trial, l);
    });
    stats_.everify_calls += probe;
    size_t best_i = static_cast<size_t>(-1);
    double best_rank = -1e18;
    for (size_t p = 0; p < probe; ++p) {
      size_t i = ranked[p].second;
      const EVerifyResult& ev = evs[p];
      double rank = ranked[p].first +
                    static_cast<double>(config_.counterfactual_bonus) *
                        (static_cast<double>(ev.prob_subgraph) -
                         static_cast<double>(ev.prob_remainder));
      if (ev.IsExplanation()) rank += 10.0;  // take a valid completion now
      if (rank > best_rank) {
        best_rank = rank;
        best_i = i;
      }
    }
    if (best_i == static_cast<size_t>(-1)) break;
    vs.push_back(vu[best_i]);
    acc.Add(vu[best_i]);
    vu.erase(vu.begin() + static_cast<ptrdiff_t>(best_i));
    std::sort(vs.begin(), vs.end());
    ++stats_.everify_calls;
    check = verifier_.Verify(g, vs, l);
  }
  // Swap repair: when the cache is at capacity but C2 fails (important
  // nodes were evicted by the f-driven 2x rule, which guards
  // explainability only), hill-climb over (victim, candidate) swaps
  // guided by saliency and EVerify progress until validity is restored or
  // progress stalls. Bounded by u_l rounds of (3 x 8) probes.
  if (!check.IsExplanation() && vs.size() == cc.upper && !vu.empty()) {
    double progress = static_cast<double>(check.prob_subgraph) -
                      static_cast<double>(check.prob_remainder);
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
      std::sort(cands.begin(), cands.end(), [&](NodeId a, NodeId b) {
        if (saliency[a] != saliency[b]) return saliency[a] > saliency[b];
        return a < b;
      });
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
          double p = static_cast<double>(ev.prob_subgraph) -
                     static_cast<double>(ev.prob_remainder);
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
    std::sort(by_saliency.begin(), by_saliency.end(),
              [&](NodeId a, NodeId b) {
                if (saliency[a] != saliency[b]) {
                  return saliency[a] > saliency[b];
                }
                return a < b;
              });
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

PatternReduction ReducePatterns(const std::vector<Graph>& patterns,
                                const std::vector<Graph>& subgraphs,
                                const Configuration& config) {
  PatternReduction result;
  if (subgraphs.empty()) return result;

  size_t total_nodes = 0;
  size_t total_edges = 0;
  std::vector<size_t> node_base(subgraphs.size());
  std::vector<size_t> edge_base(subgraphs.size());
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    node_base[i] = total_nodes;
    edge_base[i] = total_edges;
    total_nodes += subgraphs[i].num_nodes();
    total_edges += subgraphs[i].num_edges();
  }

  struct Cov {
    DynamicBitset nodes;
    DynamicBitset edges;
    double weight;
  };
  // Same pattern×subgraph coverage matrix as Psum: independent cells, so
  // cached lookups (the stream re-reduces the same pairs every round) fan
  // out across the shared pool; the greedy pass below stays serial.
  std::vector<Cov> covs(patterns.size());
  ThreadPool::Shared().ParallelFor(patterns.size(), [&](size_t pi) {
    covs[pi].nodes = DynamicBitset(total_nodes);
    covs[pi].edges = DynamicBitset(total_edges);
    for (size_t gi = 0; gi < subgraphs.size(); ++gi) {
      CoverageResult local = MatchCache::Global().Coverage(
          patterns[pi], subgraphs[gi], config.match);
      for (size_t v : local.covered_nodes.ToVector()) {
        covs[pi].nodes.Set(node_base[gi] + v);
      }
      for (size_t e : local.covered_edges.ToVector()) {
        covs[pi].edges.Set(edge_base[gi] + e);
      }
    }
    covs[pi].weight =
        total_edges == 0
            ? 0.0
            : 1.0 - static_cast<double>(covs[pi].edges.Count()) /
                        static_cast<double>(total_edges);
  });

  DynamicBitset covered_nodes(total_nodes);
  DynamicBitset covered_edges(total_edges);
  std::vector<bool> chosen(patterns.size(), false);
  constexpr double kWeightFloor = 1e-2;
  for (;;) {
    size_t best = static_cast<size_t>(-1);
    double best_ratio = 0.0;
    for (size_t pi = 0; pi < patterns.size(); ++pi) {
      if (chosen[pi]) continue;
      // Greedy cover over nodes AND edges (Lemma 4.3's objective wants
      // full node coverage with minimal edge misses, so patterns that
      // only add edge coverage still earn selection).
      size_t gain = covered_nodes.MarginalCount(covs[pi].nodes);
      size_t edge_gain = covered_edges.MarginalCount(covs[pi].edges);
      if (gain + edge_gain == 0) continue;
      double ratio = static_cast<double>(gain + edge_gain) /
                     (covs[pi].weight + kWeightFloor);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = pi;
      }
    }
    if (best == static_cast<size_t>(-1)) break;
    chosen[best] = true;
    covered_nodes.UnionWith(covs[best].nodes);
    covered_edges.UnionWith(covs[best].edges);
    result.patterns.push_back(patterns[best]);
  }
  result.edge_loss =
      total_edges == 0
          ? 0.0
          : 1.0 - static_cast<double>(covered_edges.Count()) /
                      static_cast<double>(total_edges);
  return result;
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
    label_in_progress_ = true;
    resume_label_ = l;
    group_pos_ = 0;
    partial_view_ = ExplanationView{};
    partial_view_.label = l;
    label_patterns_.clear();
    label_codes_.clear();
    committed_stats_ = stats_;
  } else {
    // Roll back stats of the half-processed graph; it replays in full, so
    // a resumed run ends with straight-through stats.
    stats_ = committed_stats_;
  }

  std::vector<size_t> group = GraphDatabase::LabelGroup(assigned, l);
  for (; group_pos_ < group.size(); ++group_pos_) {
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
    Result<ExplanationSubgraph> sub =
        ExplainGraphStream(g, gi, l, &label_patterns_, &label_codes_, &order);
    if (!sub.ok()) {
      if (sub.status().IsInfeasible()) {
        committed_stats_ = stats_;
        continue;
      }
      return sub.status();  // resume state retained for Snapshot()
    }
    partial_view_.explainability += sub->explainability;
    partial_view_.subgraphs.push_back(std::move(*sub));
    committed_stats_ = stats_;
  }

  ExplanationView view = std::move(partial_view_);
  std::vector<Graph> patterns = std::move(label_patterns_);
  label_in_progress_ = false;
  partial_view_ = ExplanationView{};
  label_patterns_.clear();
  label_codes_.clear();

  // Batched Procedure 5 swap: drop patterns that stopped contributing.
  std::vector<Graph> raw;
  raw.reserve(view.subgraphs.size());
  for (const auto& s : view.subgraphs) raw.push_back(s.subgraph);
  PatternReduction reduction = ReducePatterns(patterns, raw, config_);
  view.patterns = std::move(reduction.patterns);
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
    label_in_progress_ = true;
    resume_label_ = l;
    group_pos_ = 0;
    partial_view_ = ExplanationView{};
    partial_view_.label = l;
    label_patterns_.clear();
    label_codes_.clear();
    committed_stats_ = stats_;
  } else if (resume_label_ != l) {
    return Status::FailedPrecondition(
        "resident session holds label " + std::to_string(resume_label_) +
        ", cannot ingest label " + std::to_string(l));
  }
  Result<ExplanationSubgraph> sub =
      ExplainGraphStream(g, graph_index, l, &label_patterns_, &label_codes_);
  if (!sub.ok()) {
    if (sub.status().IsInfeasible()) {
      // An unexplainable graph still advances the committed position so a
      // journal replay lands on the same state.
      ++group_pos_;
      committed_stats_ = stats_;
    } else {
      stats_ = committed_stats_;  // roll back the half-processed graph
    }
    return sub.status();
  }
  if (explainability != nullptr) *explainability = sub->explainability;
  partial_view_.explainability += sub->explainability;
  partial_view_.subgraphs.push_back(std::move(*sub));
  ++group_pos_;
  committed_stats_ = stats_;
  return Status::OK();
}

Result<ExplanationView> StreamGvex::ResidentView() const {
  if (!label_in_progress_) {
    return Status::FailedPrecondition("no resident ingest state to finalize");
  }
  ExplanationView view = partial_view_;
  std::vector<Graph> raw;
  raw.reserve(view.subgraphs.size());
  for (const auto& s : view.subgraphs) raw.push_back(s.subgraph);
  PatternReduction reduction = ReducePatterns(label_patterns_, raw, config_);
  view.patterns = std::move(reduction.patterns);
  return view;
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
