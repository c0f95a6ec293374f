// Edge-case and failure-injection tests: expired deadlines, degenerate
// splits, optimizer reset, tiny graphs, label groups with no members,
// failpoint semantics, checkpoint/resume byte-identity, and stream
// snapshot/restore equivalence.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/checkpoint.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/explain/view_io.h"
#include "gvex/gnn/optimizer.h"
#include "gvex/gnn/trainer.h"
#include "gvex/graph/graph_io.h"
#include "gvex/matching/match_cache.h"
#include "gvex/obs/obs.h"
#include "tests/test_util.h"

namespace gvex {
namespace {

using testutil::MutagenicityContext;

// Unique per-test file path, so parallel ctest processes never collide.
std::string TestTempPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "gvex_rob_" + info->name() + "_" +
         std::to_string(::getpid()) + "_" + suffix;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.is_open();
}

GraphDatabase TinyDb() {
  GraphDatabase db;
  Graph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(0);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  g.SetDefaultFeatures(2, 1.0f);
  db.Add(std::move(g), 0, "tiny");
  return db;
}

ExplanationSubgraph TinySubgraph(size_t graph_index) {
  GraphDatabase db = TinyDb();
  ExplanationSubgraph sub;
  sub.graph_index = graph_index;
  sub.nodes = {0, 1};
  sub.subgraph = db.graph(0).InducedSubgraph(sub.nodes);
  sub.explainability = 0.25 + 0.0625 * static_cast<double>(graph_index);
  return sub;
}

Configuration TestConfig() {
  Configuration config;
  config.theta = 0.08f;
  config.default_coverage = {0, 12};
  return config;
}

TEST(RobustnessTest, ApproxRespectsExpiredDeadline) {
  const auto& ctx = MutagenicityContext();
  ApproxGvex solver(&ctx.model, TestConfig());
  CancellationToken expired;
  expired.ExpireAfter(0.0);
  auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 1, &expired);
  EXPECT_TRUE(view.status().IsTimeout());
}

TEST(RobustnessTest, StreamRespectsExpiredDeadline) {
  const auto& ctx = MutagenicityContext();
  StreamGvex solver(&ctx.model, TestConfig());
  CancellationToken expired;
  expired.ExpireAfter(0.0);
  auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 1, &expired);
  EXPECT_TRUE(view.status().IsTimeout());
}

TEST(RobustnessTest, EmptyLabelGroupYieldsEmptyView) {
  const auto& ctx = MutagenicityContext();
  ApproxGvex solver(&ctx.model, TestConfig());
  // Label 99 is assigned to nothing.
  auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 99);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->subgraphs.empty());
  EXPECT_TRUE(view->patterns.empty());
  EXPECT_EQ(view->explainability, 0.0);
}

TEST(RobustnessTest, SingleNodeGraphIsInfeasible) {
  const auto& ctx = MutagenicityContext();
  Graph tiny;
  tiny.AddNode(0);
  tiny.SetDefaultFeatures(ctx.db.feature_dim(), 1.0f);
  ApproxGvex solver(&ctx.model, TestConfig());
  auto sub = solver.ExplainGraph(tiny, 0, 1);
  EXPECT_TRUE(sub.status().IsInfeasible());
}

TEST(RobustnessTest, TwoNodeGraphNeverSelectsEverything) {
  const auto& ctx = MutagenicityContext();
  Graph pair;
  pair.AddNode(0);
  pair.AddNode(1);
  ASSERT_TRUE(pair.AddEdge(0, 1).ok());
  pair.SetDefaultFeatures(ctx.db.feature_dim(), 1.0f);
  ApproxGvex solver(&ctx.model, TestConfig());
  auto sub = solver.ExplainGraph(pair, 0, ctx.model.Predict(pair));
  if (sub.ok()) {
    EXPECT_EQ(sub->nodes.size(), 1u);  // upper bound clamped to n-1
  }
}

TEST(RobustnessTest, TrainerHandlesEmptySplits) {
  const auto& ctx = MutagenicityContext();
  GcnConfig cfg;
  cfg.input_dim = ctx.db.feature_dim();
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  auto model = GcnClassifier::Create(cfg);
  ASSERT_TRUE(model.ok());
  DataSplit empty;
  TrainReport report = Trainer().Fit(&*model, ctx.db, empty);
  EXPECT_EQ(report.epochs_run, 0u);
  EXPECT_FLOAT_EQ(Trainer::Evaluate(*model, ctx.db, {}), 0.0f);
}

TEST(RobustnessTest, AdamResetClearsState) {
  Matrix w(1, 2, 0.0f);
  Matrix g(1, 2, 1.0f);
  AdamOptimizer opt;
  std::vector<Matrix*> params{&w};
  std::vector<Matrix*> grads{&g};
  opt.Step(params, grads);
  EXPECT_EQ(opt.step_count(), 1);
  opt.Reset();
  EXPECT_EQ(opt.step_count(), 0);
  opt.Step(params, grads);
  EXPECT_EQ(opt.step_count(), 1);
}

TEST(RobustnessTest, StreamHandlesCustomOrderSubset) {
  // A stream order covering only part of the graph: the algorithm must
  // only consider streamed nodes (anytime semantics over a prefix).
  const auto& ctx = MutagenicityContext();
  const Graph& g = ctx.db.graph(0);
  std::vector<NodeId> half_order;
  for (NodeId v = 0; v < g.num_nodes() / 2; ++v) half_order.push_back(v);
  StreamGvex solver(&ctx.model, TestConfig());
  std::vector<Graph> patterns;
  std::unordered_set<std::string> codes;
  auto sub = solver.ExplainGraphStream(g, 0, ctx.assigned[0], &patterns,
                                       &codes, &half_order);
  // Either infeasible (prefix lacks the evidence) or a valid subgraph;
  // never a crash, and stats reflect only streamed nodes.
  EXPECT_LE(solver.stats().nodes_processed, g.num_nodes());
  if (sub.ok()) {
    EXPECT_GE(sub->nodes.size(), 1u);
  }
}

TEST(RobustnessTest, ConfigurationFallbackConstraint) {
  Configuration config;
  config.default_coverage = {1, 7};
  config.coverage[3] = {2, 9};
  EXPECT_EQ(config.ConstraintFor(3).upper, 9u);
  EXPECT_EQ(config.ConstraintFor(0).upper, 7u);
  EXPECT_EQ(config.ConstraintFor(-1).lower, 1u);
}

// ---- failpoints -------------------------------------------------------------

TEST(FailpointTest, ParseSpecGrammar) {
  auto spec = failpoint::ParseSpec("error(io),skip(3),limit(1)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->action, failpoint::FailpointSpec::Action::kError);
  EXPECT_EQ(spec->code, StatusCode::kIoError);
  EXPECT_EQ(spec->skip, 3u);
  EXPECT_EQ(spec->limit, 1u);

  auto delay = failpoint::ParseSpec("delay(7)");
  ASSERT_TRUE(delay.ok());
  EXPECT_EQ(delay->action, failpoint::FailpointSpec::Action::kDelay);
  EXPECT_EQ(delay->delay_ms, 7);

  EXPECT_TRUE(failpoint::ParseSpec("skip(2)").status().IsInvalidArgument());
  EXPECT_TRUE(failpoint::ParseSpec("bogus").status().IsInvalidArgument());
  EXPECT_TRUE(failpoint::ParseSpec("error,1in(0)").status().IsInvalidArgument());
  EXPECT_TRUE(failpoint::ParseSpec("error(nope)").status().IsInvalidArgument());
  EXPECT_TRUE(
      failpoint::ArmFromString("no-equals-here").IsInvalidArgument());
}

TEST(FailpointTest, SkipAndLimitCounting) {
  failpoint::ScopedFailpoint fp("test.skip_limit", "error(io),skip(2),limit(2)");
  // Hits 1-2 pass (skip), hits 3-4 fire, hits 5-6 pass (limit reached).
  for (int i = 0; i < 6; ++i) {
    Status st = failpoint::Check("test.skip_limit");
    if (i == 2 || i == 3) {
      EXPECT_TRUE(st.IsIoError()) << "hit " << i;
    } else {
      EXPECT_TRUE(st.ok()) << "hit " << i;
    }
  }
  EXPECT_EQ(failpoint::HitCount("test.skip_limit"), 6u);
  EXPECT_EQ(failpoint::FiredCount("test.skip_limit"), 2u);
}

TEST(FailpointTest, OneInNFiresDeterministically) {
  failpoint::ScopedFailpoint fp("test.one_in", "error(internal),1in(3)");
  for (int i = 0; i < 7; ++i) {
    Status st = failpoint::Check("test.one_in");
    EXPECT_EQ(!st.ok(), i % 3 == 0) << "hit " << i;
  }
  EXPECT_EQ(failpoint::FiredCount("test.one_in"), 3u);  // hits 1, 4, 7
}

TEST(FailpointTest, DisarmedSitesAreInert) {
  failpoint::DisarmAll();
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_TRUE(failpoint::Check("test.never_armed").ok());
  failpoint::ScopedFailpoint* fp =
      new failpoint::ScopedFailpoint("test.scoped", "error");
  EXPECT_TRUE(failpoint::AnyArmed());
  EXPECT_FALSE(failpoint::Check("test.scoped").ok());
  delete fp;  // scope exit disarms
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_TRUE(failpoint::Check("test.scoped").ok());
}

// ---- atomic save + retry ----------------------------------------------------

TEST(RobustnessTest, AtomicSaveBlockedRenameLeavesNoFile) {
  GraphDatabase db = TinyDb();
  std::string path = TestTempPath("atomic.db");
  failpoint::ScopedFailpoint fp("io.atomic_rename", "error(io)");
  Status st = SaveDatabase(db, path);
  EXPECT_TRUE(st.IsIoError());
  // RetryIo exhausted all attempts against the armed failpoint.
  EXPECT_EQ(failpoint::FiredCount("io.atomic_rename"), 3u);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(RobustnessTest, RetryRecoversFromTransientRenameErrors) {
  GraphDatabase db = TinyDb();
  std::string path = TestTempPath("retry.db");
  {
    // First two rename attempts fail; the third succeeds.
    failpoint::ScopedFailpoint fp("io.atomic_rename", "error(io),limit(2)");
    ASSERT_TRUE(SaveDatabase(db, path).ok());
    EXPECT_EQ(failpoint::FiredCount("io.atomic_rename"), 2u);
  }
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), db.size());
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

// ---- checkpoint journal -----------------------------------------------------

TEST(CheckpointTest, AppendFindReload) {
  std::string path = TestTempPath("journal.ckpt");
  {
    auto ckpt = ExplanationCheckpoint::Open(path, /*resume=*/false);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE((*ckpt)->Append(1, TinySubgraph(0)).ok());
    ASSERT_TRUE((*ckpt)->Append(1, TinySubgraph(2)).ok());
    ASSERT_TRUE((*ckpt)->Append(0, TinySubgraph(1)).ok());
    EXPECT_NE((*ckpt)->Find(1, 2), nullptr);
    EXPECT_EQ((*ckpt)->Find(1, 5), nullptr);
  }
  {
    auto resumed = ExplanationCheckpoint::Open(path, /*resume=*/true);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ((*resumed)->loaded_count(), 3u);
    const ExplanationSubgraph* sub = (*resumed)->Find(1, 2);
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->nodes, TinySubgraph(2).nodes);
    EXPECT_EQ(sub->explainability, TinySubgraph(2).explainability);
  }
  {
    // Without resume the journal is truncated and starts fresh.
    auto fresh = ExplanationCheckpoint::Open(path, /*resume=*/false);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ((*fresh)->loaded_count(), 0u);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, TolerantOfTornTail) {
  std::string path = TestTempPath("torn.ckpt");
  {
    auto ckpt = ExplanationCheckpoint::Open(path, /*resume=*/false);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE((*ckpt)->Append(0, TinySubgraph(0)).ok());
    ASSERT_TRUE((*ckpt)->Append(0, TinySubgraph(1)).ok());
  }
  {
    // A crash mid-append: half a section frame at the end of the file.
    std::ofstream out(path, std::ios::app);
    out << "sec 9999 deadbe";
  }
  {
    auto resumed = ExplanationCheckpoint::Open(path, /*resume=*/true);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ((*resumed)->loaded_count(), 2u);
    ASSERT_TRUE((*resumed)->Append(0, TinySubgraph(2)).ok());
  }
  // The resume cut the torn bytes off, so the record appended after them
  // loads on the next resume.
  auto again = ExplanationCheckpoint::Open(path, /*resume=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->loaded_count(), 3u);
  EXPECT_NE((*again)->Find(0, 2), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointTest, AppendFailpointFailsClosed) {
  std::string path = TestTempPath("failclosed.ckpt");
  {
    auto ckpt = ExplanationCheckpoint::Open(path, /*resume=*/false);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE((*ckpt)->Append(0, TinySubgraph(0)).ok());
    failpoint::ScopedFailpoint fp("checkpoint.append", "error(io)");
    Status st = (*ckpt)->Append(0, TinySubgraph(1));
    EXPECT_TRUE(st.IsIoError());
  }
  // The failed append wrote nothing: the journal holds exactly one record.
  auto resumed = ExplanationCheckpoint::Open(path, /*resume=*/true);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed)->loaded_count(), 1u);
  std::remove(path.c_str());
}

// ---- parallel explain: deadline, failures, checkpoint/resume ----------------

TEST(ParallelRobustnessTest, ExpiredDeadlineReturnsTimeout) {
  const auto& ctx = MutagenicityContext();
  CancellationToken expired;
  expired.ExpireAfter(0.0);
  ParallelExplainOptions options;
  options.num_threads = 2;
  options.cancel = &expired;
  ParallelExplainReport report;
  options.report = &report;
  auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                   TestConfig(), options);
  ASSERT_FALSE(set.ok());
  EXPECT_TRUE(set.status().IsTimeout());
  EXPECT_NE(set.status().message().find("deadline"), std::string::npos);
  EXPECT_GT(report.not_attempted, 0u);
}

TEST(ParallelRobustnessTest, AggregatesFailuresIntoStatus) {
  const auto& ctx = MutagenicityContext();
  failpoint::ScopedFailpoint fp("approx.explain_graph", "error(internal)");
  CancellationToken caller;
  ParallelExplainOptions options;
  options.num_threads = 1;
  options.cancel = &caller;
  ParallelExplainReport report;
  options.report = &report;
  auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                   TestConfig(), options);
  ASSERT_FALSE(set.ok());
  EXPECT_TRUE(set.status().IsInternal());
  EXPECT_NE(set.status().message().find("graph explanations failed"),
            std::string::npos);
  // Serial execution: the first failure cancels everything behind it.
  EXPECT_GT(report.not_attempted, 0u);
  EXPECT_NE(set.status().message().find("outstanding cancelled"),
            std::string::npos);
  // The failure stopped the build through its own token; the caller's
  // token is only read.
  EXPECT_FALSE(caller.cancelled());
}

TEST(ParallelRobustnessTest, RejectsARepeatedLabelBeforeAnyWork) {
  const auto& ctx = MutagenicityContext();
  // Every graph would fail if it were explained, so an error other than
  // the repeated label would show that work ran.
  failpoint::ScopedFailpoint fp("approx.explain_graph", "error(internal)");
  ParallelExplainOptions options;
  options.num_threads = 2;
  ParallelExplainReport report;
  options.report = &report;
  auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {1, 0, 1},
                                   TestConfig(), options);
  ASSERT_FALSE(set.ok());
  EXPECT_TRUE(set.status().IsInvalidArgument()) << set.status().ToString();
  EXPECT_NE(set.status().message().find("label 1 is listed twice"),
            std::string::npos);
  EXPECT_TRUE(report.per_view.empty());
  // ApproxGvex::Explain runs ParallelApproxExplain, so it refuses too.
  ApproxGvex solver(&ctx.model, TestConfig());
  auto serial = solver.Explain(ctx.db, ctx.assigned, {0, 0});
  ASSERT_FALSE(serial.ok());
  EXPECT_TRUE(serial.status().IsInvalidArgument());
}

TEST(ParallelRobustnessTest, ReportCountsEveryGraphOutcome) {
  const auto& ctx = MutagenicityContext();
  ParallelExplainOptions options;
  options.num_threads = 2;
  ParallelExplainReport report;
  options.report = &report;
  auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                   TestConfig(), options);
  ASSERT_TRUE(set.ok());
  size_t total_attempted = 0;
  for (const auto& [label, stats] : report.per_view) {
    EXPECT_EQ(stats.attempted, stats.explained + stats.infeasible)
        << "label " << label;
    EXPECT_EQ(stats.explained, set->ForLabel(label)->subgraphs.size());
    total_attempted += stats.attempted;
  }
  size_t group_total = GraphDatabase::LabelGroup(ctx.assigned, 0).size() +
                       GraphDatabase::LabelGroup(ctx.assigned, 1).size();
  EXPECT_EQ(total_attempted, group_total);
  EXPECT_EQ(report.not_attempted, 0u);
}

TEST(ParallelRobustnessTest, CheckpointResumeIsByteIdentical) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  std::string ckpt_path = TestTempPath("resume.ckpt");
  std::string straight_path = TestTempPath("straight.views");
  std::string resumed_path = TestTempPath("resumed.views");

  // Reference: one uninterrupted run, no checkpoint.
  {
    ParallelExplainOptions options;
    options.num_threads = 2;
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                     config, options);
    ASSERT_TRUE(set.ok());
    ASSERT_TRUE(SaveViewSet(*set, straight_path).ok());
  }

  // "Kill" a checkpointed run partway: the 6th per-graph solve dies.
  {
    auto ckpt = ExplanationCheckpoint::Open(ckpt_path, /*resume=*/false);
    ASSERT_TRUE(ckpt.ok());
    failpoint::ScopedFailpoint fp("approx.explain_graph",
                                  "error(internal),skip(5),limit(1)");
    ParallelExplainOptions options;
    options.num_threads = 2;
    options.checkpoint = ckpt->get();
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                     config, options);
    ASSERT_FALSE(set.ok());
  }

  // Re-run with resume: journaled graphs are skipped, the rest recomputed,
  // and the saved view set is byte-identical to the uninterrupted run.
  {
    auto ckpt = ExplanationCheckpoint::Open(ckpt_path, /*resume=*/true);
    ASSERT_TRUE(ckpt.ok());
    EXPECT_GT((*ckpt)->loaded_count(), 0u);
    ParallelExplainOptions options;
    options.num_threads = 2;
    options.checkpoint = ckpt->get();
    ParallelExplainReport report;
    options.report = &report;
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                     config, options);
    ASSERT_TRUE(set.ok());
    size_t resumed = 0;
    for (const auto& [label, stats] : report.per_view) resumed += stats.resumed;
    EXPECT_EQ(resumed, (*ckpt)->loaded_count());
    ASSERT_TRUE(SaveViewSet(*set, resumed_path).ok());
  }

  std::string straight = FileBytes(straight_path);
  std::string resumed = FileBytes(resumed_path);
  ASSERT_FALSE(straight.empty());
  EXPECT_EQ(resumed, straight);
  std::remove(ckpt_path.c_str());
  std::remove(straight_path.c_str());
  std::remove(resumed_path.c_str());
}

// ---- stream snapshot/restore ------------------------------------------------

TEST(StreamSnapshotTest, RestoreContinuesToStraightThroughResult) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();

  // Straight-through reference run.
  StreamGvex straight(&ctx.model, config);
  auto straight_view = straight.ExplainLabel(ctx.db, ctx.assigned, 1);
  ASSERT_TRUE(straight_view.ok());

  // Interrupted run: an injected fault kills the solver mid-stream.
  StreamGvex interrupted(&ctx.model, config);
  {
    failpoint::ScopedFailpoint fp("stream.inc_update_vs",
                                  "error(internal),skip(10),limit(1)");
    auto view = interrupted.ExplainLabel(ctx.db, ctx.assigned, 1);
    ASSERT_FALSE(view.ok());
    EXPECT_TRUE(view.status().IsInternal());
  }
  StreamGvexSnapshot snap = interrupted.Snapshot();
  EXPECT_TRUE(snap.in_progress);
  EXPECT_EQ(snap.label, 1);

  // Restore into a fresh solver and continue.
  StreamGvex resumed(&ctx.model, config);
  ASSERT_TRUE(resumed.Restore(snap).ok());
  auto resumed_view = resumed.ExplainLabel(ctx.db, ctx.assigned, 1);
  ASSERT_TRUE(resumed_view.ok());

  // The resumed view serializes identically to the straight-through one.
  ExplanationViewSet straight_set, resumed_set;
  straight_set.views.push_back(*straight_view);
  resumed_set.views.push_back(*resumed_view);
  TextWriter straight_out, resumed_out;
  ASSERT_TRUE(WriteViewSet(straight_set, &straight_out).ok());
  ASSERT_TRUE(WriteViewSet(resumed_set, &resumed_out).ok());
  EXPECT_EQ(resumed_out.str(), straight_out.str());

  // And the resumed stats equal the straight-through stats.
  EXPECT_EQ(resumed.stats().nodes_processed, straight.stats().nodes_processed);
  EXPECT_EQ(resumed.stats().accepts, straight.stats().accepts);
  EXPECT_EQ(resumed.stats().swaps, straight.stats().swaps);
  EXPECT_EQ(resumed.stats().skips, straight.stats().skips);
  EXPECT_EQ(resumed.stats().everify_calls, straight.stats().everify_calls);
  EXPECT_EQ(resumed.stats().graphs_explained,
            straight.stats().graphs_explained);
  EXPECT_EQ(resumed.stats().graphs_infeasible,
            straight.stats().graphs_infeasible);
}

TEST(StreamSnapshotTest, InPlaceReentryAlsoResumes) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();
  StreamGvex straight(&ctx.model, config);
  auto straight_view = straight.ExplainLabel(ctx.db, ctx.assigned, 0);
  ASSERT_TRUE(straight_view.ok());

  StreamGvex solver(&ctx.model, config);
  {
    failpoint::ScopedFailpoint fp("stream.inc_update_vs",
                                  "error(timeout),skip(25),limit(1)");
    auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 0);
    ASSERT_FALSE(view.ok());
  }
  // Calling again on the same solver picks up after the last committed
  // graph (the interrupted graph replays in full).
  auto view = solver.ExplainLabel(ctx.db, ctx.assigned, 0);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->subgraphs.size(), straight_view->subgraphs.size());
  EXPECT_EQ(view->explainability, straight_view->explainability);
  EXPECT_EQ(solver.stats().nodes_processed, straight.stats().nodes_processed);
}

TEST(StreamSnapshotTest, AbandonedLabelRetiresItsCacheEntries) {
  const auto& ctx = MutagenicityContext();
  Configuration config = TestConfig();

  // Interrupt a label-0 run at a point where at least one subgraph has
  // committed into the partial view (the exact arrival count depends on
  // the dataset, so probe a few failpoint skips).
  std::unique_ptr<StreamGvex> solver;
  for (int skip : {12, 25, 40, 60, 90}) {
    auto trial = std::make_unique<StreamGvex>(&ctx.model, config);
    failpoint::ScopedFailpoint fp(
        "stream.inc_update_vs",
        "error(internal),skip(" + std::to_string(skip) + "),limit(1)");
    auto view = trial->ExplainLabel(ctx.db, ctx.assigned, 0);
    if (!view.ok() && !trial->Snapshot().partial.subgraphs.empty()) {
      solver = std::move(trial);
      break;
    }
  }
  ASSERT_NE(solver, nullptr)
      << "no failpoint skip interrupted after a committed subgraph";

  // Plant a cache entry keyed by a partial subgraph, standing in for the
  // coverage queries the in-progress run issues against it.
  StreamGvexSnapshot snap = solver->Snapshot();
  const Graph& retired = snap.partial.subgraphs[0].subgraph;
  Graph probe(retired.directed());
  probe.AddNode(retired.node_type(0));
  (void)MatchCache::Global().HasMatch(probe, retired, config.match);

  auto& invalidated =
      obs::Registry::Global().GetCounter("match_cache.invalidated");
  const uint64_t before = invalidated.Value();

  // Switching labels abandons the partial run; its subgraphs retire and
  // their cache entries are dropped eagerly.
  auto other = solver->ExplainLabel(ctx.db, ctx.assigned, 1);
  ASSERT_TRUE(other.ok());
  EXPECT_GE(invalidated.Value(), before + 1);
}

}  // namespace
}  // namespace gvex
