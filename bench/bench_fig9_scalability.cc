// Fig. 9(d,e,f) reproduction — scalability:
//   (d) total runtime vs number of input graphs (PCQ regime);
//   (e) parallel speedup of the per-graph scheme (appendix A.7) — on a
//       single-core host the honest result is ~1x, with the thread sweep
//       exercising the real parallel code path;
//   (f) StreamGVEX runtime vs processed batch fraction (linear growth).
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "gvex/explain/parallel.h"

using namespace gvex;
using namespace gvex::bench;

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.6;

  BenchReport report("fig9_scalability");
  report.SetParam("scale", scale);
  Stopwatch total;

  std::printf("Fig. 9(d) — runtime (s) vs #input graphs (PCQ)\n");
  std::printf("%-10s%10s%10s\n", "#graphs", "AG", "SG");
  for (double frac : {0.125, 0.25, 0.5, 1.0}) {
    datasets::PcqmOptions po;
    po.num_graphs = static_cast<size_t>(600 * scale * frac);
    GraphDatabase db = datasets::MakePcqm(po);
    GcnConfig mc;
    mc.input_dim = db.feature_dim();
    mc.hidden_dim = 32;
    mc.num_layers = 3;
    mc.num_classes = db.num_classes();
    auto model = GcnClassifier::Create(mc);
    DataSplit split = SplitDatabase(db, 0.8, 0.1, 42);
    TrainerConfig tc;
    tc.epochs = 80;
    Trainer(tc).Fit(&*model, db, split);
    Workbench wb;
    wb.code = "PCQ";
    wb.db = std::move(db);
    wb.model = std::move(*model);
    wb.assigned = AssignLabels(wb.model, wb.db);

    ExplainerRun ag = RunApprox(wb, 1, 12);
    ExplainerRun sg = RunStream(wb, 1, 12);
    report.AddTiming("pcq" + std::to_string(po.num_graphs) + ".AG",
                     ag.seconds);
    report.AddTiming("pcq" + std::to_string(po.num_graphs) + ".SG",
                     sg.seconds);
    std::printf("%-10zu%10.2f%10.2f\n", po.num_graphs, ag.seconds,
                sg.seconds);
  }

  std::printf("\nFig. 9(e) — parallel ApproxGVEX (PRO ego-subgraph task), "
              "thread sweep\n");
  {
    Workbench wb = PrepareWorkbench("PRO", scale);
    Configuration config = DefaultConfig(12);
    std::printf("%-10s%10s%10s\n", "threads", "time(s)", "speedup");
    double base = 0.0;
    for (size_t threads : {1, 2, 4}) {
      ParallelExplainOptions options;
      options.num_threads = threads;
      Stopwatch w;
      auto set = ParallelApproxExplain(wb.model, wb.db, wb.assigned, {1},
                                       config, options);
      double secs = w.ElapsedSeconds();
      if (!set.ok()) {
        std::printf("%-10zu%10s\n", threads, "error");
        continue;
      }
      if (threads == 1) base = secs;
      report.AddTiming("parallel.threads" + std::to_string(threads), secs);
      std::printf("%-10zu%10.2f%10.2f\n", threads, secs,
                  base > 0 ? base / secs : 1.0);
    }
    std::printf("(host has %u hardware threads; speedup saturates there)\n",
                std::thread::hardware_concurrency());
  }

  std::printf("\nFig. 9(f) — StreamGVEX runtime vs batch fraction of the "
              "test graphs (SYN)\n");
  {
    Workbench wb = PrepareWorkbench("SYN", scale);
    std::printf("%-10s%10s%12s\n", "batch", "time(s)", "#explained");
    for (double frac : {0.25, 0.5, 0.75, 1.0}) {
      // Prefix of the label group simulates a partially processed stream.
      std::vector<ClassLabel> masked = wb.assigned;
      auto group = GraphDatabase::LabelGroup(wb.assigned, 1);
      size_t keep = static_cast<size_t>(frac * static_cast<double>(group.size()));
      for (size_t i = keep; i < group.size(); ++i) masked[group[i]] = -1;
      Configuration config = DefaultConfig(12);
      StreamGvex solver(&wb.model, config);
      Stopwatch w;
      auto view = solver.ExplainLabel(wb.db, masked, 1);
      double secs = w.ElapsedSeconds();
      std::printf("%-10.2f%10.2f%12zu\n", frac, secs,
                  view.ok() ? view->subgraphs.size() : 0);
    }
  }
  report.AddTiming("total", total.ElapsedSeconds());
  return 0;
}
