#include "gvex/cli/cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/cluster/publisher.h"
#include "gvex/cluster/replicator.h"
#include "gvex/cluster/router.h"
#include "gvex/cluster/shard_map.h"

#include "gvex/common/cancellation.h"
#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/common/logging.h"
#include "gvex/common/stopwatch.h"
#include "gvex/common/string_util.h"
#include "gvex/common/text_codec.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/checkpoint.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/query.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/explain/verifier.h"
#include "gvex/explain/view_io.h"
#include "gvex/gnn/serialize.h"
#include "gvex/gnn/trainer.h"
#include "gvex/graph/graph_io.h"
#include "gvex/ingest/ingest.h"
#include "gvex/metrics/metrics.h"
#include "gvex/obs/obs.h"
#include "gvex/obs/report.h"
#include "gvex/serve/socket.h"
#include "gvex/zoo/zoo.h"

namespace gvex {
namespace cli {
namespace {

// ---- flags --------------------------------------------------------------------
//
// A command's synopsis in kCommands (end of file) is the one definition of
// its flags: Flags::Parse checks a command line against it, the usage text
// prints it, and docs-lint checks that each flag it names is documented.
//
//   --name KIND     required        [--name KIND=v]  optional, default v
//   [--name KIND]   optional        [--name]         a switch
//   (a | b)         alternatives that the command checks
//
// A KIND in kKinds is checked: a number must parse in full and fit the
// type of the field it sets. A KIND of words joined by '|' takes exactly
// those words. Any other KIND (PATH, NAME, ...) is text.

Result<std::vector<ClassLabel>> ParseLabels(std::string_view spec) {
  std::vector<ClassLabel> labels;
  for (const std::string& part : SplitString(std::string(spec), ',')) {
    ClassLabel label = 0;
    if (!ParseNumber(part, &label) || label < 0) {
      return Status::InvalidArgument("'" + part + "' is not a label");
    }
    if (std::find(labels.begin(), labels.end(), label) != labels.end()) {
      return Status::InvalidArgument("label " + part + " is listed twice");
    }
    labels.push_back(label);
  }
  if (labels.empty()) return Status::InvalidArgument("no labels");
  return labels;
}

template <TextNumber T>
Status CheckNumber(std::string_view value) {
  using Limits = std::numeric_limits<T>;
  T parsed{};
  if (ParseNumber(value, &parsed)) return Status::OK();
  return Status::InvalidArgument(
      !Limits::is_integer ? "expected a finite number"
                          : "expected an integer in [" +
                                std::to_string(Limits::min()) + ", " +
                                std::to_string(Limits::max()) + "]");
}

// The `client --type` words are kRequestTypes' wire names.
Status CheckRequestType(std::string_view value) {
  if (serve::RequestTypeFromName(value)) return Status::OK();
  std::string names;
  for (const serve::RequestTypeInfo& row : serve::kRequestTypes) {
    names += (names.empty() ? "" : "|") + std::string(row.name);
  }
  return Status::InvalidArgument("expected one of " + names);
}

using ValueCheck = Status (*)(std::string_view value);

// The checked KINDs. A numeric one names the type of the field it sets.
constexpr std::pair<std::string_view, ValueCheck> kKinds[] = {
    {"PORT", CheckNumber<uint16_t>}, {"MS", CheckNumber<uint32_t>},
    {"K", CheckNumber<uint32_t>},    {"N", CheckNumber<size_t>},
    {"TRIES", CheckNumber<int>},     {"ID", CheckNumber<uint64_t>},
    {"SEED", CheckNumber<uint64_t>}, {"LABEL", CheckNumber<ClassLabel>},
    {"INDEX", CheckNumber<int32_t>}, {"X", CheckNumber<double>},
    {"TYPE", CheckRequestType},
    {"LABELS", [](std::string_view v) { return ParseLabels(v).status(); }}};

// Flags that every command takes.
constexpr std::string_view kCommonFlags =
    "[--fail SPEC] [--metrics-out PATH] [--trace-out PATH]";

struct FlagSpec {
  std::string name;  // without the leading "--"
  std::string kind;  // empty for a switch
  std::optional<std::string> fallback;
  bool required = false;
  ValueCheck check = nullptr;        // from kKinds
  std::optional<std::string> value;  // as given on the command line
};

Status CheckValue(const FlagSpec& spec, std::string_view value) {
  if (spec.check != nullptr) return spec.check(value);
  if (spec.kind.find('|') == std::string::npos) return Status::OK();
  for (const std::string& word : SplitString(spec.kind, '|')) {
    if (word == value) return Status::OK();
  }
  return Status::InvalidArgument("expected one of " + spec.kind);
}

// The flags a synopsis names; one outside all brackets is required.
Result<std::vector<FlagSpec>> ParseSynopsis(
    const std::vector<std::string_view>& lines) {
  std::vector<FlagSpec> specs;
  int depth = 0;
  bool kind_next = false;  // the word after a flag is its KIND
  for (std::string_view line : lines) {
    for (std::string word : SplitString(std::string(line), ' ')) {
      for (; word[0] == '[' || word[0] == '('; word.erase(0, 1)) ++depth;
      const size_t close = std::min(word.find_first_of("])"), word.size());
      const std::string head = word.substr(0, close);
      if (StartsWith(head, "--")) {
        specs.emplace_back().name = head.substr(2);
        specs.back().required = depth == 0;
      } else if (kind_next && head != "|") {
        FlagSpec& spec = specs.back();
        const size_t eq = head.find('=');
        spec.kind = head.substr(0, eq);
        if (eq != std::string::npos) spec.fallback = head.substr(eq + 1);
        for (const auto& [kind, check] : kKinds) {
          if (kind == spec.kind) spec.check = check;
        }
        if (spec.fallback) GVEX_RETURN_NOT_OK(CheckValue(spec, *spec.fallback));
      }
      kind_next = StartsWith(head, "--") && close == word.size();
      depth -= static_cast<int>(word.size() - close);
    }
  }
  return specs;
}

class Flags {
 public:
  /// Checks `args` against a command's synopsis: each flag is one it
  /// names, with a value unless it is a switch; each value fits its KIND;
  /// each required flag is given. A repeated flag keeps its last value,
  /// and a value is taken verbatim, even when it starts with "--".
  static Result<Flags> Parse(std::vector<std::string_view> synopsis,
                             const std::vector<std::string>& args) {
    synopsis.push_back(kCommonFlags);
    Flags flags;
    GVEX_ASSIGN_OR_RETURN(flags.specs_, ParseSynopsis(synopsis));
    for (size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      auto spec = std::find_if(
          flags.specs_.begin(), flags.specs_.end(),
          [&](const FlagSpec& s) { return arg == "--" + s.name; });
      if (spec == flags.specs_.end()) {
        return Status::InvalidArgument(
            (StartsWith(arg, "--") ? "unknown flag " : "unexpected argument ") +
            arg);
      }
      spec->value = "";
      if (spec->kind.empty()) continue;
      if (++i == args.size()) {
        return Status::InvalidArgument("flag " + arg + " needs a value");
      }
      if (Status fits = CheckValue(*spec, args[i]); !fits.ok()) {
        return Status::InvalidArgument(arg + " " + args[i] + ": " +
                                       fits.message());
      }
      spec->value = args[i];
    }
    for (const FlagSpec& spec : flags.specs_) {
      if (spec.required) GVEX_RETURN_NOT_OK(flags.Require(spec.name).status());
    }
    return flags;
  }

  /// Whether the command line gave the flag.
  bool Has(std::string_view name) const { return Spec(name).value.has_value(); }

  /// The given value, else the default; a required flag always has one.
  std::optional<std::string> Get(std::string_view name) const {
    const FlagSpec& spec = Spec(name);
    return spec.value ? spec.value : spec.fallback;
  }

  /// For a flag that only some modes of a command need.
  Result<std::string> Require(std::string_view name) const {
    if (auto v = Get(name)) return *v;
    return Status::InvalidArgument("missing required flag --" +
                                   std::string(name));
  }

  /// The value, else the default, read as the type its KIND names.
  template <TextNumber T>
  T Number(std::string_view name) const {
    GVEX_CHECK(Spec(name).check == &CheckNumber<T>)
        << "--" << name << " is read as a type its KIND does not name";
    T value{};
    GVEX_CHECK(ParseNumber(Get(name).value_or(""), &value))
        << "--" << name << " has no value and no default";
    return value;
  }

 private:
  // A command reads only the flags that its synopsis names.
  const FlagSpec& Spec(std::string_view name) const {
    auto it = std::find_if(specs_.begin(), specs_.end(),
                           [&](const FlagSpec& s) { return s.name == name; });
    GVEX_CHECK(it != specs_.end()) << "--" << name << " is not in synopsis";
    return *it;
  }

  std::vector<FlagSpec> specs_;
};

// ---- shared loaders -----------------------------------------------------------

// A pattern or query graph file: one gvexgraph-v1 record.
Result<Graph> LoadGraphFile(const std::string& path) {
  GVEX_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  TextReader in(bytes);
  return ReadGraph(&in);
}

Configuration ConfigFromFlags(const Flags& flags) {
  Configuration config;
  config.theta = static_cast<float>(flags.Number<double>("theta"));
  config.radius = static_cast<float>(flags.Number<double>("radius"));
  config.gamma = static_cast<float>(flags.Number<double>("gamma"));
  config.default_coverage.lower = flags.Number<size_t>("bl");
  config.default_coverage.upper = flags.Number<size_t>("ul");
  return config;
}

// ---- subcommands --------------------------------------------------------------

Status CmdGen(const Flags& flags) {
  const std::string out = *flags.Get("out");
  // --seed offsets the generator: distinct but reproducible databases.
  GVEX_ASSIGN_OR_RETURN(
      GraphDatabase db,
      datasets::MakeByName(*flags.Get("dataset"), flags.Number<double>("scale"),
                           flags.Number<uint64_t>("seed")));
  GVEX_RETURN_NOT_OK(SaveDatabase(db, out));
  std::printf("wrote %zu graphs to %s\n", db.size(), out.c_str());
  return Status::OK();
}

Status CmdStats(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*flags.Get("db")));
  auto s = db.ComputeStats();
  std::printf("graphs %zu, classes %zu, avg nodes %.1f, avg edges %.1f, "
              "features/node %zu\n",
              s.num_graphs, s.num_classes, s.avg_nodes, s.avg_edges,
              s.feature_dim);
  return Status::OK();
}

Status CmdTrain(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*flags.Get("db")));
  const std::string out = *flags.Get("out");
  GcnConfig mc;
  mc.input_dim = db.feature_dim();
  mc.hidden_dim = flags.Number<size_t>("hidden");
  mc.num_layers = flags.Number<size_t>("layers");
  mc.num_classes = db.num_classes();
  const std::string agg = *flags.Get("aggregator");
  if (agg == "mean") {
    mc.propagation = Graph::PropagationKind::kMeanNeighbor;
  } else if (agg == "sum") {
    mc.propagation = Graph::PropagationKind::kSumNeighbor;
  }
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnClassifier::Create(mc));
  DataSplit split =
      SplitDatabase(db, 0.8, 0.1, flags.Number<uint64_t>("seed"));
  TrainerConfig tc;
  tc.epochs = flags.Number<size_t>("epochs");
  tc.patience = tc.epochs / 2;
  tc.adam.learning_rate = static_cast<float>(flags.Number<double>("lr"));
  TrainReport report = Trainer(tc).Fit(&model, db, split);
  GVEX_RETURN_NOT_OK(GcnSerializer::Save(model, out));
  std::printf("trained %zu epochs, val acc %.3f, test acc %.3f; model -> %s\n",
              report.epochs_run, report.best_validation_accuracy,
              report.test_accuracy, out.c_str());
  return Status::OK();
}

Status CmdExplain(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*flags.Get("db")));
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model,
                        GcnSerializer::Load(*flags.Get("model")));
  const std::string out = *flags.Get("out");
  GVEX_ASSIGN_OR_RETURN(std::vector<ClassLabel> labels,
                        ParseLabels(*flags.Get("labels")));
  Configuration config = ConfigFromFlags(flags);
  std::vector<ClassLabel> assigned = AssignLabels(model, db);

  // Fault-tolerance knobs (see README "Long jobs" section).
  std::unique_ptr<ExplanationCheckpoint> checkpoint;
  if (auto ckpt_path = flags.Get("checkpoint")) {
    GVEX_ASSIGN_OR_RETURN(
        checkpoint,
        ExplanationCheckpoint::Open(*ckpt_path, flags.Has("resume")));
    if (checkpoint->loaded_count() > 0) {
      std::printf("resuming: %zu journaled subgraphs from %s\n",
                  checkpoint->loaded_count(), ckpt_path->c_str());
    }
  } else if (flags.Has("resume")) {
    return Status::InvalidArgument("--resume requires --checkpoint <path>");
  }
  CancellationToken cancel;
  const double budget = flags.Number<double>("budget");
  if (budget > 0.0) cancel.ExpireAfter(budget);
  const size_t threads = flags.Number<size_t>("threads");

  ExplanationViewSet set;
  if (*flags.Get("algorithm") == "approx") {
    ParallelExplainOptions options;
    options.num_threads = threads == 0 ? 1 : threads;
    options.cancel = &cancel;
    options.checkpoint = checkpoint.get();
    ParallelExplainReport report;
    options.report = &report;
    GVEX_ASSIGN_OR_RETURN(
        set, ParallelApproxExplain(model, db, assigned, labels, config,
                                   options));
    for (const auto& [label, stats] : report.per_view) {
      std::printf(
          "label %d: %zu/%zu explained (%zu resumed, %zu infeasible)\n",
          label, stats.explained, stats.attempted, stats.resumed,
          stats.infeasible);
    }
  } else {
    if (checkpoint != nullptr) {
      return Status::InvalidArgument(
          "--checkpoint applies to --algorithm approx (stream uses in-process "
          "Snapshot/Restore)");
    }
    StreamGvex solver(&model, config);
    GVEX_ASSIGN_OR_RETURN(set,
                          solver.Explain(db, assigned, labels, &cancel,
                                         flags.Number<uint64_t>("seed")));
  }
  GVEX_RETURN_NOT_OK(SaveViewSet(set, out));
  for (const auto& view : set.views) {
    std::printf("%s\n", view.Summary().c_str());
  }
  std::printf("views -> %s\n", out.c_str());
  return Status::OK();
}

Status CmdVerify(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*flags.Get("db")));
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model,
                        GcnSerializer::Load(*flags.Get("model")));
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set,
                        LoadViewSet(*flags.Get("views")));
  Configuration config = ConfigFromFlags(flags);
  bool all_ok = true;
  for (const auto& view : set.views) {
    ViewVerification check =
        VerifyExplanationView(view, db, model, config);
    std::printf("label %d: C1=%d C2=%d C3=%d %s\n", view.label,
                check.c1_graph_view ? 1 : 0, check.c2_explanation ? 1 : 0,
                check.c3_coverage ? 1 : 0, check.detail.c_str());
    all_ok = all_ok && check.ok();
  }
  return all_ok ? Status::OK()
                : Status::FailedPrecondition("verification failed");
}

Status CmdFidelity(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*flags.Get("db")));
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model,
                        GcnSerializer::Load(*flags.Get("model")));
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set,
                        LoadViewSet(*flags.Get("views")));
  for (const auto& view : set.views) {
    FidelityReport fid =
        EvaluateFidelity(model, db, ToGraphExplanations(view));
    std::printf("label %d: fidelity+ %.3f, fidelity- %.3f, sparsity %.3f, "
                "compression %.3f (%zu graphs)\n",
                view.label, fid.fidelity_plus, fid.fidelity_minus,
                fid.sparsity, view.Compression(), fid.num_graphs);
  }
  return Status::OK();
}

Status CmdQuery(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set,
                        LoadViewSet(*flags.Get("views")));
  GVEX_ASSIGN_OR_RETURN(Graph pattern, LoadGraphFile(*flags.Get("pattern")));
  const ClassLabel label = flags.Number<ClassLabel>("label");

  MatchOptions loose;
  loose.semantics = MatchSemantics::kSubgraph;
  ViewQuery query(loose);
  for (const auto& view : set.views) {
    if (label >= 0 && view.label != label) continue;
    auto hits = query.FindHits(view, pattern);
    std::printf("label %d: pattern matches %zu/%zu explanation subgraphs\n",
                view.label, hits.size(), view.subgraphs.size());
    for (const auto& hit : hits) {
      std::printf("  graph %zu: %zu embeddings\n", hit.graph_index,
                  hit.embeddings);
    }
  }
  return Status::OK();
}

// ---- serving ------------------------------------------------------------------

Result<serve::Endpoint> EndpointFromFlags(const Flags& flags) {
  if (auto path = flags.Get("socket")) return serve::Endpoint::Unix(*path);
  if (flags.Has("port")) {
    return serve::Endpoint::Tcp(flags.Number<uint16_t>("port"));
  }
  return Status::InvalidArgument("need --socket <path> or --port <n>");
}

// --targets "a,b,c": endpoints in the ParseEndpointSpec grammar
// (unix:<path>, tcp:<port>, or a bare port); empty entries are skipped.
Result<std::vector<serve::Endpoint>> TargetsFromSpec(const std::string& spec) {
  std::vector<serve::Endpoint> targets;
  for (const std::string& entry : SplitString(spec, ',')) {
    GVEX_ASSIGN_OR_RETURN(serve::Endpoint target,
                          cluster::ParseEndpointSpec(entry));
    targets.push_back(std::move(target));
  }
  return targets;
}

// The publish flag group shared by `publish --targets`, `publish
// --shard-map`, and `serve --ingest` auto-publish.
cluster::PublishOptions PublishOptionsFromFlags(const Flags& flags) {
  cluster::PublishOptions popts;
  popts.retries = flags.Number<int>("retry");
  popts.backoff_base_ms = flags.Number<uint32_t>("retry-backoff-ms");
  popts.jitter_seed = flags.Number<uint64_t>("seed");
  popts.health_gate = !flags.Has("no-health-gate");
  return popts;
}

// One row per publish target ("shard" or "target"), then the tally;
// returns the aggregate outcome (kPartialFailure on a mixed one).
Status PrintPublishReport(const char* noun,
                          const cluster::PublishReport& report) {
  for (const cluster::TargetReport& row : report.targets) {
    if (row.status.ok()) {
      std::printf("%s %s: ok (attempts %d, fingerprint %s)\n", noun,
                  row.target.c_str(), row.attempts, row.fingerprint.c_str());
    } else {
      std::printf("%s %s: %s (attempts %d%s)\n", noun, row.target.c_str(),
                  row.status.ToString().c_str(), row.attempts,
                  row.probed ? "" : ", never probed healthy");
    }
  }
  std::printf("published %zu/%zu %ss\n", report.succeeded,
              report.targets.size(), noun);
  return report.Aggregate();
}

Status CmdServe(const Flags& flags) {
  serve::ViewRegistry registry;
  const std::string route =
      flags.Get("route").value_or(cluster::kDefaultRoute);
  if (!cluster::IsValidRouteName(route)) {
    return Status::InvalidArgument("invalid route name: '" + route + "'");
  }
  // --exact-fp32 a,b: pin routes to full-precision models. The policy
  // sits in the registry's publish funnel, so wire installs, fetched
  // bundles, and local loads are all covered by the same rejection.
  if (auto exact_spec = flags.Get("exact-fp32")) {
    for (const std::string& entry : SplitString(*exact_spec, ',')) {
      if (!cluster::IsValidRouteName(entry)) {
        return Status::InvalidArgument("--exact-fp32: invalid route name '" +
                                       entry + "'");
      }
      registry.SetExactFp32(entry, true);
    }
  }
  const auto views_path = flags.Get("views");
  const auto follow = flags.Get("follow");
  const bool live_ingest = flags.Has("ingest");
  if (!views_path && !follow && !live_ingest) {
    return Status::InvalidArgument(
        "need --views <file> (or --follow <primary> for a standby, or "
        "--ingest to bootstrap from the live write path)");
  }
  size_t warm = 0;
  if (views_path) {
    GVEX_RETURN_NOT_OK(registry.LoadViews(route, *views_path));
    if (auto model_path = flags.Get("model")) {
      if (route != cluster::kDefaultRoute) {
        return Status::InvalidArgument(
            "--model loads into the default route; publish a bundle to put "
            "a model on route '" + route + "'");
      }
      GVEX_RETURN_NOT_OK(registry.LoadModel(*model_path));
    }
    warm = registry.WarmMatchCache(route);
  }

  std::unique_ptr<cluster::Replicator> replicator;
  if (follow) {
    cluster::ReplicatorOptions ropts;
    GVEX_ASSIGN_OR_RETURN(ropts.primary, cluster::ParseEndpointSpec(*follow));
    ropts.poll_interval_ms = flags.Number<uint32_t>("poll-ms");
    ropts.jitter_seed = flags.Number<uint64_t>("seed");
    replicator = std::make_unique<cluster::Replicator>(&registry, ropts);
  }

  // --ingest: a resident StreamGVEX behind this server (gvex::ingest).
  // kIngest requests bypass the query queue into the manager's dedicated
  // worker; drift past --drift-threshold cuts a bundle and hot-swaps it
  // into the registry (and fans out to --targets / --shard-map followers,
  // reusing the publish grammar). --ingest-journal + --resume give
  // crash-exact restart (docs/SERVING.md "Live ingest & freshness SLO").
  std::unique_ptr<ingest::IngestManager> ingester;
  if (live_ingest) {
    GVEX_ASSIGN_OR_RETURN(std::string model_path, flags.Require("model"));
    GVEX_ASSIGN_OR_RETURN(GcnClassifier ingest_model,
                          GcnSerializer::Load(model_path));
    ingest::IngestOptions iopts;
    iopts.route = route;
    iopts.max_pending = flags.Number<size_t>("ingest-queue");
    iopts.drift_threshold = flags.Number<double>("drift-threshold");
    iopts.drift_window = flags.Number<size_t>("drift-window");
    iopts.checkpoint_cadence = flags.Number<size_t>("ingest-cadence");
    iopts.journal_path = flags.Get("ingest-journal").value_or("");
    iopts.resume = flags.Has("resume");
    iopts.config = ConfigFromFlags(flags);
    if (auto targets_spec = flags.Get("targets")) {
      GVEX_ASSIGN_OR_RETURN(iopts.targets, TargetsFromSpec(*targets_spec));
    }
    if (auto map_path = flags.Get("shard-map")) {
      GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                            cluster::ShardMap::Load(*map_path));
      iopts.shard_map =
          std::make_shared<const cluster::ShardMap>(std::move(map));
    }
    iopts.publish = PublishOptionsFromFlags(flags);
    ingester = std::make_unique<ingest::IngestManager>(
        &registry,
        std::make_shared<const GcnClassifier>(std::move(ingest_model)),
        std::move(iopts));
  }

  // --zoo FILE: the explainer zoo (gvex::zoo). The gvexzoo-v1 artifact
  // binds routes to explainer configs; kEvaluate requests score them
  // against planted-motif ground truth on the shared query queue (so
  // admission, quotas, deadlines, and cancellation apply unchanged).
  std::unique_ptr<zoo::ZooManager> zoo_manager;
  if (auto zoo_path = flags.Get("zoo")) {
    zoo_manager = std::make_unique<zoo::ZooManager>(&registry);
    GVEX_RETURN_NOT_OK(zoo_manager->ConfigureFromFile(*zoo_path));
  }

  serve::ServerOptions options;
  options.num_workers = flags.Number<size_t>("workers");
  options.max_queue = flags.Number<size_t>("queue");
  options.default_deadline_ms = flags.Number<uint32_t>("deadline-ms");
  // --route-quota a=16:0.25,b=8 — comma-separated name=depth[:share]
  // specs; each caps one route's queue slots (and optionally its share
  // of the workers) so a bursty route sheds before starving the rest.
  if (auto quota_spec = flags.Get("route-quota")) {
    for (const std::string& entry : SplitString(*quota_spec, ',')) {
      GVEX_ASSIGN_OR_RETURN(auto quota, serve::ParseRouteQuotaSpec(entry));
      options.route_quotas[quota.first] = quota.second;
    }
  }
  serve::ExplanationServer server(&registry, options);
  cluster::Replicator* repl = replicator.get();
  ingest::IngestManager* live = ingester.get();
  if (repl != nullptr || live != nullptr) {
    // kHealth reports replication lag and ingest freshness next to
    // admission state; the hook keeps serve/ free of cluster/ and
    // ingest/ dependencies.
    server.SetHealthHook([repl, live](serve::HealthInfo* health) {
      if (repl != nullptr) {
        const cluster::ReplicatorStats stats = repl->stats();
        health->following = true;
        health->replication_installs = stats.installs;
        health->replication_lag_polls = stats.consecutive_failures;
        health->replication_error = stats.last_error;
      }
      if (live != nullptr) {
        const ingest::IngestInfo info = live->Info();
        health->ingesting = info.running;
        health->ingest_pending = info.pending;
        health->ingest_accepted = info.accepted;
        health->ingest_published = info.published;
        health->ingest_drift_bp = static_cast<uint64_t>(
            std::lround(std::max(0.0, info.drift) * 10000.0));
        health->ingest_staleness_ms = info.staleness_ms;
      }
    });
  }
  if (live != nullptr) {
    // Start before the socket accepts: journal replay must finish before
    // the first kIngest frame can land on the dedicated worker.
    GVEX_RETURN_NOT_OK(ingester->Start());
    server.SetIngestHandler([live](serve::Request req) {
      return live->Submit(std::move(req));
    });
  }
  if (zoo_manager != nullptr) {
    zoo::ZooManager* z = zoo_manager.get();
    server.SetEvaluateHandler(
        [z](const serve::Request& req, const CancellationToken* cancel) {
          return z->Handle(req, cancel);
        });
  }
  GVEX_RETURN_NOT_OK(server.Start());

  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  serve::SocketServer socket(&server);
  Status started = socket.Start(endpoint);
  if (!started.ok()) {
    server.Stop();
    return started;
  }
  if (!endpoint.is_unix()) endpoint.tcp_port = socket.bound_port();
  // Readiness line: smoke scripts poll for it before sending requests.
  std::printf("serving on %s (generation %llu, %zu workers, %zu warm pairs)\n",
              endpoint.ToString().c_str(),
              static_cast<unsigned long long>(registry.generation(route)),
              options.num_workers, warm);
  std::fflush(stdout);
  if (replicator != nullptr) {
    Status following = replicator->Start();
    if (!following.ok()) {
      socket.Stop();
      server.Stop();
      if (ingester != nullptr) ingester->Stop();
      return following;
    }
    std::printf("following %s\n", follow->c_str());
    std::fflush(stdout);
  }
  if (zoo_manager != nullptr) {
    // Smoke scripts poll this line before evaluating.
    std::printf("zoo serving %zu explainer routes\n",
                zoo_manager->Configs().size());
    std::fflush(stdout);
  }
  if (ingester != nullptr) {
    // Smoke scripts poll this line before streaming: resident/next-seq
    // prove the journal replay landed (the crash-resume leg asserts it).
    const ingest::IngestInfo info = ingester->Info();
    std::printf("ingesting route %s (journal %s, resident %llu, "
                "next seq %llu)\n",
                route.c_str(),
                ingester->options().journal_path.empty()
                    ? "-"
                    : ingester->options().journal_path.c_str(),
                static_cast<unsigned long long>(info.resident_graphs),
                static_cast<unsigned long long>(info.next_seq));
    std::fflush(stdout);
  }

  socket.Wait();
  if (replicator != nullptr) replicator->Stop();
  if (ingester != nullptr) ingester->Stop();
  socket.Stop();
  server.Stop();
  std::printf("server stopped\n");
  return Status::OK();
}

Result<serve::Request> BuildClientRequest(const Flags& flags) {
  serve::Request req;
  req.type = *serve::RequestTypeFromName(*flags.Get("type"));
  if (auto route = flags.Get("route")) req.route = *route;
  req.id = flags.Number<uint64_t>("id");
  req.label = flags.Number<ClassLabel>("label");
  req.against = flags.Number<ClassLabel>("against");
  req.deadline_ms = flags.Number<uint32_t>("deadline-ms");
  req.max_embeddings = flags.Number<uint32_t>("max-embeddings");
  if (*flags.Get("semantics") == "induced") {
    req.semantics = MatchSemantics::kInduced;
  }
  if (auto text = flags.Get("text")) req.text = *text;
  req.top_k = flags.Number<uint32_t>("top-k");

  // Pattern queries carry the pattern as the request graph; classify
  // carries the graph to classify (from a file or a database slot).
  if (auto pattern_path = flags.Get("pattern")) {
    GVEX_ASSIGN_OR_RETURN(req.graph, LoadGraphFile(*pattern_path));
    req.has_graph = true;
    // --graph-index on a pattern query restricts the scan to one corpus
    // graph's explanation subgraph — a point query the ShardRouter sends
    // to the owning shard alone.
    req.graph_index =
        flags.Has("graph-index") ? flags.Number<int32_t>("graph-index") : -1;
  } else if (auto graph_path = flags.Get("graph")) {
    GVEX_ASSIGN_OR_RETURN(req.graph, LoadGraphFile(*graph_path));
    req.has_graph = true;
  } else if (auto db_path = flags.Get("graph-db")) {
    GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*db_path));
    const int32_t index =
        flags.Has("graph-index") ? flags.Number<int32_t>("graph-index") : 0;
    if (index < 0 || static_cast<size_t>(index) >= db.size()) {
      return Status::OutOfRange("--graph-index " + std::to_string(index) +
                                " outside database of " +
                                std::to_string(db.size()) + " graphs");
    }
    req.graph = db.graph(static_cast<size_t>(index));
    req.has_graph = true;
  }
  return req;
}

// One deterministic output format per request type, shared by the socket
// and --local paths so the smoke test can diff them byte-for-byte.
void PrintClientResponse(const serve::Request& req,
                         const serve::Response& resp) {
  switch (req.type) {
    case serve::RequestType::kSupport:
      std::printf("support %llu\n",
                  static_cast<unsigned long long>(resp.support));
      return;
    case serve::RequestType::kSubgraphsContaining: {
      std::printf("subgraphs %zu (support %llu)\n", resp.indices.size(),
                  static_cast<unsigned long long>(resp.support));
      for (uint64_t index : resp.indices) {
        std::printf("  graph %llu\n", static_cast<unsigned long long>(index));
      }
      return;
    }
    case serve::RequestType::kFindHits: {
      std::printf("hits %zu\n", resp.hits.size());
      for (const auto& hit : resp.hits) {
        std::printf("  graph %llu: %llu embeddings\n",
                    static_cast<unsigned long long>(hit.graph_index),
                    static_cast<unsigned long long>(hit.embeddings));
      }
      return;
    }
    case serve::RequestType::kDiscriminativePatterns: {
      std::printf("discriminative %zu\n", resp.patterns.size());
      for (const Graph& pattern : resp.patterns) {
        std::printf("  pattern: %zu nodes, %zu edges\n", pattern.num_nodes(),
                    pattern.num_edges());
      }
      return;
    }
    case serve::RequestType::kClassifyExplain: {
      std::printf("predicted %d\n", resp.predicted);
      std::printf("probabilities");
      for (float p : resp.probabilities) std::printf(" %.6f", p);
      std::printf("\n");
      std::printf("explaining patterns %zu\n", resp.patterns.size());
      for (uint64_t index : resp.indices) {
        std::printf("  pattern %llu matches\n",
                    static_cast<unsigned long long>(index));
      }
      return;
    }
    case serve::RequestType::kGenerations: {
      std::printf("routes %zu\n", resp.routes.size());
      for (const serve::RouteInfo& r : resp.routes) {
        std::printf("  %s generation %llu source %llu fingerprint %s "
                    "warmed %d warm_pairs %llu\n",
                    r.route.c_str(),
                    static_cast<unsigned long long>(r.generation),
                    static_cast<unsigned long long>(r.source_generation),
                    r.fingerprint.empty() ? "-" : r.fingerprint.c_str(),
                    r.warmed ? 1 : 0,
                    static_cast<unsigned long long>(r.warm_pairs));
      }
      return;
    }
    case serve::RequestType::kFetch: {
      std::printf("bundle %zu bytes", resp.bundle.size());
      for (const serve::RouteInfo& r : resp.routes) {
        std::printf(" (route %s generation %llu fingerprint %s)",
                    r.route.c_str(),
                    static_cast<unsigned long long>(r.generation),
                    r.fingerprint.empty() ? "-" : r.fingerprint.c_str());
      }
      std::printf("\n");
      return;
    }
    case serve::RequestType::kHealth: {
      const serve::HealthInfo& h = resp.health;
      std::printf("serving %d queue %llu/%llu workers %llu\n",
                  h.serving ? 1 : 0,
                  static_cast<unsigned long long>(h.queue_depth),
                  static_cast<unsigned long long>(h.max_queue),
                  static_cast<unsigned long long>(h.workers));
      std::printf("route_load %zu\n", h.loads.size());
      for (const serve::RouteLoad& load : h.loads) {
        std::printf("  %s queued %llu active %llu quota %llu:%llu shed %llu\n",
                    load.route.c_str(),
                    static_cast<unsigned long long>(load.queued),
                    static_cast<unsigned long long>(load.active),
                    static_cast<unsigned long long>(load.quota_depth),
                    static_cast<unsigned long long>(load.quota_workers),
                    static_cast<unsigned long long>(load.quota_shed));
      }
      std::printf("following %d installs %llu lag_polls %llu%s%s\n",
                  h.following ? 1 : 0,
                  static_cast<unsigned long long>(h.replication_installs),
                  static_cast<unsigned long long>(h.replication_lag_polls),
                  h.replication_error.empty() ? "" : " error ",
                  h.replication_error.c_str());
      return;
    }
    case serve::RequestType::kShardInfo:
    case serve::RequestType::kCoverageStats:
    case serve::RequestType::kTopViews: {
      // Explainability prints with fixed precision so a scatter-gathered
      // answer diffs byte-for-byte against a single union server's
      // (per-shard summation agrees well past six decimals).
      std::printf("coverage %zu\n", resp.coverage.size());
      for (const serve::ViewCoverage& c : resp.coverage) {
        std::printf("  label %d patterns %llu subgraphs %llu nodes %llu "
                    "edges %llu explainability %.6f\n",
                    c.label, static_cast<unsigned long long>(c.patterns),
                    static_cast<unsigned long long>(c.subgraphs),
                    static_cast<unsigned long long>(c.nodes),
                    static_cast<unsigned long long>(c.edges),
                    c.explainability);
        if (req.type == serve::RequestType::kShardInfo) {
          std::printf("    graphs %zu:", c.graph_indices.size());
          for (uint64_t gi : c.graph_indices) {
            std::printf(" %llu", static_cast<unsigned long long>(gi));
          }
          std::printf("\n");
        }
      }
      return;
    }
    case serve::RequestType::kPing:
    case serve::RequestType::kStats:
    case serve::RequestType::kShutdown:
    case serve::RequestType::kInstall:
    case serve::RequestType::kIngest:
    case serve::RequestType::kEvaluate:
      std::printf("%s\n", resp.text.c_str());
      return;
  }
}

/// `--retry N` on the client verbs (client, ingest, evaluate): re-issue a
/// request shed with kOverloaded (exit 12; global queue full) or
/// kQuotaExceeded (exit 13; per-route budget) up to N more times,
/// sleeping the shared exponential backoff schedule (base
/// `--retry-backoff-ms`) between attempts — both mean "try later, the
/// server is healthy". kTimeout is deliberately NOT retried: the deadline
/// already charged the server for the work once, and a retry would
/// double-spend it (SERVING.md "overload and retries").
Result<serve::Response> CallRetryingSheds(
    const Flags& flags,
    const std::function<Result<serve::Response>()>& call) {
  const int retries = flags.Number<int>("retry");
  const uint32_t backoff_ms = flags.Number<uint32_t>("retry-backoff-ms");
  for (int attempt = 1;; ++attempt) {
    GVEX_ASSIGN_OR_RETURN(serve::Response resp, call());
    if ((resp.code != StatusCode::kOverloaded &&
         resp.code != StatusCode::kQuotaExceeded) ||
        attempt > retries) {
      return resp;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        cluster::RetryBackoffMs(attempt, backoff_ms, 10000)));
  }
}

Status CmdClient(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(serve::Request req, BuildClientRequest(flags));

  serve::Response resp;
  if (auto local_views = flags.Get("local")) {
    // In-process mode: the exact same Execute path as a remote server,
    // minus the wire. The smoke test diffs this against the socket path.
    serve::ViewRegistry registry;
    GVEX_RETURN_NOT_OK(registry.LoadViews(*local_views));
    if (auto model_path = flags.Get("model")) {
      GVEX_RETURN_NOT_OK(registry.LoadModel(*model_path));
    }
    serve::ServerOptions options;
    options.num_workers = flags.Number<size_t>("workers");
    serve::ExplanationServer server(&registry, options);
    GVEX_RETURN_NOT_OK(server.Start());
    GVEX_ASSIGN_OR_RETURN(
        resp, CallRetryingSheds(flags, [&] { return server.Call(req); }));
    server.Stop();
  } else if (auto map_path = flags.Get("shard-map")) {
    // Library mode of the frontend: an in-process ShardRouter over the
    // fleet in the map — the same scatter-gather the `frontend` verb
    // serves behind a socket, without the extra hop.
    GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                          cluster::ShardMap::Load(*map_path));
    cluster::RouterOptions ropts;
    ropts.hedge_ms = flags.Number<uint32_t>("hedge-ms");
    ropts.shard_deadline_ms = flags.Number<uint32_t>("shard-deadline-ms");
    GVEX_ASSIGN_OR_RETURN(std::unique_ptr<cluster::ShardRouter> router,
                          cluster::MakeSocketRouter(std::move(map), ropts));
    GVEX_ASSIGN_OR_RETURN(
        resp, CallRetryingSheds(flags, [&] { return router->Call(req); }));
  } else {
    GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
    serve::SocketClient client;
    GVEX_RETURN_NOT_OK(client.Connect(endpoint));
    GVEX_ASSIGN_OR_RETURN(
        resp, CallRetryingSheds(flags, [&] { return client.Call(req); }));
  }
  if (resp.code == StatusCode::kPartialResult) {
    // Print the merged partial payload, then exit with the distinct
    // partial-result code — the caller sees both what answered and that
    // the aggregate is incomplete (never a silently wrong total).
    PrintClientResponse(req, resp);
    return resp.ToStatus();
  }
  if (!resp.ok()) return resp.ToStatus();
  if (req.type == serve::RequestType::kFetch) {
    if (auto out = flags.Get("out")) {
      std::ofstream file(*out, std::ios::binary | std::ios::trunc);
      if (!file.is_open() || !file.write(resp.bundle.data(),
                                         static_cast<std::streamsize>(
                                             resp.bundle.size()))) {
        return Status::IoError("cannot write bundle to " + *out);
      }
    }
  }
  PrintClientResponse(req, resp);
  return Status::OK();
}

// `publish --zoo FILE` — fan a gvexzoo-v1 route-config artifact out to
// running servers as kEvaluate installs (the zoo counterpart of a view
// bundle publish). The artifact is validated locally before anything
// ships; a mixed outcome exits with the same distinct kPartialFailure
// code (14) as a bundle fan-out.
Status PublishZoo(const Flags& flags, const std::string& path) {
  GVEX_ASSIGN_OR_RETURN(const std::string artifact, ReadFile(path));
  GVEX_ASSIGN_OR_RETURN(std::vector<zoo::ExplainerRouteConfig> configs,
                        zoo::ParseZooArtifact(artifact));

  std::vector<serve::Endpoint> targets;
  if (auto targets_spec = flags.Get("targets")) {
    GVEX_ASSIGN_OR_RETURN(targets, TargetsFromSpec(*targets_spec));
    if (targets.empty()) {
      return Status::InvalidArgument("--targets named no endpoints");
    }
  } else {
    GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
    targets.push_back(std::move(endpoint));
  }

  size_t succeeded = 0;
  Status first_error = Status::OK();
  for (const serve::Endpoint& target : targets) {
    serve::Request req;
    req.type = serve::RequestType::kEvaluate;
    req.id = flags.Number<uint64_t>("id");
    req.text = artifact;
    serve::SocketClient client;
    Status st = client.Connect(target);
    if (st.ok()) {
      auto resp = client.Call(req);
      st = resp.ok() ? resp->ToStatus() : resp.status();
      if (st.ok()) {
        std::printf("target %s: %s\n", target.ToString().c_str(),
                    resp->text.c_str());
      }
    }
    if (st.ok()) {
      ++succeeded;
    } else {
      std::printf("target %s: %s\n", target.ToString().c_str(),
                  st.ToString().c_str());
      if (first_error.ok()) first_error = st;
    }
  }
  std::printf("published %zu zoo routes to %zu/%zu targets\n", configs.size(),
              succeeded, targets.size());
  if (succeeded == targets.size()) return Status::OK();
  if (succeeded == 0) return first_error;
  return Status::PartialFailure(
      "zoo config reached " + std::to_string(succeeded) + "/" +
      std::to_string(targets.size()) + " targets");
}

Status CmdPublish(const Flags& flags) {
  // --zoo FILE ships explainer-route configs instead of a view bundle.
  if (auto zoo_path = flags.Get("zoo")) {
    return PublishZoo(flags, *zoo_path);
  }
  GVEX_ASSIGN_OR_RETURN(std::string views_path, flags.Require("views"));
  cluster::ViewBundle bundle;
  GVEX_ASSIGN_OR_RETURN(bundle.views, LoadViewSet(views_path));
  if (auto model_path = flags.Get("model")) {
    GVEX_ASSIGN_OR_RETURN(GcnClassifier model,
                          GcnSerializer::Load(*model_path));
    bundle.model = std::make_shared<const GcnClassifier>(std::move(model));
  }
  // --quantize fp16|int8: ship the model in reduced precision (bundle
  // v2). Receivers dequantize on load; routes pinned `--exact-fp32`
  // refuse the install (gnn/quantize.h).
  if (auto quantize = flags.Get("quantize")) {
    if (bundle.model == nullptr) {
      return Status::InvalidArgument("--quantize needs --model");
    }
    GVEX_ASSIGN_OR_RETURN(WeightPrecision precision,
                          ParseWeightPrecision(*quantize));
    GVEX_ASSIGN_OR_RETURN(QuantizedModel qm,
                          QuantizeModel(*bundle.model, precision));
    bundle.qmodel = std::make_shared<const QuantizedModel>(std::move(qm));
  }
  bundle.route = flags.Get("route").value_or(cluster::kDefaultRoute);
  bundle.generation = flags.Number<uint64_t>("generation");

  // --out writes the bundle artifact instead of shipping it (debugging,
  // or staging a bundle for later publication).
  if (auto out = flags.Get("out")) {
    GVEX_RETURN_NOT_OK(cluster::SaveBundle(bundle, *out));
    GVEX_ASSIGN_OR_RETURN(std::string fingerprint,
                          cluster::BundleFingerprint(bundle));
    if (bundle.qmodel != nullptr) {
      std::printf("bundle -> %s (route %s, precision %s, fingerprint %s)\n",
                  out->c_str(), bundle.route.c_str(),
                  WeightPrecisionName(bundle.qmodel->precision),
                  fingerprint.c_str());
    } else {
      std::printf("bundle -> %s (route %s, fingerprint %s)\n", out->c_str(),
                  bundle.route.c_str(), fingerprint.c_str());
    }
    return Status::OK();
  }

  // --shard-map map.bin: partition the bundle by the map and ship each
  // slice to its owning shard's primary — same health gate / install /
  // fingerprint-verify protocol per shard, same kPartialFailure exit on
  // a mixed outcome (publisher.h ShardedPublish).
  if (auto map_path = flags.Get("shard-map")) {
    GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                          cluster::ShardMap::Load(*map_path));
    GVEX_ASSIGN_OR_RETURN(
        cluster::PublishReport report,
        cluster::ShardedPublish(bundle, map, PublishOptionsFromFlags(flags)));
    return PrintPublishReport("shard", report);
  }

  // --targets a,b,c: health-gated fan-out to several servers at once
  // (publisher.h). Each entry takes the --follow grammar. Mixed outcomes
  // exit with the distinct partial-failure code; failed targets keep
  // serving their previous generation untouched.
  if (auto targets_spec = flags.Get("targets")) {
    cluster::PublishOptions popts = PublishOptionsFromFlags(flags);
    GVEX_ASSIGN_OR_RETURN(popts.targets, TargetsFromSpec(*targets_spec));
    GVEX_ASSIGN_OR_RETURN(cluster::PublishReport report,
                          cluster::FanOutPublish(bundle, popts));
    return PrintPublishReport("target", report);
  }

  GVEX_ASSIGN_OR_RETURN(std::string encoded, cluster::EncodeBundle(bundle));
  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(endpoint));
  serve::Request req;
  req.type = serve::RequestType::kInstall;
  req.id = flags.Number<uint64_t>("id");
  req.bundle = std::move(encoded);
  GVEX_ASSIGN_OR_RETURN(serve::Response resp, client.Call(req));
  if (!resp.ok()) return resp.ToStatus();
  std::printf("%s\n", resp.text.c_str());
  return Status::OK();
}

// `gvex_tool ingest` — stream a graph database into a live-ingest server
// (serve --ingest), one kIngest frame per graph over the ordinary
// gvexserve-v1 wire. Labels default to the database's ground truth;
// --label overrides them all. --id-base B assigns stable idempotency
// keys B, B+1, ... so a re-run after a client or server crash answers
// "duplicate" instead of double-feeding (the keys survive the server's
// journal). --publish forces a bundle cut after the stream; --status
// reports the manager's counters. --retry re-issues kOverloaded sheds
// with the shared backoff schedule, which is safe exactly because of the
// idempotency keys.
Status CmdIngest(const Flags& flags) {
  if (!flags.Has("graph-db") && !flags.Has("publish") && !flags.Has("status")) {
    return Status::InvalidArgument(
        "ingest needs --graph-db, --publish, or --status");
  }
  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(endpoint));
  const std::string route =
      flags.Get("route").value_or(cluster::kDefaultRoute);
  auto call = [&](const serve::Request& req) {
    return CallRetryingSheds(flags, [&] { return client.Call(req); });
  };

  size_t sent = 0;
  if (auto db_path = flags.Get("graph-db")) {
    GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*db_path));
    const size_t from = flags.Number<size_t>("from");
    if (from > db.size()) {
      return Status::OutOfRange("--from " + std::to_string(from) +
                                " outside database of " +
                                std::to_string(db.size()) + " graphs");
    }
    size_t count = db.size() - from;
    if (flags.Has("count")) {
      count = std::min(count, flags.Number<size_t>("count"));
    }
    const uint64_t id_base = flags.Number<uint64_t>("id-base");
    const ClassLabel label_override = flags.Number<ClassLabel>("label");
    const uint32_t deadline_ms = flags.Number<uint32_t>("deadline-ms");
    for (size_t i = from; i < from + count; ++i) {
      serve::Request req;
      req.type = serve::RequestType::kIngest;
      req.route = route;
      req.id = id_base + (i - from);
      req.label = label_override >= 0 ? label_override : db.label(i);
      req.deadline_ms = deadline_ms;
      req.graph = db.graph(i);
      req.has_graph = true;
      GVEX_ASSIGN_OR_RETURN(serve::Response resp, call(req));
      if (!resp.ok()) return resp.ToStatus();
      std::printf("%s\n", resp.text.c_str());
      ++sent;
    }
  }
  for (const char* verb : {"publish", "status"}) {
    if (!flags.Has(verb)) continue;
    serve::Request req;
    req.type = serve::RequestType::kIngest;
    req.route = route;
    req.text = verb;
    GVEX_ASSIGN_OR_RETURN(serve::Response resp, call(req));
    if (!resp.ok()) return resp.ToStatus();
    std::printf("%s\n", resp.text.c_str());
  }
  if (sent > 0) std::printf("ingest done (%zu graphs sent)\n", sent);
  return Status::OK();
}

// `gvex_tool evaluate` — score a served explainer-zoo route (serve
// --zoo) against planted-motif ground truth and gate on the result. The
// request rides the ordinary wire as kEvaluate, so admission, quotas,
// and deadlines treat it like any read. The response streams per-graph
// rows followed by the canonical zoo-scorecard-v1 JSON line; the gate
// (--min-fidelity / --min-accuracy) is applied client-side and a
// regression exits with the distinct kEvaluationFailed code (16), so CI
// can fail a publish pipeline on explanation quality alone.
Status CmdEvaluate(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  serve::Request req;
  req.type = serve::RequestType::kEvaluate;
  req.id = flags.Number<uint64_t>("id");
  req.route = flags.Get("route").value_or(cluster::kDefaultRoute);
  req.deadline_ms = flags.Number<uint32_t>("deadline-ms");
  // The spec's own defaults (zoo::EvalSpec) fill what is not given.
  zoo::EvalSpec spec;
  if (auto dataset = flags.Get("dataset")) spec.dataset = *dataset;
  if (flags.Has("scale")) spec.scale = flags.Number<double>("scale");
  if (flags.Has("seed")) spec.seed = flags.Number<uint64_t>("seed");
  if (flags.Has("graphs")) spec.graphs = flags.Number<uint64_t>("graphs");
  req.text = zoo::EvalSpecToString(spec);
  // Validate the spec locally so a usage error (exit 2) is not masked by
  // an unrelated connect failure.
  GVEX_RETURN_NOT_OK(zoo::ParseEvalSpec(req.text).status());

  serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(endpoint));
  GVEX_ASSIGN_OR_RETURN(
      serve::Response resp,
      CallRetryingSheds(flags, [&] { return client.Call(req); }));
  if (!resp.ok()) return resp.ToStatus();
  std::printf("%s", resp.text.c_str());

  // The scorecard is the last non-empty line; parsing it doubles as the
  // smoke test's "the JSON validates" assertion.
  std::string card_line;
  for (const std::string& line : SplitString(resp.text, '\n')) {
    if (!line.empty()) card_line = line;
  }
  GVEX_ASSIGN_OR_RETURN(zoo::Scorecard card,
                        zoo::ScorecardFromJson(card_line));
  auto gate = [&](const char* flag, const char* what, double value) {
    if (!flags.Has(flag) || !(value < flags.Number<double>(flag))) {
      return Status::OK();
    }
    return Status::EvaluationFailed(
        "route " + card.route + " " + what + " " + std::to_string(value) +
        " below the gate " + std::to_string(flags.Number<double>(flag)));
  };
  GVEX_RETURN_NOT_OK(gate("min-fidelity", "fidelity+", card.fidelity_plus));
  return gate("min-accuracy", "motif accuracy", card.accuracy);
}

// ---- sharded fleet ------------------------------------------------------------

// `gvex_tool shardmap` — create, describe, or interrogate a
// gvexshardmap-v1 topology file (the partitioning contract the
// publisher and the frontend share; shard_map.h).
Status CmdShardMap(const Flags& flags) {
  if (flags.Has("describe") || flags.Has("owner-of")) {
    GVEX_ASSIGN_OR_RETURN(std::string map_path, flags.Require("shard-map"));
    GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                          cluster::ShardMap::Load(map_path));
    if (flags.Has("owner-of")) {
      const uint64_t key = flags.Number<uint64_t>("owner-of");
      const std::string route =
          flags.Get("route").value_or(cluster::kDefaultRoute);
      const size_t owner = map.OwnerOf(route, key);
      std::printf("route %s graph %llu -> slot %zu shard %zu (%s)\n",
                  route.c_str(), static_cast<unsigned long long>(key),
                  cluster::ShardMap::SlotOf(route, key), owner,
                  map.shards()[owner].name.c_str());
      return Status::OK();
    }
    std::printf("gvexshardmap-v1 version %llu, %zu slots, %zu shards\n",
                static_cast<unsigned long long>(map.version()),
                cluster::kShardSlots, map.shards().size());
    for (size_t i = 0; i < map.shards().size(); ++i) {
      const cluster::ShardEntry& shard = map.shards()[i];
      std::printf("  shard %zu %s endpoint %s standby %s slots %zu\n", i,
                  shard.name.c_str(), shard.endpoint.c_str(),
                  shard.standby.empty() ? "-" : shard.standby.c_str(),
                  map.NumSlotsOwned(i));
    }
    return Status::OK();
  }

  // Create: --standbys and --names are positional against --shards; "-"
  // (or a short list) means none.
  GVEX_ASSIGN_OR_RETURN(std::string shards_spec, flags.Require("shards"));
  GVEX_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  std::vector<std::string> endpoints = SplitString(shards_spec, ',');
  std::vector<std::string> standbys;
  if (auto spec = flags.Get("standbys")) standbys = SplitString(*spec, ',');
  std::vector<std::string> names;
  if (auto spec = flags.Get("names")) names = SplitString(*spec, ',');
  std::vector<cluster::ShardEntry> entries;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    cluster::ShardEntry entry;
    entry.name = i < names.size() ? names[i] : "shard" + std::to_string(i);
    entry.endpoint = endpoints[i];
    if (i < standbys.size() && standbys[i] != "-") {
      entry.standby = standbys[i];
    }
    entries.push_back(std::move(entry));
  }
  GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                        cluster::ShardMap::Create(std::move(entries)));
  GVEX_RETURN_NOT_OK(map.Save(out));
  std::printf("shard map -> %s (%zu shards, %zu slots, version %llu)\n",
              out.c_str(), map.shards().size(), cluster::kShardSlots,
              static_cast<unsigned long long>(map.version()));
  return Status::OK();
}

// `gvex_tool frontend` — serve a whole fleet behind one socket: every
// request is answered by an in-process ShardRouter (point queries to the
// owning shard, corpus-wide queries scatter-gathered; router.h).
Status CmdFrontend(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(std::string map_path, flags.Require("shard-map"));
  GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                        cluster::ShardMap::Load(map_path));
  cluster::RouterOptions ropts;
  ropts.hedge_ms = flags.Number<uint32_t>("hedge-ms");
  ropts.shard_deadline_ms = flags.Number<uint32_t>("shard-deadline-ms");
  GVEX_ASSIGN_OR_RETURN(std::unique_ptr<cluster::ShardRouter> router,
                        cluster::MakeSocketRouter(std::move(map), ropts));

  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  cluster::ShardRouter* raw = router.get();
  serve::SocketServer socket(serve::SocketServer::Handler(
      [raw](const serve::Request& req) { return raw->Call(req); }));
  GVEX_RETURN_NOT_OK(socket.Start(endpoint));
  if (!endpoint.is_unix()) endpoint.tcp_port = socket.bound_port();
  // Readiness line: smoke scripts poll for it before sending requests.
  std::printf("frontend serving on %s (%zu shards, map version %llu)\n",
              endpoint.ToString().c_str(), router->map().shards().size(),
              static_cast<unsigned long long>(router->map().version()));
  std::fflush(stdout);
  socket.Wait();
  socket.Stop();
  std::printf("frontend stopped %s\n", router->StatsJson().c_str());
  return Status::OK();
}

// Scripts dispatch on the exit code, so each StatusCode maps to a
// distinct one: the code plus 1 (documented in README.md "Exit codes").
// 1 is reserved for crashes/signals, and kInvalidArgument's 2 doubles as
// usage error in the getopt tradition.
int ExitCodeForStatus(const Status& st) {
  return st.ok() ? 0 : static_cast<int>(st.code()) + 1;
}

// ---- the commands -------------------------------------------------------------

// Flag groups that several rows share.
constexpr std::string_view kEndpoint = "(--socket PATH | --port PORT)";
constexpr std::string_view kExplainConfig =
    "[--ul N=15] [--bl N=0] [--theta X=0.08] [--radius X=0.25] [--gamma X=0.5]";

struct Command {
  std::string_view name;
  Status (*run)(const Flags& flags);
  std::vector<std::string_view> synopsis;  // one string per usage line
};

const Command kCommands[] = {
    {"gen", CmdGen,
     {"--dataset NAME --out PATH [--scale X=1] [--seed SEED=0]"}},
    {"stats", CmdStats, {"--db PATH"}},
    {"train", CmdTrain,
     {"--db PATH --out PATH [--hidden N=32] [--layers N=3]",
      "[--epochs N=150] [--lr X=0.005] [--seed SEED=42]",
      "[--aggregator gcn|mean|sum=gcn]"}},
    {"explain", CmdExplain,
     {"--db PATH --model PATH --labels LABELS --out PATH", kExplainConfig,
      "[--algorithm approx|stream=approx] [--threads N=1] [--budget X=0]",
      "[--checkpoint PATH] [--resume] [--seed SEED=0]"}},
    {"verify", CmdVerify,
     {"--db PATH --model PATH --views PATH", kExplainConfig}},
    {"fidelity", CmdFidelity, {"--db PATH --model PATH --views PATH"}},
    {"query", CmdQuery, {"--views PATH --pattern PATH [--label LABEL=-1]"}},
    {"serve", CmdServe,
     {"[--views PATH] [--model PATH] [--route NAME] [--zoo PATH]",
      "[--exact-fp32 ROUTES] [--route-quota SPECS]", kEndpoint,
      "[--workers N=4] [--queue N=256] [--deadline-ms MS=0]",
      "[--follow ENDPOINT] [--poll-ms MS=200]",
      "[--ingest] [--ingest-journal PATH] [--resume] [--ingest-queue N=64]",
      "[--drift-threshold X=0.25] [--drift-window N=16]",
      "[--ingest-cadence N=8] [--targets ENDPOINTS] [--shard-map PATH]",
      "[--retry TRIES=2] [--retry-backoff-ms MS=50] [--no-health-gate]",
      "[--seed SEED=0]", kExplainConfig}},
    {"client", CmdClient,
     {"(--socket PATH | --port PORT",
      " | --local PATH [--model PATH] [--workers N=1]",
      " | --shard-map PATH [--hedge-ms MS=0] [--shard-deadline-ms MS=0])",
      "--type TYPE [--route NAME] [--id ID=1] [--deadline-ms MS=0]",
      "[--label LABEL=-1] [--against LABEL=-1] [--text TEXT] [--top-k K=10]",
      "[--pattern PATH | --graph PATH | --graph-db PATH]",
      "[--graph-index INDEX] [--semantics subgraph|induced=subgraph]",
      "[--max-embeddings K=64] [--out PATH]",
      "[--retry TRIES=0] [--retry-backoff-ms MS=100]"}},
    {"publish", CmdPublish,
     {"(--views PATH | --zoo PATH) [--model PATH]",
      "[--quantize fp16|int8] [--route NAME] [--generation ID=0] [--id ID=1]",
      "(--socket PATH | --port PORT | --out PATH | --targets ENDPOINTS",
      " | --shard-map PATH) [--no-health-gate]",
      "[--retry TRIES=2] [--retry-backoff-ms MS=50] [--seed SEED=0]"}},
    {"ingest", CmdIngest,
     {kEndpoint,
      "[--graph-db PATH] [--from N=0] [--count N] [--label LABEL=-1]",
      "[--id-base ID=1] [--deadline-ms MS=0] [--route NAME]",
      "[--retry TRIES=0] [--retry-backoff-ms MS=100] [--publish] [--status]"}},
    {"evaluate", CmdEvaluate,
     {kEndpoint, "[--route NAME] [--id ID=1] [--deadline-ms MS=0]",
      "[--dataset NAME] [--scale X] [--seed SEED] [--graphs N]",
      "[--min-fidelity X] [--min-accuracy X]",
      "[--retry TRIES=0] [--retry-backoff-ms MS=100]"}},
    {"shardmap", CmdShardMap,
     {"(--shards ENDPOINTS [--standbys ENDPOINTS]",
      " [--names NAMES] --out PATH",
      " | --shard-map PATH (--describe | --owner-of ID [--route NAME]))"}},
    {"frontend", CmdFrontend,
     {"--shard-map PATH", kEndpoint,
      "[--hedge-ms MS=0] [--shard-deadline-ms MS=0]"}},
};

// The rows of `only`, or of every command.
void PrintUsage(const Command* only) {
  std::fprintf(stderr, "usage:\n");
  for (const Command& command : kCommands) {
    if (only != nullptr && only != &command) continue;
    std::string head = "  gvex_tool " + std::string(command.name);
    for (std::string_view line : command.synopsis) {
      std::fprintf(stderr, "%s %s\n", head.c_str(), std::string(line).c_str());
      head = "   ";
    }
  }
  std::fprintf(stderr, "every command also takes %s; see README.md\n",
               std::string(kCommonFlags).c_str());
}

}  // namespace

int Run(const std::vector<std::string>& argv) {
  const Command* command = nullptr;
  for (const Command& row : kCommands) {
    if (!argv.empty() && row.name == argv[0]) command = &row;
  }
  if (command == nullptr) {
    PrintUsage(nullptr);
    return 2;
  }
  auto flags_result =
      Flags::Parse(command->synopsis,
                   std::vector<std::string>(argv.begin() + 1, argv.end()));
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.status().ToString().c_str());
    PrintUsage(command);
    return ExitCodeForStatus(flags_result.status());
  }
  const Flags& flags = *flags_result;

  // Global fault injection: --fail "name=spec[;name=spec...]". Applies to
  // any subcommand; see src/gvex/common/failpoint.h for the spec grammar.
  // Armed sites are cleared on return so embedded callers (tests) are not
  // left with live failpoints.
  bool armed_failpoints = false;
  if (auto fail_spec = flags.Get("fail")) {
    for (const std::string& entry : SplitString(*fail_spec, ';')) {
      Status armed = failpoint::ArmFromString(entry);
      if (!armed.ok()) {
        std::fprintf(stderr, "%s\n", armed.ToString().c_str());
        failpoint::DisarmAll();
        return 2;
      }
      armed_failpoints = true;
    }
  }

  // Span collection costs nothing until someone asks for the trace.
  const auto trace_out = flags.Get("trace-out");
  const auto metrics_out = flags.Get("metrics-out");
  if (trace_out) obs::SetTraceEnabled(true);
  Stopwatch command_watch;

  const Status st = command->run(flags);
  const double command_seconds = command_watch.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }
  // Metrics/trace emission is best-effort: a failed write warns but never
  // changes the exit code, which reports the command outcome alone.
  if (metrics_out) {
    const std::string name(command->name);
    obs::PerfReport report(name);
    report.SetParam("command", name);
    report.AddTiming("command", command_seconds);
    Status saved = report.WriteJson(*metrics_out);
    if (!saved.ok()) {
      std::fprintf(stderr, "warning: metrics report skipped: %s\n",
                   saved.ToString().c_str());
    }
  }
  if (trace_out) {
    Status saved = obs::WriteChromeTrace(*trace_out);
    if (!saved.ok()) {
      std::fprintf(stderr, "warning: trace export skipped: %s\n",
                   saved.ToString().c_str());
    }
  }
  // Disarm last so --fail also covers the best-effort emission above
  // (and embedded callers are never left with live failpoints).
  if (armed_failpoints) failpoint::DisarmAll();
  return ExitCodeForStatus(st);
}

}  // namespace cli
}  // namespace gvex
