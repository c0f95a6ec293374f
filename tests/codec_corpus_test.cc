// Golden-byte tests for the text codec (common/text_codec.h) through every
// format that uses it: all 17 request types and every response shape on
// the wire, databases, view sets, fp32 and quantized models, bundles, the
// explanation checkpoint, the ingest WAL with a stream snapshot, shard
// maps and zoo scorecards.
//
// Each encoding's CRC32 is pinned to the value the iostream encoders
// (precision 17) produced for the same objects, so a codec change that
// moves a single byte fails here. Every finite encoding must also decode
// and re-encode to the same bytes. Encodings that carry non-finite floats
// are written (and pinned) but must be rejected on read.
//
// The corpus also feeds the decoder mutation test: every truncated prefix
// and ~10k seeded single-byte mutations of every wire body must decode to
// a value or an error Status, never throw (the sanitizer leg checks the
// memory side).
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/cluster/shard_map.h"
#include "gvex/common/checksum.h"
#include "gvex/common/string_util.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/checkpoint.h"
#include "gvex/explain/view_io.h"
#include "gvex/gnn/quantize.h"
#include "gvex/gnn/serialize.h"
#include "gvex/graph/graph_io.h"
#include "gvex/ingest/journal.h"
#include "gvex/serve/protocol.h"
#include "gvex/zoo/evaluator.h"

namespace gvex {
namespace {

using serve::Request;
using serve::RequestType;
using serve::Response;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

// ---- corpus objects ---------------------------------------------------------

const GraphDatabase& Enz() {
  static const GraphDatabase* db = [] {
    auto made = datasets::MakeByName("ENZ", 0.1, 3);
    EXPECT_TRUE(made.ok());
    return new GraphDatabase(std::move(made).ValueOrDie());
  }();
  return *db;
}

// Four nodes, a directed typed edge set, and 4 features per node that
// cover ±0, subnormals, FLT_MIN/FLT_MAX and values with 17 significant
// digits. With `non_finite`, four of them become ±inf and NaNs of both
// signs.
Graph SpecialGraph(bool non_finite) {
  Graph g(/*directed=*/true);
  for (NodeType t : {0, 3, 1, 7}) g.AddNode(t);
  EXPECT_TRUE(g.AddEdge(0, 1, 2).ok());
  EXPECT_TRUE(g.AddEdge(1, 0, 0).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 5).ok());
  EXPECT_TRUE(g.AddEdge(3, 0, 1).ok());
  const float values[16] = {
      0.0f,    -0.0f,          1e-45f, -1.17549421e-38f,
      FLT_MIN, FLT_MAX,        -FLT_MAX, 0.1f,
      1.0f / 3, 123456.789f,   -2.5f,  1e-10f,
      1e10f,   16777217.0f,    -1e-44f, 0.5f};
  Matrix f(4, 4);
  for (size_t i = 0; i < 16; ++i) f.data()[i] = values[i];
  if (non_finite) {
    f.At(0, 1) = kInf;
    f.At(1, 2) = -kInf;
    f.At(2, 0) = std::numeric_limits<float>::quiet_NaN();
    f.At(3, 3) = -std::numeric_limits<float>::quiet_NaN();
  }
  EXPECT_TRUE(g.SetFeatures(std::move(f)).ok());
  return g;
}

// A type-only pattern (no features), as the pattern tier stores them.
Graph Pattern(int k) {
  Graph p;
  p.AddNode(k);
  p.AddNode(k + 1);
  p.AddNode(2);
  EXPECT_TRUE(p.AddEdge(0, 1, k).ok());
  EXPECT_TRUE(p.AddEdge(1, 2, 0).ok());
  return p;
}

ExplanationSubgraph Sub(size_t gi, std::vector<NodeId> nodes, double score) {
  ExplanationSubgraph sub;
  sub.graph_index = gi;
  sub.nodes = std::move(nodes);
  sub.subgraph = Enz().graph(gi).InducedSubgraph(sub.nodes);
  sub.explainability = score;
  return sub;
}

ExplanationViewSet Views() {
  ExplanationViewSet set;
  ExplanationView a;
  a.label = 0;
  a.patterns = {Pattern(0), Pattern(4)};
  a.subgraphs = {Sub(0, {0, 1, 2}, 1.0 / 3), Sub(2, {1, 3}, 0.1)};
  a.explainability = 1.0 / 3 + 0.1;
  ExplanationView b;
  b.label = 5;
  b.patterns = {Pattern(1)};
  b.subgraphs = {Sub(1, {0, 2, 4, 5}, 2.0 / 7)};
  b.explainability = 2.0 / 7;
  set.views = {a, b};
  return set;
}

GcnClassifier Model() {
  GcnConfig config;
  config.input_dim = Enz().feature_dim();
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.num_classes = 3;
  config.seed = 5;
  config.edge_type_weights = {1.0f, 0.5f, 2.25f};
  auto model = GcnClassifier::Create(config);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

cluster::ViewBundle Bundle(WeightPrecision precision, bool with_model) {
  cluster::ViewBundle bundle;
  bundle.route = "golden.route-1";
  bundle.generation = 12;
  bundle.views = Views();
  if (!with_model) return bundle;
  const GcnClassifier model = Model();
  bundle.model = std::make_shared<const GcnClassifier>(model);
  if (precision != WeightPrecision::kFp32) {
    auto qm = QuantizeModel(model, precision);
    EXPECT_TRUE(qm.ok());
    bundle.qmodel =
        std::make_shared<const QuantizedModel>(std::move(qm).ValueOrDie());
  }
  return bundle;
}

StreamGvexSnapshot Snapshot() {
  StreamGvexSnapshot snap;
  snap.in_progress = true;
  snap.label = 1;
  snap.graphs_done = 2;
  snap.partial.label = 1;
  snap.partial.subgraphs = {Sub(1, {0, 1}, 0.4375)};
  snap.partial.patterns = {Pattern(3)};
  snap.partial.explainability = 0.4375;
  snap.patterns = {Pattern(2), Pattern(5)};
  snap.codes = {"b code\nwith a newline", "a code", ""};
  snap.stats.nodes_processed = 19;
  snap.stats.accepts = 7;
  snap.stats.swaps = 2;
  snap.stats.skips = 10;
  snap.stats.everify_calls = 31;
  snap.stats.graphs_explained = 2;
  snap.stats.graphs_infeasible = 1;
  return snap;
}

std::vector<Request> Requests() {
  std::vector<Request> out;
  auto add = [&](RequestType type) -> Request& {
    Request& r = out.emplace_back();
    r.type = type;
    r.id = out.size();
    return r;
  };
  add(RequestType::kPing).text = std::string("echo\n\0 me\n", 10);
  {
    Request& r = add(RequestType::kSupport);
    r.label = 1;
    r.semantics = MatchSemantics::kInduced;
    r.graph = Pattern(0);
    r.has_graph = true;
  }
  {
    Request& r = add(RequestType::kSubgraphsContaining);
    r.label = 0;
    r.graph_index = 5;
    r.graph = Pattern(1);
    r.has_graph = true;
  }
  {
    Request& r = add(RequestType::kFindHits);
    r.label = 2;
    r.max_embeddings = 7;
    r.graph = Pattern(2);
    r.has_graph = true;
  }
  {
    Request& r = add(RequestType::kDiscriminativePatterns);
    r.label = 0;
    r.against = 1;
  }
  {
    Request& r = add(RequestType::kClassifyExplain);
    r.id = kU64Max;
    r.deadline_ms = std::numeric_limits<uint32_t>::max();
    r.graph = Enz().graph(4);
    r.has_graph = true;
  }
  add(RequestType::kStats);
  add(RequestType::kShutdown);
  {
    Request& r = add(RequestType::kInstall);
    r.route = "golden.route-1";
    auto bytes = cluster::EncodeBundle(Bundle(WeightPrecision::kFp32, true));
    EXPECT_TRUE(bytes.ok());
    r.bundle = *bytes;
  }
  add(RequestType::kGenerations).route = "default";
  add(RequestType::kFetch).route = "alt.route-1";
  add(RequestType::kHealth);
  add(RequestType::kShardInfo).route = "default";
  add(RequestType::kCoverageStats).route = "default";
  add(RequestType::kTopViews).top_k = 3;
  {
    Request& r = add(RequestType::kIngest);
    r.label = 2;
    r.graph = Enz().graph(3);
    r.has_graph = true;
  }
  add(RequestType::kIngest).text = "publish";
  {
    Request& r = add(RequestType::kEvaluate);
    r.route = "zoo.r";
    r.text = "dataset=SYN scale=0.05 seed=1 graphs=4";
  }
  {
    Request& r = add(RequestType::kClassifyExplain);
    r.label = -7;
    r.against = std::numeric_limits<ClassLabel>::min();
    r.graph_index = std::numeric_limits<int64_t>::min();
    r.graph = SpecialGraph(/*non_finite=*/false);
    r.has_graph = true;
  }
  return out;
}

Request NonFiniteRequest() {
  Request r;
  r.type = RequestType::kClassifyExplain;
  r.id = 99;
  r.graph = SpecialGraph(/*non_finite=*/true);
  r.has_graph = true;
  return r;
}

std::vector<Response> Responses() {
  std::vector<Response> out;
  auto add = [&]() -> Response& {
    Response& r = out.emplace_back();
    r.id = out.size();
    return r;
  };
  {
    Response& r = add();
    r.code = StatusCode::kIoError;
    r.message = "boom\nsecond line";
  }
  {
    Response& r = add();
    r.predicted = 1;
    r.probabilities = {0.25f, 0.75f, 1e-45f, -0.0f, 0.1f, 1.0f / 3};
    r.indices = {0, 3, kU64Max};
  }
  add().support = 42;
  add().hits = {{1, 2}, {kU64Max, 0}, {7, 64}};
  add().patterns = {Pattern(0), Pattern(6), Enz().graph(0)};
  add().routes = {{"default", 3, 2, "0123456789abcdef", true, 17},
                  {"alt", 0, 0, "", false, 0}};
  {
    Response& r = add();
    r.bundle = std::string("gvexbundle-v1\n\0raw", 18);
    r.text = "{\"json\": [1, 2]}";
  }
  {
    Response& r = add();
    r.has_health = true;
    serve::HealthInfo& h = r.health;
    h.serving = true;
    h.queue_depth = 4;
    h.max_queue = 256;
    h.workers = 4;
    h.following = true;
    h.replication_installs = 9;
    h.replication_lag_polls = 1;
    h.replication_error = "poll failed: connection refused";
    h.loads = {{"default", 1, 2, 64, 2, 0}, {"alt", 0, 0, 0, 0, 11}};
  }
  {
    Response& r = add();
    serve::ViewCoverage a;
    a.label = 0;
    a.patterns = 3;
    a.subgraphs = 2;
    a.nodes = 11;
    a.edges = 9;
    a.explainability = 0.1 + 0.2;
    a.graph_indices = {0, 5, 9};
    serve::ViewCoverage b;
    b.label = 4;
    b.explainability = 1e-300;
    r.coverage = {a, b};
  }
  {
    Response& r = add();
    r.has_health = true;
    serve::HealthInfo& h = r.health;
    h.serving = true;
    h.ingesting = true;
    h.ingest_pending = 2;
    h.ingest_accepted = 360;
    h.ingest_published = 3;
    h.ingest_drift_bp = 2500;
    h.ingest_staleness_ms = 1234;
  }
  {
    Response& r = add();
    r.code = StatusCode::kPartialResult;
    r.message = "1 of 3 shards failed";
    r.shards_total = 3;
    r.shards_answered = 2;
  }
  return out;
}

Response NonFiniteResponse() {
  Response r;
  r.id = 98;
  r.predicted = 0;
  r.probabilities = {std::numeric_limits<float>::quiet_NaN(), 0.5f};
  return r;
}

// ---- encodings --------------------------------------------------------------

std::string ScratchPath(const std::string& name) {
  return testing::TempDir() + "gvex_codec_corpus_" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Decode `bytes` and encode the result again.
using RoundTrip = std::function<Result<std::string>(const std::string&)>;

struct Encoding {
  std::string name;
  std::string bytes;
  RoundTrip round_trip;
  bool wire = false;     ///< a request or response body
  bool finite = true;    ///< false: the decoder must reject it
};

Result<std::string> RequestRoundTrip(const std::string& bytes) {
  GVEX_ASSIGN_OR_RETURN(Request req, serve::DecodeRequestBody(bytes));
  return serve::EncodeRequestBody(req);
}

Result<std::string> ResponseRoundTrip(const std::string& bytes) {
  GVEX_ASSIGN_OR_RETURN(Response resp, serve::DecodeResponseBody(bytes));
  return serve::EncodeResponseBody(resp);
}

Result<std::string> BundleRoundTrip(const std::string& bytes) {
  GVEX_ASSIGN_OR_RETURN(cluster::ViewBundle bundle,
                        cluster::DecodeBundle(bytes));
  return cluster::EncodeBundle(bundle);
}

// Write `bytes` to a file, load it with `load_and_save`, and return what
// that saved.
RoundTrip ViaFile(const std::string& name,
                  std::function<Status(const std::string&, const std::string&)>
                      load_and_save) {
  return [name, load_and_save](const std::string& bytes) -> Result<std::string> {
    const std::string in_path = ScratchPath(name + ".in");
    const std::string out_path = ScratchPath(name + ".out");
    {
      std::ofstream out(in_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::remove(out_path.c_str());
    GVEX_RETURN_NOT_OK(load_and_save(in_path, out_path));
    return FileBytes(out_path);
  };
}

const std::vector<Encoding>& Corpus() {
  static const std::vector<Encoding>* corpus = [] {
    auto* c = new std::vector<Encoding>;
    const std::vector<Request> requests = Requests();
    for (size_t i = 0; i < requests.size(); ++i) {
      c->push_back({StrFormat("request_%02zu_%s", i,
                              serve::InfoOf(requests[i].type).name),
                    serve::EncodeRequestBody(requests[i]), RequestRoundTrip,
                    true, true});
    }
    c->push_back({"request_non_finite_features",
                  serve::EncodeRequestBody(NonFiniteRequest()),
                  RequestRoundTrip, true, false});
    const std::vector<Response> responses = Responses();
    for (size_t i = 0; i < responses.size(); ++i) {
      c->push_back({StrFormat("response_%02zu", i),
                    serve::EncodeResponseBody(responses[i]), ResponseRoundTrip,
                    true, true});
    }
    c->push_back({"response_non_finite_probability",
                  serve::EncodeResponseBody(NonFiniteResponse()),
                  ResponseRoundTrip, true, false});

    struct BundleCase {
      const char* name;
      WeightPrecision precision;
      bool with_model;
    };
    for (const BundleCase& b :
         {BundleCase{"bundle_views_only", WeightPrecision::kFp32, false},
          BundleCase{"bundle_fp32", WeightPrecision::kFp32, true},
          BundleCase{"bundle_fp16", WeightPrecision::kFp16, true},
          BundleCase{"bundle_int8", WeightPrecision::kInt8, true}}) {
      auto bytes = cluster::EncodeBundle(Bundle(b.precision, b.with_model));
      EXPECT_TRUE(bytes.ok());
      c->push_back({b.name, *bytes, BundleRoundTrip, false, true});
    }

    {
      GraphDatabase db;
      for (size_t i = 0; i < 3; ++i) {
        db.Add(Enz().graph(i), Enz().label(i), Enz().name(i));
      }
      db.Add(SpecialGraph(false), 2, "special");
      db.Add(Pattern(1), 0, "");  // no features
      db.Add(Graph(), 1, "empty");
      const std::string path = ScratchPath("db");
      EXPECT_TRUE(SaveDatabase(db, path).ok());
      c->push_back({"database", FileBytes(path),
                    ViaFile("db",
                            [](const std::string& in, const std::string& out) {
                              GVEX_ASSIGN_OR_RETURN(GraphDatabase loaded,
                                                    LoadDatabase(in));
                              return SaveDatabase(loaded, out);
                            }),
                    false, true});
    }
    {
      const std::string path = ScratchPath("views");
      EXPECT_TRUE(SaveViewSet(Views(), path).ok());
      c->push_back({"view_set", FileBytes(path),
                    ViaFile("views",
                            [](const std::string& in, const std::string& out) {
                              GVEX_ASSIGN_OR_RETURN(ExplanationViewSet loaded,
                                                    LoadViewSet(in));
                              return SaveViewSet(loaded, out);
                            }),
                    false, true});
    }
    {
      const std::string path = ScratchPath("model");
      EXPECT_TRUE(GcnSerializer::Save(Model(), path).ok());
      c->push_back({"model_fp32", FileBytes(path),
                    ViaFile("model",
                            [](const std::string& in, const std::string& out) {
                              GVEX_ASSIGN_OR_RETURN(GcnClassifier loaded,
                                                    GcnSerializer::Load(in));
                              return GcnSerializer::Save(loaded, out);
                            }),
                    false, true});
    }
    {
      // Records of (label, subgraph), in append order.
      const std::vector<std::pair<ClassLabel, ExplanationSubgraph>> records = {
          {0, Sub(0, {0, 1, 2}, 1.0 / 3)}, {5, Sub(1, {0, 2, 4, 5}, 2.0 / 7)}};
      auto append_all = [records](const std::string& path,
                                   const ExplanationCheckpoint* source) {
        GVEX_ASSIGN_OR_RETURN(auto ckpt,
                              ExplanationCheckpoint::Open(path, false));
        for (const auto& [label, sub] : records) {
          const ExplanationSubgraph* rec =
              source == nullptr ? &sub : source->Find(label, sub.graph_index);
          if (rec == nullptr) return Status::NotFound("record lost");
          GVEX_RETURN_NOT_OK(ckpt->Append(label, *rec));
        }
        return Status::OK();
      };
      const std::string path = ScratchPath("ckpt");
      EXPECT_TRUE(append_all(path, nullptr).ok());
      c->push_back(
          {"checkpoint", FileBytes(path),
           ViaFile("ckpt",
                   [append_all](const std::string& in, const std::string& out) {
                     GVEX_ASSIGN_OR_RETURN(auto loaded,
                                           ExplanationCheckpoint::Open(in, true));
                     return append_all(out, loaded.get());
                   }),
           false, true});
    }
    {
      // Two graph records, then a stream-snapshot checkpoint.
      auto write = [](const std::string& path,
                      const std::vector<ingest::IngestRecord>& graphs,
                      const StreamGvexSnapshot& snap) {
        GVEX_ASSIGN_OR_RETURN(auto journal,
                              ingest::IngestJournal::Open(path, false));
        for (const ingest::IngestRecord& r : graphs) {
          GVEX_RETURN_NOT_OK(
              journal->AppendGraph(r.seq, r.client_id, r.label, r.graph));
        }
        return journal->AppendCheckpoint(2, 1, snap);
      };
      std::vector<ingest::IngestRecord> graphs(2);
      graphs[0] = {1, 77, 0, Enz().graph(5)};
      graphs[1] = {2, 0, 1, SpecialGraph(false)};
      const std::string path = ScratchPath("wal");
      EXPECT_TRUE(write(path, graphs, Snapshot()).ok());
      c->push_back(
          {"ingest_wal", FileBytes(path),
           ViaFile("wal",
                   [write](const std::string& in, const std::string& out) {
                     GVEX_ASSIGN_OR_RETURN(auto loaded,
                                           ingest::IngestJournal::Open(in, true));
                     const ingest::IngestReplay& replay = loaded->replay();
                     auto it = replay.checkpoints.find(1);
                     if (it == replay.checkpoints.end()) {
                       return Status::NotFound("checkpoint lost");
                     }
                     return write(out, replay.graphs, it->second.second);
                   }),
           false, true});
    }
    {
      auto map = cluster::ShardMap::Create(
          {{"left", "unix:/tmp/l.sock", "unix:/tmp/l-standby.sock"},
           {"right", "tcp:9001", ""}});
      EXPECT_TRUE(map.ok());
      const std::string path = ScratchPath("shards");
      EXPECT_TRUE(map->Save(path).ok());
      c->push_back({"shard_map", FileBytes(path),
                    ViaFile("shards",
                            [](const std::string& in, const std::string& out) {
                              GVEX_ASSIGN_OR_RETURN(cluster::ShardMap loaded,
                                                    cluster::ShardMap::Load(in));
                              return loaded.Save(out);
                            }),
                    false, true});
    }
    {
      zoo::Scorecard card;
      card.route = "zoo.r";
      card.kind = "gvex";
      card.dataset = "SYN";
      card.scale = 0.15;
      card.seed = 3;
      card.graphs = 12;
      card.fidelity_plus = 1.0 / 3;
      card.fidelity_minus = 0.1;
      card.sparsity = std::sqrt(0.5);
      card.accuracy = 2.0 / 3;
      c->push_back({"scorecard", zoo::ScorecardToJson(card),
                    [](const std::string& bytes) -> Result<std::string> {
                      GVEX_ASSIGN_OR_RETURN(zoo::Scorecard back,
                                            zoo::ScorecardFromJson(bytes));
                      return zoo::ScorecardToJson(back);
                    },
                    false, true});
      zoo::EvalSpec spec;
      spec.dataset = "SYN";
      spec.scale = 0.15;
      spec.seed = 1;
      spec.graphs = 4;
      c->push_back({"eval_spec", zoo::EvalSpecToString(spec),
                    [](const std::string& bytes) -> Result<std::string> {
                      GVEX_ASSIGN_OR_RETURN(zoo::EvalSpec back,
                                            zoo::ParseEvalSpec(bytes));
                      return zoo::EvalSpecToString(back);
                    },
                    false, true});
    }
    return c;
  }();
  return *corpus;
}

// CRC32 (hex) of each encoding as the iostream encoders wrote it: this
// corpus, built against the last iostream codec (ostream at precision 17,
// istream parsing) and printed once.
const std::vector<std::pair<std::string, std::string>>& GoldenCrcs() {
  static const std::vector<std::pair<std::string, std::string>> crcs = {
      {"request_00_ping", "c2dcad42"},
      {"request_01_support", "a47ce25a"},
      {"request_02_contains", "feca0540"},
      {"request_03_hits", "2f1a263c"},
      {"request_04_discriminative", "ab8b36da"},
      {"request_05_classify", "00083d4b"},
      {"request_06_stats", "5f27cd1f"},
      {"request_07_shutdown", "3b167016"},
      {"request_08_install", "c73817e3"},
      {"request_09_generations", "52a13e38"},
      {"request_10_fetch", "51402024"},
      {"request_11_health", "2281f061"},
      {"request_12_shardinfo", "7be1744f"},
      {"request_13_coverage", "f7c8644c"},
      {"request_14_topviews", "9f860ce4"},
      {"request_15_ingest", "b87fe609"},
      {"request_16_ingest", "1efa4108"},
      {"request_17_evaluate", "84c0dd52"},
      {"request_18_classify", "e3d791ef"},
      {"request_non_finite_features", "2a1c796f"},
      {"response_00", "be30c9ee"},
      {"response_01", "0ef0cf86"},
      {"response_02", "dc47796c"},
      {"response_03", "b26f3a2b"},
      {"response_04", "bf4da475"},
      {"response_05", "87db013f"},
      {"response_06", "a3d1ce0e"},
      {"response_07", "eeb21839"},
      {"response_08", "b15f654e"},
      {"response_09", "53c7db13"},
      {"response_10", "2478b012"},
      {"response_non_finite_probability", "e027916c"},
      {"bundle_views_only", "cdc9fd03"},
      {"bundle_fp32", "1b3fe1a5"},
      {"bundle_fp16", "e5e38826"},
      {"bundle_int8", "f4b2438b"},
      {"database", "6ea69ba5"},
      {"view_set", "fac5b1aa"},
      {"model_fp32", "96f2e324"},
      {"checkpoint", "557279ea"},
      {"ingest_wal", "62199bd7"},
      {"shard_map", "d39f6fc5"},
      {"scorecard", "a942bdf4"},
      {"eval_spec", "1aa1c7af"},
  };
  return crcs;
}

// ---- tests ------------------------------------------------------------------

TEST(CodecCorpusTest, EncodingsMatchTheGoldenBytes) {
  const auto& corpus = Corpus();
  const auto& golden = GoldenCrcs();
  ASSERT_EQ(corpus.size(), golden.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(corpus[i].name, golden[i].first);
    EXPECT_EQ(StrFormat("%08x", Crc32(corpus[i].bytes)), golden[i].second)
        << corpus[i].name;
  }
}

TEST(CodecCorpusTest, CoversEveryRequestTypeAndResponseShape) {
  std::vector<bool> seen(serve::kNumRequestTypes, false);
  for (const Request& r : Requests()) seen[static_cast<size_t>(r.type)] = true;
  for (size_t t = 0; t < seen.size(); ++t) EXPECT_TRUE(seen[t]) << t;
  bool probs = false, indices = false, hits = false, patterns = false,
       routes = false, loads = false, coverage = false, ingest = false,
       scatter = false;
  for (const Response& r : Responses()) {
    probs |= !r.probabilities.empty();
    indices |= !r.indices.empty();
    hits |= !r.hits.empty();
    patterns |= !r.patterns.empty();
    routes |= !r.routes.empty();
    loads |= r.has_health && !r.health.loads.empty();
    coverage |= !r.coverage.empty();
    ingest |= r.has_health && r.health.ingesting;
    scatter |= r.shards_total > 0;
  }
  EXPECT_TRUE(probs && indices && hits && patterns && routes && loads &&
              coverage && ingest && scatter);
}

TEST(CodecCorpusTest, FiniteEncodingsDecodeAndReencodeToTheSameBytes) {
  for (const Encoding& e : Corpus()) {
    if (!e.finite) continue;
    Result<std::string> again = e.round_trip(e.bytes);
    ASSERT_TRUE(again.ok()) << e.name << ": " << again.status().ToString();
    EXPECT_EQ(*again, e.bytes) << e.name;
  }
}

// Non-finite floats are written as inf, -inf, nan or -nan and rejected on
// read, as the iostream decoder did: a server refuses a graph with a NaN
// feature at decode, and a client fails on a NaN probability.
TEST(CodecCorpusTest, NonFiniteValuesAreWrittenButRejectedOnRead) {
  const std::string req = serve::EncodeRequestBody(NonFiniteRequest());
  for (const char* token : {" inf", " -inf", " nan", " -nan"}) {
    EXPECT_NE(req.find(token), std::string::npos) << token;
  }
  auto decoded_req = serve::DecodeRequestBody(req);
  ASSERT_FALSE(decoded_req.ok());
  EXPECT_TRUE(decoded_req.status().IsIoError());

  const std::string resp = serve::EncodeResponseBody(NonFiniteResponse());
  EXPECT_NE(resp.find("probs 2 nan 0.5\n"), std::string::npos);
  auto decoded_resp = serve::DecodeResponseBody(resp);
  ASSERT_FALSE(decoded_resp.ok());
  EXPECT_TRUE(decoded_resp.status().IsIoError());

  // Each of the four forms is refused alone, in a feature and in a
  // probability.
  const std::string finite_req =
      serve::EncodeRequestBody(Requests()[5]);  // classify, ENZ features
  const size_t feature = finite_req.find("\nn ") + 3;
  const size_t value = finite_req.find(' ', feature) + 1;
  const size_t value_end = finite_req.find_first_of(" \n", value);
  for (const char* form : {"inf", "-inf", "nan", "-nan"}) {
    std::string body = finite_req;
    body.replace(value, value_end - value, form);
    EXPECT_FALSE(serve::DecodeRequestBody(body).ok()) << form;
    std::string probs = resp;
    probs.replace(probs.find("nan"), 3, form);
    EXPECT_FALSE(serve::DecodeResponseBody(probs).ok()) << form;
  }
}

// Every truncated prefix and ~10k seeded single-byte mutations of every
// wire body decode to a value or an error Status; none throws.
TEST(CodecCorpusTest, MutatedWireBodiesNeverCrashTheDecoders) {
  std::vector<std::pair<const Encoding*, bool>> bodies;  // (body, is request)
  for (const Encoding& e : Corpus()) {
    if (e.wire) bodies.push_back({&e, e.name.rfind("request", 0) == 0});
  }
  ASSERT_FALSE(bodies.empty());
  size_t decodes = 0, accepted = 0;
  auto decode = [&](const std::string& bytes, bool is_request) {
    ++decodes;
    try {
      const bool ok = is_request ? serve::DecodeRequestBody(bytes).ok()
                                 : serve::DecodeResponseBody(bytes).ok();
      accepted += ok ? 1 : 0;
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "decoder threw " << ex.what() << " on "
                    << bytes.size() << " bytes";
    }
  };
  for (const auto& [e, is_request] : bodies) {
    for (size_t cut = 0; cut < e->bytes.size(); ++cut) {
      decode(e->bytes.substr(0, cut), is_request);
    }
  }
  std::mt19937_64 rng(17);
  constexpr size_t kMutations = 10000;
  for (size_t i = 0; i < kMutations; ++i) {
    const auto& [e, is_request] = bodies[rng() % bodies.size()];
    std::string bytes = e->bytes;
    bytes[rng() % bytes.size()] = static_cast<char>(rng() % 256);
    decode(bytes, is_request);
  }
  EXPECT_GT(decodes, kMutations);
  // Some mutations are benign (a digit inside an id, a blob byte), most
  // are not; the split shows the decoders are being exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, decodes);
}

}  // namespace
}  // namespace gvex
