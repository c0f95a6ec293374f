// Corruption-injection tests for the hardened v2 on-disk formats: every
// truncation point and every single-bit flip of a serialized database /
// view set / model must either be detected (error Status, never a crash)
// or be provably benign (the bytes re-serialize identically — e.g. a
// whitespace flip in the outer frame).
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "gvex/cluster/bundle.h"
#include "gvex/cluster/shard_map.h"
#include "gvex/common/io_util.h"
#include "gvex/explain/view_io.h"
#include "gvex/gnn/serialize.h"
#include "gvex/graph/graph_io.h"

namespace gvex {
namespace {

// ---- tiny fixtures (kept small: the tests reparse O(bytes) variants) --------

GraphDatabase SmallDb() {
  GraphDatabase db;
  for (int k = 0; k < 3; ++k) {
    Graph g;
    for (NodeType t = 0; t < 4; ++t) g.AddNode(t);
    EXPECT_TRUE(g.AddEdge(0, 1, 0).ok());
    EXPECT_TRUE(g.AddEdge(1, 2, 1).ok());
    EXPECT_TRUE(g.AddEdge(2, 3, 0).ok());
    if (k > 0) EXPECT_TRUE(g.AddEdge(0, 3, 1).ok());
    g.SetDefaultFeatures(2, 0.5f + 0.25f * static_cast<float>(k));
    db.Add(std::move(g), k % 2, "g" + std::to_string(k));
  }
  return db;
}

ExplanationViewSet SmallViews() {
  GraphDatabase db = SmallDb();
  ExplanationViewSet set;
  for (ClassLabel l = 0; l < 2; ++l) {
    ExplanationView view;
    view.label = l;
    for (size_t gi = 0; gi < db.size(); ++gi) {
      if (db.label(gi) != l) continue;
      ExplanationSubgraph sub;
      sub.graph_index = gi;
      sub.nodes = {0, 1, 2};
      sub.subgraph = db.graph(gi).InducedSubgraph(sub.nodes);
      sub.explainability = 0.125 + 0.001953125 * static_cast<double>(gi);
      view.explainability += sub.explainability;
      view.subgraphs.push_back(std::move(sub));
    }
    view.patterns.push_back(db.graph(0).InducedSubgraph({0, 1}));
    set.views.push_back(std::move(view));
  }
  return set;
}

GcnClassifier SmallModel() {
  GcnConfig config;
  config.input_dim = 2;
  config.hidden_dim = 4;
  config.num_layers = 2;
  config.num_classes = 2;
  auto model = GcnClassifier::Create(config);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

// Parse `bytes`, and on success re-serialize so the caller can tell a
// benign mutation (identical re-serialization) from silent corruption.
using RoundTripFn = std::function<Result<std::string>(const std::string&)>;

Result<std::string> RoundTripDb(const std::string& bytes) {
  TextReader in(bytes);
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, ReadDatabase(&in));
  TextWriter out;
  GVEX_RETURN_NOT_OK(WriteDatabase(db, &out));
  return out.Take();
}

Result<std::string> RoundTripViews(const std::string& bytes) {
  TextReader in(bytes);
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set, ReadViewSet(&in));
  TextWriter out;
  GVEX_RETURN_NOT_OK(WriteViewSet(set, &out));
  return out.Take();
}

Result<std::string> RoundTripModel(const std::string& bytes) {
  TextReader in(bytes);
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnSerializer::Read(&in));
  TextWriter out;
  GVEX_RETURN_NOT_OK(GcnSerializer::Write(model, &out));
  return out.Take();
}

// Every strict prefix must fail to load, except when dropping trailing
// outer-frame whitespace leaves the parse unchanged.
void ExpectTruncationDetected(const std::string& bytes,
                              const RoundTripFn& round_trip) {
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<std::string> loaded = round_trip(bytes.substr(0, cut));
    if (loaded.ok()) {
      EXPECT_EQ(*loaded, bytes) << "undetected truncation at byte " << cut;
    }
  }
}

// Every single-bit flip must be detected or provably benign. Flipping the
// low bit of every byte covers the magic, counts, section frames, CRC hex
// field, and every payload byte.
void ExpectBitFlipsDetected(const std::string& bytes,
                            const RoundTripFn& round_trip) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    Result<std::string> loaded = round_trip(mutated);
    if (loaded.ok()) {
      EXPECT_EQ(*loaded, bytes) << "undetected bit flip at byte " << i
                                << " ('" << bytes[i] << "')";
    }
  }
}

std::string Serialize(const std::function<Status(TextWriter*)>& writer) {
  TextWriter out;
  EXPECT_TRUE(writer(&out).ok());
  return out.Take();
}

// ---- section framing --------------------------------------------------------

TEST(IoCorruptionTest, SectionRoundTrip) {
  TextWriter out;
  WriteSection(&out, "hello\nworld");
  TextReader in(out.str());
  auto payload = ReadSection(&in);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "hello\nworld");
}

TEST(IoCorruptionTest, SectionRejectsBadFrame) {
  {
    TextReader in("nonsense 11 deadbeef\nhello");
    EXPECT_TRUE(ReadSection(&in).status().IsIoError());
  }
  {
    // CRC field must be exactly 8 lowercase hex digits.
    TextReader in("sec 5 zzzzzzzz\nhello");
    EXPECT_TRUE(ReadSection(&in).status().IsIoError());
  }
  {
    // Declared length larger than the remaining bytes: truncation.
    TextReader in("sec 500 00000000\nhello");
    EXPECT_TRUE(ReadSection(&in).status().IsIoError());
  }
  {
    // Valid frame, wrong checksum.
    TextReader in("sec 5 00000000\nhello");
    EXPECT_TRUE(ReadSection(&in).status().IsIoError());
  }
}

// ---- database ---------------------------------------------------------------

TEST(IoCorruptionTest, DatabaseV2RoundTrip) {
  GraphDatabase db = SmallDb();
  std::string bytes =
      Serialize([&](TextWriter* out) { return WriteDatabase(db, out); });
  auto loaded = RoundTripDb(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bytes);
}

TEST(IoCorruptionTest, DatabaseTruncationDetected) {
  GraphDatabase db = SmallDb();
  std::string bytes =
      Serialize([&](TextWriter* out) { return WriteDatabase(db, out); });
  ExpectTruncationDetected(bytes, RoundTripDb);
}

TEST(IoCorruptionTest, DatabaseBitFlipsDetected) {
  GraphDatabase db = SmallDb();
  std::string bytes =
      Serialize([&](TextWriter* out) { return WriteDatabase(db, out); });
  ExpectBitFlipsDetected(bytes, RoundTripDb);
}

// ---- view sets --------------------------------------------------------------

TEST(IoCorruptionTest, ViewSetV2RoundTrip) {
  ExplanationViewSet set = SmallViews();
  std::string bytes =
      Serialize([&](TextWriter* out) { return WriteViewSet(set, out); });
  auto loaded = RoundTripViews(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bytes);
}

TEST(IoCorruptionTest, ViewSetTruncationDetected) {
  ExplanationViewSet set = SmallViews();
  std::string bytes =
      Serialize([&](TextWriter* out) { return WriteViewSet(set, out); });
  ExpectTruncationDetected(bytes, RoundTripViews);
}

TEST(IoCorruptionTest, ViewSetBitFlipsDetected) {
  ExplanationViewSet set = SmallViews();
  std::string bytes =
      Serialize([&](TextWriter* out) { return WriteViewSet(set, out); });
  ExpectBitFlipsDetected(bytes, RoundTripViews);
}

// ---- models -----------------------------------------------------------------

TEST(IoCorruptionTest, ModelV2RoundTrip) {
  GcnClassifier model = SmallModel();
  std::string bytes = Serialize(
      [&](TextWriter* out) { return GcnSerializer::Write(model, out); });
  auto loaded = RoundTripModel(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bytes);
}

TEST(IoCorruptionTest, ModelTruncationDetected) {
  GcnClassifier model = SmallModel();
  std::string bytes = Serialize(
      [&](TextWriter* out) { return GcnSerializer::Write(model, out); });
  ExpectTruncationDetected(bytes, RoundTripModel);
}

TEST(IoCorruptionTest, ModelBitFlipsDetected) {
  GcnClassifier model = SmallModel();
  std::string bytes = Serialize(
      [&](TextWriter* out) { return GcnSerializer::Write(model, out); });
  ExpectBitFlipsDetected(bytes, RoundTripModel);
}

// ---- cluster bundles (gvexbundle-v1) ----------------------------------------

cluster::ViewBundle SmallBundle(bool with_model) {
  cluster::ViewBundle bundle;
  bundle.route = "fuzz-route";
  bundle.generation = 7;
  bundle.views = SmallViews();
  if (with_model) {
    bundle.model = std::make_shared<const GcnClassifier>(SmallModel());
  }
  return bundle;
}

Result<std::string> RoundTripBundle(const std::string& bytes) {
  GVEX_ASSIGN_OR_RETURN(cluster::ViewBundle bundle,
                        cluster::DecodeBundle(bytes));
  return cluster::EncodeBundle(bundle);
}

TEST(IoCorruptionTest, BundleRoundTrip) {
  for (bool with_model : {false, true}) {
    cluster::ViewBundle bundle = SmallBundle(with_model);
    auto bytes = cluster::EncodeBundle(bundle);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto loaded = RoundTripBundle(*bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, *bytes);
    auto decoded = cluster::DecodeBundle(*bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->route, "fuzz-route");
    EXPECT_EQ(decoded->generation, 7u);
    EXPECT_EQ(decoded->fingerprint.size(), 16u);
    EXPECT_EQ(decoded->model != nullptr, with_model);
  }
}

TEST(IoCorruptionTest, BundleTruncationDetected) {
  auto bytes = cluster::EncodeBundle(SmallBundle(/*with_model=*/false));
  ASSERT_TRUE(bytes.ok());
  ExpectTruncationDetected(*bytes, RoundTripBundle);
}

TEST(IoCorruptionTest, BundleWithModelTruncationDetected) {
  auto bytes = cluster::EncodeBundle(SmallBundle(/*with_model=*/true));
  ASSERT_TRUE(bytes.ok());
  ExpectTruncationDetected(*bytes, RoundTripBundle);
}

TEST(IoCorruptionTest, BundleBitFlipsDetected) {
  auto bytes = cluster::EncodeBundle(SmallBundle(/*with_model=*/false));
  ASSERT_TRUE(bytes.ok());
  ExpectBitFlipsDetected(*bytes, RoundTripBundle);
}

TEST(IoCorruptionTest, BundleWithModelBitFlipsDetected) {
  auto bytes = cluster::EncodeBundle(SmallBundle(/*with_model=*/true));
  ASSERT_TRUE(bytes.ok());
  ExpectBitFlipsDetected(*bytes, RoundTripBundle);
}

// The per-section CRCs pass on a bundle stitched together from two valid
// bundles; only the header content fingerprint catches it.
TEST(IoCorruptionTest, BundleStitchedFromTwoGenerationsRejected) {
  cluster::ViewBundle a = SmallBundle(/*with_model=*/false);
  cluster::ViewBundle b = SmallBundle(/*with_model=*/false);
  b.views.views.pop_back();  // different content, same route
  auto bytes_a = cluster::EncodeBundle(a);
  auto bytes_b = cluster::EncodeBundle(b);
  ASSERT_TRUE(bytes_a.ok());
  ASSERT_TRUE(bytes_b.ok());
  // Swap the views section: keep a's magic+header, graft everything from
  // b's first section start onward.
  const size_t header_end_a = bytes_a->find("\nsec ", bytes_a->find("sec "));
  const size_t header_end_b = bytes_b->find("\nsec ", bytes_b->find("sec "));
  ASSERT_NE(header_end_a, std::string::npos);
  ASSERT_NE(header_end_b, std::string::npos);
  const std::string stitched =
      bytes_a->substr(0, header_end_a) + bytes_b->substr(header_end_b);
  auto decoded = cluster::DecodeBundle(stitched);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIoError());
}

TEST(IoCorruptionTest, BundleRejectsInvalidRoute) {
  cluster::ViewBundle bundle = SmallBundle(/*with_model=*/false);
  bundle.route = "bad route name";
  TextWriter out;
  EXPECT_TRUE(cluster::WriteBundle(bundle, &out).IsInvalidArgument());
}

// ---- shard maps (gvexshardmap-v1) -------------------------------------------

cluster::ShardMap SmallShardMap() {
  std::vector<cluster::ShardEntry> entries = {
      {"left", "unix:/tmp/l.sock", "unix:/tmp/l-standby.sock"},
      {"mid", "tcp:9001", ""},
      {"right", "unix:/tmp/r.sock", ""}};
  auto map = cluster::ShardMap::Create(std::move(entries));
  EXPECT_TRUE(map.ok());
  return std::move(map).ValueOrDie();
}

Result<std::string> RoundTripShardMap(const std::string& bytes) {
  TextReader in(bytes);
  GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map, cluster::ShardMap::Read(&in));
  TextWriter out;
  GVEX_RETURN_NOT_OK(map.Write(&out));
  return out.Take();
}

TEST(IoCorruptionTest, ShardMapRoundTrip) {
  cluster::ShardMap map = SmallShardMap();
  std::string bytes =
      Serialize([&](TextWriter* out) { return map.Write(out); });
  auto again = RoundTripShardMap(bytes);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, bytes);
}

TEST(IoCorruptionTest, ShardMapTruncationDetected) {
  cluster::ShardMap map = SmallShardMap();
  std::string bytes =
      Serialize([&](TextWriter* out) { return map.Write(out); });
  ExpectTruncationDetected(bytes, RoundTripShardMap);
}

TEST(IoCorruptionTest, ShardMapBitFlipsDetected) {
  // A flipped slot-owner digit must not silently re-route corpus keys:
  // the CRC section covers the owner table, so every flip is detected
  // or provably benign.
  cluster::ShardMap map = SmallShardMap();
  std::string bytes =
      Serialize([&](TextWriter* out) { return map.Write(out); });
  ExpectBitFlipsDetected(bytes, RoundTripShardMap);
}

// ---- whole-file corruption of saved artifacts -------------------------------

TEST(IoCorruptionTest, EmptyAndGarbageStreamsAreErrors) {
  {
    TextReader in("");
    EXPECT_FALSE(ReadDatabase(&in).ok());
  }
  {
    TextReader in("not a gvex file at all\n1 2 3\n");
    EXPECT_FALSE(ReadViewSet(&in).ok());
  }
  {
    TextReader in("gvexgcn-v9\n");
    EXPECT_FALSE(GcnSerializer::Read(&in).ok());
  }
}

}  // namespace
}  // namespace gvex
