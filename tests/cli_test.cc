// End-to-end tests for the command-line front end and view serialization:
// the full gen -> train -> explain -> verify -> fidelity -> query pipeline
// through artifact files in a temp directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gvex/cli/cli.h"
#include "gvex/explain/view_io.h"
#include "gvex/graph/graph_io.h"

namespace gvex {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test AND per process: ctest runs test binaries in
    // parallel, and a shared directory makes fixtures race.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gvex_cli_test_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string Bytes(const std::string& name) {
    std::ifstream in(Path(name), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  fs::path dir_;
};

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_NE(cli::Run({"frobnicate"}), 0);
  EXPECT_NE(cli::Run({}), 0);
  EXPECT_NE(cli::Run({"gen", "--dataset"}), 0);  // missing value
  EXPECT_NE(cli::Run({"gen", "positional"}), 0);
}

TEST_F(CliTest, GenRejectsUnknownDataset) {
  EXPECT_NE(cli::Run({"gen", "--dataset", "NOPE", "--out", Path("x.txt")}),
            0);
}

TEST_F(CliTest, FullPipeline) {
  // gen
  ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.2", "--out",
                      Path("db.txt")}),
            0);
  ASSERT_TRUE(fs::exists(Path("db.txt")));
  // stats
  ASSERT_EQ(cli::Run({"stats", "--db", Path("db.txt")}), 0);
  // train
  ASSERT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                      Path("model.txt"), "--epochs", "80", "--hidden", "24"}),
            0);
  ASSERT_TRUE(fs::exists(Path("model.txt")));
  // explain (both algorithms)
  ASSERT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "12",
                      "--out", Path("views.txt")}),
            0);
  ASSERT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "12",
                      "--algorithm", "stream", "--out",
                      Path("views_stream.txt")}),
            0);
  // verify
  EXPECT_EQ(cli::Run({"verify", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--views", Path("views.txt"),
                      "--ul", "12"}),
            0);
  // fidelity
  EXPECT_EQ(cli::Run({"fidelity", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--views", Path("views.txt")}),
            0);
  // query with a handcrafted N=O pattern file
  {
    std::ofstream out(Path("pattern.txt"));
    out << "gvexgraph-v1\nmeta 2 1 0 0\nn 1\nn 2\ne 0 1 1\n";
  }
  EXPECT_EQ(cli::Run({"query", "--views", Path("views.txt"), "--pattern",
                      Path("pattern.txt"), "--label", "1"}),
            0);
}

TEST_F(CliTest, VerifyFailsOnMismatchedConstraints) {
  ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.15", "--out",
                      Path("db.txt")}),
            0);
  ASSERT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                      Path("model.txt"), "--epochs", "60"}),
            0);
  ASSERT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "12",
                      "--out", Path("views.txt")}),
            0);
  // Verifying against a tighter bound than the views were built for must
  // fail C3.
  EXPECT_NE(cli::Run({"verify", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--views", Path("views.txt"),
                      "--ul", "2"}),
            0);
}

TEST_F(CliTest, TrainSupportsAggregators) {
  ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.1", "--out",
                      Path("db.txt")}),
            0);
  for (const char* agg : {"gcn", "mean", "sum"}) {
    EXPECT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                        Path(std::string("model_") + agg + ".txt"),
                        "--epochs", "30", "--aggregator", agg}),
              0)
        << agg;
  }
  EXPECT_NE(cli::Run({"train", "--db", Path("db.txt"), "--out",
                      Path("m.txt"), "--aggregator", "transformer"}),
            0);
}

TEST_F(CliTest, ExitCodesMapStatusCodes) {
  // IoError (missing file) -> 8.
  EXPECT_EQ(cli::Run({"stats", "--db", Path("does_not_exist.txt")}), 8);
  // Usage / InvalidArgument -> 2.
  EXPECT_EQ(cli::Run({"explain", "--labels"}), 2);
  EXPECT_EQ(cli::Run({"gen", "--dataset", "MUT"}), 2);  // missing --out
  // Bad --fail spec -> 2.
  EXPECT_EQ(cli::Run({"stats", "--db", Path("x"), "--fail", "nonsense"}), 2);
}

TEST_F(CliTest, ExplainRejectsAnInvalidCoverageBound) {
  ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.1", "--out",
                      Path("db.txt")}),
            0);
  ASSERT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                      Path("model.txt"), "--epochs", "20"}),
            0);
  // The bound is checked per graph: kInvalidArgument fails the build -> 2,
  // exactly as ApproxGvex::Explain fails, and no view file is written.
  for (const auto& bounds : std::vector<std::vector<std::string>>{
           {"--ul", "0"}, {"--bl", "6", "--ul", "3"}}) {
    std::vector<std::string> argv = {"explain", "--db", Path("db.txt"),
                                     "--model", Path("model.txt"),
                                     "--labels", "0,1", "--out",
                                     Path("views.txt")};
    argv.insert(argv.end(), bounds.begin(), bounds.end());
    EXPECT_EQ(cli::Run(argv), 2) << bounds.back();
    EXPECT_FALSE(fs::exists(Path("views.txt")));
  }
}

// Each command checks its command line against its row of the flag table
// before it does any work: a rejected line exits 2, prints that row as
// usage, and writes nothing. The db and model paths below do not exist,
// so a command that got past the check would exit 8 instead.
class CliUsageTest : public CliTest {
 protected:
  // Runs `argv`, expecting exit 2 and only `command`'s row on stderr;
  // returns stderr.
  std::string ExpectRejected(const std::vector<std::string>& argv,
                             const std::string& row) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cli::Run(argv), 2) << argv.back();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("gvex_tool " + argv[0] + " " + row), std::string::npos)
        << err;
    EXPECT_EQ(err.find("gvex_tool stats"), std::string::npos) << err;
    return err;
  }

  std::vector<std::string> Explain(std::vector<std::string> extra) {
    std::vector<std::string> argv = {"explain", "--db", Path("db.txt"),
                                     "--model", Path("model.txt"),
                                     "--labels", "0,1", "--out",
                                     Path("views.txt")};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
  }

  const std::string explain_row_ = "--db PATH --model PATH --labels LABELS";
};

TEST_F(CliUsageTest, RejectsAnUnknownFlag) {
  ExpectRejected({"gen", "--dataset", "MUT", "--scale", "0.1", "--out",
                  Path("db.txt"), "--sed", "5"},
                 "--dataset NAME --out PATH");
  EXPECT_FALSE(fs::exists(Path("db.txt")));
  ExpectRejected(Explain({"--thread", "4"}), explain_row_);
  EXPECT_FALSE(fs::exists(Path("views.txt")));
}

TEST_F(CliUsageTest, RejectsAMalformedNumber) {
  ExpectRejected({"train", "--db", Path("db.txt"), "--out", Path("model.txt"),
                  "--epochs", "abc"},
                 "--db PATH --out PATH");
  EXPECT_FALSE(fs::exists(Path("model.txt")));
  for (const auto& bad : std::vector<std::vector<std::string>>{
           {"--ul", "4x"}, {"--theta", "0.1.2"}}) {
    ExpectRejected(Explain(bad), explain_row_);
    EXPECT_FALSE(fs::exists(Path("views.txt")));
  }
}

TEST_F(CliUsageTest, RejectsANumberOutsideItsField) {
  // PORT is 16-bit: the parent dialed 70000 mod 65536 = 4464.
  ExpectRejected({"client", "--port", "70000", "--type", "ping"},
                 "(--socket PATH | --port PORT");
  ExpectRejected({"publish", "--views", Path("views.txt"), "--generation",
                  "-3", "--out", Path("bundle.bin")},
                 "(--views PATH | --zoo PATH)");
  EXPECT_FALSE(fs::exists(Path("bundle.bin")));
  ExpectRejected(Explain({"--threads", "-1"}), explain_row_);
  EXPECT_FALSE(fs::exists(Path("views.txt")));
}

TEST_F(CliUsageTest, RejectsAWordItsKindDoesNotList) {
  // --type takes exactly the wire names of kRequestTypes, which the error
  // lists; a KIND of words joined by '|' takes exactly those words.
  const std::string err = ExpectRejected(
      {"client", "--socket", Path("none.sock"), "--type", "pingg"},
      "(--socket PATH | --port PORT");
  EXPECT_NE(err.find("ping|support|contains"), std::string::npos) << err;
  ExpectRejected(Explain({"--algorithm", "greedy"}), explain_row_);
  EXPECT_FALSE(fs::exists(Path("views.txt")));
}

TEST_F(CliUsageTest, RejectsAMissingRequiredFlag) {
  ExpectRejected({"train", "--db", Path("db.txt")}, "--db PATH --out PATH");
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(CliUsageTest, NoCommandOrAnUnknownOnePrintsEveryRow) {
  for (const std::vector<std::string>& argv :
       std::vector<std::vector<std::string>>{{}, {"frobnicate"}}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cli::Run(argv), 2);
    const std::string err = ::testing::internal::GetCapturedStderr();
    for (const char* command :
         {"gen", "stats", "train", "explain", "verify", "fidelity", "query",
          "serve", "client", "publish", "ingest", "evaluate", "shardmap",
          "frontend"}) {
      EXPECT_NE(err.find(std::string("gvex_tool ") + command + " "),
                std::string::npos)
          << command;
    }
  }
}

TEST_F(CliTest, ARepeatedFlagKeepsItsLastValue) {
  ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.1", "--out",
                      Path("first.txt"), "--out", Path("last.txt")}),
            0);
  EXPECT_FALSE(fs::exists(Path("first.txt")));
  EXPECT_TRUE(fs::exists(Path("last.txt")));
}

TEST_F(CliTest, ExplainRejectsARepeatedOrMalformedLabel) {
  ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.1", "--out",
                      Path("db.txt")}),
            0);
  ASSERT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                      Path("model.txt"), "--epochs", "20"}),
            0);
  // The parent wrote a view file for both: 0,0 listed label 0's subgraphs
  // twice, and 1,x explained labels 1 and 0.
  for (const char* labels : {"0,0", "1,x"}) {
    for (const char* algorithm : {"approx", "stream"}) {
      EXPECT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                          Path("model.txt"), "--labels", labels,
                          "--algorithm", algorithm, "--out",
                          Path("views.txt")}),
                2)
          << labels << " " << algorithm;
      EXPECT_FALSE(fs::exists(Path("views.txt")));
    }
  }
}

TEST_F(CliTest, DefaultsEqualTheirWrittenOutValues) {
  ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.1", "--out",
                      Path("db.txt")}),
            0);
  ASSERT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                      Path("model.txt")}),
            0);
  ASSERT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                      Path("model_spelled.txt"), "--hidden", "32", "--layers",
                      "3", "--epochs", "150", "--lr", "0.005", "--seed", "42",
                      "--aggregator", "gcn"}),
            0);
  EXPECT_EQ(Bytes("model.txt"), Bytes("model_spelled.txt"));
  ASSERT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "0,1", "--out",
                      Path("views.txt")}),
            0);
  ASSERT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "0,1", "--out",
                      Path("views_spelled.txt"), "--algorithm", "approx",
                      "--threads", "1", "--ul", "15", "--bl", "0", "--theta",
                      "0.08", "--radius", "0.25", "--gamma", "0.5"}),
            0);
  EXPECT_EQ(Bytes("views.txt"), Bytes("views_spelled.txt"));
}

TEST_F(CliTest, FailFlagInjectsFaults) {
  // The injected write failure survives the retry loop and surfaces as the
  // IoError exit code; nothing is left under the final path.
  EXPECT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.1", "--out",
                      Path("db.txt"), "--fail",
                      "graph_io.write_db=error(io)"}),
            8);
  EXPECT_FALSE(fs::exists(Path("db.txt")));
  // Failpoints are cleared when Run returns: the same command now works.
  EXPECT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.1", "--out",
                      Path("db.txt")}),
            0);
  EXPECT_TRUE(fs::exists(Path("db.txt")));
}

TEST_F(CliTest, CheckpointResumeProducesIdenticalViews) {
  ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.15", "--out",
                      Path("db.txt")}),
            0);
  ASSERT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                      Path("model.txt"), "--epochs", "40"}),
            0);
  // Reference: uninterrupted explain.
  ASSERT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "12",
                      "--threads", "2", "--out", Path("views_plain.txt")}),
            0);
  // --resume without --checkpoint is a usage error.
  EXPECT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "12",
                      "--resume", "--out", Path("v.txt")}),
            2);
  // A checkpointed run killed partway by an injected fault -> kInternal.
  EXPECT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "12",
                      "--checkpoint", Path("run.ckpt"), "--fail",
                      "approx.explain_graph=error(internal),skip(2),limit(1)",
                      "--out", Path("views_resumed.txt")}),
            7);
  // Resume completes and writes byte-identical views.
  ASSERT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "12",
                      "--checkpoint", Path("run.ckpt"), "--resume",
                      "--threads", "2", "--out", Path("views_resumed.txt")}),
            0);
  EXPECT_EQ(Bytes("views_resumed.txt"), Bytes("views_plain.txt"));
  // An absurdly small budget times out -> 9.
  EXPECT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "12",
                      "--budget", "0.000000001", "--out", Path("v.txt")}),
            9);
}

TEST(ViewIoTest, RoundTripPreservesStructure) {
  ExplanationViewSet set;
  ExplanationView view;
  view.label = 1;
  view.explainability = 2.5;
  Graph pattern;
  pattern.AddNode(3);
  pattern.AddNode(4);
  ASSERT_TRUE(pattern.AddEdge(0, 1, 2).ok());
  view.patterns.push_back(pattern);
  ExplanationSubgraph sub;
  sub.graph_index = 7;
  sub.nodes = {2, 5, 9};
  sub.explainability = 0.75;
  sub.subgraph.AddNode(3);
  sub.subgraph.AddNode(4);
  sub.subgraph.AddNode(3);
  ASSERT_TRUE(sub.subgraph.AddEdge(0, 1).ok());
  sub.subgraph.SetDefaultFeatures(2, 0.5f);
  view.subgraphs.push_back(sub);
  set.views.push_back(view);

  TextWriter out;
  ASSERT_TRUE(WriteViewSet(set, &out).ok());
  TextReader in(out.str());
  auto back = ReadViewSet(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->views.size(), 1u);
  const ExplanationView& v = back->views[0];
  EXPECT_EQ(v.label, 1);
  EXPECT_DOUBLE_EQ(v.explainability, 2.5);
  ASSERT_EQ(v.patterns.size(), 1u);
  EXPECT_EQ(v.patterns[0].GetEdgeType(0, 1), 2);
  ASSERT_EQ(v.subgraphs.size(), 1u);
  EXPECT_EQ(v.subgraphs[0].graph_index, 7u);
  EXPECT_EQ(v.subgraphs[0].nodes, (std::vector<NodeId>{2, 5, 9}));
  EXPECT_DOUBLE_EQ(v.subgraphs[0].explainability, 0.75);
  EXPECT_FLOAT_EQ(v.subgraphs[0].subgraph.features().At(0, 1), 0.5f);
}

TEST(ViewIoTest, RejectsCorruptInput) {
  TextReader in("wrong-magic");
  EXPECT_FALSE(ReadViewSet(&in).ok());
  TextReader in2("gvexviews-v1 1 notaview");
  EXPECT_FALSE(ReadViewSet(&in2).ok());
}

}  // namespace
}  // namespace gvex
