// Tests for gvex::obs — counter/histogram merge correctness under thread
// contention, span nesting, exporter JSON round-trips through the parser,
// and the CLI's best-effort metrics emission under injected I/O faults.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gvex/cli/cli.h"
#include "gvex/common/failpoint.h"
#include "gvex/obs/json.h"
#include "gvex/obs/obs.h"
#include "gvex/obs/report.h"

namespace gvex {
namespace {

namespace fs = std::filesystem;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().Reset();
    obs::SetEnabled(true);
    obs::SetTraceEnabled(false);
  }
  void TearDown() override {
    obs::Registry::Global().Reset();
    obs::SetEnabled(true);
    obs::SetTraceEnabled(false);
  }
};

TEST_F(ObsTest, CounterMergesExactlyUnderContention) {
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 20000;
  obs::Counter& counter = obs::Registry::Global().GetCounter("test.contended");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);

  // The registry snapshot sees the same merged total.
  bool found = false;
  for (const auto& snap : obs::Registry::Global().Counters()) {
    if (snap.name == "test.contended") {
      found = true;
      EXPECT_EQ(snap.value, kThreads * kAddsPerThread);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, HistogramMergesExactlyUnderContention) {
  constexpr int kThreads = 8;
  constexpr uint64_t kSamplesPerThread = 5000;
  obs::Histogram& hist = obs::Registry::Global().GetHistogram("test.hist_us");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kSamplesPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t) + 1);  // values 1..8
      }
    });
  }
  for (auto& w : workers) w.join();

  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kSamplesPerThread);
  // sum = (1+2+...+8) * kSamplesPerThread
  EXPECT_EQ(snap.sum, 36 * kSamplesPerThread);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 8u);
  EXPECT_NEAR(snap.Mean(), 4.5, 1e-9);
  // All samples <= 8, so the p99 lands in the [8,16) bucket at worst.
  EXPECT_LE(snap.Quantile(0.99), 15u);
}

TEST_F(ObsTest, QuantilesNeverExceedTheRecordedMax) {
  // 10221 lands in the [8192, 16383] bucket; the bucket's upper bound is
  // not a value anyone recorded.
  obs::Histogram& hist = obs::Registry::Global().GetHistogram("test.flat_us");
  for (int i = 0; i < 10; ++i) hist.Record(10221);
  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.max, 10221u);
  EXPECT_EQ(snap.Quantile(0.5), 10221u);
  EXPECT_EQ(snap.Quantile(0.99), 10221u);
}

TEST_F(ObsTest, SetEnabledFalseSuppressesRecording) {
  obs::SetEnabled(false);
  GVEX_COUNTER_INC("test.disabled_counter");
  GVEX_HISTOGRAM_RECORD("test.disabled_hist", 7);
  obs::SetEnabled(true);
  GVEX_COUNTER_INC("test.disabled_counter");

  for (const auto& snap : obs::Registry::Global().Counters()) {
    if (snap.name == "test.disabled_counter") {
      EXPECT_EQ(snap.value, 1u);
    }
  }
  for (const auto& snap : obs::Registry::Global().Histograms()) {
    if (snap.name == "test.disabled_hist") {
      EXPECT_EQ(snap.count, 0u);
    }
  }
}

TEST_F(ObsTest, SpanNestingRecordsBothWithContainedDurations) {
  obs::SetTraceEnabled(true);
  {
    GVEX_SPAN("test.outer");
    {
      GVEX_SPAN("test.inner");
      // Make the inner span measurably non-empty.
      volatile uint64_t sink = 0;
      for (int i = 0; i < 10000; ++i) sink = sink + static_cast<uint64_t>(i);
    }
  }
  obs::SetTraceEnabled(false);

  const auto events = obs::Registry::Global().TraceEvents();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "test.outer") outer = &e;
    if (std::string(e.name) == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  // Inner is contained in outer: starts no earlier, ends no later.
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us, outer->start_us + outer->dur_us);
  EXPECT_GE(outer->dur_us, inner->dur_us);
}

TEST_F(ObsTest, SpansNotRecordedWhileTracingDisabled) {
  { GVEX_SPAN("test.untraced"); }
  for (const auto& e : obs::Registry::Global().TraceEvents()) {
    EXPECT_STRNE(e.name, "test.untraced");
  }
}

TEST_F(ObsTest, ChromeTraceJsonRoundTripsThroughParser) {
  obs::SetTraceEnabled(true);
  {
    GVEX_SPAN("test.trace_export");
  }
  obs::SetTraceEnabled(false);

  const std::string json =
      obs::ChromeTraceJson(obs::Registry::Global().TraceEvents());
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->kind, obs::JsonValue::Kind::kObject);

  const obs::JsonValue* unit = parsed->Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string_value, "ms");

  const obs::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, obs::JsonValue::Kind::kArray);
  bool found = false;
  for (const auto& e : events->items) {
    const obs::JsonValue* name = e.Find("name");
    if (name == nullptr || name->string_value != "test.trace_export") continue;
    found = true;
    const obs::JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value, "X");  // complete event
    EXPECT_NE(e.Find("ts"), nullptr);
    EXPECT_NE(e.Find("dur"), nullptr);
    EXPECT_NE(e.Find("pid"), nullptr);
    EXPECT_NE(e.Find("tid"), nullptr);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, PerfReportJsonRoundTripsThroughParser) {
  GVEX_COUNTER_ADD("test.report_counter", 42);
  GVEX_HISTOGRAM_RECORD("test.report_hist_us", 100);
  GVEX_HISTOGRAM_RECORD("test.report_hist_us", 300);

  obs::PerfReport report("unit_test");
  report.SetParam("scale", 0.25);
  report.SetParam("dataset", "MUT");
  report.AddTiming("total", 1.5);
  report.AddTiming("total", 2.5);  // duplicate names are kept in order

  auto parsed = obs::ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const obs::JsonValue* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "gvex-bench-v1");
  const obs::JsonValue* name = parsed->Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string_value, "unit_test");
  EXPECT_NE(parsed->Find("git_rev"), nullptr);
  EXPECT_NE(parsed->Find("unix_time"), nullptr);

  const obs::JsonValue* params = parsed->Find("params");
  ASSERT_NE(params, nullptr);
  const obs::JsonValue* dataset = params->Find("dataset");
  ASSERT_NE(dataset, nullptr);
  EXPECT_EQ(dataset->string_value, "MUT");

  const obs::JsonValue* timings = parsed->Find("timings");
  ASSERT_NE(timings, nullptr);
  ASSERT_EQ(timings->items.size(), 2u);
  EXPECT_EQ(timings->items[0].Find("name")->string_value, "total");
  EXPECT_DOUBLE_EQ(timings->items[0].Find("seconds")->number, 1.5);
  EXPECT_DOUBLE_EQ(timings->items[1].Find("seconds")->number, 2.5);

  const obs::JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  bool counter_found = false;
  for (const auto& c : counters->items) {
    if (c.Find("name")->string_value == "test.report_counter") {
      counter_found = true;
      EXPECT_DOUBLE_EQ(c.Find("value")->number, 42.0);
    }
  }
  EXPECT_TRUE(counter_found);

  const obs::JsonValue* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  bool hist_found = false;
  for (const auto& h : histograms->items) {
    if (h.Find("name")->string_value != "test.report_hist_us") continue;
    hist_found = true;
    EXPECT_DOUBLE_EQ(h.Find("count")->number, 2.0);
    EXPECT_DOUBLE_EQ(h.Find("sum")->number, 400.0);
    EXPECT_DOUBLE_EQ(h.Find("mean")->number, 200.0);
    EXPECT_DOUBLE_EQ(h.Find("min")->number, 100.0);
    EXPECT_DOUBLE_EQ(h.Find("max")->number, 300.0);
    EXPECT_NE(h.Find("p50"), nullptr);
    EXPECT_NE(h.Find("p90"), nullptr);
    EXPECT_NE(h.Find("p99"), nullptr);
  }
  EXPECT_TRUE(hist_found);
}

TEST_F(ObsTest, WriteChromeTraceFailpointReturnsErrorWithoutFile) {
  ASSERT_TRUE(failpoint::ArmFromString("obs.trace_save=error(io)").ok());
  const std::string path =
      (fs::temp_directory_path() /
       ("gvex_obs_trace_fp_" + std::to_string(static_cast<long>(::getpid()))))
          .string();
  Status st = obs::WriteChromeTrace(path);
  failpoint::DisarmAll();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(fs::exists(path));
}

// End-to-end: an injected I/O fault on the metrics report must not
// affect the explanation run — the CLI exits 0, the views land on disk,
// only the metrics file is missing (with a warning on stderr).
class ObsCliTest : public ObsTest {
 protected:
  void SetUp() override {
    ObsTest::SetUp();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gvex_obs_cli_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    ObsTest::TearDown();
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  void PrepareDbAndModel() {
    ASSERT_EQ(cli::Run({"gen", "--dataset", "MUT", "--scale", "0.15", "--out",
                        Path("db.txt")}),
              0);
    ASSERT_EQ(cli::Run({"train", "--db", Path("db.txt"), "--out",
                        Path("model.txt"), "--epochs", "10", "--hidden",
                        "16"}),
              0);
  }

  fs::path dir_;
};

TEST_F(ObsCliTest, MetricsAndTraceOutWriteValidJson) {
  PrepareDbAndModel();
  ASSERT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "8",
                      "--out", Path("views.txt"), "--metrics-out",
                      Path("metrics.json"), "--trace-out",
                      Path("trace.json")}),
            0);
  ASSERT_TRUE(fs::exists(Path("views.txt")));
  ASSERT_TRUE(fs::exists(Path("metrics.json")));
  ASSERT_TRUE(fs::exists(Path("trace.json")));

  // Both artifacts parse, and the metrics report carries the command
  // identity plus explain-phase counters.
  std::ifstream min(Path("metrics.json"));
  std::ostringstream mbuf;
  mbuf << min.rdbuf();
  auto metrics = obs::ParseJson(mbuf.str());
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->Find("schema")->string_value, "gvex-bench-v1");
  EXPECT_EQ(metrics->Find("name")->string_value, "explain");
  const obs::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  bool saw_explain_counter = false;
  for (const auto& c : counters->items) {
    if (c.Find("name")->string_value == "approx.graphs" &&
        c.Find("value")->number > 0) {
      saw_explain_counter = true;
    }
  }
  EXPECT_TRUE(saw_explain_counter);

  std::ifstream tin(Path("trace.json"));
  std::ostringstream tbuf;
  tbuf << tin.rdbuf();
  auto trace = obs::ParseJson(tbuf.str());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const obs::JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->items.empty());
}

TEST_F(ObsCliTest, MetricsIoFaultDegradesGracefully) {
  PrepareDbAndModel();
  // Arm the report-save failpoint through the CLI's own --fail plumbing:
  // the explanation must succeed and exit 0 even though the metrics
  // report cannot be written.
  EXPECT_EQ(cli::Run({"explain", "--db", Path("db.txt"), "--model",
                      Path("model.txt"), "--labels", "1", "--ul", "8",
                      "--out", Path("views.txt"), "--metrics-out",
                      Path("metrics.json"), "--fail",
                      "obs.report_save=error(io)"}),
            0);
  EXPECT_TRUE(fs::exists(Path("views.txt")));
  EXPECT_FALSE(fs::exists(Path("metrics.json")));
}

}  // namespace
}  // namespace gvex
