// serve_ingest: writes beside reads. The serve_read stack gets an
// IngestManager (write-ahead journal under the work dir, fixed drift window
// and threshold) and starts each cycle on a stale generation that has views
// for half the labels. One writer connection feeds the held-out stream by
// kIngest, back to back; drift-triggered publishes hot-swap the served
// generation. Two reader connections send the serve_read mix on a seeded
// open-loop schedule at a fixed rate: each read is timed from when it was
// due, and how late the generator ran is printed beside it. One operation
// is one graph ingested: ops_per_s is the median over cycles of graphs fed
// per second, op_p50_us the median writer-side kIngest round trip.
//
// A cycle replays the whole feed, so the publish count and every published
// fingerprint repeat exactly; set-up runs one cycle to learn them, and the
// answers of every generation. Readers must stay on the swap staircase:
// each answer equals some generation's in-process answer, and the
// generations a reader sees never go back.
//
// Traced run: cycles run untraced, then traced (the tracing overhead), then
// the layer replay (layers.h) runs; its ingest section is here.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "gvex/explain/stream_gvex.h"
#include "gvex/ingest/ingest.h"
#include "gvex/ingest/journal.h"
#include "gvex/matching/match_cache.h"
#include "layers.h"
#include "serving.h"

namespace perfbench {

using gvex::serve::Request;
using gvex::serve::RequestType;
using gvex::serve::Response;
using Clock = std::chrono::steady_clock;

namespace {

constexpr size_t kReaders = 2;
// Per reader connection; well under what the stack sustains beside the
// writer, so the backlog does not grow.
constexpr double kReaderRate = 500.0;
constexpr size_t kPatternSlots = 48;
constexpr size_t kClassifySlots = 16;
// Replays of the feed in the traced run: 3 x 360 graphs put more than ten
// samples beyond the p99s of the ack and StreamGVEX latencies.
constexpr size_t kReplayReps = 3;
constexpr size_t kInstallReps = 5;

struct Setup {
  Fixture fx;
  HeldOut feed;
  std::vector<size_t> feed_order;
  gvex::ExplanationViewSet stale;
  ServeStack stack;
  std::vector<Request> slots;  // pattern slots, then classify slots
  /// expected[g][slot]: canonical in-process answer under generation g
  /// (0 = the stale generation, then one per publish).
  std::vector<std::vector<std::string>> expected;
  std::vector<std::string> published;  // fingerprints, in publish order
  gvex::ExplanationViewSet last_cut;   // views of the last publish
  std::string wal_path;
};

struct Cycle {
  double feed_seconds = 0.0;
  size_t fed = 0;
  std::vector<std::string> published;
  std::vector<std::shared_ptr<const gvex::serve::LoadedViewSet>> snapshots;
  Samples ack_us, pattern_us, classify_us, late_us;
  Tally ops;
};

gvex::ingest::IngestOptions IngestOptions(const Setup& s) {
  gvex::ingest::IngestOptions o;
  o.drift_threshold = 0.25;
  o.drift_window = 16;
  o.checkpoint_cadence = 8;
  o.journal_path = s.wal_path;
  o.config = s.fx.config;
  return o;
}

// One open-loop reader connection until `feeding` drops.
void ReaderLoop(Setup* s, size_t reader, uint64_t seed, Clock::time_point t0,
                const std::atomic<bool>* feeding, Cycle* out,
                std::mutex* out_mu) {
  Cycle local;
  gvex::serve::SocketClient client;
  if (gvex::Status st = client.Connect(s->stack.endpoint()); !st.ok()) {
    ++local.ops.attempted;
    local.ops.Fail("reader connect: " + st.ToString());
  } else {
    gvex::Rng rng(seed * 1000003 + 101 + reader);
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kReaderRate));
    Staircase staircase(&s->expected);
    uint64_t id = (static_cast<uint64_t>(reader) + 1) << 40;
    for (uint64_t k = 0;; ++k) {
      const Clock::time_point due = t0 + interval * k;
      std::this_thread::sleep_until(due);
      if (!feeding->load()) break;
      const bool classify = rng.NextBounded(kClassifyOneIn) == 0;
      const size_t slot =
          classify ? kPatternSlots + rng.NextBounded(kClassifySlots)
                   : rng.NextBounded(kPatternSlots);
      Request req = s->slots[slot];
      req.id = ++id;
      ++local.ops.attempted;
      const Clock::time_point sent = Clock::now();
      gvex::Result<Response> resp = client.Call(req);
      const Clock::time_point done = Clock::now();
      if (!resp.ok()) {
        local.ops.Fail("reader transport: " + resp.status().ToString());
        break;
      }
      if (resp->id != req.id) {
        local.ops.Fail("reader got another request's answer");
        continue;
      }
      if (!staircase.Accept(slot, Canonical(*std::move(resp)))) {
        local.ops.Fail("read answer matches no generation from the "
                            "reader's current one on");
        continue;
      }
      auto us = [](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
      };
      (classify ? local.classify_us : local.pattern_us).Add(us(done - due));
      local.late_us.Add(us(sent - due));
    }
  }
  std::lock_guard<std::mutex> lock(*out_mu);
  out->pattern_us.Append(local.pattern_us);
  out->classify_us.Append(local.classify_us);
  out->late_us.Append(local.late_us);
  out->ops.Merge(local.ops);
}

// Reset to the stale generation, feed the whole stream, stop.
Cycle RunCycle(Setup* s, uint64_t seed, bool with_readers) {
  Cycle cycle;
  auto& registry = s->stack.registry();
  auto& server = s->stack.server();
  if (gvex::Status st = registry.InstallViews(s->stale); !st.ok()) {
    ++cycle.ops.attempted;
    cycle.ops.Fail("stale install: " + st.ToString());
    return cycle;
  }
  registry.WarmMatchCache();
  gvex::ingest::IngestManager manager(&registry, s->fx.model,
                                      IngestOptions(*s));
  if (gvex::Status st = manager.Start(); !st.ok()) {
    ++cycle.ops.attempted;
    cycle.ops.Fail("ingest start: " + st.ToString());
    return cycle;
  }
  server.SetIngestHandler(
      [&manager](Request req) { return manager.Submit(std::move(req)); });

  gvex::serve::SocketClient writer;
  gvex::Status connected = writer.Connect(s->stack.endpoint());
  std::atomic<bool> feeding{true};
  std::mutex merge_mu;
  std::vector<std::thread> readers;
  const Clock::time_point t0 = Clock::now();
  if (with_readers) {
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back(ReaderLoop, s, r, seed, t0, &feeding, &cycle,
                           &merge_mu);
    }
  }
  Cycle writes;
  if (!connected.ok()) {
    ++writes.ops.attempted;
    writes.ops.Fail("writer connect: " + connected.ToString());
  }
  const double start = NowSeconds();
  for (size_t i = 0; connected.ok() && i < s->feed_order.size(); ++i) {
    const size_t gi = s->feed_order[i];
    Request req;
    req.type = RequestType::kIngest;
    req.id = i + 1;
    req.label = s->feed.predicted[gi];
    req.graph = s->feed.db.graph(gi);
    req.has_graph = true;
    ++writes.ops.attempted;
    const uint64_t a0 = NowNs();
    gvex::Result<Response> ack = writer.Call(req);
    writes.ack_us.Add(static_cast<double>(NowNs() - a0) / 1000.0);
    if (!ack.ok()) {
      writes.ops.Fail("writer transport: " + ack.status().ToString());
      break;
    }
    if (!ack->ok() || ack->id != req.id) {
      writes.ops.Fail("ingest refused: " + ack->message);
      continue;
    }
    ++writes.fed;
    if (ack->text.find("published") != std::string::npos) {
      writes.published.push_back(
          registry.fingerprint(gvex::cluster::kDefaultRoute));
      writes.snapshots.push_back(registry.Snapshot());
    }
  }
  writes.feed_seconds = NowSeconds() - start;
  feeding.store(false);
  for (auto& t : readers) t.join();
  server.SetIngestHandler(nullptr);
  manager.Stop();

  cycle.feed_seconds = writes.feed_seconds;
  cycle.fed = writes.fed;
  cycle.published = std::move(writes.published);
  cycle.snapshots = std::move(writes.snapshots);
  cycle.ack_us = std::move(writes.ack_us);
  cycle.ops.Merge(writes.ops);
  return cycle;
}

// Canonical in-process answers of every slot under one generation's views.
std::vector<std::string> AnswersFor(const Setup& s,
                                    const gvex::ExplanationViewSet& views) {
  gvex::serve::ViewRegistry registry;
  std::vector<std::string> out;
  if (!registry.InstallViews(views).ok()) return out;
  registry.InstallModel(s.fx.model);
  gvex::serve::ExplanationServer server(&registry);
  if (!server.Start().ok()) return out;
  for (const Request& req : s.slots) out.push_back(Canonical(server.Call(req)));
  server.Stop();
  return out;
}

// The stack serves `fx`'s views at the socket named after `name`; the
// journal is named after it too.
gvex::Result<std::unique_ptr<Setup>> MakeSetup(const Options& options,
                                               Fixture fx, const char* name) {
  auto s = std::make_unique<Setup>();
  s->fx = std::move(fx);
  // Two held-out batches: the per-graph ingest cost varies a lot, and a
  // longer feed keeps the seed from moving the average.
  GVEX_ASSIGN_OR_RETURN(s->feed, MakeHeldOut(s->fx, kIngestStream, 1.0));
  GVEX_ASSIGN_OR_RETURN(HeldOut more,
                        MakeHeldOut(s->fx, kIngestStream + 1, 1.0));
  for (size_t i = 0; i < more.db.size(); ++i) {
    s->feed.db.Add(more.db.graph(i), more.db.label(i));
    s->feed.predicted.push_back(more.predicted[i]);
  }
  s->feed_order.resize(s->feed.db.size());
  for (size_t i = 0; i < s->feed_order.size(); ++i) s->feed_order[i] = i;
  gvex::Rng(options.seed).Shuffle(&s->feed_order);
  for (const auto& view : s->fx.views.views) {
    if (static_cast<size_t>(view.label) < s->fx.labels.size() / 2) {
      s->stale.views.push_back(view);
    }
  }
  s->wal_path = options.work_dir + "/" + name + "_" +
                std::to_string(::getpid()) + ".wal";
  GVEX_RETURN_NOT_OK(
      s->stack.Start(s->stale, s->fx.model, SocketPath(options, name)));
  s->slots = MakePatternPool(s->fx.views, s->fx.labels, options.seed,
                             kPatternSlots);
  GVEX_ASSIGN_OR_RETURN(HeldOut classify,
                        MakeHeldOut(s->fx, kClassifyStream, 1.0));
  for (size_t i = 0; i < kClassifySlots; ++i) {
    s->slots.push_back(ClassifyRequest(classify.db.graph(i)));
  }

  // The first cycle learns the publish sequence and each generation's
  // answers; later cycles must repeat it exactly.
  Cycle first = RunCycle(s.get(), options.seed, /*with_readers=*/false);
  if (first.ops.failed > 0) {
    return gvex::Status::Internal(first.ops.first_failure);
  }
  if (first.published.empty()) {
    return gvex::Status::Internal("the feed never triggered a publish");
  }
  s->published = first.published;
  s->last_cut = first.snapshots.back()->views;
  s->expected.push_back(AnswersFor(*s, s->stale));
  for (const auto& snap : first.snapshots) {
    s->expected.push_back(AnswersFor(*s, snap->views));
  }
  for (const auto& answers : s->expected) {
    if (answers.size() != s->slots.size()) {
      return gvex::Status::Internal("in-process answers unavailable");
    }
  }
  gvex::MatchCache::Global().Clear();  // run boundary
  return s;
}

// The cycles QuietWindows keeps, pooled.
struct Totals {
  std::vector<double> rates;  // graphs/s per cycle
  Samples ack_us, pattern_us, classify_us, late_us;
  size_t cycles = 0;
};

// Cycles until `seconds` pass (at least two), checked and accounted.
Totals RunCycles(Setup* s, uint64_t seed, double seconds, bool reset_spans,
                 RunResult* result) {
  std::vector<Cycle> cycles;
  std::vector<double> steal;
  const double end = NowSeconds() + seconds;
  while (cycles.size() < 2 || NowSeconds() < end) {
    StealMeter meter;
    Cycle c = RunCycle(s, seed + cycles.size(), /*with_readers=*/true);
    steal.push_back(meter.Lap());
    if (reset_spans) gvex::obs::Registry::Global().Reset();
    result->Account(c.ops);
    if (c.published != s->published) {
      result->Fail(1, "publish sequence differs from set-up's (" +
                          std::to_string(c.published.size()) + " vs " +
                          std::to_string(s->published.size()) + ")");
    }
    c.snapshots.clear();  // release the superseded generations
    cycles.push_back(std::move(c));
  }
  Totals t;
  t.cycles = cycles.size();
  const std::vector<bool> keep = QuietWindows(steal, "cycles");
  for (size_t i = 0; i < cycles.size(); ++i) {
    const Cycle& c = cycles[i];
    if (!keep[i]) continue;
    if (c.feed_seconds > 0.0) t.rates.push_back(c.fed / c.feed_seconds);
    t.ack_us.Append(c.ack_us);
    t.pattern_us.Append(c.pattern_us);
    t.classify_us.Append(c.classify_us);
    t.late_us.Append(c.late_us);
  }
  return t;
}

void PrintCycles(const Totals& t) {
  auto p99 = t.late_us.Percentile(0.99);
  double max = 0.0;
  for (double v : t.late_us.values()) max = std::max(max, v);
  std::printf("%zu cycles; graphs/s per kept cycle: q1 %.1f, median %.1f, "
              "q3 %.1f\n",
              t.cycles, NearestRank(t.rates, 0.25, 0).value_or(0.0),
              Median(t.rates), NearestRank(t.rates, 0.75, 0).value_or(0.0));
  std::printf("generator lateness: p99 %.1f us, max %.1f us over %zu reads\n",
              p99.value_or(max), max, t.late_us.size());
  std::printf("reads (not gated): pattern p50 %.1f us, classify p50 %.1f us\n",
              Median(t.pattern_us.values()), Median(t.classify_us.values()));
}

}  // namespace

void ReplayIngest(const Fixture& fixture, const Options& options, SpanLog* log,
                  RunResult* result) {
  auto made = MakeSetup(options, fixture, "replay_ingest");
  if (!made.ok()) {
    result->Attempt();
    result->Fail(1, "ingest replay set-up: " + made.status().ToString());
    return;
  }
  Setup* s = made->get();
  // The writer alone, untraced: ack latencies and publishes per cycle.
  Samples ack_us;
  {
    ObsDelta delta;
    for (size_t rep = 0; rep < kReplayReps; ++rep) {
      Cycle c = RunCycle(s, options.seed, /*with_readers=*/false);
      result->Account(c.ops);
      if (c.published != s->published) {
        result->Fail(1, "replayed publish sequence differs from set-up's");
      }
      ack_us.Append(c.ack_us);
    }
    result->Metric("ingest.publishes",
                   static_cast<double>(delta.Counter("ingest.publishes")) /
                       kReplayReps,
                   "count");
  }

  gvex::obs::SetTraceEnabled(true);
  Samples stream_us, journal_us;
  uint64_t id = kIngestIdBase;
  for (size_t rep = 0; rep < kReplayReps; ++rep) {
    std::map<gvex::ClassLabel, std::unique_ptr<gvex::StreamGvex>> solvers;
    for (size_t i = 0; i < s->feed_order.size(); ++i) {
      const size_t gi = s->feed_order[i];
      const gvex::ClassLabel l = s->feed.predicted[gi];
      auto& solver = solvers[l];
      if (solver == nullptr) {
        solver = std::make_unique<gvex::StreamGvex>(s->fx.model.get(),
                                                    s->fx.config);
      }
      ScopedSpan span(log, "bench.stream_ingest", ++id);
      gvex::Status st = solver->IngestGraph(s->feed.db.graph(gi), i + 1, l);
      stream_us.Add(span.ElapsedUs());
      if (!st.ok() && !st.IsInfeasible()) result->Fail(1, st.ToString());
    }
  }
  const std::string journal = options.work_dir + "/replay_" +
                              std::to_string(::getpid()) + ".wal";
  for (size_t rep = 0; rep < kReplayReps; ++rep) {
    auto opened = gvex::ingest::IngestJournal::Open(journal, false);
    if (!opened.ok()) {
      result->Fail(1, opened.status().ToString());
      break;
    }
    for (size_t i = 0; i < s->feed_order.size(); ++i) {
      const size_t gi = s->feed_order[i];
      ScopedSpan span(log, "bench.journal_append", ++id);
      gvex::Status st = (*opened)->AppendGraph(i + 1, i + 1,
                                               s->feed.predicted[gi],
                                               s->feed.db.graph(gi));
      journal_us.Add(span.ElapsedUs());
      if (!st.ok()) result->Fail(1, st.ToString());
    }
  }
  std::remove(journal.c_str());

  std::vector<double> install_ms;
  gvex::cluster::ViewBundle bundle;
  bundle.views = s->last_cut;
  bundle.model = s->fx.model;
  for (size_t rep = 0; rep < kInstallReps; ++rep) {
    gvex::serve::ViewRegistry registry;
    gvex::MatchCache::Global().Clear();
    ScopedSpan span(log, "bench.install_bundle", ++id);
    gvex::Status st = registry.InstallBundle(bundle);
    registry.WarmMatchCache();
    install_ms.push_back(span.ElapsedUs() / 1000.0);
    if (!st.ok()) result->Fail(1, st.ToString());
  }
  gvex::obs::SetTraceEnabled(false);

  result->PercentileMetric("ingest.ack_us.p50", ack_us, 0.50);
  result->PercentileMetric("ingest.ack_us.p99", ack_us, 0.99);
  result->Metric("ingest.ack_us.n", static_cast<double>(ack_us.size()),
                 "count");
  result->PercentileMetric("explain.stream_ingest_us.p50", stream_us, 0.50);
  result->PercentileMetric("explain.stream_ingest_us.p99", stream_us, 0.99);
  result->Metric("explain.stream_ingest_us.n",
                 static_cast<double>(stream_us.size()), "count");
  result->PercentileMetric("ingest.journal_append_us.p50", journal_us, 0.50);
  result->Metric("ingest.journal_append_us.n",
                 static_cast<double>(journal_us.size()), "count");
  result->Metric("serve.install_bundle_ms", Median(install_ms), "ms");
  std::remove(s->wal_path.c_str());
}

void RunServeIngest(const Options& options, RunResult* result) {
  std::unique_ptr<Setup> s = RepeatSetup<Setup>(
      [&]() -> gvex::Result<std::unique_ptr<Setup>> {
        GVEX_ASSIGN_OR_RETURN(Fixture fx, MakeFixture(options.seed));
        return MakeSetup(options, std::move(fx), "serve_ingest");
      },
      [](const Setup& made) { return made.published; }, result);
  if (s == nullptr) return;
  std::printf("serve_ingest: %zu feed graphs, %zu stale labels, %zu publishes "
              "per cycle, %zu readers at %.0f req/s each\n",
              s->feed_order.size(), s->stale.views.size(),
              s->published.size(), kReaders, kReaderRate);

  if (!options.trace) {
    Totals t = RunCycles(s.get(), options.seed, options.seconds, false, result);
    PrintCycles(t);
    // Reads beside ingest swing by more than any bound the gate allows
    // (the ingest solver's CPU bursts, the open loop's wake-ups under
    // steal), so only the writer's figures are metrics; see README.md. This
    // run still checks every read.
    result->Metric("ops_per_s", Median(t.rates), "op/s");
    result->PercentileMetric("op_p50_us", t.ack_us, 0.50);
  } else {
    ObsDelta delta;
    Totals plain =
        RunCycles(s.get(), options.seed, options.seconds / 2, false, result);
    PrintCycles(plain);
    CacheMetrics(delta, result);

    gvex::obs::SetTraceEnabled(true);
    Totals traced =
        RunCycles(s.get(), options.seed, options.seconds / 2, true, result);
    gvex::obs::SetTraceEnabled(false);
    const double rate = Median(plain.rates), traced_rate = Median(traced.rates);
    std::printf("tracing overhead: %.0f graphs/s untraced, %.0f traced\n",
                rate, traced_rate);
    result->Metric("trace.overhead_pct", 100.0 * (rate - traced_rate) / rate,
                   "%");
    ReplayLayers(s->fx, options, result);
  }
  std::remove(s->wal_path.c_str());
}

}  // namespace perfbench
