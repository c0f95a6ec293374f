// serve_read: the online unit of work. A closed loop of kClients
// connections, each sending its next request only after the last reply,
// over a Unix-socket SocketServer in front of an ExplanationServer that
// serves the explain_enz views and model. Three requests in four are
// pattern queries from a seeded pool over the served pattern tier; the
// fourth is classify-and-explain on a held-out graph, renumbered by a fresh
// seeded permutation per request so its content fingerprint is new and its
// pattern matches miss the MatchCache.
//
// One operation is one read: ops_per_s is the median of reads answered per
// second, op_p50_us the median read latency over both kinds.
//
// Every answer is checked byte for byte against ExplanationServer::Call
// in-process: pattern answers as they arrive, against answers computed in
// set-up; classify answers after the timed window, by hash.
//
// Traced run: the loop runs untraced, then traced (the tracing overhead),
// then the layer replay (layers.h) runs; its serve section is here.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "gvex/explain/query.h"
#include "gvex/matching/match_cache.h"
#include "layers.h"
#include "serving.h"

namespace perfbench {

using gvex::serve::Request;
using gvex::serve::RequestType;
using gvex::serve::Response;

namespace {

constexpr size_t kClients = 2;
constexpr size_t kPatternPool = 256;
// Requests replayed one at a time in the traced run, one in four classify.
constexpr size_t kReplayRequests = 2400;
// Seconds of the closed loop the serve replay runs for queueing and batching.
constexpr double kReplayLoadSeconds = 2.0;

struct Setup {
  Fixture fx;
  HeldOut heldout;
  ServeStack stack;
  std::vector<Request> pool;
  /// Canonical in-process answers: one generation, one per pool slot.
  std::vector<std::vector<std::string>> expected{1};
};

struct ClassifyRecord {
  uint32_t index = 0;    // into the held-out database
  uint64_t relabel = 0;  // permutation seed
  uint64_t hash = 0;     // Fnv1a of the canonical wire answer
};

// Answers completed in one whole second of the loop, with their latencies.
struct Window {
  double count = 0;
  Samples pattern_us, classify_us;
};

struct Load {
  std::vector<Window> windows;
  std::vector<double> steal;  // per window, filled by RunLoop
  Tally ops;
  std::vector<ClassifyRecord> classify;
};

// The windows QuietWindows keeps, pooled.
struct Quiet {
  std::vector<double> counts;
  Samples pattern_us, classify_us;
};

// The stack serves `fx`'s views at the socket named after `name`.
gvex::Result<std::unique_ptr<Setup>> MakeSetup(const Options& options,
                                               Fixture fx, const char* name) {
  auto s = std::make_unique<Setup>();
  s->fx = std::move(fx);
  GVEX_ASSIGN_OR_RETURN(s->heldout,
                        MakeHeldOut(s->fx, kClassifyStream, 1.0));
  GVEX_RETURN_NOT_OK(s->stack.Start(s->fx.views, s->fx.model,
                                    SocketPath(options, name)));
  s->pool = MakePatternPool(s->fx.views, s->fx.labels, options.seed,
                            kPatternPool);
  for (const Request& req : s->pool) {
    Response resp = s->stack.server().Call(req);
    if (!resp.ok()) {
      return gvex::Status::Internal("pool query fails in-process: " +
                                    resp.message);
    }
    s->expected[0].push_back(Canonical(std::move(resp)));
  }
  // Run boundary: start cold, then warm up over the wire, untimed.
  gvex::MatchCache::Global().Clear();
  s->stack.registry().WarmMatchCache();
  gvex::serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(s->stack.endpoint()));
  for (size_t i = 0; i < s->pool.size(); ++i) {
    GVEX_ASSIGN_OR_RETURN(Response resp, client.Call(s->pool[i]));
    if (Canonical(std::move(resp)) != s->expected[0][i]) {
      return gvex::Status::Internal("warm-up answer differs from in-process");
    }
  }
  return s;
}

// One client connection's closed loop until `end`.
Load ClientLoop(Setup* s, size_t client_index, uint64_t seed, double start,
                double end, SpanLog* log) {
  Load load;
  gvex::serve::SocketClient client;
  gvex::Status connected = client.Connect(s->stack.endpoint());
  if (!connected.ok()) {
    ++load.ops.attempted;
    load.ops.Fail("connect: " + connected.ToString());
    return load;
  }
  gvex::Rng rng(seed * 1000003 + client_index);
  Staircase staircase(&s->expected);
  uint64_t id = (static_cast<uint64_t>(client_index) + 1) << 40;
  for (;;) {
    if (NowSeconds() >= end) break;
    const bool classify = rng.NextBounded(kClassifyOneIn) == 0;
    ClassifyRecord rec;
    size_t slot = 0;
    Request req;
    if (classify) {
      rec.index = static_cast<uint32_t>(rng.NextBounded(s->heldout.db.size()));
      rec.relabel = rng.NextU64();
      req = ClassifyRequest(
          Relabel(s->heldout.db.graph(rec.index), rec.relabel));
    } else {
      slot = rng.NextBounded(s->pool.size());
      req = s->pool[slot];
    }
    req.id = ++id;
    ++load.ops.attempted;
    std::optional<ScopedSpan> span;
    if (log != nullptr) span.emplace(log, "bench.client_call", req.id);
    const uint64_t t0 = NowNs();
    gvex::Result<Response> resp = client.Call(req);
    const double us = static_cast<double>(NowNs() - t0) / 1000.0;
    span.reset();
    if (!resp.ok()) {
      load.ops.Fail("transport: " + resp.status().ToString());
      break;  // the connection is gone
    }
    if (resp->id != req.id || !resp->ok()) {
      load.ops.Fail("request " + std::to_string(req.id) + ": " +
                    resp->message);
      continue;
    }
    const size_t w = static_cast<size_t>(NowSeconds() - start);
    if (w >= load.windows.size()) load.windows.resize(w + 1);
    Window& window = load.windows[w];
    window.count += 1.0;
    if (classify) {
      window.classify_us.Add(us);
      rec.hash = Fnv1a(Canonical(*std::move(resp)));
      load.classify.push_back(rec);
    } else {
      window.pattern_us.Add(us);
      if (!staircase.Accept(slot, Canonical(*std::move(resp)))) {
        load.ops.Fail("pattern answer differs from in-process");
      }
    }
  }
  return load;
}

// The closed loop over all clients for `seconds`, with the steal share of
// every whole second.
Load RunLoop(Setup* s, uint64_t seed, double seconds, SpanLog* log) {
  std::vector<Load> per_client(kClients);
  const double start = NowSeconds();
  const double end = start + seconds;
  const size_t whole = static_cast<size_t>(seconds);
  Load total;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        per_client[c] = ClientLoop(s, c, seed, start, end, log);
      });
    }
    StealMeter meter;
    for (size_t w = 0; w < whole; ++w) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          start + static_cast<double>(w + 1) - NowSeconds()));
      total.steal.push_back(meter.Lap());
    }
    for (auto& t : threads) t.join();
  }
  total.windows.resize(whole);
  for (Load& l : per_client) {
    for (size_t w = 0; w < whole && w < l.windows.size(); ++w) {
      total.windows[w].count += l.windows[w].count;
      total.windows[w].pattern_us.Append(l.windows[w].pattern_us);
      total.windows[w].classify_us.Append(l.windows[w].classify_us);
    }
    total.ops.Merge(l.ops);
    total.classify.insert(total.classify.end(), l.classify.begin(),
                          l.classify.end());
  }
  return total;
}

// Classify answers of the loop against in-process Call on the same graphs,
// after the timed window (and after its counters are read: these calls
// hit the MatchCache and skip the queue wait).
void VerifyClassify(Setup* s, Load* load) {
  std::atomic<uint64_t> mismatched{0};
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < load->classify.size(); i += kClients) {
          const ClassifyRecord& rec = load->classify[i];
          Request req = ClassifyRequest(
              Relabel(s->heldout.db.graph(rec.index), rec.relabel));
          if (Fnv1a(Canonical(s->stack.server().Call(req))) != rec.hash) {
            mismatched.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  if (mismatched.load() > 0) {
    Tally wrong;
    wrong.failed = mismatched.load();
    wrong.first_failure = "classify answer differs from in-process";
    load->ops.Merge(wrong);
  }
}

Quiet QuietPart(const Load& load) {
  Quiet q;
  const std::vector<bool> keep = QuietWindows(load.steal, "seconds");
  for (size_t w = 0; w < load.windows.size(); ++w) {
    if (!keep[w]) continue;
    q.counts.push_back(load.windows[w].count);
    q.pattern_us.Append(load.windows[w].pattern_us);
    q.classify_us.Append(load.windows[w].classify_us);
  }
  return q;
}

double ReadRps(const Quiet& quiet) {
  return quiet.counts.empty() ? 0.0 : Median(quiet.counts);
}

}  // namespace

void ReplayServe(const Fixture& fixture, const Options& options, SpanLog* log,
                 RunResult* result) {
  auto made = MakeSetup(options, fixture, "replay_read");
  if (!made.ok()) {
    result->Attempt();
    result->Fail(1, "serve replay set-up: " + made.status().ToString());
    return;
  }
  Setup* s = made->get();
  gvex::serve::SocketClient client;
  if (gvex::Status st = client.Connect(s->stack.endpoint()); !st.ok()) {
    result->Attempt();
    result->Fail(1, "replay connect: " + st.ToString());
    return;
  }
  {
    // Queueing and batching need concurrent load: a short stretch of the
    // serve_read closed loop, untraced. Batch size counts only batches of
    // two or more.
    ObsDelta delta;
    Load load = RunLoop(s, options.seed, kReplayLoadSeconds, nullptr);
    result->Metric("serve.queue_wait_us.mean",
                   delta.HistogramMean("serve.queue_wait_us"), "us");
    result->Metric("serve.batch_size.mean",
                   delta.HistogramMean("serve.batch_size"), "count");
    VerifyClassify(s, &load);
    result->Account(load.ops);
  }
  gvex::obs::SetTraceEnabled(true);
  auto snap = s->stack.registry().Snapshot();
  const char* kind_name[2] = {"pattern", "classify"};
  Samples req_enc[2], req_dec[2], resp_enc[2], resp_dec[2], call[2],
      socket_call[2];
  double req_bytes[2] = {0, 0};
  Samples predict_us, query_us;
  gvex::Rng rng(options.seed * 1000003 + 977);
  for (size_t i = 0; i < kReplayRequests; ++i) {
    const uint64_t id = kServeIdBase + i + 1;
    const int k = i % kClassifyOneIn == 0 ? 1 : 0;
    Request req, wire_req;
    if (k == 1) {
      // Two fresh renumberings, so the in-process and the socket call
      // both miss the MatchCache as the workload's classify requests do.
      const auto& g =
          s->heldout.db.graph(rng.NextBounded(s->heldout.db.size()));
      req = ClassifyRequest(Relabel(g, rng.NextU64()));
      wire_req = ClassifyRequest(Relabel(g, rng.NextU64()));
    } else {
      req = s->pool[rng.NextBounded(s->pool.size())];
      wire_req = req;
    }
    req.id = wire_req.id = id;
    result->Attempt();
    std::string body;
    {
      ScopedSpan span(log, "bench.req_encode", id);
      body = gvex::serve::EncodeRequestBody(req);
      req_enc[k].Add(span.ElapsedUs());
    }
    req_bytes[k] += static_cast<double>(body.size());
    {
      ScopedSpan span(log, "bench.req_decode", id);
      auto decoded = gvex::serve::DecodeRequestBody(body);
      req_dec[k].Add(span.ElapsedUs());
      if (!decoded.ok()) result->Fail(1, decoded.status().ToString());
    }
    Response resp;
    {
      ScopedSpan span(log, "bench.call", id);
      resp = s->stack.server().Call(req);
      call[k].Add(span.ElapsedUs());
    }
    {
      ScopedSpan span(log, "bench.socket_call", id);
      auto wire = client.Call(wire_req);
      socket_call[k].Add(span.ElapsedUs());
      if (!wire.ok() || !wire->ok() || !resp.ok()) {
        result->Fail(1, "replayed request failed");
      }
    }
    std::string resp_body;
    {
      ScopedSpan span(log, "bench.resp_encode", id);
      resp_body = gvex::serve::EncodeResponseBody(resp);
      resp_enc[k].Add(span.ElapsedUs());
    }
    {
      ScopedSpan span(log, "bench.resp_decode", id);
      auto decoded = gvex::serve::DecodeResponseBody(resp_body);
      resp_dec[k].Add(span.ElapsedUs());
      if (!decoded.ok()) result->Fail(1, decoded.status().ToString());
    }
    if (k == 1) {
      ScopedSpan span(log, "bench.predict", id);
      (void)s->fx.model->Predict(req.graph);
      predict_us.Add(span.ElapsedUs());
    } else if (req.type != RequestType::kDiscriminativePatterns) {
      const gvex::ExplanationView* view = snap->ForLabel(req.label);
      if (view == nullptr) continue;
      gvex::MatchOptions match;
      match.semantics = req.semantics;
      gvex::ViewQuery query(match, /*use_cache=*/true);
      ScopedSpan span(log, "bench.view_query", id);
      if (req.type == RequestType::kSupport) {
        (void)query.Support(*view, req.graph);
      } else if (req.type == RequestType::kSubgraphsContaining) {
        (void)query.SubgraphsContaining(*view, req.graph);
      } else {
        (void)query.FindHits(*view, req.graph, req.max_embeddings);
      }
      query_us.Add(span.ElapsedUs());
    }
  }
  gvex::obs::SetTraceEnabled(false);

  for (int k = 0; k < 2; ++k) {
    const std::string sfx = std::string(".") + kind_name[k];
    const double n = static_cast<double>(call[k].size());
    result->Metric("serve.replay_requests" + sfx, n, "count");
    result->Metric("serve.req_bytes" + sfx, req_bytes[k] / n, "bytes");
    result->Metric("serve.req_encode_us" + sfx, Median(req_enc[k].values()),
                   "us");
    result->Metric("serve.req_decode_us" + sfx, Median(req_dec[k].values()),
                   "us");
    result->Metric("serve.resp_encode_us" + sfx, Median(resp_enc[k].values()),
                   "us");
    result->Metric("serve.resp_decode_us" + sfx, Median(resp_dec[k].values()),
                   "us");
    const double call_p50 = Median(call[k].values());
    const double socket_p50 = Median(socket_call[k].values());
    result->Metric("serve.call_us.p50" + sfx, call_p50, "us");
    result->Metric("serve.socket_call_us.p50" + sfx, socket_p50, "us");
    result->Metric("serve.socket_overhead_us" + sfx, socket_p50 - call_p50,
                   "us");
    const double codec = Median(req_enc[k].values()) +
                         Median(req_dec[k].values()) +
                         Median(resp_enc[k].values()) +
                         Median(resp_dec[k].values());
    result->Metric("serve.codec_share" + sfx, codec / socket_p50, "ratio");
  }
  result->Metric("gnn.predict_us.p50", Median(predict_us.values()), "us");
  result->Metric("matching.query_us.p50", Median(query_us.values()), "us");
}

void RunServeRead(const Options& options, RunResult* result) {
  std::unique_ptr<Setup> s = RepeatSetup<Setup>(
      [&]() -> gvex::Result<std::unique_ptr<Setup>> {
        GVEX_ASSIGN_OR_RETURN(Fixture fx, MakeFixture(options.seed));
        return MakeSetup(options, std::move(fx), "serve_read");
      },
      [](const Setup& made) { return made.fx.fingerprint; }, result);
  if (s == nullptr) return;
  std::printf("serve_read: %zu clients, %zu workers, %zu pattern queries, "
              "%zu held-out graphs, views %s\n",
              kClients, kServeWorkers, s->pool.size(),
              s->heldout.db.size(), s->fx.fingerprint.c_str());

  if (!options.trace) {
    Load load = RunLoop(s.get(), options.seed, options.seconds, nullptr);
    VerifyClassify(s.get(), &load);
    result->Account(load.ops);
    const Quiet quiet = QuietPart(load);
    Samples reads = quiet.pattern_us;
    reads.Append(quiet.classify_us);
    result->Metric("ops_per_s", ReadRps(quiet), "op/s");
    result->PercentileMetric("op_p50_us", reads, 0.50);
  } else {
    ObsDelta delta;
    Load plain = RunLoop(s.get(), options.seed, options.seconds / 2, nullptr);
    CacheMetrics(delta, result);
    VerifyClassify(s.get(), &plain);
    // Another request stream, so the traced loop's classify graphs are not
    // the ones the first loop left in the MatchCache.
    SpanLog client_spans;
    gvex::obs::SetTraceEnabled(true);
    Load traced =
        RunLoop(s.get(), options.seed + 1, options.seconds / 2, &client_spans);
    gvex::obs::SetTraceEnabled(false);
    VerifyClassify(s.get(), &traced);
    result->Account(plain.ops);
    result->Account(traced.ops);
    const double rps = ReadRps(QuietPart(plain));
    const double traced_rps = ReadRps(QuietPart(traced));
    std::printf("tracing overhead: %.0f req/s untraced, %.0f traced "
                "(%zu client spans)\n",
                rps, traced_rps, client_spans.Take().size());
    result->Metric("trace.overhead_pct", 100.0 * (rps - traced_rps) / rps,
                   "%");
    ReplayLayers(s->fx, options, result);
  }
}

}  // namespace perfbench
