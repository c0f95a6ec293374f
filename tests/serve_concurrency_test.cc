// Concurrency soak for the serving read path: many threads hammering
// ViewQuery through the shared MatchCache (and through the full server)
// must produce exactly the answers a single-threaded pass produces.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gvex/common/failpoint.h"

#include "gvex/datasets/datasets.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/query.h"
#include "gvex/ingest/ingest.h"
#include "gvex/matching/match_cache.h"
#include "gvex/serve/server.h"
#include "gvex/serve/view_registry.h"
#include "tests/test_util.h"

namespace gvex {
namespace serve {
namespace {

using testutil::MutagenicityContext;

struct ConcurrencyFixture {
  ExplanationViewSet set;
  std::vector<Graph> patterns;  // query pool: nitro + every view pattern
};

const ConcurrencyFixture& Fixture() {
  static const ConcurrencyFixture* fx = [] {
    const auto& ctx = MutagenicityContext();
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, 12};
    ApproxGvex solver(&ctx.model, config);
    auto* out = new ConcurrencyFixture;
    for (ClassLabel label : {0, 1}) {
      auto view = solver.ExplainLabel(ctx.db, ctx.assigned, label);
      EXPECT_TRUE(view.ok());
      out->set.views.push_back(std::move(*view));
    }
    out->patterns.push_back(datasets::NitroGroupPattern());
    for (const auto& view : out->set.views) {
      for (const Graph& p : view.patterns) out->patterns.push_back(p);
    }
    return out;
  }();
  return *fx;
}

struct Answer {
  size_t support = 0;
  std::vector<size_t> indices;
  size_t hit_rows = 0;
};

Answer Ask(ViewQuery* query, const ExplanationView& view,
           const Graph& pattern) {
  Answer a;
  a.support = query->Support(view, pattern);
  a.indices = query->SubgraphsContaining(view, pattern);
  a.hit_rows = query->FindHits(view, pattern, 4).size();
  return a;
}

// Every (view, pattern) pair answered single-threaded first; then N
// threads re-ask all pairs in different interleavings through the shared
// cache and must reproduce the reference exactly.
TEST(ServeConcurrencyTest, SharedMatchCacheAnswersAreStable) {
  const ConcurrencyFixture& fx = Fixture();
  MatchOptions loose;
  loose.semantics = MatchSemantics::kSubgraph;
  ViewQuery reference_query(loose);
  std::vector<Answer> reference;
  for (const auto& view : fx.set.views) {
    for (const Graph& p : fx.patterns) {
      reference.push_back(Ask(&reference_query, view, p));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ViewQuery query(loose);  // own instance, shared global cache
      for (int round = 0; round < kRounds; ++round) {
        size_t slot = 0;
        for (const auto& view : fx.set.views) {
          for (size_t pi = 0; pi < fx.patterns.size(); ++pi, ++slot) {
            // Stagger starting points so threads touch different shards
            // simultaneously.
            const size_t idx =
                (pi + static_cast<size_t>(t)) % fx.patterns.size();
            Answer got = Ask(&query, view, fx.patterns[idx]);
            const size_t ref_slot = slot - pi + idx;
            const Answer& want = reference[ref_slot];
            if (got.support != want.support || got.indices != want.indices ||
                got.hit_rows != want.hit_rows) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The same invariant through the whole server stack: concurrent clients,
// 4 workers each claiming one request at a time — answers must equal the
// single-threaded ViewQuery reference.
TEST(ServeConcurrencyTest, ServerUnderConcurrentLoadMatchesReference) {
  const ConcurrencyFixture& fx = Fixture();
  MatchOptions loose;
  loose.semantics = MatchSemantics::kSubgraph;
  ViewQuery direct(loose);
  const Graph nitro = datasets::NitroGroupPattern();
  const ExplanationView* mutagen = fx.set.ForLabel(1);
  ASSERT_NE(mutagen, nullptr);
  const size_t want_support = direct.Support(*mutagen, nitro);
  const std::vector<size_t> want_indices =
      direct.SubgraphsContaining(*mutagen, nitro);

  ViewRegistry registry;
  ASSERT_TRUE(registry.InstallViews(fx.set).ok());
  ServerOptions options;
  options.num_workers = 4;
  ExplanationServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  constexpr int kPerClient = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        Request req;
        req.type = (i % 2 == 0) ? RequestType::kSupport
                                : RequestType::kSubgraphsContaining;
        req.label = 1;
        req.graph = nitro;
        req.has_graph = true;
        Response resp = server.Call(req);
        if (!resp.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        if (req.type == RequestType::kSupport) {
          if (resp.support != want_support) mismatches.fetch_add(1);
        } else {
          if (resp.indices.size() != want_indices.size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t k = 0; k < want_indices.size(); ++k) {
            if (resp.indices[k] != want_indices[k]) {
              mismatches.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
  server.Stop();
}

// ---- stats JSON under concurrent load -------------------------------------
//
// A minimal recursive-descent JSON validator: the stats endpoint promises
// *parseable* JSON at any instant, including mid-saturation and mid-swap,
// so the test must actually parse, not substring-match.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(text_[pos_]))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character — must be escaped
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!Digits()) return false;
    if (Peek() == '.') { ++pos_; if (!Digits()) return false; }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!Digits()) return false;
    }
    return pos_ > start;
  }

  bool Digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(text_[pos_])) ++pos_;
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  const std::string& text_;
  size_t pos_ = 0;
};

// `"key":<uint>` anywhere in the document (keys of interest are unique in
// the stats layout). Returns false when absent.
bool ExtractUint(const std::string& json, const std::string& key,
                 uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  size_t pos = at + needle.size();
  uint64_t value = 0;
  bool any = false;
  while (pos < json.size() && std::isdigit(json[pos])) {
    value = value * 10 + static_cast<uint64_t>(json[pos] - '0');
    ++pos;
    any = true;
  }
  if (any) *out = value;
  return any;
}

// The stats endpoint sampled while (a) clients saturate a 4-deep queue
// into real shedding and (b) a swapper hot-installs new generations:
// every sample parses as JSON, and the request/generation counters only
// ever move forward.
TEST(ServeConcurrencyTest, StatsJsonStaysParseableAndMonotonicUnderLoad) {
  const ConcurrencyFixture& fx = Fixture();
  ViewRegistry registry;
  ASSERT_TRUE(registry.InstallViews(fx.set).ok());
  ServerOptions options;
  options.num_workers = 2;
  options.max_queue = 3;
  ExplanationServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  // One request up front so every counter the sampler reads exists
  // before the first sample (obs counters are created on first use).
  {
    Request warmup;
    warmup.type = RequestType::kPing;
    ASSERT_TRUE(server.Call(warmup).ok());
  }

  // ~2ms of service time per request turns the client burst below into
  // genuine saturation against the 4-deep queue.
  failpoint::ScopedFailpoint slow("serve.exec_delay", "delay(2)");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> shed{0}, served{0};
  // 10 blocking clients against 2 workers + a 3-deep queue: at least
  // five of them are over the admission limit whenever all are in
  // flight, so the shed path genuinely runs.
  std::vector<std::thread> load;
  for (int t = 0; t < 10; ++t) {
    load.emplace_back([&] {
      const Graph nitro = datasets::NitroGroupPattern();
      while (!stop.load()) {
        Request req;
        req.type = RequestType::kSupport;
        req.label = 1;
        req.graph = nitro;
        req.has_graph = true;
        Response resp = server.Call(req);
        if (resp.code == StatusCode::kOverloaded) {
          shed.fetch_add(1);
        } else if (resp.ok()) {
          served.fetch_add(1);
        }
      }
    });
  }
  std::thread swapper([&] {
    while (!stop.load()) {
      ASSERT_TRUE(registry.InstallViews(fx.set).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  uint64_t last_requests = 0, last_generation = 0;
  int samples_with_queue = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string json = server.StatsJson();
    EXPECT_TRUE(JsonValidator(json).Valid())
        << "sample " << i << " is not valid JSON:\n" << json;
    uint64_t requests = 0, generation = 0, depth = 0;
    ASSERT_TRUE(ExtractUint(json, "serve.requests", &requests));
    ASSERT_TRUE(ExtractUint(json, "generation", &generation));
    ASSERT_TRUE(ExtractUint(json, "queue_depth", &depth));
    EXPECT_GE(requests, last_requests) << "serve.requests moved backwards";
    EXPECT_GE(generation, last_generation) << "generation moved backwards";
    last_requests = requests;
    last_generation = generation;
    if (depth > 0) ++samples_with_queue;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& thread : load) thread.join();
  swapper.join();

  // The run must actually have exercised both regimes.
  EXPECT_GT(shed.load(), 0u) << "queue never saturated";
  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(samples_with_queue, 0) << "never sampled a non-empty queue";
  EXPECT_GT(last_generation, 1u) << "hot-swap never landed";

  // And the wire-visible kStats answer is the same document.
  Request stats;
  stats.type = RequestType::kStats;
  Response resp = server.Call(stats);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_TRUE(JsonValidator(resp.text).Valid());
  uint64_t final_requests = 0;
  ASSERT_TRUE(ExtractUint(resp.text, "serve.requests", &final_requests));
  EXPECT_GE(final_requests, last_requests);
  server.Stop();
}

// ---- live ingest vs. queries ------------------------------------------------

// Eight threads — four querying, four streaming kIngest graphs through
// the server's ingest hook — against one server. The ingest worker never
// touches the query queue, so with auto-publish disabled every query
// answer stays byte-identical to the pre-ingest reference; meanwhile the
// "ingest.*" counters in the stats JSON only ever move forward. A forced
// cut at the end proves the resident state was really accumulating.
TEST(ServeConcurrencyTest, IngestAndQueriesShareAServerWithoutInterference) {
  const ConcurrencyFixture& fx = Fixture();
  const auto& ctx = MutagenicityContext();
  MatchOptions loose;
  loose.semantics = MatchSemantics::kSubgraph;
  ViewQuery direct(loose);
  const Graph nitro = datasets::NitroGroupPattern();
  const ExplanationView* mutagen = fx.set.ForLabel(1);
  ASSERT_NE(mutagen, nullptr);
  const size_t want_support = direct.Support(*mutagen, nitro);
  const std::vector<size_t> want_indices =
      direct.SubgraphsContaining(*mutagen, nitro);

  ViewRegistry registry;
  ASSERT_TRUE(registry.InstallViews(fx.set).ok());
  ServerOptions options;
  options.num_workers = 4;
  ExplanationServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  ingest::IngestOptions iopts;
  iopts.drift_threshold = 2.0;  // unreachable: no auto-publish mid-run
  Configuration config;
  config.theta = 0.08f;
  config.default_coverage = {0, 8};
  iopts.config = config;
  ingest::IngestManager manager(
      &registry,
      std::shared_ptr<const GcnClassifier>(
          std::shared_ptr<const GcnClassifier>(), &ctx.model),
      iopts);
  ASSERT_TRUE(manager.Start().ok());
  server.SetIngestHandler([&manager](Request req) {
    return manager.Submit(std::move(req));
  });

  // One ingest up front so every "ingest.*" counter the sampler reads
  // exists before the first sample (obs counters appear on first use).
  {
    Request warmup;
    warmup.type = RequestType::kIngest;
    warmup.label = ctx.assigned[0];
    warmup.graph = ctx.db.graph(0);
    warmup.has_graph = true;
    ASSERT_TRUE(server.Call(warmup).ok());
  }
  const uint64_t generation_before = registry.generation();

  constexpr int kQueryThreads = 4;
  constexpr int kIngestThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> ingested{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Request req;
        req.type = (i % 2 == 0) ? RequestType::kSupport
                                : RequestType::kSubgraphsContaining;
        req.label = 1;
        req.graph = nitro;
        req.has_graph = true;
        Response resp = server.Call(req);
        if (!resp.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        if (req.type == RequestType::kSupport) {
          if (resp.support != want_support) mismatches.fetch_add(1);
        } else if (resp.indices !=
                   std::vector<uint64_t>(want_indices.begin(),
                                         want_indices.end())) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t gi =
            (static_cast<size_t>(t) * kPerThread + i + 1) % ctx.db.size();
        Request req;
        req.type = RequestType::kIngest;
        req.label = ctx.assigned[gi];
        req.graph = ctx.db.graph(gi);
        req.has_graph = true;
        Response resp = server.Call(req);
        // kOverloaded sheds are legal under the ingest bound; anything
        // else must succeed.
        if (resp.ok()) {
          ingested.fetch_add(1);
        } else if (resp.code != StatusCode::kOverloaded) {
          mismatches.fetch_add(1);
        }
      }
    });
  }

  // Sample the stats JSON while both request classes are in flight: it
  // must stay parseable and the ingest counters monotone.
  uint64_t last_requests = 0, last_accepted = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string json = server.StatsJson();
    EXPECT_TRUE(JsonValidator(json).Valid())
        << "sample " << i << " is not valid JSON:\n" << json;
    uint64_t requests = 0, accepted = 0;
    ASSERT_TRUE(ExtractUint(json, "ingest.requests", &requests));
    ASSERT_TRUE(ExtractUint(json, "ingest.accepted", &accepted));
    EXPECT_GE(requests, last_requests) << "ingest.requests moved backwards";
    EXPECT_GE(accepted, last_accepted) << "ingest.accepted moved backwards";
    last_requests = requests;
    last_accepted = accepted;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(ingested.load(), 0u);
  // No swap happened mid-run: every answer above was against the same
  // pre-ingest generation.
  EXPECT_EQ(registry.generation(), generation_before);

  // The resident state was really accumulating: a forced cut publishes a
  // new generation, and queries keep answering across the swap.
  auto gen = manager.PublishNow();
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_GT(registry.generation(), generation_before);
  Request after;
  after.type = RequestType::kSupport;
  after.label = 1;
  after.graph = nitro;
  after.has_graph = true;
  EXPECT_TRUE(server.Call(after).ok());

  server.SetIngestHandler(nullptr);
  manager.Stop();
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace gvex
