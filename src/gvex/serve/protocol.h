// gvex::serve wire protocol — the typed request/response model of the
// explanation-serving tier and its length-prefixed binary framing.
//
// A message on the wire is one frame:
//
//   u32 body_length (little-endian)   | <= kMaxFrameBytes
//   u32 crc32(body) (little-endian)   | zlib/IEEE polynomial (checksum.h)
//   body bytes                        | text payload, see below
//
// The body is a line-oriented text record ("gvexserve-v1 req" /
// "gvexserve-v1 resp" magic, one key per line, graphs embedded with the
// existing gvexgraph-v1 writer, free-form strings length-prefixed, "end"
// terminator). Text inside binary framing keeps the protocol debuggable
// (`xxd` shows the full request) while the length prefix + CRC give exact
// message boundaries and corruption detection — the same engineering
// trade the v2 on-disk formats make (DESIGN.md §6).
//
// Full field reference: docs/SERVING.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gvex/common/result.h"
#include "gvex/graph/graph.h"
#include "gvex/matching/vf2.h"

namespace gvex {
namespace serve {

/// Frame bodies larger than this are rejected before allocation (a
/// corrupt length prefix must not OOM the server).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// The five paper-level query endpoints plus admin and cluster verbs.
enum class RequestType : uint8_t {
  kPing = 0,                   ///< liveness; echoes `text`
  kSupport = 1,                ///< |subgraphs of view(label) containing pattern|
  kSubgraphsContaining = 2,    ///< indices of those subgraphs
  kFindHits = 3,               ///< (graph_index, embedding count) rows
  kDiscriminativePatterns = 4, ///< patterns of view(label) absent from view(against)
  kClassifyExplain = 5,        ///< classify an ad-hoc graph, return matching patterns
  kStats = 6,                  ///< server/obs snapshot as JSON text
  kShutdown = 7,               ///< stop the socket server (drains in-flight work)
  kInstall = 8,                ///< install the gvexbundle-v1 in `bundle` (publish)
  kGenerations = 9,            ///< list per-route generation/fingerprint state
  kFetch = 10,                 ///< fetch the live generation of `route` as a bundle
  kHealth = 11,                ///< health probe (HealthInfo); never queued
  // Shard / scatter-gather verbs (docs/WIRE_PROTOCOL.md). A plain server
  // answers them from its local registry; the ShardRouter scatters them
  // across a fleet and merges (gvex/cluster/router.h).
  kShardInfo = 12,             ///< per-route, per-label covered graph ids
  kCoverageStats = 13,         ///< per-label coverage summary for `route`
  kTopViews = 14,              ///< top `top_k` labels by explainability
  /// Live ingest (gvex/ingest): feed `graph` to the resident StreamGVEX
  /// solver for `label`. Never rides the shared query queue — the server
  /// hands it to the dedicated ingest worker at admission time. Without a
  /// graph, `text` selects a control verb ("publish" forces a bundle cut,
  /// "status" reports ingest state). kFailedPrecondition when the server
  /// runs without `--ingest`.
  kIngest = 15,
  /// Explainer-zoo evaluation (gvex/zoo): score the explainer bound to
  /// `route` against planted-motif ground truth, or install a
  /// gvexzoo-v1 route-config artifact carried in `text`. Rides the
  /// shared query queue like any read — admission, quotas, deadlines,
  /// and cancellation apply unchanged. kFailedPrecondition when the
  /// server runs without a zoo (`serve --zoo`).
  kEvaluate = 16,
};

/// How ExplanationServer::Submit admits a request type.
enum class Admission : uint8_t {
  kQueued,  ///< shared admission queue: quotas, deadlines, shedding
  kInline,  ///< answered on the caller's thread, never queued
  kIngest,  ///< handed to the ingest handler, never queued
};

/// How the ShardRouter answers a request type.
enum class RouterPlan : uint8_t {
  kLocal,           ///< answered by the router itself
  kRejected,        ///< kUnimplemented: the frontend hosts no views
  kHome,            ///< sent to the route's home shard (replicated state)
  kPointOrScatter,  ///< owning shard when graph_index >= 0, else scattered
  kScatter,         ///< scattered to every shard and merged
  kUnsupported,     ///< kUnimplemented after route validation
};

/// \brief The facts about one request type that admission, routing,
/// metrics and the CLI branch on.
struct RequestTypeInfo {
  RequestType type;
  /// Wire name: the `client --type` word and the `<name>` in the
  /// `serve.exec_<name>_us` histogram.
  const char* name;
  Admission admission;
  RouterPlan router;
};

/// One row per RequestType, in enum order. A new type is one enum value,
/// one row here, and its handlers.
inline constexpr RequestTypeInfo kRequestTypes[] = {
    {RequestType::kPing, "ping",
     Admission::kQueued, RouterPlan::kLocal},
    {RequestType::kSupport, "support",
     Admission::kQueued, RouterPlan::kPointOrScatter},
    {RequestType::kSubgraphsContaining, "contains",
     Admission::kQueued, RouterPlan::kPointOrScatter},
    {RequestType::kFindHits, "hits",
     Admission::kQueued, RouterPlan::kPointOrScatter},
    {RequestType::kDiscriminativePatterns, "discriminative",
     Admission::kQueued, RouterPlan::kScatter},
    {RequestType::kClassifyExplain, "classify",
     Admission::kQueued, RouterPlan::kHome},
    {RequestType::kStats, "stats",
     Admission::kQueued, RouterPlan::kLocal},
    {RequestType::kShutdown, "shutdown",
     Admission::kQueued, RouterPlan::kLocal},
    {RequestType::kInstall, "install",
     Admission::kQueued, RouterPlan::kRejected},
    {RequestType::kGenerations, "generations",
     Admission::kQueued, RouterPlan::kScatter},
    {RequestType::kFetch, "fetch",
     Admission::kQueued, RouterPlan::kRejected},
    {RequestType::kHealth, "health",
     Admission::kInline, RouterPlan::kScatter},
    {RequestType::kShardInfo, "shardinfo",
     Admission::kQueued, RouterPlan::kScatter},
    {RequestType::kCoverageStats, "coverage",
     Admission::kQueued, RouterPlan::kScatter},
    {RequestType::kTopViews, "topviews",
     Admission::kQueued, RouterPlan::kScatter},
    {RequestType::kIngest, "ingest",
     Admission::kIngest, RouterPlan::kUnsupported},
    {RequestType::kEvaluate, "evaluate",
     Admission::kQueued, RouterPlan::kUnsupported},
};

inline constexpr size_t kNumRequestTypes = std::size(kRequestTypes);

static_assert(
    [] {
      for (size_t i = 0; i < kNumRequestTypes; ++i) {
        if (static_cast<size_t>(kRequestTypes[i].type) != i) return false;
      }
      return true;
    }(),
    "kRequestTypes rows must follow enum order");

/// The table row of `type` (a decoded request's type is always in range).
constexpr const RequestTypeInfo& InfoOf(RequestType type) {
  return kRequestTypes[static_cast<size_t>(type)];
}

/// The type whose wire name is `name`; nullopt for an unknown name.
std::optional<RequestType> RequestTypeFromName(std::string_view name);

/// \brief One explanation query.
///
/// `graph` carries the pattern (kSupport / kSubgraphsContaining /
/// kFindHits: a pattern is matched into the view's explanation subgraphs)
/// or the ad-hoc input graph (kClassifyExplain: features required).
struct Request {
  RequestType type = RequestType::kPing;
  uint64_t id = 0;             ///< client-chosen correlation id, echoed back
  ClassLabel label = -1;       ///< selects the view
  ClassLabel against = -1;     ///< kDiscriminativePatterns: the contrast view
  MatchSemantics semantics = MatchSemantics::kSubgraph;
  uint32_t deadline_ms = 0;    ///< 0 = server default (which may be "none")
  uint32_t max_embeddings = 64;  ///< kFindHits per-graph cap
  /// Pattern queries only: restrict the scan to the explanation subgraph
  /// of this corpus graph (-1 = whole view). The ShardRouter uses it to
  /// route a point query to the owning shard.
  int64_t graph_index = -1;
  uint32_t top_k = 10;         ///< kTopViews result cap
  bool has_graph = false;
  Graph graph;
  std::string text;            ///< kPing payload
  std::string route;           ///< "" = default route (gvex::cluster)
  std::string bundle;          ///< kInstall: gvexbundle-v1 bytes
};

/// \brief Per-route admission load as reported by kHealth: quota
/// occupancy (queued + actively executing requests) and quota sheds.
struct RouteLoad {
  std::string route;
  uint64_t queued = 0;        ///< requests of this route waiting in queue
  uint64_t active = 0;        ///< workers currently executing this route
  uint64_t quota_depth = 0;   ///< configured queue budget (0 = unlimited)
  uint64_t quota_workers = 0; ///< configured worker cap (0 = unlimited)
  uint64_t quota_shed = 0;    ///< requests shed with kQuotaExceeded so far
  bool operator==(const RouteLoad&) const = default;
};

/// \brief The kHealth payload: enough state for a publisher to decide
/// whether a target should receive a bundle, and for operators to see
/// replication lag at a glance. Route generations ride in
/// Response::routes next to this.
struct HealthInfo {
  bool serving = false;        ///< at least one route has published views
  uint64_t queue_depth = 0;    ///< global admission queue occupancy
  uint64_t max_queue = 0;      ///< global admission bound
  uint64_t workers = 0;
  std::vector<RouteLoad> loads;
  // Replication (standbys only; `following` false on a primary).
  bool following = false;
  uint64_t replication_installs = 0;
  /// Consecutive failed poll rounds — the lag signal: 0 means the last
  /// poll reached the primary.
  uint64_t replication_lag_polls = 0;
  std::string replication_error;  ///< last poll error ("" when healthy)
  // Live ingest (servers started with --ingest; all-zero otherwise).
  // Rides its own response rows ("ingest"/"istate"), appended per the
  // v1 evolution rule — never widening existing rows.
  bool ingesting = false;
  uint64_t ingest_pending = 0;    ///< ingest queue occupancy
  uint64_t ingest_accepted = 0;   ///< graphs fed to the resident solver
  uint64_t ingest_published = 0;  ///< drift-triggered auto-publishes
  /// Freshness SLO signals: current window drift in basis points and
  /// milliseconds since the resident state last reached a served
  /// generation.
  uint64_t ingest_drift_bp = 0;
  uint64_t ingest_staleness_ms = 0;
  bool operator==(const HealthInfo&) const = default;
};

/// \brief Per-label coverage summary as reported by kCoverageStats /
/// kTopViews / kShardInfo. Counts are local to the answering server;
/// for a shard they describe its slice, and the ShardRouter merges rows
/// by summation (pattern tiers are replicated, not summed). Covered
/// graph ids ride only on kShardInfo — they are the router's
/// translation table from shard-local subgraph indices to corpus-global
/// ones.
struct ViewCoverage {
  ClassLabel label = -1;
  uint64_t patterns = 0;    ///< pattern-tier size (replicated across shards)
  uint64_t subgraphs = 0;   ///< lower-tier size == covered corpus graphs
  uint64_t nodes = 0;       ///< total nodes across explanation subgraphs
  uint64_t edges = 0;       ///< total edges across explanation subgraphs
  double explainability = 0.0;  ///< summed subgraph explainability
  std::vector<uint64_t> graph_indices;  ///< kShardInfo: covered graph ids
  bool operator==(const ViewCoverage&) const = default;
};

/// \brief Per-route registry state as reported by kGenerations / kStats.
struct RouteInfo {
  std::string route;
  uint64_t generation = 0;
  uint64_t source_generation = 0;
  std::string fingerprint;  ///< hex16 content fingerprint ("" if unset)
  bool warmed = false;
  uint64_t warm_pairs = 0;
  bool operator==(const RouteInfo&) const = default;
};

/// \brief One response. `code != kOk` means the request failed; only
/// `id`, `code`, and `message` are meaningful then.
struct Response {
  uint64_t id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;

  uint64_t support = 0;              // kSupport
  std::vector<uint64_t> indices;     // kSubgraphsContaining; pattern idx for
                                     // kClassifyExplain
  struct Hit {
    uint64_t graph_index = 0;
    uint64_t embeddings = 0;
    bool operator==(const Hit&) const = default;
  };
  std::vector<Hit> hits;             // kFindHits
  std::vector<Graph> patterns;       // kDiscriminativePatterns
  ClassLabel predicted = -1;         // kClassifyExplain
  std::vector<float> probabilities;  // kClassifyExplain
  std::vector<RouteInfo> routes;     // kGenerations
  std::string bundle;                // kFetch: gvexbundle-v1 bytes
  std::string text;                  // kPing / kStats / kInstall summary
  bool has_health = false;           // kHealth
  HealthInfo health;                 // kHealth
  std::vector<ViewCoverage> coverage;  // kShardInfo/kCoverageStats/kTopViews
  // Scatter-gather accounting, filled by the ShardRouter: how many
  // shards the query fanned out to and how many answered. 0/0 on a
  // direct (non-routed) response.
  uint32_t shards_total = 0;
  uint32_t shards_answered = 0;

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(code, message);
  }
};

/// The failed answer to request `id`: only `id`, `code` and `message` set.
Response ErrorResponse(uint64_t id, const Status& status);

/// The kTopViews order, shared by a server and the ShardRouter merge:
/// explainability descending, ties by label ascending, then the first
/// `top_k` rows.
void RankTopViews(uint32_t top_k, std::vector<ViewCoverage>* rows);

// ---- body codecs ------------------------------------------------------------

std::string EncodeRequestBody(const Request& req);
Result<Request> DecodeRequestBody(const std::string& body);

std::string EncodeResponseBody(const Response& resp);
Result<Response> DecodeResponseBody(const std::string& body);

// ---- framing ----------------------------------------------------------------

/// Prepend the length/CRC header to a body.
std::string FrameMessage(const std::string& body);

/// Parse the 8-byte frame header; returns the body length after
/// validating it against kMaxFrameBytes. `crc_out` receives the expected
/// body CRC for verification once the body has been read.
Result<uint32_t> ParseFrameHeader(const char header[8], uint32_t* crc_out);

/// Verify a fully-read body against the header CRC.
Status VerifyFrameBody(const std::string& body, uint32_t expected_crc);

}  // namespace serve
}  // namespace gvex
