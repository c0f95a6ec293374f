#include "gvex/matching/match_cache.h"

#include <utility>

#include "gvex/common/string_util.h"
#include "gvex/mining/canonical.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace {

// The canonical search tries every order within each same-(type, degree)
// class, so its cost grows with the factorial of the largest class: a
// 10-node clique or edgeless pattern, one served query away, takes seconds
// per key. Up to 6 nodes a key tries at most 6! = 720 orders (~0.25 ms),
// and every pattern PGen mines by default (<= 5 nodes) still shares
// entries with its isomorphs. Larger patterns are keyed by content
// fingerprint instead (correct, just no isomorphism sharing).
constexpr size_t kMaxCanonicalPatternNodes = 6;

// Two independent FNV-1a streams with distinct offsets/avalanche give the
// 128-bit fingerprint; each token is avalanche-mixed (splitmix64 finisher)
// so permuted token streams don't cancel.
struct Mixer {
  uint64_t state;
  explicit Mixer(uint64_t seed) : state(seed) {}
  void Feed(uint64_t token) {
    uint64_t z = token + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    state = (state ^ z) * 1099511628211ULL;
  }
};

bool CacheableOptions(const MatchOptions& options) {
  return options.max_steps == 0;
}

}  // namespace

GraphFingerprint FingerprintGraph(const Graph& g) {
  Mixer lo(14695981039346656037ULL);
  Mixer hi(0x2545F4914F6CDD1DULL);
  auto feed = [&](uint64_t token) {
    lo.Feed(token);
    hi.Feed(token ^ 0xA5A5A5A5A5A5A5A5ULL);
  };
  feed(g.directed() ? 1 : 2);
  feed(g.num_nodes());
  feed(g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    feed(static_cast<uint64_t>(static_cast<uint32_t>(g.node_type(v))));
    for (const auto& nb : g.neighbors(v)) {
      feed((static_cast<uint64_t>(v) << 32) | nb.node);
      feed(static_cast<uint64_t>(static_cast<uint32_t>(nb.edge_type)) + 3);
    }
  }
  return {lo.state, hi.state};
}

MatchCache& MatchCache::Global() {
  // Leaky singleton, same rationale as the obs registry: explain paths may
  // run during static teardown.
  static MatchCache* cache = new MatchCache();
  return *cache;
}

size_t MatchCache::KeyHash::operator()(const Key& k) const {
  size_t h = std::hash<std::string>()(k.pattern_key);
  h ^= k.target.lo + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= k.target.hi + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= (static_cast<size_t>(k.semantics) << 1) ^ (static_cast<size_t>(k.kind) << 9);
  h ^= static_cast<size_t>(k.cap) + 0x85EBCA77C2B2AE63ULL + (h << 6) + (h >> 2);
  return h;
}

MatchCache::Shard& MatchCache::ShardFor(const Key& k) {
  return shards_[KeyHash()(k) % kNumShards];
}

bool MatchCache::Lookup(const Key& k, Value* out) {
  Shard& shard = ShardFor(k);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(k);
  if (it == shard.entries.end()) {
    GVEX_COUNTER_INC("match_cache.misses");
    return false;
  }
  *out = it->second;
  GVEX_COUNTER_INC("match_cache.hits");
  return true;
}

void MatchCache::Store(const Key& k, Value v) {
  Shard& shard = ShardFor(k);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.size() >= kMaxEntriesPerShard) {
    shard.entries.clear();
    GVEX_COUNTER_INC("match_cache.evictions");
  }
  shard.entries.emplace(k, std::move(v));
}

std::string MatchCache::PatternKey(const Graph& pattern) const {
  if (pattern.num_nodes() <= kMaxCanonicalPatternNodes) {
    return CanonicalCode(pattern);
  }
  GraphFingerprint fp = FingerprintGraph(pattern);
  return StrFormat("fp:%llu:%llu", static_cast<unsigned long long>(fp.lo),
                   static_cast<unsigned long long>(fp.hi));
}

bool MatchCache::HasMatch(const Graph& pattern, const Graph& target,
                          const MatchOptions& options) {
  if (!CacheableOptions(options)) {
    GVEX_COUNTER_INC("match_cache.bypasses");
    return Vf2Matcher::HasMatch(pattern, target, options);
  }
  Key key{PatternKey(pattern), FingerprintGraph(target),
          static_cast<uint8_t>(options.semantics), /*kind=*/0, /*cap=*/0};
  Value v;
  if (Lookup(key, &v)) return v.scalar != 0;
  const bool result = Vf2Matcher::HasMatch(pattern, target, options);
  v.scalar = result ? 1 : 0;
  Store(key, std::move(v));
  return result;
}

size_t MatchCache::CountMatches(const Graph& pattern, const Graph& target,
                                const MatchOptions& options) {
  if (!CacheableOptions(options)) {
    GVEX_COUNTER_INC("match_cache.bypasses");
    return Vf2Matcher::EnumerateMatches(pattern, target, options,
                                        [](const Match&) { return true; });
  }
  Key key{PatternKey(pattern), FingerprintGraph(target),
          static_cast<uint8_t>(options.semantics), /*kind=*/1,
          options.max_matches};
  Value v;
  if (Lookup(key, &v)) return static_cast<size_t>(v.scalar);
  const size_t count = Vf2Matcher::EnumerateMatches(
      pattern, target, options, [](const Match&) { return true; });
  v.scalar = count;
  Store(key, std::move(v));
  return count;
}

CoverageResult MatchCache::Coverage(const Graph& pattern, const Graph& target,
                                    const MatchOptions& options) {
  // Coverage is cached only for exhaustive enumerations, and keyed by the
  // pattern's exact content: the early-exit num_matches is not invariant
  // under pattern relabeling, so canonical sharing would be unsound.
  if (!CacheableOptions(options) || options.max_matches != 0) {
    GVEX_COUNTER_INC("match_cache.bypasses");
    return ComputeCoverage({pattern}, target, options);
  }
  GraphFingerprint pattern_fp = FingerprintGraph(pattern);
  Key key{StrFormat("fp:%llu:%llu",
                    static_cast<unsigned long long>(pattern_fp.lo),
                    static_cast<unsigned long long>(pattern_fp.hi)),
          FingerprintGraph(target), static_cast<uint8_t>(options.semantics),
          /*kind=*/2, /*cap=*/0};
  Value v;
  if (Lookup(key, &v)) {
    CoverageResult result;
    result.covered_nodes = DynamicBitset(target.num_nodes());
    result.covered_edges = DynamicBitset(target.num_edges());
    for (uint32_t idx : v.nodes) result.covered_nodes.Set(idx);
    for (uint32_t idx : v.edges) result.covered_edges.Set(idx);
    result.num_matches = static_cast<size_t>(v.scalar);
    return result;
  }
  CoverageResult result = ComputeCoverage({pattern}, target, options);
  v.scalar = result.num_matches;
  for (size_t idx : result.covered_nodes.ToVector()) {
    v.nodes.push_back(static_cast<uint32_t>(idx));
  }
  for (size_t idx : result.covered_edges.ToVector()) {
    v.edges.push_back(static_cast<uint32_t>(idx));
  }
  Store(key, std::move(v));
  return result;
}

void MatchCache::InvalidateTarget(const Graph& target) {
  InvalidateTarget(FingerprintGraph(target));
}

void MatchCache::InvalidateTarget(const GraphFingerprint& fp) {
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->first.target == fp) {
        it = shard.entries.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  GVEX_COUNTER_ADD("match_cache.invalidated", dropped);
}

void MatchCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
  }
}

size_t MatchCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace gvex
