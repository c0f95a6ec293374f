// MatchCache — process-wide memoization of PMatch results.
//
// ApproxGVEX, StreamGVEX, Psum, and the query layer repeatedly ask the
// same (pattern, target) questions: has-match during query/screening,
// capped match counts, and single-pattern coverage inside the
// explain-and-summarize loop. The searches are NP-hard in the worst case
// and identical inputs recur constantly (every Psum candidate against
// every subgraph, every stream repair round against the same patterns),
// so results are cached behind a sharded, thread-safe map.
//
// Keying (full rules in docs/PERFORMANCE.md):
//   * pattern — canonical code (mining/canonical) for patterns of <= 6
//     nodes, directed or not, so isomorphic patterns share entries; exact
//     content fingerprint otherwise (canonicalization costs factorial
//     time, and a served query may carry any pattern).
//   * target  — 128-bit content fingerprint (order-sensitive hash over
//     nodes, types, adjacency, edge types, directedness).
//   * the match semantics, the result kind, and — for counts — the
//     max_matches cap (a capped count is min(cap, total), which is
//     enumeration-order invariant and therefore cacheable).
//
// Step-budgeted searches (options.max_steps > 0) bypass the cache: a
// truncated search is not a cacheable fact.
//
// Invalidation: fingerprints are content hashes, so a mutated graph
// simply stops hitting its old entries — correctness never depends on
// invalidation. InvalidateTarget exists to drop a retired (or mutated)
// graph's stale entries eagerly; StreamGVEX calls it when it abandons a
// half-finished label run, whose partial subgraphs can never be queried
// again. Entries for targets that retire without such a call (e.g.
// dropped explanation views) linger until their shard hits its entry
// cap and is dumped wholesale — memory bounding otherwise relies solely
// on that epoch-style eviction. Clear() resets everything.
// Hits/misses/bypasses/evictions are exported through the obs registry
// ("match_cache.*" counters).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "gvex/graph/graph.h"
#include "gvex/matching/vf2.h"

namespace gvex {

/// 128-bit order-sensitive content fingerprint of a graph. Equal graphs
/// always agree; unequal graphs disagree up to hash collision.
struct GraphFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const GraphFingerprint&) const = default;
};

GraphFingerprint FingerprintGraph(const Graph& g);

class MatchCache {
 public:
  /// Process-wide instance used by the explain/query hot paths.
  static MatchCache& Global();

  /// Cached Vf2Matcher::HasMatch.
  bool HasMatch(const Graph& pattern, const Graph& target,
                const MatchOptions& options);

  /// Cached match count, capped at options.max_matches (0 = exhaustive;
  /// the cap is part of the key).
  size_t CountMatches(const Graph& pattern, const Graph& target,
                      const MatchOptions& options);

  /// Cached single-pattern ComputeCoverage. Falls back to the uncached
  /// computation when options carry a step budget or a match cap.
  CoverageResult Coverage(const Graph& pattern, const Graph& target,
                          const MatchOptions& options);

  /// Drop every entry whose target is this graph (by current content).
  void InvalidateTarget(const Graph& target);
  void InvalidateTarget(const GraphFingerprint& fp);

  void Clear();

  /// Total number of resident entries (sums shards; approximate under
  /// concurrent mutation).
  size_t size() const;

 private:
  struct Key {
    std::string pattern_key;
    GraphFingerprint target;
    uint8_t semantics = 0;
    uint8_t kind = 0;  // 0 = has-match, 1 = count, 2 = coverage
    uint64_t cap = 0;  // count cap (kind 1 only)

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Value {
    uint64_t scalar = 0;                // has-match / count / num_matches
    std::vector<uint32_t> nodes, edges;  // coverage kinds only
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Value, KeyHash> entries;
  };

  static constexpr size_t kNumShards = 16;
  /// Per-shard entry cap; a full shard is dumped wholesale (epoch-style)
  /// rather than tracking LRU order on the hot path.
  static constexpr size_t kMaxEntriesPerShard = 1 << 15;

  Shard& ShardFor(const Key& k);
  bool Lookup(const Key& k, Value* out);
  void Store(const Key& k, Value v);
  std::string PatternKey(const Graph& pattern) const;

  Shard shards_[kNumShards];
};

}  // namespace gvex
