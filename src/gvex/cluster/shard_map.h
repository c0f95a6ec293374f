// ShardMap: the partitioning contract of a sharded explanation fleet.
//
// A map is a fixed ring of `kShardSlots` hash slots, each owned by one
// shard (Redis-cluster style consistent hashing). A corpus key — route
// name plus graph index — hashes to a slot with a platform-independent
// FNV-1a, and the slot's owner serves that graph's explanation
// subgraph. Pattern tiers and models are *replicated* to every shard
// (they are small and every shard needs them for classify /
// discriminative queries); only the lower subgraph tier is partitioned.
//
// Rebalance is minimal-movement: AddShard drains just enough slots from
// the most-loaded shards to balance the newcomer, RemoveShard spreads
// exactly the removed shard's slots across the survivors. A slot never
// moves between two surviving shards, which is what keeps rebalance
// within the classic ≤ ceil(K/N) consistent-hashing bound (pinned in
// tests/shard_map_test.cc).
//
// Maps are versioned, CRC-serialized artifacts ("gvexshardmap-v1",
// saved atomically like gvexbundle-v1) so a fleet's topology is a
// shippable file: the publisher partitions bundles with it and the
// ShardRouter routes queries with it (router.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"

namespace gvex {
namespace cluster {

/// Ring size. Slots, not servers, are the unit of ownership; 128 slots
/// keep per-shard imbalance under 1% at fleet sizes this system targets
/// while the owner table stays one cache line per 16 shards.
inline constexpr size_t kShardSlots = 128;

/// Platform-independent 64-bit FNV-1a — the ring hash.
uint64_t ShardHash64(const std::string& key);

/// \brief One shard: a served endpoint plus an optional standby (the
/// PR 5 replication follower) used for hedged requests.
struct ShardEntry {
  std::string name;      ///< unique, route-name charset [A-Za-z0-9_.-]
  std::string endpoint;  ///< "unix:PATH" or "tcp:PORT" (loopback)
  std::string standby;   ///< hedge target, "" = none
  bool operator==(const ShardEntry&) const = default;
};

class ShardMap {
 public:
  /// Build a balanced map over `shards` (deterministic slot layout).
  static Result<ShardMap> Create(std::vector<ShardEntry> shards);

  /// Minimal-movement rebalance: the new shard takes just enough slots
  /// from the most-loaded shards to balance; no slot moves between
  /// pre-existing shards. Bumps the version.
  Status AddShard(ShardEntry shard);

  /// Minimal-movement rebalance: exactly the removed shard's slots are
  /// spread across the least-loaded survivors. Bumps the version.
  Status RemoveShard(const std::string& name);

  /// Slot of a corpus key.
  static size_t SlotOf(const std::string& route, uint64_t graph_index);

  /// Shard ordinal owning a corpus key / a slot.
  size_t OwnerOf(const std::string& route, uint64_t graph_index) const;
  size_t SlotOwner(size_t slot) const { return slot_owner_[slot]; }

  const std::vector<ShardEntry>& shards() const { return shards_; }
  uint64_t version() const { return version_; }
  size_t NumSlotsOwned(size_t shard) const;

  /// Split one bundle into per-shard sub-bundles: subgraph tiers are
  /// partitioned by slot ownership (preserving each view's subgraph
  /// order), pattern tiers and the model are replicated, and each
  /// slice's view explainability is recomputed as the sum over its
  /// subgraphs. Every shard keeps every label so classify /
  /// discriminative queries work anywhere.
  std::vector<ViewBundle> Partition(const ViewBundle& bundle) const;

  // ---- serialization ("gvexshardmap-v1", CRC-sectioned) --------------------
  Status Write(TextWriter* out) const;
  static Result<ShardMap> Read(TextReader* in);
  Status Save(const std::string& path) const;  ///< atomic temp+rename
  static Result<ShardMap> Load(const std::string& path);

  bool operator==(const ShardMap&) const = default;

 private:
  Status RebuildIndex();

  uint64_t version_ = 1;
  std::vector<ShardEntry> shards_;
  std::vector<uint32_t> slot_owner_;  // size kShardSlots
};

}  // namespace cluster
}  // namespace gvex
