// Tests for ShardMap (gvex/cluster/shard_map.h): deterministic slot
// layout, the minimal-movement rebalance bounds the header pins
// (AddShard/RemoveShard never move a slot between surviving shards and
// stay within the classic ≤ ceil(S/N) consistent-hashing budget),
// serialization round-trips, and bundle partitioning.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gvex/cluster/shard_map.h"
#include "gvex/explain/view.h"

namespace gvex {
namespace cluster {
namespace {

std::vector<ShardEntry> Entries(size_t n, bool with_standbys = false) {
  std::vector<ShardEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    ShardEntry entry;
    entry.name = "shard" + std::to_string(i);
    entry.endpoint = "unix:/tmp/s" + std::to_string(i) + ".sock";
    if (with_standbys && i % 2 == 0) {
      entry.standby = "unix:/tmp/s" + std::to_string(i) + "-standby.sock";
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<size_t> Owners(const ShardMap& map) {
  std::vector<size_t> owners(kShardSlots);
  for (size_t s = 0; s < kShardSlots; ++s) owners[s] = map.SlotOwner(s);
  return owners;
}

// ---- layout -----------------------------------------------------------------

TEST(ShardMapTest, CreateIsBalancedAndDeterministic) {
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 16u}) {
    auto map = ShardMap::Create(Entries(n));
    ASSERT_TRUE(map.ok()) << map.status().ToString();
    size_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t owned = map->NumSlotsOwned(i);
      EXPECT_GE(owned, kShardSlots / n) << "n=" << n << " shard " << i;
      EXPECT_LE(owned, (kShardSlots + n - 1) / n) << "n=" << n;
      total += owned;
    }
    EXPECT_EQ(total, kShardSlots);
    // Same inputs => same layout (the map is a shippable artifact; two
    // operators creating it independently must agree).
    auto again = ShardMap::Create(Entries(n));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*map, *again);
  }
}

TEST(ShardMapTest, HashIsStableAcrossRuns) {
  // Pinned values: the ring hash is part of the on-disk/wire contract —
  // a changed hash silently orphans every partitioned bundle.
  EXPECT_EQ(ShardHash64(""), 14695981039346656037ull);
  EXPECT_EQ(ShardMap::SlotOf("default", 0),
            ShardHash64("default/0") % kShardSlots);
  EXPECT_EQ(ShardMap::SlotOf("default", 7),
            ShardHash64("default/7") % kShardSlots);
  // Route participates in the key: two routes spread differently.
  bool any_differs = false;
  for (uint64_t g = 0; g < 64 && !any_differs; ++g) {
    any_differs = ShardMap::SlotOf("alpha", g) != ShardMap::SlotOf("beta", g);
  }
  EXPECT_TRUE(any_differs);
}

TEST(ShardMapTest, CreateRejectsBadEntries) {
  EXPECT_FALSE(ShardMap::Create({}).ok());
  auto dup = Entries(2);
  dup[1].name = dup[0].name;
  EXPECT_FALSE(ShardMap::Create(dup).ok());
  auto bad_name = Entries(2);
  bad_name[0].name = "not a route!";
  EXPECT_FALSE(ShardMap::Create(bad_name).ok());
  auto no_endpoint = Entries(2);
  no_endpoint[1].endpoint.clear();
  EXPECT_FALSE(ShardMap::Create(no_endpoint).ok());
}

// ---- rebalance bounds -------------------------------------------------------

TEST(ShardMapTest, AddShardMovesOnlyWhatTheNewcomerGains) {
  for (size_t n : {1u, 2u, 3u, 4u, 7u}) {
    auto map = ShardMap::Create(Entries(n));
    ASSERT_TRUE(map.ok());
    const std::vector<size_t> before = Owners(*map);
    const uint64_t version_before = map->version();

    ShardEntry extra;
    extra.name = "extra";
    extra.endpoint = "unix:/tmp/extra.sock";
    ASSERT_TRUE(map->AddShard(extra).ok());
    EXPECT_GT(map->version(), version_before);

    size_t moved = 0;
    for (size_t s = 0; s < kShardSlots; ++s) {
      if (map->SlotOwner(s) == before[s]) continue;
      // Every moved slot lands on the newcomer — no shuffling between
      // pre-existing shards (the minimal-movement property).
      EXPECT_EQ(map->SlotOwner(s), n) << "slot " << s << " n=" << n;
      ++moved;
    }
    // The newcomer's take is bounded by the classic consistent-hashing
    // budget ceil(S/(N+1)) and is everything it owns.
    EXPECT_EQ(moved, map->NumSlotsOwned(n));
    EXPECT_LE(moved, (kShardSlots + n) / (n + 1)) << "n=" << n;
    EXPECT_GE(moved, kShardSlots / (n + 1)) << "n=" << n;
  }
}

TEST(ShardMapTest, RemoveShardMovesOnlyTheRemovedShardsSlots) {
  for (size_t n : {2u, 3u, 4u, 7u}) {
    for (size_t victim = 0; victim < n; ++victim) {
      auto map = ShardMap::Create(Entries(n));
      ASSERT_TRUE(map.ok());
      const std::vector<size_t> before = Owners(*map);
      const size_t orphaned = map->NumSlotsOwned(victim);
      ASSERT_TRUE(
          map->RemoveShard("shard" + std::to_string(victim)).ok());
      ASSERT_EQ(map->shards().size(), n - 1);

      size_t moved = 0;
      for (size_t s = 0; s < kShardSlots; ++s) {
        // Survivors keep their slots; ordinals above the victim shift
        // down by one but name the same shard.
        const size_t old_owner = before[s];
        if (old_owner == victim) {
          ++moved;
          continue;
        }
        const size_t expect = old_owner > victim ? old_owner - 1 : old_owner;
        EXPECT_EQ(map->SlotOwner(s), expect) << "slot " << s;
      }
      EXPECT_EQ(moved, orphaned);
      // Post-remove the survivors stay balanced.
      for (size_t i = 0; i + 1 < n; ++i) {
        EXPECT_LE(map->NumSlotsOwned(i), (kShardSlots + n - 2) / (n - 1));
      }
    }
  }
}

TEST(ShardMapTest, AddRejectsDuplicateRemoveRejectsUnknownAndLast) {
  auto map = ShardMap::Create(Entries(2));
  ASSERT_TRUE(map.ok());
  ShardEntry dup;
  dup.name = "shard0";
  dup.endpoint = "unix:/tmp/dup.sock";
  EXPECT_FALSE(map->AddShard(dup).ok());
  EXPECT_FALSE(map->RemoveShard("nope").ok());
  ASSERT_TRUE(map->RemoveShard("shard0").ok());
  EXPECT_FALSE(map->RemoveShard("shard1").ok());  // would empty the map
}

// ---- serialization ----------------------------------------------------------

TEST(ShardMapTest, WriteReadRoundTrip) {
  auto map = ShardMap::Create(Entries(3, /*with_standbys=*/true));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->AddShard({"late", "tcp:9001", ""}).ok());  // version 2

  TextWriter out;
  ASSERT_TRUE(map->Write(&out).ok());
  TextReader in(out.str());
  auto loaded = ShardMap::Read(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*map, *loaded);
  EXPECT_EQ(loaded->version(), map->version());
  EXPECT_EQ(loaded->shards()[0].standby, map->shards()[0].standby);
}

TEST(ShardMapTest, SaveLoadRoundTrip) {
  auto map = ShardMap::Create(Entries(3));
  ASSERT_TRUE(map.ok());
  const std::string path = ::testing::TempDir() + "/shard_map_test.bin";
  ASSERT_TRUE(map->Save(path).ok());
  auto loaded = ShardMap::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*map, *loaded);
  std::remove(path.c_str());
}

// ---- partitioning -----------------------------------------------------------

// Synthetic bundle: partition math only needs labels, graph indices and
// explainability — no trained model required.
ViewBundle SyntheticBundle(const std::string& route, size_t graphs) {
  ViewBundle bundle;
  bundle.route = route;
  for (ClassLabel label : {0, 1}) {
    ExplanationView view;
    view.label = label;
    Graph pattern;
    pattern.AddNode(0);
    pattern.AddNode(1);
    EXPECT_TRUE(pattern.AddEdge(0, 1).ok());
    view.patterns.push_back(pattern);
    view.patterns.push_back(pattern);
    for (size_t g = static_cast<size_t>(label); g < graphs; g += 2) {
      ExplanationSubgraph sub;
      sub.graph_index = g;
      sub.nodes = {0, 1};
      sub.subgraph = pattern;
      sub.explainability = 0.01 * static_cast<double>(g + 1);
      view.explainability += sub.explainability;
      view.subgraphs.push_back(std::move(sub));
    }
    bundle.views.views.push_back(std::move(view));
  }
  return bundle;
}

TEST(ShardMapTest, PartitionSplitsSubgraphsByOwnerAndReplicatesPatterns) {
  auto map = ShardMap::Create(Entries(3));
  ASSERT_TRUE(map.ok());
  const ViewBundle bundle = SyntheticBundle("alpha", 40);
  const std::vector<ViewBundle> parts = map->Partition(bundle);
  ASSERT_EQ(parts.size(), 3u);

  for (const ExplanationView& view : bundle.views.views) {
    std::map<ClassLabel, size_t> total_subgraphs;
    double total_explainability = 0.0;
    for (size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ(parts[i].route, "alpha");
      const ExplanationView* slice = parts[i].views.ForLabel(view.label);
      ASSERT_NE(slice, nullptr) << "every shard keeps every label";
      // Pattern tier replicated verbatim.
      ASSERT_EQ(slice->patterns.size(), view.patterns.size());
      size_t last_rank = 0;
      bool first = true;
      for (const ExplanationSubgraph& sub : slice->subgraphs) {
        // Every subgraph sits on its owner...
        EXPECT_EQ(map->OwnerOf("alpha", sub.graph_index), i);
        // ...and slice order preserves the source view's order (graph
        // indices ascend because the source's do).
        if (!first) {
          EXPECT_GT(sub.graph_index, last_rank);
        }
        last_rank = sub.graph_index;
        first = false;
        total_explainability += sub.explainability;
      }
      total_subgraphs[view.label] += slice->subgraphs.size();
      // Slice explainability is recomputed as the sum over its slice.
      double slice_sum = 0.0;
      for (const ExplanationSubgraph& sub : slice->subgraphs) {
        slice_sum += sub.explainability;
      }
      EXPECT_DOUBLE_EQ(slice->explainability, slice_sum);
    }
    EXPECT_EQ(total_subgraphs[view.label], view.subgraphs.size());
    EXPECT_NEAR(total_explainability, view.explainability, 1e-12);
  }
}

TEST(ShardMapTest, PartitionOfSingleShardIsTheWholeBundle) {
  auto map = ShardMap::Create(Entries(1));
  ASSERT_TRUE(map.ok());
  const ViewBundle bundle = SyntheticBundle("solo", 16);
  const std::vector<ViewBundle> parts = map->Partition(bundle);
  ASSERT_EQ(parts.size(), 1u);
  ASSERT_EQ(parts[0].views.views.size(), bundle.views.views.size());
  for (size_t v = 0; v < bundle.views.views.size(); ++v) {
    EXPECT_EQ(parts[0].views.views[v].subgraphs.size(),
              bundle.views.views[v].subgraphs.size());
  }
}

}  // namespace
}  // namespace cluster
}  // namespace gvex
