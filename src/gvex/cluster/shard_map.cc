#include "gvex/cluster/shard_map.h"

#include <algorithm>
#include <set>

#include "gvex/common/io_util.h"

namespace gvex {
namespace cluster {

namespace {

constexpr const char* kMagic = "gvexshardmap-v1";
constexpr const char* kEndMarker = "gvexshardmap-end";

// Standby endpoints are optional; an absent one rides as "-" so every
// shard row keeps a fixed word count.
constexpr const char* kNoStandby = "-";

// Ordinals of the most- and least-loaded shards given per-shard slot
// counts; ties break on the lower ordinal so rebalance is deterministic.
size_t ArgMax(const std::vector<size_t>& counts) {
  return static_cast<size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}
size_t ArgMin(const std::vector<size_t>& counts) {
  return static_cast<size_t>(
      std::min_element(counts.begin(), counts.end()) - counts.begin());
}

Status ValidateEntry(const ShardEntry& shard) {
  if (!IsValidRouteName(shard.name)) {
    return Status::InvalidArgument("invalid shard name: '" + shard.name +
                                   "'");
  }
  if (shard.endpoint.empty()) {
    return Status::InvalidArgument("shard '" + shard.name +
                                   "' has no endpoint");
  }
  return Status::OK();
}

}  // namespace

uint64_t ShardHash64(const std::string& key) {
  // FNV-1a, 64-bit: platform-independent so a map routes identically on
  // every node that loads it.
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : key) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Result<ShardMap> ShardMap::Create(std::vector<ShardEntry> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("shard map needs at least one shard");
  }
  ShardMap map;
  map.shards_ = std::move(shards);
  GVEX_RETURN_NOT_OK(map.RebuildIndex());
  // Balanced deterministic layout: slot s starts at shard s mod N. The
  // rebalance ops below preserve balance while moving minimally.
  map.slot_owner_.resize(kShardSlots);
  for (size_t s = 0; s < kShardSlots; ++s) {
    map.slot_owner_[s] = static_cast<uint32_t>(s % map.shards_.size());
  }
  return map;
}

Status ShardMap::RebuildIndex() {
  std::set<std::string> names;
  for (const ShardEntry& shard : shards_) {
    GVEX_RETURN_NOT_OK(ValidateEntry(shard));
    if (!names.insert(shard.name).second) {
      return Status::InvalidArgument("duplicate shard name: '" + shard.name +
                                     "'");
    }
  }
  return Status::OK();
}

size_t ShardMap::NumSlotsOwned(size_t shard) const {
  size_t n = 0;
  for (uint32_t owner : slot_owner_) n += owner == shard ? 1 : 0;
  return n;
}

Status ShardMap::AddShard(ShardEntry shard) {
  GVEX_RETURN_NOT_OK(ValidateEntry(shard));
  for (const ShardEntry& existing : shards_) {
    if (existing.name == shard.name) {
      return Status::AlreadyExists("shard '" + shard.name +
                                   "' already in map");
    }
  }
  shards_.push_back(std::move(shard));
  const size_t added = shards_.size() - 1;
  std::vector<size_t> counts(shards_.size(), 0);
  for (uint32_t owner : slot_owner_) ++counts[owner];
  // Drain the currently most-loaded shard one slot at a time until the
  // newcomer reaches its fair share. Only donors lose slots, so no slot
  // ever moves between two pre-existing shards.
  const size_t target = kShardSlots / shards_.size();
  while (counts[added] < target) {
    const size_t donor = ArgMax(counts);
    if (donor == added || counts[donor] <= counts[added] + 1) break;
    // Move the donor's highest-numbered slot (deterministic choice).
    for (size_t s = kShardSlots; s-- > 0;) {
      if (slot_owner_[s] == donor) {
        slot_owner_[s] = static_cast<uint32_t>(added);
        --counts[donor];
        ++counts[added];
        break;
      }
    }
  }
  ++version_;
  return Status::OK();
}

Status ShardMap::RemoveShard(const std::string& name) {
  if (shards_.size() <= 1) {
    return Status::FailedPrecondition(
        "cannot remove the last shard from a map");
  }
  size_t removed = shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].name == name) removed = i;
  }
  if (removed == shards_.size()) {
    return Status::NotFound("shard '" + name + "' not in map");
  }
  shards_.erase(shards_.begin() + static_cast<ptrdiff_t>(removed));
  // Re-number survivors, then hand each orphaned slot to the currently
  // least-loaded survivor: exactly the removed shard's slots move.
  std::vector<size_t> counts(shards_.size(), 0);
  std::vector<size_t> orphans;
  for (size_t s = 0; s < kShardSlots; ++s) {
    if (slot_owner_[s] == removed) {
      orphans.push_back(s);
    } else {
      if (slot_owner_[s] > removed) --slot_owner_[s];
      ++counts[slot_owner_[s]];
    }
  }
  for (size_t s : orphans) {
    const size_t heir = ArgMin(counts);
    slot_owner_[s] = static_cast<uint32_t>(heir);
    ++counts[heir];
  }
  ++version_;
  return Status::OK();
}

size_t ShardMap::SlotOf(const std::string& route, uint64_t graph_index) {
  return static_cast<size_t>(
      ShardHash64(route + "/" + std::to_string(graph_index)) % kShardSlots);
}

size_t ShardMap::OwnerOf(const std::string& route,
                         uint64_t graph_index) const {
  return slot_owner_[SlotOf(route, graph_index)];
}

std::vector<ViewBundle> ShardMap::Partition(const ViewBundle& bundle) const {
  std::vector<ViewBundle> parts(shards_.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    parts[i].route = bundle.route;
    parts[i].generation = bundle.generation;
    parts[i].model = bundle.model;    // replicated (shared, never copied)
    parts[i].qmodel = bundle.qmodel;  // quantized slices stay quantized
  }
  for (const ExplanationView& view : bundle.views.views) {
    for (ViewBundle& part : parts) {
      ExplanationView slice;
      slice.label = view.label;
      slice.patterns = view.patterns;  // replicated pattern tier
      part.views.views.push_back(std::move(slice));
    }
    for (const ExplanationSubgraph& sub : view.subgraphs) {
      const size_t owner = OwnerOf(bundle.route, sub.graph_index);
      ExplanationView& slice = parts[owner].views.views.back();
      slice.explainability += sub.explainability;
      slice.subgraphs.push_back(sub);
    }
  }
  return parts;
}

Status ShardMap::Write(TextWriter* out) const {
  *out << kMagic << "\n";
  TextWriter body;
  body << "version " << version_ << "\n";
  body << "slots " << kShardSlots << "\n";
  body << "shards " << shards_.size() << "\n";
  for (const ShardEntry& shard : shards_) {
    body << shard.name << " " << shard.endpoint << " "
         << (shard.standby.empty() ? kNoStandby : shard.standby) << "\n";
  }
  body << "owners";
  for (uint32_t owner : slot_owner_) body << " " << owner;
  body << "\n";
  WriteSection(out, body.str());
  *out << kEndMarker << "\n";
  return Status::OK();
}

Result<ShardMap> ShardMap::Read(TextReader* in) {
  std::string_view magic;
  if (!(*in >> magic) || magic != kMagic) {
    return Status::IoError("not a gvexshardmap-v1 file");
  }
  GVEX_ASSIGN_OR_RETURN(std::string_view payload, ReadSection(in));
  std::string_view marker;
  if (!(*in >> marker) || marker != kEndMarker) {
    return Status::IoError("shard map missing end marker (truncated?)");
  }

  TextReader body(payload);
  ShardMap map;
  std::string_view key;
  size_t slots = 0, num_shards = 0;
  if (!(body >> key >> map.version_) || key != "version") {
    return Status::IoError("bad shard map version field");
  }
  if (!(body >> key >> slots) || key != "slots" || slots != kShardSlots) {
    return Status::IoError("bad shard map slot count");
  }
  if (!(body >> key >> num_shards) || key != "shards" || num_shards == 0 ||
      num_shards > kShardSlots) {
    return Status::IoError("bad shard map shard count");
  }
  map.shards_.resize(num_shards);
  for (ShardEntry& shard : map.shards_) {
    if (!(body >> shard.name >> shard.endpoint >> shard.standby)) {
      return Status::IoError("bad shard row");
    }
    if (shard.standby == kNoStandby) shard.standby.clear();
  }
  GVEX_RETURN_NOT_OK(map.RebuildIndex());
  if (!(body >> key) || key != "owners") {
    return Status::IoError("bad shard map owner table");
  }
  map.slot_owner_.resize(kShardSlots);
  for (uint32_t& owner : map.slot_owner_) {
    if (!(body >> owner) || owner >= num_shards) {
      return Status::IoError("bad slot owner");
    }
  }
  return map;
}

Status ShardMap::Save(const std::string& path) const {
  return RetryIo([&] {
    return AtomicSave(path, [this](TextWriter* out) { return Write(out); });
  });
}

Result<ShardMap> ShardMap::Load(const std::string& path) {
  Result<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) return Status::IoError("cannot open shard map: " + path);
  TextReader in(*bytes);
  return Read(&in);
}

}  // namespace cluster
}  // namespace gvex
