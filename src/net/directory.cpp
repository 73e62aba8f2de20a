#include "net/directory.h"

#include <algorithm>

namespace alps::net {

namespace {

std::uint64_t splitmix64_once(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::uint32_t jump_consistent_hash(std::uint64_t key, std::uint32_t buckets) {
  if (buckets <= 1) return 0;
  std::int64_t b = -1, j = 0;
  while (j < static_cast<std::int64_t>(buckets)) {
    b = j;
    key = key * 2862933555777941757ull + 1;
    j = static_cast<std::int64_t>(
        static_cast<double>(b + 1) *
        (static_cast<double>(1ll << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::uint32_t>(b);
}

std::uint64_t shard_key_hash(const Value& key) {
  switch (key.kind()) {
    case ValueKind::kString: {
      const auto sv = key.string_view();
      return fnv1a(sv.data(), sv.size());
    }
    case ValueKind::kBlob: {
      const Buffer& b = key.as_blob();
      return fnv1a(b.data(), b.size());
    }
    case ValueKind::kInt:
      return splitmix64_once(static_cast<std::uint64_t>(key.as_int()));
    case ValueKind::kBool:
      return splitmix64_once(key.as_bool() ? 1 : 0);
    case ValueKind::kReal: {
      const double d = key.as_real();
      std::uint64_t bits;
      static_assert(sizeof bits == sizeof d);
      __builtin_memcpy(&bits, &d, sizeof bits);
      return splitmix64_once(bits);
    }
    default: {
      // Lists/channels/nil are unusual shard keys; fall back to the debug
      // rendering, which is deterministic for lists of the kinds above.
      const std::string s = key.to_string();
      return fnv1a(s.data(), s.size());
    }
  }
}

bool Placement::contains(NodeId id) const {
  return std::find(homes.begin(), homes.end(), id) != homes.end();
}

std::uint32_t Placement::shard_of(std::uint64_t key_hash) const {
  if (mode != PlacementMode::kSharded) return kNoShard;
  return jump_consistent_hash(key_hash,
                              static_cast<std::uint32_t>(homes.size()));
}

NodeId Placement::route(std::uint64_t key_hash, bool read) const {
  switch (mode) {
    case PlacementMode::kSingle:
      return homes.front();
    case PlacementMode::kSharded:
      return homes[jump_consistent_hash(
          key_hash, static_cast<std::uint32_t>(homes.size()))];
    case PlacementMode::kReplicated:
      if (!read) return homes.front();
      return homes[jump_consistent_hash(
          key_hash, static_cast<std::uint32_t>(homes.size()))];
  }
  return homes.front();
}

std::uint64_t Directory::next_epoch_locked(const std::string& object) const {
  std::uint64_t e = 0;
  if (auto it = map_.find(object); it != map_.end()) e = it->second.epoch;
  if (auto it = epoch_floor_.find(object); it != epoch_floor_.end()) {
    e = std::max(e, it->second);
  }
  return e + 1;
}

void Directory::erase_locked(const std::string& object) {
  auto it = map_.find(object);
  if (it == map_.end()) return;
  epoch_floor_[object] = it->second.epoch;
  map_.erase(it);
}

void Directory::add(const std::string& object, NodeId home) {
  std::scoped_lock lock(mu_);
  auto it = map_.find(object);
  // A shard/replica server re-registering its local object must not
  // collapse the cluster's multi-home map to itself.
  if (it != map_.end() && it->second.mode != PlacementMode::kSingle &&
      it->second.contains(home)) {
    return;
  }
  Placement p;
  p.mode = PlacementMode::kSingle;
  p.homes = {home};
  p.epoch = next_epoch_locked(object);
  map_[object] = std::move(p);
}

void Directory::add_sharded(const std::string& object,
                            std::vector<NodeId> homes) {
  if (homes.empty()) return;
  std::scoped_lock lock(mu_);
  Placement p;
  p.mode = PlacementMode::kSharded;
  p.homes = std::move(homes);
  p.epoch = next_epoch_locked(object);
  map_[object] = std::move(p);
}

void Directory::add_replicated(const std::string& object, NodeId primary,
                               std::vector<NodeId> replicas) {
  std::scoped_lock lock(mu_);
  Placement p;
  p.mode = PlacementMode::kReplicated;
  p.homes.reserve(replicas.size() + 1);
  p.homes.push_back(primary);
  for (NodeId r : replicas) {
    if (r != primary) p.homes.push_back(r);
  }
  p.epoch = next_epoch_locked(object);
  map_[object] = std::move(p);
}

void Directory::remove(const std::string& object, NodeId home) {
  std::scoped_lock lock(mu_);
  auto it = map_.find(object);
  if (it == map_.end() || !it->second.contains(home)) return;
  Placement& p = it->second;
  switch (p.mode) {
    case PlacementMode::kSingle:
      erase_locked(object);
      return;
    case PlacementMode::kSharded: {
      // Survivors absorb the departed home's shard slots. The absorber is
      // picked by jump hash over the slot index so every directory replica
      // that demotes the same home converges on the same map.
      std::vector<NodeId> survivors;
      for (NodeId h : p.homes) {
        if (h != home) survivors.push_back(h);
      }
      if (survivors.empty()) {
        erase_locked(object);
        return;
      }
      for (std::size_t i = 0; i < p.homes.size(); ++i) {
        if (p.homes[i] != home) continue;
        p.homes[i] = survivors[jump_consistent_hash(
            splitmix64_once(i), static_cast<std::uint32_t>(survivors.size()))];
      }
      p.epoch = next_epoch_locked(object);
      return;
    }
    case PlacementMode::kReplicated: {
      // Drop the home; if it was the primary, the first surviving replica
      // is promoted (homes[0] is the write target by construction).
      std::erase(p.homes, home);
      if (p.homes.empty()) {
        erase_locked(object);
        return;
      }
      p.epoch = next_epoch_locked(object);
      return;
    }
  }
}

std::size_t Directory::remove_node(NodeId home) {
  std::vector<std::string> touched;
  {
    std::scoped_lock lock(mu_);
    for (const auto& [name, p] : map_) {
      if (p.contains(home)) touched.push_back(name);
    }
  }
  // remove() re-takes the lock per entry; eviction is rare and cold.
  for (const auto& name : touched) remove(name, home);
  return touched.size();
}

std::optional<NodeId> Directory::lookup(const std::string& object) const {
  std::scoped_lock lock(mu_);
  auto it = map_.find(object);
  if (it == map_.end()) return std::nullopt;
  return it->second.primary();
}

std::optional<Placement> Directory::placement(const std::string& object) const {
  std::scoped_lock lock(mu_);
  auto it = map_.find(object);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::optional<Directory::RouteDecision> Directory::route(
    const std::string& object, std::uint64_t key_hash, bool read,
    NodeId self) const {
  std::scoped_lock lock(mu_);
  auto it = map_.find(object);
  if (it == map_.end()) return std::nullopt;
  const Placement& p = it->second;
  RouteDecision d;
  d.home = p.route(key_hash, read);
  d.shard = p.shard_of(key_hash);
  d.epoch = p.epoch;
  d.mode = p.mode;
  d.member = p.contains(self);
  return d;
}

std::size_t Directory::size() const {
  std::scoped_lock lock(mu_);
  return map_.size();
}

std::vector<std::string> Directory::objects() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(map_.size());
  for (const auto& [name, home] : map_) out.push_back(name);
  return out;
}

}  // namespace alps::net
