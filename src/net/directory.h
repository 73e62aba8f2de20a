// Cluster directory: object name → placement (one home, N shards, or a
// replica set).
//
// The paper pitches entry calls as RPCs so that "a parallel program can be
// executed on a distributed system without change" (§1, §4) — which needs a
// cluster-level view of where each object lives, not caller-managed node
// ids. Every Transport owns one Directory; the simulated Network's instance
// is authoritative for the whole in-process cluster, while a SocketTransport
// owns this process's replica, seeded from static placement config.
// Node::host and Node::unhost keep it current, and each node caches
// resolutions per-object. A stale cache (or stale replica) is corrected
// in-band: the wrong node answers with a typed kWrongNode redirect carrying
// its directory's current home *for that key's shard* (see rpc.h), so
// placement — including live shard splits — can change without touching
// callers or taking a global barrier.
//
// Placement modes (DESIGN.md §4.12):
//   kSingle     one home; the original name → node mapping.
//   kSharded    homes[i] serves shard i; the router hashes the call's first
//               parameter (the paper's "initial subsequence" dispatch made
//               distributed) and picks the shard with a jump consistent
//               hash, so growing N → N+1 homes moves only ~1/(N+1) keys.
//   kReplicated homes[0] is the primary (all writes); reads spread across
//               the whole set by key hash.
//
// Every mutation bumps the entry's epoch; epochs are monotonic per name
// even across erase/re-add, so a redirect hint can always be ordered
// against a cached map.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/value.h"
#include "net/transport.h"

namespace alps::net {

/// Sentinel shard index: "this placement is not sharded" (wire: a redirect
/// that re-homes the whole object rather than one shard).
inline constexpr std::uint32_t kNoShard = 0xffffffffu;

/// Jump consistent hash (Lamping & Veach, 2014): maps `key` to a bucket in
/// [0, buckets) such that growing buckets → buckets+1 reassigns only
/// ~1/(buckets+1) of the keys — no ring state, stable across processes.
std::uint32_t jump_consistent_hash(std::uint64_t key, std::uint32_t buckets);

/// Process-stable hash of a call's first parameter for shard routing.
/// Strings and blobs hash their bytes (FNV-1a), integers/bools/doubles
/// their bit patterns; never std::hash, which may differ across processes.
std::uint64_t shard_key_hash(const Value& key);

enum class PlacementMode : std::uint8_t { kSingle, kSharded, kReplicated };

/// One directory entry: where a named object answers.
struct Placement {
  PlacementMode mode = PlacementMode::kSingle;
  /// kSingle: exactly one home. kSharded: homes[i] serves shard i.
  /// kReplicated: homes[0] is the primary, the rest are read replicas.
  std::vector<NodeId> homes;
  std::uint64_t epoch = 0;

  NodeId primary() const { return homes.front(); }
  bool contains(NodeId id) const;

  /// Shard index for a key hash (kNoShard unless sharded).
  std::uint32_t shard_of(std::uint64_t key_hash) const;

  /// The node that should serve this call: kSingle → the home; kSharded →
  /// the key's shard home; kReplicated → the primary for writes, a
  /// key-spread replica for reads.
  NodeId route(std::uint64_t key_hash, bool read) const;
};

/// Thread-safe name → placement map. All operations are O(1) hash lookups
/// (plus O(homes) for demotions); nodes hold a pointer to the Network's
/// instance, never a copy.
class Directory {
 public:
  /// Registers (or re-homes) `object` at a single `home`. A migration is
  /// just a second add under the new home — last-writer-wins. If the
  /// existing entry is multi-home and already *contains* `home` (e.g. a
  /// shard server re-hosting its local object), the shard map is preserved
  /// untouched; otherwise the entry collapses to a single home.
  void add(const std::string& object, NodeId home);

  /// Installs (or wholesale replaces) a sharded placement: homes[i] serves
  /// shard i. A shard split is simply a second call with N+1 homes — the
  /// epoch bump plus kWrongNode redirects migrate traffic key by key.
  void add_sharded(const std::string& object, std::vector<NodeId> homes);

  /// Installs (or wholesale replaces) a read-replicated placement:
  /// `primary` takes writes, reads spread over {primary} ∪ replicas.
  void add_replicated(const std::string& object, NodeId primary,
                      std::vector<NodeId> replicas);

  /// Drops `home` from the entry while it still names it. Single-home:
  /// erases the mapping (an unhost on the old node after a migration must
  /// not erase the new home's entry). Sharded: surviving homes absorb the
  /// departed node's shard slots (deterministically, by jump hash over the
  /// slot index). Replicated: the home is dropped; if it was the primary,
  /// the first surviving replica is promoted. The entry is erased only
  /// when no home survives.
  void remove(const std::string& object, NodeId home);

  /// Demotes `home` out of every entry — the directory half of a
  /// membership eviction (Transport::remove_peer). Multi-home entries keep
  /// serving from the survivors; only names with no surviving home are
  /// erased, so lookups for them fail typed (kObjectNotFound) instead of
  /// timing out against a dead address. Returns how many entries were
  /// touched (demoted or erased).
  std::size_t remove_node(NodeId home);

  /// Primary/single home — kept for the one-home callers; multi-home aware
  /// code should use placement().
  std::optional<NodeId> lookup(const std::string& object) const;

  std::optional<Placement> placement(const std::string& object) const;

  /// One routing decision, computed under the directory lock without
  /// copying the placement — the per-request server-side ownership check
  /// and redirect-hint source (rpc.cpp).
  struct RouteDecision {
    NodeId home = 0;  ///< the node that should serve this (key, read) call
    std::uint32_t shard = kNoShard;  ///< key's shard (kNoShard if unsharded)
    std::uint64_t epoch = 0;
    PlacementMode mode = PlacementMode::kSingle;
    bool member = false;  ///< `self` appears among the entry's homes
  };
  std::optional<RouteDecision> route(const std::string& object,
                                     std::uint64_t key_hash, bool read,
                                     NodeId self) const;

  std::size_t size() const;

  /// All registered object names (diagnostics / examples).
  std::vector<std::string> objects() const;

 private:
  // Callee must hold mu_. Bumps past both the live entry's epoch and the
  // floor a previous incarnation left behind.
  std::uint64_t next_epoch_locked(const std::string& object) const;
  void erase_locked(const std::string& object);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Placement> map_;
  // Last epoch of erased entries, so re-adding a name keeps epochs
  // monotonic and stale redirect hints stay orderable.
  std::unordered_map<std::string, std::uint64_t> epoch_floor_;
};

}  // namespace alps::net
