// §2.7.1 — the paper's dictionary database with request combining.
//
// Search is exported as one procedure, implemented as Search[1..SearchMax].
// The manager intercepts both the parameter (the word) and the result (the
// meaning). When a search for a word is already in flight, the manager does
// NOT start another body; it records the request and, when the in-flight
// search finishes, answers every combined request with `combine_finish` —
// "a software adaptation of the memory combining used in the NYU
// Ultracomputer" (§2.7). Experiment E3 measures the executed-searches
// saving under a Zipf workload.
//
// With no simulated search time the Search body is one hash lookup that
// cannot block, so it is declared ImplDecl::inline_start: the manager's
// start runs it on the manager thread (DESIGN.md §4.13), saving a pooled
// worker's two handoffs per call. Its slot stays "in flight" until the
// await guard fires on the next select pass, so a same-word request
// accepted first in that pass still combines with it. With search_time > 0
// the body sleeps and stays pooled, keeping the concurrent in-flight window
// that E3 measures.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/alps.h"

namespace alps::net {
class Node;
class Transport;
}  // namespace alps::net

namespace alps::apps {

class Dictionary {
 public:
  struct Options {
    std::size_t search_max = 8;  ///< hidden array size (max parallel searches)
    /// Simulated time for one dictionary search.
    std::chrono::microseconds search_time{0};
    /// Combining on/off (off = every request runs its own body; used as the
    /// E3 baseline). Ignored when `multiactive` is set: multiactive dispatch
    /// launches searches without the await turn combining hooks into.
    bool combining = true;
    /// Multiactive scheduling (DESIGN.md §4.8): Search is annotated
    /// compatible with itself, Insert conflicts with everything, and the
    /// manager leaves both to the kernel with standing orders, serving
    /// guarded calls through compat-gated guards + start_compatible.
    /// false = the paper's serial manager with request combining.
    bool multiactive = false;
    /// Name the kernel object registers under (distinguishes multiple
    /// dictionaries hosted in one cluster directory).
    std::string object_name = "Dictionary";
    sched::ProcessModel model = sched::ProcessModel::kPooled;
    std::size_t pool_workers = 8;
  };

  /// Multiactive: every accepted search runs its own body, so `requests`
  /// reads `executed` and `combined` stays 0.
  struct Stats {
    std::uint64_t requests = 0;   ///< Search calls accepted
    std::uint64_t executed = 0;   ///< bodies actually run
    std::uint64_t combined = 0;   ///< requests answered by combining
    std::uint64_t inserts = 0;    ///< Insert bodies run
  };

  /// The dictionary maps each of `words` to "meaning of <word>".
  explicit Dictionary(std::vector<std::string> words)
      : Dictionary(std::move(words), Options()) {}
  Dictionary(std::vector<std::string> words, Options options);
  ~Dictionary();

  std::string search(const std::string& word);
  CallHandle async_search(const std::string& word);

  /// Defines (or overwrites) `word` -> `meaning`. Runs in exclusion with
  /// searches — via compat annotations when multiactive, via the manager's
  /// drain protocol otherwise.
  void insert(const std::string& word, const std::string& meaning);
  CallHandle async_insert(const std::string& word, const std::string& meaning);

  Stats stats() const;
  Object& object() { return obj_; }

 private:
  Options options_;
  Object obj_;
  EntryRef search_, insert_;
  std::unordered_map<std::string, std::string> db_;
  std::atomic<std::uint64_t> requests_{0}, executed_{0}, combined_{0},
      inserts_{0};
};

/// Sharded mode (DESIGN.md §4.12): one Dictionary instance per shard home,
/// all registered under a single name. Callers keep using
/// `node.call(name, "Search", {word})` — the router on each node hashes the
/// word (the call's first parameter) and picks the shard, so intra-object
/// parallelism scales across nodes with zero caller changes.
///
/// Each shard's words are the subset of `words` the shard map routes to it,
/// so every word resolves on exactly one shard. split_to() performs a live
/// shard split: the new shard's Dictionary is hosted and the N+1-home map
/// installed while traffic is in flight — stale clients converge key by key
/// through shard-precise kWrongNode redirects.
class ShardedDictionary {
 public:
  ShardedDictionary(std::vector<std::string> words,
                    Dictionary::Options options, net::Transport& transport,
                    std::vector<net::Node*> homes);
  ~ShardedDictionary();

  ShardedDictionary(const ShardedDictionary&) = delete;
  ShardedDictionary& operator=(const ShardedDictionary&) = delete;

  std::size_t shards() const { return shards_.size(); }
  Dictionary& shard(std::size_t i) { return *shards_[i]; }

  /// Grow the map N → N+1 with `new_home` serving the new shard; jump
  /// hashing moves only ~1/(N+1) of the keys. Words that re-route to the
  /// new shard are re-inserted there before the map flips.
  void split_to(net::Node& new_home);

  /// Stats summed across shards.
  Dictionary::Stats stats() const;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<std::string> words_;
  Dictionary::Options options_;
  net::Transport* transport_;
  std::vector<net::Node*> homes_;
  std::vector<std::unique_ptr<Dictionary>> shards_;
};

}  // namespace alps::apps
