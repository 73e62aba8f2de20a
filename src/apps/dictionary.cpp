#include "apps/dictionary.h"

#include <thread>

#include "net/directory.h"
#include "net/rpc.h"

namespace alps::apps {

Dictionary::Dictionary(std::vector<std::string> words, Options options)
    : options_(options),
      obj_(options.object_name,
           ObjectOptions{.model = options.model,
                         .pool_workers = options.pool_workers}) {
  for (auto& w : words) db_.emplace(w, "meaning of " + w);

  // --- definition: proc Search(String) returns (String),
  //                 proc Insert(String, String) ---
  if (options_.multiactive) {
    // Compatibility annotations (DESIGN.md §4.8): searches overlap each
    // other, inserts conflict with everything (including other inserts).
    search_ = obj_.define_entry(
        EntryDecl{.name = "Search", .params = 1, .results = 1}.compatible_with(
            {"Search"}));
    insert_ = obj_.define_entry(
        EntryDecl{.name = "Insert", .params = 2, .results = 0}.serial_group());
  } else {
    search_ = obj_.define_entry({.name = "Search", .params = 1, .results = 1});
    insert_ = obj_.define_entry({.name = "Insert", .params = 2, .results = 0});
  }

  // --- implementation: Search[1..SearchMax] ---
  // Without simulated search time the body is one hash lookup that cannot
  // block, so the serial manager's start runs it inline (DESIGN.md §4.13);
  // a sleeping body stays pooled so searches overlap. The multiactive
  // manager's start_compatible ignores the declaration.
  obj_.implement(search_,
                 ImplDecl{.array = options_.search_max,
                          .inline_start = options_.search_time.count() == 0},
                 [this](BodyCtx& ctx) -> ValueList {
                   ++executed_;
                   if (options_.search_time.count() > 0) {
                     std::this_thread::sleep_for(options_.search_time);
                   }
                   auto it = db_.find(ctx.param(0).as_string());
                   return {Value(it == db_.end() ? std::string("?")
                                                 : it->second)};
                 });
  obj_.implement(insert_, [this](BodyCtx& ctx) -> ValueList {
    db_[ctx.param(0).as_string()] = ctx.param(1).as_string();
    ++inserts_;
    return {};
  });

  if (options_.multiactive) {
    // --- manager: compat-gated dispatch. The annotations carry the whole
    // exclusion protocol; no combining (searches launch without the await
    // turn combining hooks into).
    obj_.set_manager(
        {intercept(search_), intercept(insert_)}, [this](Manager& m) {
          Select()
              .on(accept_guard(search_).compatible().then([&, this](
                                                              Accepted a) {
                ++requests_;
                m.start_compatible(a);
                requests_ += m.start_compatible_pending(search_);
              }))
              .on(accept_guard(insert_).compatible().then([&](Accepted a) {
                m.start_compatible(a);
              }))
              .loop(m);
        });
    obj_.start();
    return;
  }

  // --- manager: intercepts Search(String; String) ---
  obj_.set_manager(
      {intercept(search_).params(1).results(1), intercept(insert_)},
      [this](Manager& m) {
        // Which word each running slot is searching, and the accepted
        // requests waiting to be combined with it.
        std::unordered_map<std::size_t, std::string> slot_word;
        std::unordered_map<std::string, std::vector<Accepted>> piggybacked;
        // Inserts mutate db_ so they must run with no search body in
        // flight. Accepted inserts queue here; searches arriving behind a
        // queued insert stall so the running searches drain.
        std::vector<Accepted> queued_inserts;
        std::vector<Accepted> stalled_searches;
        auto word_in_flight = [&](const std::string& w) {
          for (const auto& [slot, word] : slot_word) {
            if (word == w) return true;
          }
          return false;
        };
        auto dispatch_search = [&, this](Accepted a) {
          const std::string word = a.params[0].as_string();
          if (options_.combining && word_in_flight(word)) {
            // "record that Word is now being searched on behalf of
            // Search[i]" — no start.
            piggybacked[word].push_back(std::move(a));
          } else {
            slot_word[a.slot] = word;
            m.start(a);
          }
        };
        auto maybe_drain_inserts = [&](Manager& mgr) {
          if (queued_inserts.empty() || !slot_word.empty()) return;
          for (Accepted& ins : queued_inserts) mgr.execute(ins);
          queued_inserts.clear();
          for (Accepted& a : stalled_searches) dispatch_search(std::move(a));
          stalled_searches.clear();
        };

        Select()
            .on(accept_guard(search_).then([&, this](Accepted a) {
              // The kernel checks arity, not kinds: answer a non-string
              // word here rather than let as_string() kill the manager.
              if (!a.params[0].is_string()) {
                m.fail(a, "Search: the word must be a string");
                return;
              }
              ++requests_;
              if (!queued_inserts.empty()) {
                stalled_searches.push_back(std::move(a));
              } else {
                dispatch_search(std::move(a));
              }
            }))
            .on(accept_guard(insert_).then([&](Accepted a) {
              queued_inserts.push_back(std::move(a));
              maybe_drain_inserts(m);
            }))
            .on(await_guard(search_).then([&, this](Awaited w) {
              const std::string word = slot_word[w.slot];
              slot_word.erase(w.slot);
              const ValueList meaning = w.results;  // intercepted result
              m.finish(w);
              // Answer everyone who piggybacked on this search.
              auto it = piggybacked.find(word);
              if (it != piggybacked.end()) {
                for (Accepted& rider : it->second) {
                  ++combined_;
                  m.combine_finish(rider, meaning);
                }
                piggybacked.erase(it);
              }
              maybe_drain_inserts(m);
            }))
            .loop(m);
      });
  obj_.start();
}

Dictionary::~Dictionary() { obj_.stop(); }

std::string Dictionary::search(const std::string& word) {
  return obj_.call(search_, vals(word))[0].as_string();
}

CallHandle Dictionary::async_search(const std::string& word) {
  return obj_.async_call(search_, vals(word));
}

void Dictionary::insert(const std::string& word, const std::string& meaning) {
  obj_.call(insert_, vals(word, meaning));
}

CallHandle Dictionary::async_insert(const std::string& word,
                                    const std::string& meaning) {
  return obj_.async_call(insert_, vals(word, meaning));
}

Dictionary::Stats Dictionary::stats() const {
  return Stats{requests_.load(), executed_.load(), combined_.load(),
               inserts_.load()};
}

// ---- ShardedDictionary -----------------------------------------------------

namespace {

/// Which shard a word routes to under an n-home map — must agree with the
/// client-side router (rpc.cpp), so use the same two hashes.
std::uint32_t shard_of_word(const std::string& word, std::uint32_t n) {
  return net::jump_consistent_hash(net::shard_key_hash(Value(word)), n);
}

}  // namespace

ShardedDictionary::ShardedDictionary(std::vector<std::string> words,
                                     Dictionary::Options options,
                                     net::Transport& transport,
                                     std::vector<net::Node*> homes)
    : name_(options.object_name),
      words_(std::move(words)),
      options_(options),
      transport_(&transport),
      homes_(std::move(homes)) {
  // Partition the initial corpus the way the router will: each shard's
  // Dictionary holds exactly the words that hash to it. Homes must be
  // distinct nodes (one hosted "name_" per node).
  const auto n = static_cast<std::uint32_t>(homes_.size());
  std::vector<std::vector<std::string>> per_shard(homes_.size());
  for (const auto& w : words_) per_shard[shard_of_word(w, n)].push_back(w);

  std::vector<net::NodeId> ids;
  ids.reserve(homes_.size());
  for (std::size_t i = 0; i < homes_.size(); ++i) {
    shards_.push_back(
        std::make_unique<Dictionary>(std::move(per_shard[i]), options_));
    homes_[i]->host(shards_[i]->object());
    ids.push_back(homes_[i]->id());
  }
  // host() above registered the name single-homed (last writer); installing
  // the shard map last makes the whole set authoritative in one epoch bump.
  transport_->directory().add_sharded(name_, std::move(ids));
}

ShardedDictionary::~ShardedDictionary() {
  // Each unhost demotes its node out of the shared entry; the last one
  // erases it.
  for (net::Node* node : homes_) node->unhost(name_);
}

void ShardedDictionary::split_to(net::Node& new_home) {
  const auto new_n = static_cast<std::uint32_t>(homes_.size() + 1);
  // Jump hashing guarantees every key that moves under N → N+1 moves to the
  // NEW bucket, so the new shard's corpus is exactly the words hashing to
  // slot N under the grown map — the survivors keep their slots untouched.
  std::vector<std::string> moved;
  for (const auto& w : words_) {
    if (shard_of_word(w, new_n) == new_n - 1) moved.push_back(w);
  }
  shards_.push_back(std::make_unique<Dictionary>(std::move(moved), options_));
  new_home.host(shards_.back()->object());
  homes_.push_back(&new_home);

  // Flip the map only after the new shard is hosted and loaded: a request
  // redirected mid-split always finds the data already there.
  std::vector<net::NodeId> ids;
  ids.reserve(homes_.size());
  for (net::Node* node : homes_) ids.push_back(node->id());
  transport_->directory().add_sharded(name_, std::move(ids));
}

Dictionary::Stats ShardedDictionary::stats() const {
  Dictionary::Stats sum;
  for (const auto& d : shards_) {
    const auto s = d->stats();
    sum.requests += s.requests;
    sum.executed += s.executed;
    sum.combined += s.combined;
    sum.inserts += s.inserts;
  }
  return sum;
}

}  // namespace alps::apps
