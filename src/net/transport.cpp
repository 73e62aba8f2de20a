#include "net/transport.h"

#include <vector>

#include "net/directory.h"

namespace alps::net {

void Transport::add_peer(NodeId id, const std::string& name,
                         const std::string& address) {
  if (!admit_peer(id, name, address)) return;
  {
    std::scoped_lock lock(partition_mu_);
    evicted_.erase(id);
  }
  notify_membership(id, true);
}

bool Transport::remove_peer(NodeId id) {
  {
    // Recorded before the backend drops the peer, so from here on its
    // traffic reads as cut on every path (the sim loses it at post and at
    // delivery by evicted()). An id already evicted is not present.
    std::scoped_lock lock(partition_mu_);
    if (!evicted_.insert(id).second) return false;
  }
  if (!evict_peer(id)) {
    std::scoped_lock lock(partition_mu_);
    evicted_.erase(id);
    return false;
  }
  // A departed node's named objects fail typed (kObjectNotFound) instead of
  // timing out against a dead address.
  directory().remove_node(id);
  notify_membership(id, false);
  return true;
}

void Transport::cut(NodeId a, NodeId b) {
  apply_cut(a, b, true);  // may refuse the pair
  std::scoped_lock lock(partition_mu_);
  cuts_.insert(pair_of(a, b));
}

void Transport::mend(NodeId a, NodeId b) {
  apply_cut(a, b, false);
  std::scoped_lock lock(partition_mu_);
  cuts_.erase(pair_of(a, b));
}

bool Transport::cut_between(NodeId a, NodeId b) const {
  std::scoped_lock lock(partition_mu_);
  return cuts_.contains(pair_of(a, b));
}

bool Transport::evicted(NodeId id) const {
  std::scoped_lock lock(partition_mu_);
  return evicted_.contains(id);
}

bool Transport::is_partitioned(NodeId a, NodeId b) const {
  {
    std::scoped_lock lock(partition_mu_);
    // An evicted peer is unreachable from everywhere: the permanent cut.
    if (cuts_.contains(pair_of(a, b)) || evicted_.contains(a) ||
        evicted_.contains(b)) {
      return true;
    }
  }
  return link_down(a, b);  // outside the leaf lock: backends take their own
}

std::uint64_t Transport::add_membership_listener(MembershipListener listener) {
  std::scoped_lock lock(listeners_mu_);
  const std::uint64_t token = next_listener_token_++;
  listeners_.emplace(token, std::move(listener));
  return token;
}

void Transport::remove_membership_listener(std::uint64_t token) {
  std::scoped_lock lock(listeners_mu_);
  listeners_.erase(token);
}

void Transport::notify_membership(NodeId peer, bool added) {
  // Snapshot under the lock, invoke outside it: listeners post frames and
  // take node/batcher locks of their own.
  std::vector<MembershipListener> snapshot;
  {
    std::scoped_lock lock(listeners_mu_);
    snapshot.reserve(listeners_.size());
    for (const auto& [token, fn] : listeners_) snapshot.push_back(fn);
  }
  for (const auto& fn : snapshot) fn(peer, added);
}

void Transport::set_idle_handler(NodeId node, IdleHandler handler) {
  std::unique_lock lock(idle_mu_);
  IdleSlot& slot = idle_slots_[node];
  slot.handler = handler ? std::make_shared<const IdleHandler>(std::move(handler))
                         : nullptr;
  // Same contract as set_handler: a call still running may be into the
  // handler just replaced, whose captures the caller is about to destroy.
  idle_done_.wait(lock, [&] { return slot.running == 0; });
}

void Transport::notify_idle(NodeId src, NodeId dst) {
  std::shared_ptr<const IdleHandler> handler;
  IdleSlot* slot = nullptr;
  {
    std::scoped_lock lock(idle_mu_);
    auto it = idle_slots_.find(src);
    if (it == idle_slots_.end() || !it->second.handler) return;
    slot = &it->second;  // node-based map, and slots are never erased
    handler = slot->handler;
    ++slot->running;
  }
  (*handler)(dst);  // outside the lock: the handler posts frames
  {
    std::scoped_lock lock(idle_mu_);
    --slot->running;
  }
  idle_done_.notify_all();
}

}  // namespace alps::net
