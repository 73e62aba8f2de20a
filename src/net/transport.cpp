#include "net/transport.h"

#include <vector>

#include "core/error.h"

namespace alps::net {

void Transport::add_peer(NodeId id, const std::string& name,
                         const std::string& address) {
  (void)id;
  (void)address;
  raise(ErrorCode::kNetwork,
        "this transport does not support dynamic membership (add_peer " +
            name + ")");
}

bool Transport::remove_peer(NodeId id) {
  (void)id;
  raise(ErrorCode::kNetwork,
        "this transport does not support dynamic membership (remove_peer)");
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
