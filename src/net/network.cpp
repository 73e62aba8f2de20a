#include "net/network.h"

#include <utility>

#include "core/error.h"
#include "net/codec.h"
#include "net/directory.h"
#include "support/thread_util.h"

namespace alps::net {

Network::Network(LinkLatency default_latency, std::uint64_t seed)
    : default_latency_(default_latency),
      rng_(seed),
      directory_(std::make_unique<Directory>()) {
  delivery_thread_ =
      std::jthread([this](std::stop_token st) { delivery_loop(st); });
}

Network::~Network() {
  delivery_thread_.request_stop();
  {
    // Empty critical section: delivery_loop tests stop_requested() under
    // mu_ before it waits, so the notify below cannot be lost in between.
    std::scoped_lock lock(mu_);
  }
  cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
}

NodeId Network::add_node(const std::string& name) {
  std::scoped_lock lock(mu_);
  node_names_.push_back(name);
  handlers_.emplace_back();
  return node_names_.size() - 1;
}

void Network::set_handler(NodeId node, Handler handler) {
  std::unique_lock lock(mu_);
  if (node >= handlers_.size()) {
    raise(ErrorCode::kNetwork, "set_handler on unknown node");
  }
  handlers_[node] = std::move(handler);
  // The delivery loop invokes its copied handler outside the lock; a caller
  // deregistering (typically ~Node) must not return while such an invocation
  // is still running into the old handler's captures.
  idle_cv_.wait(lock, [&] { return !delivering_ || delivering_to_ != node; });
}

void Network::set_link_latency(NodeId src, NodeId dst, LinkLatency latency) {
  std::scoped_lock lock(mu_);
  for (auto& [key, lat] : link_overrides_) {
    if (key.first == src && key.second == dst) {
      lat = latency;
      return;
    }
  }
  link_overrides_.push_back({{src, dst}, latency});
}

void Network::set_default_latency(LinkLatency latency) {
  std::scoped_lock lock(mu_);
  default_latency_ = latency;
}

LinkLatency Network::latency_for(NodeId src, NodeId dst) const {
  for (const auto& [key, lat] : link_overrides_) {
    if (key.first == src && key.second == dst) return lat;
  }
  return default_latency_;
}

void Network::set_loss_probability(double p) {
  std::scoped_lock lock(mu_);
  default_faults_.drop = p;
}

void Network::set_default_faults(LinkFaults faults) {
  std::scoped_lock lock(mu_);
  default_faults_ = faults;
}

void Network::set_link_faults(NodeId src, NodeId dst, LinkFaults faults) {
  std::scoped_lock lock(mu_);
  for (auto& [key, f] : fault_overrides_) {
    if (key.first == src && key.second == dst) {
      f = faults;
      return;
    }
  }
  fault_overrides_.push_back({{src, dst}, faults});
}

LinkFaults Network::faults_for(NodeId src, NodeId dst) const {
  for (const auto& [key, f] : fault_overrides_) {
    if (key.first == src && key.second == dst) return f;
  }
  return default_faults_;
}

void Network::partition(NodeId a, NodeId b) {
  std::scoped_lock lock(mu_);
  partitions_.emplace_back(a, b);
}

void Network::schedule_partition(NodeId a, NodeId b, std::uint64_t after_frames,
                                 std::uint64_t duration_frames) {
  std::scoped_lock lock(mu_);
  scripted_partitions_.push_back(PartitionScript{
      a, b, total_posted_ + after_frames,
      total_posted_ + after_frames + duration_frames});
}

void Network::heal() {
  std::scoped_lock lock(mu_);
  partitions_.clear();
  scripted_partitions_.clear();
}

bool Network::partitioned_locked(NodeId a, NodeId b) const {
  for (const auto& [pa, pb] : partitions_) {
    if ((a == pa && b == pb) || (a == pb && b == pa)) return true;
  }
  for (const auto& s : scripted_partitions_) {
    if (total_posted_ < s.start || total_posted_ >= s.end) continue;
    if ((a == s.a && b == s.b) || (a == s.b && b == s.a)) return true;
  }
  return false;
}

bool Network::is_partitioned(NodeId a, NodeId b) const {
  std::scoped_lock lock(mu_);
  // A departed node is unreachable from everywhere: the permanent cut.
  if (departed_.contains(a) || departed_.contains(b)) return true;
  return partitioned_locked(a, b);
}

void Network::add_peer(NodeId id, const std::string& name,
                       const std::string& address) {
  (void)address;  // in-process: there is no wire endpoint to dial
  {
    std::scoped_lock lock(mu_);
    if (id < node_names_.size()) {
      // Revival of a departed id (a restarted process re-joining under its
      // old identity). A live id is a no-op, matching the socket backend's
      // idempotent add_peer.
      departed_.erase(id);
      node_names_[id] = name;
    } else if (id == node_names_.size()) {
      node_names_.push_back(name);
      handlers_.emplace_back();
    } else {
      raise(ErrorCode::kNetwork,
            "sim node ids are dense; cannot add sparse id " +
                std::to_string(id));
    }
  }
  notify_membership(id, true);
}

bool Network::remove_peer(NodeId id) {
  {
    std::scoped_lock lock(mu_);
    if (id >= node_names_.size() || departed_.contains(id)) return false;
    departed_.insert(id);
    handlers_[id] = nullptr;
    // Purge in-flight frames touching the departed node: rebuild the
    // schedule without them, counting each as lost (the socket backend's
    // queue-drop on eviction).
    decltype(queue_) kept;
    while (!queue_.empty()) {
      Scheduled s = std::move(const_cast<Scheduled&>(queue_.top()));
      queue_.pop();
      if (s.frame.src == id || s.frame.dst == id) {
        ++stats_.frames_lost;
        leave_link_locked(s.frame.src, s.frame.dst);
      } else {
        kept.push(std::move(s));
      }
    }
    queue_.swap(kept);
  }
  directory().remove_node(id);
  notify_membership(id, false);
  return true;
}

void Network::post(NodeId src, NodeId dst, FrameBuilder frame) {
  post(Frame{src, dst, frame.build()});
}

void Network::post(Frame frame) {
  {
    std::scoped_lock lock(mu_);
    // Failure injection: partitions and random loss silently eat the frame,
    // as a real datagram network would. The partition check reads the clock
    // before this post advances it, so "after N frames" cuts the N+1st; every
    // post (including eaten ones) then drives the script forward —
    // retransmissions make a scripted heal progress.
    const bool cut = partitioned_locked(frame.src, frame.dst) ||
                     departed_.contains(frame.src) ||
                     departed_.contains(frame.dst);
    ++total_posted_;
    ++stats_.frames_posted;
    stats_.bytes_posted += frame.payload.size();
    if (cut) {
      ++stats_.frames_lost;
      return;
    }
    const LinkFaults faults = faults_for(frame.src, frame.dst);
    if (faults.drop > 0.0 && rng_.next_double() < faults.drop) {
      ++stats_.frames_lost;
      return;
    }
    const bool duplicate =
        faults.duplicate > 0.0 && rng_.next_double() < faults.duplicate;
    const bool reorder =
        faults.reorder > 0.0 && rng_.next_double() < faults.reorder;
    const LinkLatency lat = latency_for(frame.src, frame.dst);
    auto delay = lat.base;
    if (lat.jitter.count() > 0) {
      delay += std::chrono::microseconds(rng_.next_below(
          static_cast<std::uint64_t>(lat.jitter.count()) + 1));
    }
    auto due = std::chrono::steady_clock::now() + delay;
    // Links are FIFO (the paper's channels are point-to-point and ordered):
    // jitter may stretch a link's latency but never reorders its frames.
    // An injected reorder fault lets this frame escape the clamp (and does
    // not advance it, so later frames are unaffected).
    auto& link = last_due_[link_key(frame.src, frame.dst)];
    if (reorder) {
      if (due < link.max_due) ++fault_stats_.frames_reordered;
    } else {
      if (due < link.clamp) due = link.clamp;
      link.clamp = due;
    }
    if (due > link.max_due) link.max_due = due;
    if (duplicate) {
      auto extra = std::chrono::microseconds(0);
      if (faults.duplicate_jitter.count() > 0) {
        extra = std::chrono::microseconds(rng_.next_below(
            static_cast<std::uint64_t>(faults.duplicate_jitter.count()) + 1));
      }
      ++fault_stats_.frames_duplicated;
      ++link.in_flight;
      queue_.push(Scheduled{due + extra, next_seq_++, frame});  // copy
    }
    ++link.in_flight;
    queue_.push(Scheduled{due, next_seq_++, std::move(frame)});
    // Notify under the lock: the delivery thread's latency-timeout wakeup can
    // otherwise consume the frame — and the whole Network be torn down by a
    // caller that observed the delivery — while this thread is still touching
    // cv_ after the unlock.
    cv_.notify_all();
  }
}

void Network::delivery_loop(const std::stop_token& st) {
  support::set_current_thread_name("net/delivery");
  std::unique_lock lock(mu_);
  for (;;) {
    if (st.stop_requested()) return;
    if (queue_.empty()) {
      idle_cv_.notify_all();
      cv_.wait(lock, [&] { return !queue_.empty() || st.stop_requested(); });
      continue;
    }
    const auto due = queue_.top().due;
    const auto now = std::chrono::steady_clock::now();
    if (now < due) {
      cv_.wait_until(lock, due, [&] {
        return st.stop_requested() ||
               (!queue_.empty() && queue_.top().due <= std::chrono::steady_clock::now());
      });
      continue;
    }
    Frame frame = std::move(const_cast<Scheduled&>(queue_.top()).frame);
    queue_.pop();
    const bool link_idle = leave_link_locked(frame.src, frame.dst);
    Handler handler;
    if (departed_.contains(frame.src) || departed_.contains(frame.dst)) {
      // Removed after this frame was scheduled but before delivery: the
      // eviction wins (remove_peer purges the queue; this covers the race).
      ++stats_.frames_lost;
    } else {
      if (frame.dst < handlers_.size()) handler = handlers_[frame.dst];
      if (!handler) {
        ++stats_.frames_dropped;
      } else {
        ++stats_.frames_delivered;
        stats_.bytes_delivered += frame.payload.size();
      }
    }
    if (!handler && !link_idle) continue;
    delivering_ = true;
    delivering_to_ = frame.dst;
    lock.unlock();
    // Outside the lock: handlers may post frames, and so may the sender's
    // idle handler (its batcher's residue leaves now). Both run before
    // delivering_ clears, so wait_quiescent also covers what they post.
    if (handler) {
      // Promote the payload to shared ownership (vector move, no byte
      // copy): decoded blob params and batch members can then alias it.
      handler(frame.src, Buffer::adopt(std::move(frame.payload)));
    }
    if (link_idle) notify_idle(frame.src, frame.dst);
    lock.lock();
    delivering_ = false;
    idle_cv_.notify_all();
  }
}

bool Network::leave_link_locked(NodeId src, NodeId dst) {
  auto it = last_due_.find(link_key(src, dst));
  if (it == last_due_.end() || it->second.in_flight == 0) return false;
  return --it->second.in_flight == 0 &&
         std::exchange(it->second.idle_wanted, false);
}

bool Network::link_busy(NodeId src, NodeId dst) {
  std::scoped_lock lock(mu_);
  auto it = last_due_.find(link_key(src, dst));
  if (it == last_due_.end() || it->second.in_flight == 0) return false;
  it->second.idle_wanted = true;
  return true;
}

TransportStats Network::transport_stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

SimFaultStats Network::fault_stats() const {
  std::scoped_lock lock(mu_);
  return fault_stats_;
}

std::size_t Network::node_count() const {
  std::scoped_lock lock(mu_);
  return node_names_.size();
}

std::string Network::node_name(NodeId id) const {
  std::scoped_lock lock(mu_);
  if (id >= node_names_.size()) {
    raise(ErrorCode::kNetwork, "unknown node id");
  }
  return node_names_[id];
}

void Network::wait_quiescent() const {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && !delivering_; });
}

}  // namespace alps::net
