#include "net/rpc.h"

#include <atomic>

#include "core/error.h"
#include "net/directory.h"
#include "support/log.h"
#include "support/thread_util.h"

namespace alps::net {

namespace {

/// Upper bound on cached at-most-once entries per caller. Acks normally keep
/// tables tiny; the bound is the backstop for a caller that never acks
/// (entries with responses already sent are evicted oldest-first).
constexpr std::size_t kMaxDedupPerCaller = 256;

/// Upper bound on kWrongNode hops a single request will follow. Routing
/// converges in one hop when placement is stable; a bound this generous only
/// trips when hosts chase each other indefinitely, and the call then fails
/// typed instead of ping-ponging forever.
constexpr int kMaxRedirects = 8;

/// Patches the piggybacked ack watermark inside a stored request frame
/// (little-endian u64 at kRequestAckOffset) without re-encoding — the
/// req_id/epoch dedup key bytes stay untouched across a re-route.
void patch_request_ack(FrameBuilder& frame, std::uint64_t ack) {
  frame.patch_u64(kRequestAckOffset, ack);
}

/// Dedup epochs distinguish distinct Node incarnations, so a fresh node
/// whose req_ids restart at 1 can never be answered from a predecessor's
/// cached responses.
std::atomic<std::uint64_t> g_next_epoch{1};

}  // namespace

const char* to_string(RpcCause cause) {
  switch (cause) {
    case RpcCause::kTimeout: return "rpc timeout";
    case RpcCause::kPartitioned: return "rpc partitioned";
    case RpcCause::kObjectNotFound: return "rpc object not found";
    case RpcCause::kRemoteError: return "rpc remote error";
    case RpcCause::kCancelled: return "rpc cancelled";
    case RpcCause::kShutdown: return "rpc node shutdown";
    case RpcCause::kObjectDown: return "rpc object down";
  }
  return "rpc error";
}

Result<ValueList, RpcError> RpcHandle::result() {
  try {
    return state_->get();
  } catch (const RpcError& e) {
    return e;
  } catch (const Error& e) {
    // Non-RPC Error escaping the wire layer (should not happen) — surface
    // as a remote error rather than throwing through the no-throw surface.
    return RpcError(RpcCause::kRemoteError, e.what());
  }
}

void RpcHandle::cancel() {
  if (node_) node_->cancel_request(req_id_);
}

// ---- RemoteObject ----------------------------------------------------------

RpcHandle RemoteObject::async_call(const std::string& entry, ValueList params,
                                   const CallOptions& opts) {
  if (!node_) raise(ErrorCode::kNetwork, "invalid RemoteObject");
  std::uint64_t req_id = 0;
  auto state =
      by_name_ ? node_->start_named_call(object_name_, entry, std::move(params),
                                         opts, &req_id)
               : node_->start_call(target_, object_name_, entry,
                                   std::move(params), opts, &req_id);
  return RpcHandle(std::move(state), node_, req_id);
}

Result<ValueList, RpcError> RemoteObject::call(const std::string& entry,
                                               ValueList params,
                                               const CallOptions& opts) {
  return async_call(entry, std::move(params), opts).result();
}

// ---- Node lifecycle --------------------------------------------------------

Node::Node(Transport& transport, const std::string& name)
    : transport_(&transport),
      name_(name),
      epoch_(g_next_epoch.fetch_add(1, std::memory_order_relaxed)),
      rng_(std::hash<std::string>{}(name) ^ 0x414c50534e455455ull) {
  id_ = transport.add_node(name);
  transport.set_handler(id_, [this](NodeId src, Buffer payload) {
    dispatch_payload(src, payload, /*batched=*/false);
  });
  membership_token_ = transport.add_membership_listener(
      [this](NodeId peer, bool added) { on_membership(peer, added); });
  timer_thread_ = std::jthread([this](std::stop_token st) { retry_loop(st); });
}

void Node::on_membership(NodeId peer, bool added) {
  if (added) return;
  // A departed peer: flush its batch buffer now — the transport fail-fasts
  // the post (counted dropped) instead of the members waiting for an idle
  // transition that never comes — and drop routes naming it so the next
  // call re-resolves.
  if (auto* b = batcher_raw_.load(std::memory_order_acquire)) {
    b->flush_peer(peer);
  }
  std::scoped_lock lock(mu_);
  std::erase_if(route_cache_,
                [peer](const auto& kv) { return kv.second.contains(peer); });
}

Node::~Node() {
  // Listener first: a membership change must not call into a dying node.
  transport_->remove_membership_listener(membership_token_);
  // Deregister so late frames are counted as drops instead of running into
  // a destroyed node.
  transport_->set_handler(id_, nullptr);
  timer_thread_.request_stop();
  {
    std::scoped_lock lock(mu_);  // pairs with the retry loop's wait
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Retire the batcher after the retry thread (its last posts still coalesce)
  // and before orphaning pending calls; its destructor flushes residue.
  retire_batcher();
  // Fail anything still waiting for a response.
  std::vector<std::pair<std::shared_ptr<CallState>, std::string>> orphans;
  {
    std::scoped_lock lock(mu_);
    for (auto& [req, p] : pending_) orphans.emplace_back(p.state, p.label);
    pending_.clear();
    outstanding_.clear();
  }
  for (auto& [state, label] : orphans) {
    state->fail(std::make_exception_ptr(RpcError(
        RpcCause::kShutdown, label + ": node " + name_ + " shut down")));
  }
}

void Node::host(Object& object) {
  {
    std::scoped_lock lock(mu_);
    hosted_[object.name()] = &object;
  }
  // Register after the local table so a request racing the registration
  // finds the object hosted. Migration order is host(new) then unhost(old):
  // the directory entry just moves (last-writer-wins), never disappears.
  transport_->directory().add(object.name(), id_);
}

void Node::unhost(const std::string& object_name) {
  {
    std::scoped_lock lock(mu_);
    hosted_.erase(object_name);
  }
  // Conditional removal: after a migration the entry names the new home and
  // this unhost must leave it alone.
  transport_->directory().remove(object_name, id_);
}

RemoteObject Node::remote(NodeId target, const std::string& object_name) {
  return RemoteObject(this, target, object_name);
}

RemoteObject Node::remote(const std::string& object_name) {
  return RemoteObject(this, object_name);
}

Result<ValueList, RpcError> Node::call(const std::string& object,
                                       const std::string& entry,
                                       ValueList params,
                                       const CallOptions& opts) {
  return async_call(object, entry, std::move(params), opts).result();
}

RpcHandle Node::async_call(const std::string& object, const std::string& entry,
                           ValueList params, const CallOptions& opts) {
  return remote(object).async_call(entry, std::move(params), opts);
}

void Node::set_batching(const BatchOptions& options) {
  // Quiesce the old batcher (if any) before swapping: posting threads read
  // batcher_raw_ with acquire ordering, so publish the new one last.
  retire_batcher();
  batcher_ = std::make_unique<FrameBatcher>(
      options,
      [this](NodeId dst, FrameBuilder frame) {
        // Flushes stay in scatter-gather form all the way to the transport,
        // so batch envelopes ride a socket backend's writev path too.
        transport_->post(id_, dst, std::move(frame));
      },
      [this](NodeId dst) { return transport_->link_busy(id_, dst); });
  batcher_raw_.store(batcher_.get(), std::memory_order_release);
  // Installed only with batching on; only the batcher's link_busy queries
  // arm the transport's idle notifications.
  transport_->set_idle_handler(id_, [this](NodeId dst) {
    if (auto* b = batcher_raw_.load(std::memory_order_acquire)) {
      b->on_link_idle(dst);
    }
  });
}

void Node::retire_batcher() {
  if (!batcher_) return;
  // The handler first: set_idle_handler waits out a call still draining
  // into the batcher about to be destroyed.
  transport_->set_idle_handler(id_, nullptr);
  batcher_raw_.store(nullptr, std::memory_order_release);
  batcher_.reset();
}

void Node::flush_batches() {
  if (auto* b = batcher_raw_.load(std::memory_order_acquire)) b->flush_all();
}

FrameBatcher::Stats Node::batch_stats() const {
  if (auto* b = batcher_raw_.load(std::memory_order_acquire)) {
    return b->stats();
  }
  return {};
}

std::optional<NodeId> Node::cached_route(const std::string& object) const {
  std::scoped_lock lock(mu_);
  auto it = route_cache_.find(object);
  if (it == route_cache_.end() || it->second.homes.empty()) {
    return std::nullopt;
  }
  return it->second.primary();
}

void Node::post_frame(NodeId dst, FrameBuilder frame) {
  if (auto* b = batcher_raw_.load(std::memory_order_acquire)) {
    // Hand the scatter-gather form to the batcher: payload slices stay
    // referenced until the envelope's single build (or scattered write).
    b->enqueue(dst, std::move(frame));
    return;
  }
  transport_->post(id_, dst, std::move(frame));
}

void Node::export_channel(const ChannelRef& channel) {
  std::scoped_lock lock(mu_);
  exported_channels_[channel->id()] = channel;
}

std::pair<std::uint64_t, std::uint64_t> Node::encode_channel(
    const ChannelRef& channel) {
  std::scoped_lock lock(mu_);
  // A proxy re-encodes as its *home* name so channels can be forwarded
  // through intermediaries; a local channel is exported under this node.
  for (auto& [home, by_id] : proxies_) {
    for (auto& [id, weak] : by_id) {
      if (weak.lock() == channel) return {home, id};
    }
  }
  exported_channels_[channel->id()] = channel;
  return {id_, channel->id()};
}

ChannelRef Node::decode_channel(std::uint64_t node, std::uint64_t id) {
  std::scoped_lock lock(mu_);
  if (node == id_) {
    auto it = exported_channels_.find(id);
    if (it == exported_channels_.end()) {
      raise(ErrorCode::kBadMessage,
            "frame names unknown local channel #" + std::to_string(id));
    }
    return it->second;
  }
  auto& by_id = proxies_[node];
  if (auto it = by_id.find(id); it != by_id.end()) {
    if (auto existing = it->second.lock()) return existing;
  }
  ChannelRef proxy = make_channel("proxy:" + std::to_string(node) + "/" +
                                  std::to_string(id));
  proxy->set_forward([this, node, id](ValueList message) {
    FrameBuilder payload;
    payload.put_u8(static_cast<std::uint8_t>(MsgType::kChanSend));
    payload.put_u64(id);
    encode_list(message, payload, this);
    post_frame(node, std::move(payload));
    return true;
  });
  by_id[id] = proxy;
  return proxy;
}

// ---- client side -----------------------------------------------------------

std::shared_ptr<CallState> Node::start_call(NodeId target,
                                            const std::string& object_name,
                                            const std::string& entry,
                                            ValueList params,
                                            const CallOptions& opts,
                                            std::uint64_t* req_id_out,
                                            std::uint8_t flags) {
  auto state = std::make_shared<CallState>();
  std::uint64_t req_id;
  std::uint64_t ack;
  {
    std::scoped_lock lock(mu_);
    req_id = next_req_++;
    // Watermark: every id <= ack has completed (or failed) locally and will
    // never be retransmitted, so the server may evict its dedup entries.
    // Computed before inserting req_id, so ack < req_id always holds.
    ack = ack_watermark_locked(target);
    outstanding_[target].insert(req_id);
    last_sent_[target] = req_id;
  }
  if (req_id_out) *req_id_out = req_id;

  FrameBuilder payload;
  // Ship the deadline so the serving kernel enforces it at the object, not
  // just this side's retry timer.
  const std::uint64_t deadline_ms =
      opts.deadline.count() > 0
          ? static_cast<std::uint64_t>(opts.deadline.count())
          : 0;
  encode_request_header(
      RequestHeader{req_id, epoch_, ack, deadline_ms, object_name, entry,
                    flags},
      payload);
  encode_list(params, payload, this);  // resolver locks mu_; keep it released

  const auto now = std::chrono::steady_clock::now();
  auto overall = std::chrono::steady_clock::time_point::max();
  if (opts.deadline.count() > 0) overall = now + opts.deadline;
  bool wake_timer = false;
  {
    std::scoped_lock lock(mu_);
    Pending p;
    p.state = state;
    p.target = target;
    p.object = object_name;
    p.label = object_name + "." + entry;
    p.frame = payload;  // re-sendable copy: arena + slice refcounts, O(1)/byte
    p.retry = opts.retry.has_value();
    if (p.retry) {
      p.policy = *opts.retry;
      p.backoff = std::chrono::duration_cast<std::chrono::microseconds>(
          p.policy.initial_backoff);
    }
    p.overall_deadline = overall;
    auto due = std::chrono::steady_clock::time_point::max();
    if (p.retry) due = now + p.policy.attempt_timeout;
    if (overall < due) due = overall;
    pending_.emplace(req_id, std::move(p));
    if (due != std::chrono::steady_clock::time_point::max()) {
      timers_.push(TimerEntry{due, req_id});
      // The retry thread sleeps until the earliest timer; only a new
      // earliest one moves its wakeup. Calls without a timer never wake it.
      wake_timer = timers_.top().req_id == req_id;
    }
  }
  if (wake_timer) timer_cv_.notify_all();
  post_frame(target, std::move(payload));
  return state;
}

std::shared_ptr<CallState> Node::start_named_call(
    const std::string& object_name, const std::string& entry, ValueList params,
    const CallOptions& opts, std::uint64_t* req_id_out) {
  // Resolve: per-node cache first, then the cluster directory. The cache may
  // be stale after a migration or shard split — that is fine, the wrong node
  // answers with a kWrongNode redirect (shard-precise for sharded entries)
  // and handle_wrong_node re-routes in-band.
  //
  // Sharded/replicated routing hashes the call's first parameter — the
  // paper's "initial subsequence" dispatch, applied to placement — before
  // resolving, so the same key deterministically lands on the same home.
  const std::uint64_t key_hash =
      params.empty() ? 0 : shard_key_hash(params.front());
  std::optional<Placement> placement;
  {
    std::scoped_lock lock(mu_);
    if (auto it = route_cache_.find(object_name); it != route_cache_.end()) {
      placement = it->second;
    }
  }
  if (!placement) {
    placement = transport_->directory().placement(object_name);
    if (placement) {
      std::scoped_lock lock(mu_);
      route_cache_[object_name] = *placement;
    }
  }
  std::optional<NodeId> target;
  if (placement && !placement->homes.empty()) {
    target = placement->route(key_hash, opts.read);
  }
  if (!target) {
    // Nothing in the cluster has ever hosted this name: fail typed without
    // touching the network (attempts = 0 — no frame was sent).
    auto state = std::make_shared<CallState>();
    {
      std::scoped_lock lock(mu_);
      ++client_stats_.failures;
    }
    state->fail(std::make_exception_ptr(
        RpcError(RpcCause::kObjectNotFound,
                 object_name + "." + entry + ": no directory entry", 0)));
    if (req_id_out) *req_id_out = 0;
    return state;
  }
  return start_call(*target, object_name, entry, std::move(params), opts,
                    req_id_out, opts.read ? kRequestFlagReadOnly : 0);
}

std::uint64_t Node::ack_watermark_locked(NodeId target) const {
  std::uint64_t ack = 0;
  auto oit = outstanding_.find(target);
  if (oit != outstanding_.end() && !oit->second.empty()) {
    ack = *oit->second.begin() - 1;
  } else if (auto lit = last_sent_.find(target); lit != last_sent_.end()) {
    // Idle towards this target: nothing at or below the last id we ever sent
    // it can retransmit there...
    ack = lit->second;
  }
  // ...unless a kWrongNode redirect migrates a still-outstanding id onto
  // this link later. Cap at the globally smallest outstanding id so the
  // promise holds across re-routes (without redirects this never lowers the
  // per-target value, preserving the original single-target semantics).
  for (const auto& [node, ids] : outstanding_) {
    if (!ids.empty() && *ids.begin() - 1 < ack) ack = *ids.begin() - 1;
  }
  return ack;
}

FrameBuilder Node::finish_pending_locked(std::uint64_t req_id, NodeId target) {
  pending_.erase(req_id);
  FrameBuilder ack;
  auto oit = outstanding_.find(target);
  if (oit != outstanding_.end()) {
    oit->second.erase(req_id);
    if (oit->second.empty()) {
      // Caller went idle towards this target: tell it to evict everything
      // at or below the watermark (nothing there can retransmit).
      encode_ack(ack_watermark_locked(target), ack);
    }
  }
  return ack;
}

void Node::retry_loop(const std::stop_token& st) {
  support::set_current_thread_name("net/retry");
  std::unique_lock lock(mu_);
  while (!st.stop_requested()) {
    if (timers_.empty()) {
      timer_cv_.wait(lock, [&] {
        return st.stop_requested() || !timers_.empty();
      });
      continue;
    }
    const auto due = timers_.top().due;
    if (std::chrono::steady_clock::now() < due) {
      timer_cv_.wait_until(lock, due, [&] {
        return st.stop_requested() ||
               (!timers_.empty() &&
                timers_.top().due <= std::chrono::steady_clock::now());
      });
      continue;
    }
    const std::uint64_t req_id = timers_.top().req_id;
    timers_.pop();
    auto it = pending_.find(req_id);
    if (it == pending_.end() || it->second.state->ready()) continue;  // stale
    Pending& p = it->second;
    const auto now = std::chrono::steady_clock::now();
    const bool attempts_left =
        p.retry &&
        (p.policy.max_attempts == 0 || p.attempts < p.policy.max_attempts);
    if (now >= p.overall_deadline || !attempts_left) {
      auto state = p.state;
      const int attempts = p.attempts;
      const NodeId target = p.target;
      std::string what = p.label + " to node " + std::to_string(target) +
                         " unanswered after " + std::to_string(attempts) +
                         " attempt(s)";
      auto ack = finish_pending_locked(req_id, target);
      ++client_stats_.failures;
      if (!ack.empty()) ++client_stats_.acks_sent;
      const bool partitioned = transport_->is_partitioned(id_, target);
      lock.unlock();
      state->fail(std::make_exception_ptr(
          RpcError(partitioned ? RpcCause::kPartitioned : RpcCause::kTimeout,
                   what, attempts)));
      if (!ack.empty()) post_frame(target, std::move(ack));
      lock.lock();
      continue;
    }
    // Retransmit now; the next timer fires after jittered backoff + the
    // attempt timeout (a TCP-RTO-style growing retransmit interval).
    ++p.attempts;
    ++client_stats_.retransmits;
    const NodeId target = p.target;
    FrameBuilder payload = p.frame;
    double jitter_scale = 1.0;
    if (p.policy.jitter > 0.0) {
      jitter_scale += p.policy.jitter * (rng_.next_double() * 2.0 - 1.0);
    }
    auto backoff = std::chrono::duration_cast<std::chrono::microseconds>(
        p.backoff * jitter_scale);
    auto next_backoff = std::chrono::duration_cast<std::chrono::microseconds>(
        p.backoff * p.policy.multiplier);
    const auto cap = std::chrono::duration_cast<std::chrono::microseconds>(
        p.policy.max_backoff);
    p.backoff = next_backoff < cap ? next_backoff : cap;
    auto next_due = now + backoff + p.policy.attempt_timeout;
    if (p.overall_deadline < next_due) next_due = p.overall_deadline;
    timers_.push(TimerEntry{next_due, req_id});
    lock.unlock();
    post_frame(target, std::move(payload));
    lock.lock();
  }
}

void Node::cancel_request(std::uint64_t req_id) {
  std::shared_ptr<CallState> state;
  std::string label;
  NodeId target = 0;
  FrameBuilder ack;
  {
    std::scoped_lock lock(mu_);
    auto it = pending_.find(req_id);
    if (it == pending_.end()) return;  // already answered
    state = it->second.state;
    label = it->second.label;
    target = it->second.target;
    ack = finish_pending_locked(req_id, target);
    ++client_stats_.failures;
    if (!ack.empty()) ++client_stats_.acks_sent;
  }
  state->fail(std::make_exception_ptr(RpcError(
      RpcCause::kCancelled,
      label + ": request #" + std::to_string(req_id) + " cancelled")));
  if (!ack.empty()) post_frame(target, std::move(ack));
}

// ---- frame dispatch --------------------------------------------------------

void Node::dispatch_payload(NodeId from, const Buffer& payload,
                            bool batched) {
  std::size_t pos = 0;
  try {
    const auto type = static_cast<MsgType>(get_u8(payload, pos));
    switch (type) {
      case MsgType::kRequest:
        handle_request(from, payload, pos);
        return;
      case MsgType::kResponse:
        handle_response(from, payload, pos);
        return;
      case MsgType::kChanSend:
        handle_chan_send(payload, pos);
        return;
      case MsgType::kAck:
        handle_ack(from, payload, pos);
        return;
      case MsgType::kWrongNode:
        handle_wrong_node(from, payload, pos);
        return;
      case MsgType::kBatch: {
        if (batched) raise(ErrorCode::kBadMessage, "nested batch frame");
        // Members dispatch in order, preserving the link's FIFO semantics.
        // Each member is its own dispatch: one malformed member is dropped
        // without taking down its batch-mates.
        const auto members = decode_batch(payload, pos);
        for (const auto& member : members) {
          dispatch_payload(from, member, /*batched=*/true);
        }
        return;
      }
    }
    raise(ErrorCode::kBadMessage, "unknown frame type");
  } catch (const Error& e) {
    ALPS_LOG_WARN("node %s: dropping bad frame from %llu: %s", name_.c_str(),
                  static_cast<unsigned long long>(from), e.what());
  }
}

void Node::handle_wrong_node(NodeId /*from*/, const Buffer& payload,
                             std::size_t pos) {
  const WrongNodeHeader header = decode_wrong_node(payload, pos);
  std::shared_ptr<CallState> failed_state;
  std::string failed_what;
  int failed_attempts = 1;
  FrameBuilder ack;
  NodeId ack_target = 0;
  FrameBuilder resend;
  {
    std::scoped_lock lock(mu_);
    // The redirect carries fresh placement news; fold it into the route
    // cache even if the call it answers is already gone. A shard hint
    // patches exactly one slot of the cached map — per-key convergence with
    // no global barrier — while a shard-less hint re-homes the whole object.
    auto cit = route_cache_.find(header.object);
    if (header.shard == kWrongNodeNoShard) {
      const bool cached_multi = cit != route_cache_.end() &&
                                cit->second.mode != PlacementMode::kSingle;
      if (!cached_multi ||
          (cit != route_cache_.end() &&
           header.map_epoch > cit->second.epoch)) {
        // Whole-object re-home (classic migration), or news strictly newer
        // than the cached multi-home map. A stale-epoch shard-less hint must
        // NOT collapse a fresher shard/replica map to one node — the one
        // request still re-routes below; the map stays.
        Placement p;
        p.mode = PlacementMode::kSingle;
        p.homes = {header.home};
        p.epoch = header.map_epoch;
        route_cache_[header.object] = std::move(p);
      }
    } else if (cit != route_cache_.end() &&
               cit->second.mode == PlacementMode::kSharded &&
               header.map_epoch >= cit->second.epoch) {
      // Patch the hinted slot. A hint past the cached map's end means the
      // map grew (shard split): extend it, guessing the old layout for the
      // unknown new slots — wrong guesses self-heal one redirect per key,
      // and jump hashing keeps every unmoved key's old slot valid.
      Placement& p = cit->second;
      if (header.shard >= p.homes.size()) {
        p.homes.resize(header.shard + 1, p.homes.front());
      }
      p.homes[header.shard] = header.home;
      p.epoch = header.map_epoch;
    } else if (cit == route_cache_.end() ||
               cit->second.mode == PlacementMode::kSingle) {
      // First shard-precise news for a map we believed single-homed: build a
      // minimal sharded view around the hint and let redirects fill it in.
      const NodeId fallback = cit != route_cache_.end()
                                  ? cit->second.primary()
                                  : header.home;
      Placement p;
      p.mode = PlacementMode::kSharded;
      p.homes.assign(header.shard + 1, fallback);
      p.homes[header.shard] = header.home;
      p.epoch = header.map_epoch;
      route_cache_[header.object] = std::move(p);
    } else {
      // Shard hint against a cached replicated map (placement mode changed
      // under us): drop the entry and re-resolve from the directory next
      // call rather than guess.
      route_cache_.erase(cit);
    }
    auto it = pending_.find(header.req_id);
    if (it == pending_.end()) {
      ++client_stats_.stale_responses;
      return;
    }
    Pending& p = it->second;
    if (p.target == header.home) {
      // Duplicate redirect for a re-route already taken: the retry timer
      // owns retransmission towards the new home, nothing to do.
      return;
    }
    if (p.redirects >= kMaxRedirects) {
      failed_state = p.state;
      failed_attempts = p.attempts;
      failed_what = p.label + ": routing did not converge after " +
                    std::to_string(p.redirects) + " redirects";
      ack_target = p.target;
      ack = finish_pending_locked(header.req_id, ack_target);
      ++client_stats_.failures;
      if (!ack.empty()) ++client_stats_.acks_sent;
    } else {
      // Migrate the outstanding id old link → new link. The dedup key
      // (req_id, epoch) in the stored frame is untouched; only the
      // piggybacked ack is re-patched, and only after the id is registered
      // against the new target so the watermark can never cover it.
      ++p.redirects;
      ++client_stats_.redirects;
      auto oit = outstanding_.find(p.target);
      if (oit != outstanding_.end()) oit->second.erase(header.req_id);
      p.target = header.home;
      outstanding_[header.home].insert(header.req_id);
      auto& last = last_sent_[header.home];
      if (last < header.req_id) last = header.req_id;
      patch_request_ack(p.frame, ack_watermark_locked(header.home));
      resend = p.frame;  // the retry timer keeps covering loss of this copy
    }
  }
  if (failed_state) {
    failed_state->fail(std::make_exception_ptr(RpcError(
        RpcCause::kObjectNotFound, failed_what, failed_attempts)));
    if (!ack.empty()) post_frame(ack_target, std::move(ack));
    return;
  }
  post_frame(header.home, std::move(resend));
}

// ---- server side -----------------------------------------------------------

void Node::evict_dedup_locked(CallerTable& table, std::uint64_t ack_through) {
  if (ack_through > table.acked_through) table.acked_through = ack_through;
  auto it = table.entries.begin();
  while (it != table.entries.end() && it->first <= ack_through) {
    it = table.entries.erase(it);
    ++server_stats_.dedup_evicted;
  }
}

void Node::shrink_dedup_locked(CallerTable& table) {
  // Oldest-first over *done* entries only; bound_evicted_through remembers
  // the newest id dropped this way so its retransmission is refused typed
  // (handle_request) instead of silently re-executed.
  auto it = table.entries.begin();
  while (it != table.entries.end() &&
         table.entries.size() > kMaxDedupPerCaller) {
    if (it->second.done) {
      if (it->first > table.bound_evicted_through) {
        table.bound_evicted_through = it->first;
      }
      it = table.entries.erase(it);
      ++server_stats_.dedup_evicted;
    } else {
      ++it;
    }
  }
}

void Node::handle_request(NodeId from, const Buffer& payload,
                          std::size_t pos) {
  const RequestHeader header = decode_request_header(payload, pos);
  ValueList params = decode_list(payload, pos, this);

  // Ownership check for multi-home placements: hosting the name is not
  // enough — this node must be the key's shard home (or, for a read of a
  // replicated entry, any member). Computed against the live directory
  // before taking mu_ (the directory has its own lock; never nest them).
  const bool read_only = (header.flags & kRequestFlagReadOnly) != 0;
  const std::uint64_t key_hash =
      params.empty() ? 0 : shard_key_hash(params.front());
  const auto decision =
      transport_->directory().route(header.object, key_hash, read_only, id_);
  bool owner = true;
  if (decision) {
    switch (decision->mode) {
      case PlacementMode::kSingle:
        // Hosting wins over a (possibly stale-replica) directory entry —
        // preserves migration semantics where host(new) precedes the
        // directory catching up on other replicas.
        owner = true;
        break;
      case PlacementMode::kSharded:
        owner = decision->home == id_;
        break;
      case PlacementMode::kReplicated:
        owner = read_only ? decision->member : decision->home == id_;
        break;
    }
  }

  // At-most-once gate: a retransmission of an executed request replays the
  // cached response; one still executing is dropped (its response will go
  // out when the body finishes). Only a first arrival of a locally hosted
  // object dispatches — misrouted requests leave no dedup state at all.
  FrameBuilder replay;
  FrameBuilder reject;
  bool in_flight_dup = false;
  Object* object = nullptr;
  {
    std::scoped_lock lock(mu_);
    ++server_stats_.requests_received;
    auto& table = dedup_[from];
    if (table.epoch != header.epoch) {
      // New caller incarnation: its req_ids restart, so the old cache is
      // not just stale but wrong. Flush it.
      server_stats_.dedup_evicted += table.entries.size();
      table.entries.clear();
      table.acked_through = 0;
      table.bound_evicted_through = 0;
      table.epoch = header.epoch;
    }
    evict_dedup_locked(table, header.ack_through);
    if (header.req_id <= table.acked_through) {
      // A network-level duplicate of a call the caller already acked: its
      // dedup entry is gone, but the ack guarantees the caller has the
      // result, so re-executing would break at-most-once. Drop it.
      ++server_stats_.dup_acked;
      return;
    }
    if (auto it = table.entries.find(header.req_id);
        it != table.entries.end()) {
      if (it->second.done) {
        replay = it->second.response;
        replay.patch_u8_or(kResponseFlagsOffset, kResponseFlagReplayed);
        ++server_stats_.dedup_replayed;
      } else {
        ++server_stats_.dup_in_flight;
        in_flight_dup = true;
      }
    } else if (header.req_id <= table.bound_evicted_through) {
      // The size-bound backstop discarded this id's entry while un-acked, so
      // its body may already have run and the cached response is gone.
      // Refuse typed rather than re-dispatch — at-most-once beats availability
      // here, and only a pathological (ack-less) caller can reach this.
      ++server_stats_.dedup_rejected;
      encode_response_header(
          ResponseHeader{header.req_id, WireCause::kRemoteError, 0}, reject);
      reject.put_string(
          "at-most-once entry evicted under the per-caller bound; "
          "result unknown, refusing to re-execute");
    } else if (auto hit = hosted_.find(header.object);
               hit != hosted_.end() && owner) {
      object = hit->second;
      table.entries.emplace(header.req_id, DedupEntry{});
      // Backstop for ack-less callers: drop oldest completed entries.
      shrink_dedup_locked(table);
    }
    // Not hosted — or hosted but not this key's owner (stale shard map on
    // the caller): fall through with object == nullptr; the redirect /
    // not-found answer is stateless (no dedup entry), so a duplicate just
    // earns another redirect and the table never learns misrouted ids.
  }
  if (in_flight_dup) return;
  if (!replay.empty()) {
    post_frame(from, std::move(replay));
    return;
  }
  if (!reject.empty()) {
    post_frame(from, std::move(reject));
    return;
  }
  if (!object) {
    // `decision` was read before mu_, so a migration (host at the new home,
    // then unhost here) can land in between and leave it naming this node
    // for an object no longer hosted here. Read the directory again: the
    // new home registered before this node unhosted.
    auto route = decision;
    if (!route || route->home == id_) {
      route = transport_->directory().route(header.object, key_hash,
                                            read_only, id_);
    }
    FrameBuilder out;
    if (route && route->home != id_) {
      // The directory knows a better home for this key: redirect instead of
      // failing, so a stale client route heals in one extra hop. The hint
      // is shard-precise (shard index + map epoch) so a client with a stale
      // shard map patches exactly one slot — a live split converges key by
      // key with no global barrier.
      encode_wrong_node(WrongNodeHeader{header.req_id, route->home,
                                        header.object, route->shard,
                                        route->epoch},
                        out);
      std::scoped_lock lock(mu_);
      ++server_stats_.wrong_node_redirects;
    } else {
      encode_response_header(
          ResponseHeader{header.req_id, WireCause::kObjectNotFound, 0}, out);
      out.put_string("no such object: " + header.object);
    }
    post_frame(from, std::move(out));
    return;
  }

  auto respond = [this, from, req_id = header.req_id, epoch = header.epoch](
                     WireCause cause, ValueList results,
                     const std::string& error) {
    FrameBuilder out;
    encode_response_header(ResponseHeader{req_id, cause, 0}, out);
    if (cause == WireCause::kOk) {
      encode_list(results, out, this);
    } else {
      out.put_string(error);
    }
    {
      std::scoped_lock lock(mu_);
      auto dit = dedup_.find(from);
      if (dit != dedup_.end() && dit->second.epoch == epoch) {
        if (auto eit = dit->second.entries.find(req_id);
            eit != dit->second.entries.end()) {
          eit->second.done = true;
          eit->second.response = out;
        }
        // The insert-time bound cannot evict in-flight entries, so a burst
        // from an ack-less caller can overrun the cap; shrink back as the
        // bodies complete.
        shrink_dedup_locked(dit->second);
      }
    }
    post_frame(from, std::move(out));
  };

  // Typed kernel failures cross the wire as their own causes; everything
  // else (entry body threw, no such entry, object stopped) stays
  // kRemoteError.
  auto wire_cause_of = [](const Error& e) {
    switch (e.code()) {
      case ErrorCode::kTimeout: return WireCause::kTimeout;
      case ErrorCode::kCancelled: return WireCause::kCancelled;
      case ErrorCode::kObjectDown: return WireCause::kObjectDown;
      default: return WireCause::kRemoteError;
    }
  };

  CallHandle handle;
  try {
    // Apply the caller's deadline inside the serving kernel: the hosted call
    // is unqueued/abandoned on expiry and the timeout travels back typed.
    alps::CallOptions kernel_opts;
    if (header.deadline_ms > 0) {
      kernel_opts.deadline = std::chrono::milliseconds(header.deadline_ms);
    }
    handle = kernel_opts.none()
                 ? object->async_call(header.entry, std::move(params))
                 : object->async_call(header.entry, std::move(params),
                                      kernel_opts);
    std::scoped_lock lock(mu_);
    ++server_stats_.dispatched;
  } catch (const Error& e) {
    respond(wire_cause_of(e), {}, e.what());
    return;
  } catch (const std::exception& e) {
    respond(WireCause::kRemoteError, {}, e.what());
    return;
  }
  // Send the response from whichever thread completes the call (typically
  // the object's manager at finish); posting a frame never blocks.
  handle.state()->on_complete([respond, wire_cause_of](CallState& state) {
    try {
      respond(WireCause::kOk, state.get(), "");
    } catch (const Error& e) {
      respond(wire_cause_of(e), {}, e.what());
    } catch (const std::exception& e) {
      respond(WireCause::kRemoteError, {}, e.what());
    }
  });
}

void Node::handle_response(NodeId from, const Buffer& payload,
                           std::size_t pos) {
  const ResponseHeader header = decode_response_header(payload, pos);
  // Decode the body before touching bookkeeping so a corrupt frame cannot
  // orphan the pending entry (the retry timer keeps owning it).
  ValueList results;
  std::string error;
  if (header.cause == WireCause::kOk) {
    results = decode_list(payload, pos, this);
  } else {
    error = get_string(payload, pos);
  }
  std::shared_ptr<CallState> state;
  int attempts = 1;
  FrameBuilder ack;
  {
    std::scoped_lock lock(mu_);
    auto it = pending_.find(header.req_id);
    if (it == pending_.end()) {
      // Late (post-timeout/cancel), duplicate, or post-shutdown response:
      // req_ids are never reused, so dropping it is always correct.
      ++client_stats_.stale_responses;
      return;
    }
    state = it->second.state;
    attempts = it->second.attempts;
    if (header.cause == WireCause::kObjectNotFound) {
      // The route we used no longer serves this object and the directory
      // had nothing better (a redirect would have come instead). Drop the
      // cached route so the next name-based call re-resolves.
      auto rit = route_cache_.find(it->second.object);
      if (rit != route_cache_.end() && rit->second.contains(from)) {
        route_cache_.erase(rit);
      }
    }
    ack = finish_pending_locked(header.req_id, from);
    if (!ack.empty()) ++client_stats_.acks_sent;
  }
  if (header.cause == WireCause::kOk) {
    state->complete(std::move(results));
  } else {
    RpcCause cause = RpcCause::kRemoteError;
    switch (header.cause) {
      case WireCause::kObjectNotFound: cause = RpcCause::kObjectNotFound; break;
      case WireCause::kTimeout: cause = RpcCause::kTimeout; break;
      case WireCause::kCancelled: cause = RpcCause::kCancelled; break;
      case WireCause::kObjectDown: cause = RpcCause::kObjectDown; break;
      default: break;
    }
    state->fail(std::make_exception_ptr(RpcError(cause, error, attempts)));
  }
  if (!ack.empty()) post_frame(from, std::move(ack));
}

void Node::handle_ack(NodeId from, const Buffer& payload,
                      std::size_t pos) {
  const std::uint64_t ack_through = decode_ack(payload, pos);
  std::scoped_lock lock(mu_);
  auto it = dedup_.find(from);
  if (it == dedup_.end()) return;
  evict_dedup_locked(it->second, ack_through);
}

void Node::handle_chan_send(const Buffer& payload, std::size_t pos) {
  const std::uint64_t chan_id = get_u64(payload, pos);
  ValueList message = decode_list(payload, pos, this);
  ChannelRef channel;
  {
    std::scoped_lock lock(mu_);
    auto it = exported_channels_.find(chan_id);
    if (it == exported_channels_.end()) {
      raise(ErrorCode::kBadMessage,
            "chan-send for unknown channel #" + std::to_string(chan_id));
    }
    channel = it->second;
  }
  channel->send(std::move(message));
}

std::size_t Node::inflight() const {
  std::scoped_lock lock(mu_);
  return pending_.size();
}

Node::ServerStats Node::server_stats() const {
  std::scoped_lock lock(mu_);
  return server_stats_;
}

Node::ClientStats Node::client_stats() const {
  std::scoped_lock lock(mu_);
  return client_stats_;
}

std::size_t Node::dedup_entries(NodeId caller) const {
  std::scoped_lock lock(mu_);
  auto it = dedup_.find(caller);
  return it == dedup_.end() ? 0 : it->second.entries.size();
}

}  // namespace alps::net
