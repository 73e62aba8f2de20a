#include "net/batch.h"

#include <iterator>

#include "net/codec.h"

namespace alps::net {

FrameBatcher::FrameBatcher(BatchOptions options, PostFn post, BusyFn busy)
    : options_(options), post_(std::move(post)), busy_(std::move(busy)) {
  if (options_.max_frames == 0) options_.max_frames = 1;
}

FrameBatcher::~FrameBatcher() {
  flush_all();  // residue goes out, late but never lost at this layer
}

FrameBuilder FrameBatcher::take_locked(LinkBuffer& buf) {
  // Up to max_frames members and max_bytes, but always at least one.
  std::size_t n = 0;
  std::size_t bytes = 0;
  while (n < buf.members.size() && n < options_.max_frames &&
         (n == 0 || bytes + buf.members[n].size() <= options_.max_bytes)) {
    bytes += buf.members[n].size();
    ++n;
  }
  buf.bytes -= bytes;
  buffered_ -= n;
  if (n == 1) {
    FrameBuilder single = std::move(buf.members.front());
    buf.members.erase(buf.members.begin());
    ++stats_.singles_posted;
    return single;
  }
  std::vector<FrameBuilder> members;
  if (n == buf.members.size()) {
    members.swap(buf.members);
  } else {
    members.assign(std::make_move_iterator(buf.members.begin()),
                   std::make_move_iterator(buf.members.begin() + n));
    buf.members.erase(buf.members.begin(), buf.members.begin() + n);
  }
  // One envelope, still in scatter-gather form: member headers splice into
  // the envelope's arena, member payload slices stay referenced. Whether
  // the members' bytes ever hit contiguous memory is the transport's call
  // (the sim builds once at post; a socket writes the segments directly).
  FrameBuilder envelope;
  encode_batch(members, envelope);
  stats_.frames_coalesced += n;
  ++stats_.batches_posted;
  return envelope;
}

void FrameBatcher::drain(NodeId dst, LinkBuffer& buf,
                         std::unique_lock<std::mutex>& lock, bool flush) {
  buf.draining = true;
  while (!buf.members.empty()) {
    // Busy is re-read after every post: a frame appended while this thread
    // was posting either leaves here or waits for the idle notification
    // this busy answer arms. An idle notification that arrived during the
    // post saw `draining` and left the buffer to this loop.
    if (full(buf)) {
      ++stats_.size_flushes;
    } else if (!flush && !buf.flush && busy_(dst)) {
      break;
    }
    FrameBuilder frame = take_locked(buf);
    lock.unlock();
    post_(dst, std::move(frame));
    lock.lock();
  }
  buf.draining = false;
  buf.flush = false;
}

void FrameBatcher::enqueue(NodeId dst, FrameBuilder frame) {
  std::unique_lock lock(mu_);
  LinkBuffer& buf = buffers_[dst];
  buf.bytes += frame.size();
  buf.members.push_back(std::move(frame));
  ++buffered_;
  ++stats_.frames_enqueued;
  // An idle link takes the frame at once (a lone member leaves raw); a busy
  // one keeps it until the write in flight finishes or the buffer fills.
  if (!buf.draining) drain(dst, buf, lock, /*flush=*/false);
}

void FrameBatcher::on_link_idle(NodeId dst) {
  std::unique_lock lock(mu_);
  auto it = buffers_.find(dst);
  if (it == buffers_.end()) return;
  LinkBuffer& buf = it->second;
  if (buf.members.empty() || buf.draining) return;
  drain(dst, buf, lock, /*flush=*/false);
}

void FrameBatcher::flush_all() {
  std::unique_lock lock(mu_);
  // Keys first: a drain drops the lock, and an enqueue to a new link may
  // rehash the map under us.
  std::vector<NodeId> dsts;
  dsts.reserve(buffers_.size());
  for (const auto& [dst, buf] : buffers_) dsts.push_back(dst);
  for (NodeId dst : dsts) {
    auto it = buffers_.find(dst);
    if (it == buffers_.end()) continue;
    LinkBuffer& buf = it->second;
    if (buf.draining) {
      buf.flush = true;
    } else if (!buf.members.empty()) {
      drain(dst, buf, lock, /*flush=*/true);
    }
  }
}

void FrameBatcher::flush_peer(NodeId dst) {
  std::unique_lock lock(mu_);
  auto it = buffers_.find(dst);
  if (it == buffers_.end()) return;
  if (it->second.draining) {
    it->second.flush = true;  // its drainer posts the rest; the entry stays
    return;
  }
  drain(dst, it->second, lock, /*flush=*/true);
  // By key: the drain dropped the lock, so `it` may be stale. The flushing
  // drain emptied the buffer, and a departed peer's entry does not linger.
  buffers_.erase(dst);
}

std::size_t FrameBatcher::buffered() const {
  std::scoped_lock lock(mu_);
  return buffered_;
}

FrameBatcher::Stats FrameBatcher::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace alps::net
