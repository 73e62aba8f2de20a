#include "net/transport_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/error.h"
#include "support/log.h"
#include "support/stats.h"
#include "support/thread_util.h"

namespace alps::net {

namespace {

/// Read-buffer granularity for inbound streams. One syscall per chunk; the
/// reassembler handles frames larger or smaller than this transparently.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Most iovecs one sendmsg may carry; longer scatter lists loop.
constexpr std::size_t kIovBatch = 64;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Consumes `n` bytes from the front of iov[idx..], advancing idx.
void advance_iov(std::vector<iovec>& iov, std::size_t& idx, std::size_t n) {
  while (n > 0) {
    if (iov[idx].iov_len <= n) {
      n -= iov[idx].iov_len;
      ++idx;
    } else {
      iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + n;
      iov[idx].iov_len -= n;
      n = 0;
    }
  }
}

/// Writes iov[idx..] until it is all written or, with MSG_DONTWAIT in
/// `flags`, the socket buffer is full; advances idx across partial writes.
/// Returns the bytes written, or -1 on a dead connection. MSG_NOSIGNAL: a
/// peer closing mid-write must surface as EPIPE, not kill the process.
ssize_t send_iov(int fd, std::vector<iovec>& iov, std::size_t& idx,
                 int flags) {
  std::size_t total = 0;
  while (idx < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + idx;
    msg.msg_iovlen = std::min(iov.size() - idx, kIovBatch);
    const ssize_t n = ::sendmsg(fd, &msg, flags | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return -1;
    }
    total += static_cast<std::size_t>(n);
    advance_iov(iov, idx, static_cast<std::size_t>(n));
  }
  return static_cast<ssize_t>(total);
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    raise(ErrorCode::kNetwork, "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string target = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    raise(ErrorCode::kNetwork, "bad IPv4 address: " + target);
  }
  return addr;
}

}  // namespace

std::string SocketAddress::to_string() const {
  if (is_unix()) return "unix:" + path;
  return (host.empty() ? std::string("127.0.0.1") : host) + ":" +
         std::to_string(port);
}

SocketAddress SocketAddress::parse(const std::string& text) {
  if (text.rfind("unix:", 0) == 0) return unix_path(text.substr(5));
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 == text.size()) {
    raise(ErrorCode::kNetwork, "unparseable socket address: " + text);
  }
  std::uint32_t port = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9' || (port = port * 10 + (c - '0')) > 65535) {
      raise(ErrorCode::kNetwork, "bad port in socket address: " + text);
    }
  }
  return tcp(text.substr(0, colon), static_cast<std::uint16_t>(port));
}

// ---- construction / teardown -----------------------------------------------

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)) {
  // Our HELLO, sent as the first bytes of every outbound connection. Built
  // once: options are immutable after construction.
  HelloFrame hello;
  hello.version = options_.protocol_version;
  hello.node = options_.local_node;
  hello.token = options_.cluster_token;
  encode_hello(hello, hello_);

  // Initial membership: one PeerLink per configured peer, sender threads
  // started lazily on first traffic (connect-on-demand). add_peer /
  // remove_peer change this set on the live transport.
  for (const auto& peer : options_.peers) {
    add_link(peer.id, peer.name, peer.address);
  }

  // Listener socket. Unix paths are unlinked first so a crashed predecessor
  // cannot wedge the bind.
  const auto& listen_addr = options_.listen;
  if (listen_addr.is_unix()) {
    ::unlink(listen_addr.path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) raise(ErrorCode::kNetwork, "socket() failed");
    auto addr = make_unix_addr(listen_addr.path);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      close_fd(listen_fd_);
      raise(ErrorCode::kNetwork,
            "bind failed on " + listen_addr.to_string() + ": " +
                std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) raise(ErrorCode::kNetwork, "socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    auto addr = make_tcp_addr(listen_addr.host, listen_addr.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      close_fd(listen_fd_);
      raise(ErrorCode::kNetwork,
            "bind failed on " + listen_addr.to_string() + ": " +
                std::strerror(errno));
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    close_fd(listen_fd_);
    raise(ErrorCode::kNetwork, "listen failed");
  }
  if (!listen_addr.is_unix()) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }
  listener_ = std::jthread([this](std::stop_token st) { listen_loop(st); });
}

SocketTransport::~SocketTransport() {
  // Stop accepting first so no new readers appear under our feet.
  listener_.request_stop();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (listener_.joinable()) listener_.join();
  close_fd(listen_fd_);

  // Senders: best-effort drain of queued frames (see sender_loop), then join.
  std::vector<std::shared_ptr<PeerLink>> links;
  {
    std::scoped_lock lock(links_mu_);
    links.reserve(links_.size());
    for (auto& [id, link] : links_) links.push_back(link);
  }
  for (auto& link : links) {
    if (link->sender.joinable()) {
      link->sender.request_stop();
      {
        std::scoped_lock lock(link->mu);
        link->cv.notify_all();
      }
      link->sender.join();
    }
    std::scoped_lock lock(link->mu);
    close_fd(link->fd);
  }

  // Readers: shutting the fd down unblocks the blocking read.
  std::vector<std::shared_ptr<Inbound>> inbound;
  {
    std::scoped_lock lock(mu_);
    inbound.swap(inbound_);
  }
  for (auto& conn : inbound) {
    conn->reader.request_stop();
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : inbound) {
    if (conn->reader.joinable()) conn->reader.join();
    close_fd(conn->fd);
  }

  if (options_.listen.is_unix()) ::unlink(options_.listen.path.c_str());
}

NodeId SocketTransport::add_node(const std::string& name) {
  std::scoped_lock lock(mu_);
  if (have_node_) {
    raise(ErrorCode::kNetwork,
          "SocketTransport serves one local node per process; second "
          "add_node(" + name + ") refused");
  }
  have_node_ = true;
  if (options_.local_name.empty()) options_.local_name = name;
  return options_.local_node;
}

void SocketTransport::set_handler(NodeId node, Handler handler) {
  std::unique_lock lock(mu_);
  if (node != options_.local_node) {
    raise(ErrorCode::kNetwork, "set_handler on non-local node");
  }
  handler_ = std::move(handler);
  // Same contract as the sim: a deregistering caller (~Node) must not return
  // while a delivery is still running into the old handler's captures.
  delivery_cv_.wait(lock, [&] { return active_deliveries_ == 0; });
}

// ---- dynamic membership ----------------------------------------------------

std::shared_ptr<SocketTransport::PeerLink> SocketTransport::find_link(
    NodeId id) const {
  std::scoped_lock lock(links_mu_);
  auto it = links_.find(id);
  return it == links_.end() ? nullptr : it->second;
}

bool SocketTransport::add_link(NodeId id, const std::string& name,
                               const SocketAddress& address) {
  if (id == options_.local_node) return false;  // self entry tolerated
  std::scoped_lock lock(links_mu_);
  if (links_.contains(id)) return false;  // idempotent per id
  auto link = std::make_shared<PeerLink>();
  link->id = id;
  link->address = address;
  // A peer re-admitted while its pair is cut rejoins behind the cut.
  link->severed = cut_between(options_.local_node, id);
  peer_names_[id] = name;
  links_.emplace(id, std::move(link));
  return true;
}

bool SocketTransport::admit_peer(NodeId id, const std::string& name,
                                 const std::string& address) {
  return add_link(id, name, SocketAddress::parse(address));
}

bool SocketTransport::evict_peer(NodeId id) {
  std::shared_ptr<PeerLink> link;
  {
    std::scoped_lock lock(links_mu_);
    auto it = links_.find(id);
    if (it == links_.end()) return false;
    link = std::move(it->second);
    links_.erase(it);
    peer_names_.erase(id);
  }
  // Mark terminal and wake the sender; join it holding no locks (it takes
  // link->mu and mu_). A racing enqueue that copied the shared_ptr before the
  // erase sees `removed` and counts its frame dropped.
  {
    std::scoped_lock lock(link->mu);
    link->removed = true;
    drop_connection_locked(*link);
    link->cv.notify_all();
  }
  if (link->sender.joinable()) {
    link->sender.request_stop();
    link->sender.join();
  }
  std::size_t frames = 0, bytes = 0;
  {
    std::scoped_lock lock(link->mu);
    frames = link->queue.size();
    bytes = link->queue_bytes;
    link->queue.clear();
    link->queue_bytes = 0;
  }
  count_lost(frames, bytes);
  shutdown_inbound_from(id);
  return true;
}

void SocketTransport::shutdown_inbound_from(NodeId peer) {
  // The reader threads exit on the dead fd; ~SocketTransport joins them.
  std::scoped_lock lock(mu_);
  for (const auto& conn : inbound_) {
    if (conn->authed.load(std::memory_order_acquire) &&
        conn->peer.load(std::memory_order_relaxed) == peer && conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
}

// ---- send path -------------------------------------------------------------

void SocketTransport::post(NodeId src, NodeId dst, FrameBuilder frame) {
  {
    std::scoped_lock lock(mu_);
    ++stats_.frames_posted;
    stats_.bytes_posted += frame.size();
  }
  if (dst == options_.local_node) {
    // Loopback: delivered inline on the posting thread (the sim routes this
    // through its delivery thread instead; handlers never block long, so
    // inline is safe and keeps the no-self-connection invariant). It never
    // touches the wire, so it pays the ordinary gather.
    deliver(src, Buffer::adopt(frame.build()));
    return;
  }
  enqueue(dst, std::move(frame));
}

void SocketTransport::enqueue(NodeId dst, FrameBuilder frame) {
  auto link = find_link(dst);
  if (!link) {
    std::scoped_lock lock(mu_);
    ++stats_.frames_dropped;
    return;
  }
  const std::size_t bytes = frame.size();
  bool lost = false;
  bool dropped = false;
  bool went_idle = false;
  {
    std::unique_lock lock(link->mu);
    if (link->removed) {
      dropped = true;  // racing eviction: same as "dst unknown"
    } else if (link->fd >= 0 && !link->sending && link->queue.empty() &&
               !link->severed && !link->unreachable) {
      // Idle link: this thread writes the frame itself, sparing the sender
      // thread a wakeup. MSG_DONTWAIT keeps post() non-blocking — servers
      // post responses from the manager thread, inside on_complete.
      link->sending = true;
      const int fd = link->fd;
      std::size_t written = 0;
      lock.unlock();
      const WriteResult result = write_frame(fd, frame, written, MSG_DONTWAIT);
      lock.lock();
      end_write_locked(*link);
      if (result == WriteResult::kPartial && link->fd == fd) {
        // Socket buffer full: the sender finishes the tail, ahead of
        // anything queued behind this write.
        link->queue.push_front(std::move(frame));
        link->queue_bytes += bytes;
        link->front_written = written;
        link->cv.notify_all();
      } else if (result != WriteResult::kDone) {
        requeue_failed_locked(*link, fd, std::move(frame), /*stopping=*/false);
      } else if (!link->queue.empty() || link->quiescent_waiters > 0) {
        // Frames queued behind this write, or wait_quiescent is watching.
        link->cv.notify_all();
      }
      went_idle = link->queue.empty() && std::exchange(link->idle_wanted, false);
    } else if (link->queue.size() >= options_.max_queued_per_peer) {
      lost = true;
    } else if ((link->severed || link->unreachable) &&
               (link->queue.size() >= options_.retransmit_budget_frames ||
                link->queue_bytes + bytes > options_.retransmit_budget_bytes)) {
      // The peer is down and the replay budget is full: past-budget frames
      // are datagram loss, exactly what the RPC retry layer converges under.
      lost = true;
    } else {
      link->queue.push_back(std::move(frame));
      link->queue_bytes += bytes;
      // Queued while the peer is down: this frame is riding out the blip,
      // whether or not the sender observes the outage before it heals.
      if (link->severed || link->unreachable) link->replaying = true;
      if (!link->sender.joinable()) {
        // Connect-on-demand: first frame towards this peer starts its
        // sender, which owns the connection lifecycle from here on. Raw
        // pointer is safe: remove_peer / ~SocketTransport join the sender
        // before the last shared_ptr can drop.
        PeerLink* raw = link.get();
        link->sender = std::jthread(
            [this, raw](std::stop_token st) { sender_loop(st, raw); });
      } else if (!link->sending) {
        // While a write is in flight its writer picks the queue up instead:
        // the sender loops on, a posting thread notifies when it finishes.
        link->cv.notify_all();
      }
    }
  }
  if (dropped) {
    std::scoped_lock lock(mu_);
    ++stats_.frames_dropped;
  }
  if (lost) count_lost(1, bytes);
  if (went_idle) notify_idle(options_.local_node, dst);
}

bool SocketTransport::link_busy(NodeId src, NodeId dst) {
  (void)src;  // every link starts at the one local node
  auto link = find_link(dst);
  if (!link) return false;
  std::scoped_lock lock(link->mu);
  const bool busy = link->sending || !link->queue.empty();
  if (busy) link->idle_wanted = true;
  return busy;
}

bool SocketTransport::connect_locked(PeerLink& link) {
  int fd = -1;
  sockaddr_storage storage{};
  socklen_t addr_len = 0;
  if (link.address.is_unix()) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    auto addr = make_unix_addr(link.address.path);
    std::memcpy(&storage, &addr, sizeof(addr));
    addr_len = sizeof(addr);
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    auto addr = make_tcp_addr(link.address.host, link.address.port);
    std::memcpy(&storage, &addr, sizeof(addr));
    addr_len = sizeof(addr);
  }
  bool ok = fd >= 0;
  if (ok) {
    // Non-blocking connect with a poll deadline: an unreachable TCP peer
    // must cost connect_timeout, not a kernel-default 2 minutes.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&storage), addr_len);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      rc = ::poll(&pfd, 1,
                  static_cast<int>(options_.connect_timeout.count()));
      if (rc == 1) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        rc = err == 0 ? 0 : -1;
      } else {
        rc = -1;  // timeout or poll failure
      }
    }
    ok = rc == 0;
    if (ok) {
      ::fcntl(fd, F_SETFL, flags);  // back to blocking for the send loop
      if (!link.address.is_unix()) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
    }
  }
  if (!ok) {
    if (fd >= 0) ::close(fd);
    arm_backoff_locked(link);
    return false;
  }
  link.fd = fd;
  link.front_written = 0;  // a torn frame replays whole on a new stream
  link.unreachable = false;
  link.backoff = std::chrono::milliseconds(0);
  return true;
}

void SocketTransport::arm_backoff_locked(PeerLink& link) {
  link.unreachable = true;
  link.backoff = link.backoff.count() == 0
                     ? options_.connect_backoff_initial
                     : std::min(link.backoff * 2, options_.connect_backoff_max);
  link.next_attempt = std::chrono::steady_clock::now() + link.backoff;
}

void SocketTransport::trim_queue_locked(PeerLink& link) {
  std::size_t frames = 0, bytes = 0;
  while (!link.queue.empty() &&
         (link.queue.size() > options_.retransmit_budget_frames ||
          link.queue_bytes > options_.retransmit_budget_bytes)) {
    // Tail-drop the newest: the surviving prefix replays in posted order.
    const std::size_t sz = link.queue.back().size();
    link.queue.pop_back();
    link.queue_bytes -= sz;
    bytes += sz;
    ++frames;
  }
  if (frames > 0) count_lost(frames, bytes);
}

void SocketTransport::park_and_trim_locked(PeerLink& link) {
  link.replaying = true;
  trim_queue_locked(link);
  link.cv.notify_all();  // wait_quiescent: parked, not draining
}

void SocketTransport::drop_connection_locked(PeerLink& link) {
  if (link.fd < 0) return;
  if (link.sending) {
    ::shutdown(link.fd, SHUT_RDWR);
    link.retired_fd = link.fd;
    link.fd = -1;
  } else {
    close_fd(link.fd);
  }
}

void SocketTransport::end_write_locked(PeerLink& link) {
  link.sending = false;
  close_fd(link.retired_fd);
}

void SocketTransport::requeue_failed_locked(PeerLink& link, int fd,
                                            FrameBuilder frame,
                                            bool stopping) {
  // The connection died under this frame (possibly mid-frame — the peer's
  // reassembler drops the torn tail with the connection).
  if (link.fd == fd) drop_connection_locked(link);
  if (link.removed || link.severed || stopping) {
    // The frame was already off the queue, so neither remove_peer's drain
    // nor the severed park can see it — counting it here is its only loss
    // accounting.
    count_lost(1, frame.size());
    return;
  }
  // Front-requeue, then trim: the requeued frame re-enters the parked queue
  // *before* the budget check, so whether it survives or is tail-dropped it
  // is owned by exactly one accounting path (replay, or trim's count_lost) —
  // never both, never neither. The backoff paces a peer that accepts and
  // immediately dies.
  link.queue_bytes += frame.size();
  link.queue.push_front(std::move(frame));
  link.front_written = 0;
  arm_backoff_locked(link);
  park_and_trim_locked(link);
}

SocketTransport::WriteResult SocketTransport::write_frame(
    int fd, const FrameBuilder& frame, std::size_t& written, int flags) {
  // Stream chunk = 12-byte header + the frame's scatter segments, handed to
  // sendmsg as one iovec list: the writev path. No contiguous frame is ever
  // assembled on this side of the kernel boundary.
  std::uint8_t header[kStreamHeaderBytes];
  encode_stream_header(options_.local_node, frame.size(), header);
  // Per-thread scratch: every posting thread writes frames now, so the two
  // lists are reused instead of allocated per frame.
  thread_local std::vector<FrameBuilder::Segment> segments;
  thread_local std::vector<iovec> iov;
  segments.clear();
  frame.segments(segments);
  iov.clear();
  iov.push_back(iovec{header, sizeof(header)});
  for (const auto& s : segments) {
    iov.push_back(iovec{const_cast<void*>(s.data), s.size});
  }
  std::size_t idx = 0;
  advance_iov(iov, idx, written);  // a tail resumes where the last write ended
  const ssize_t n = send_iov(fd, iov, idx, flags);
  if (n < 0) return WriteResult::kFailed;
  written += static_cast<std::size_t>(n);
  if (idx < iov.size()) return WriteResult::kPartial;
  frame.note_sent_scattered();
  return WriteResult::kDone;
}

bool SocketTransport::send_hello(int fd) {
  // Handshake bytes, not a frame: no chunk header, and no data-plane
  // counters flushed (segments() leaves them alone).
  std::vector<FrameBuilder::Segment> segments;
  hello_.segments(segments);
  std::vector<iovec> iov;
  for (const auto& s : segments) {
    iov.push_back(iovec{const_cast<void*>(s.data), s.size});
  }
  std::size_t idx = 0;
  return send_iov(fd, iov, idx, 0) >= 0;  // blocking: all or an error
}

void SocketTransport::sender_loop(const std::stop_token& st, PeerLink* link) {
  support::set_current_thread_name("net/send/" + std::to_string(link->id));
  std::stop_callback wake(st, [link] {
    std::scoped_lock lock(link->mu);
    link->cv.notify_all();
  });
  std::unique_lock lock(link->mu);
  const auto drain_as_lost = [&] {
    const std::size_t frames = link->queue.size();
    const std::size_t bytes = link->queue_bytes;
    link->queue.clear();
    link->queue_bytes = 0;
    if (frames > 0) count_lost(frames, bytes);
  };
  for (;;) {
    if (link->removed) return;  // remove_peer counts the queue itself
    if (link->queue.empty()) {
      if (st.stop_requested()) return;
      link->cv.wait(lock, [&] {
        return st.stop_requested() || link->removed || !link->queue.empty();
      });
      continue;
    }
    if (link->sending) {
      // A posting thread is writing directly; what queued behind it goes
      // out after its frame.
      link->cv.wait(lock, [&] { return link->removed || !link->sending; });
      continue;
    }
    if (link->severed) {
      if (st.stop_requested()) {
        drain_as_lost();
        return;
      }
      // The cut parks the queue (budget-bounded): mend() replays it in
      // order, so a deliberate partition heals without re-posting.
      park_and_trim_locked(*link);
      link->cv.wait(lock, [&] {
        return st.stop_requested() || link->removed || !link->severed;
      });
      continue;
    }
    if (link->fd < 0) {
      const auto now = std::chrono::steady_clock::now();
      if (st.stop_requested()) {
        // Teardown with a dead connection: what is still queued is lost.
        drain_as_lost();
        return;
      }
      if (now < link->next_attempt) {
        // In backoff after a failed round; frames keep queueing (budget-
        // bounded) until the next attempt.
        link->cv.wait_until(lock, link->next_attempt, [&] {
          return st.stop_requested() || link->removed || link->severed;
        });
        continue;
      }
      if (!connect_locked(*link)) {
        // The round failed: the queue survives for in-order replay on the
        // next successful connect, bounded by the retransmit budget. The
        // armed backoff paces the next round.
        park_and_trim_locked(*link);
        continue;
      }
      // Fresh connection: our HELLO goes first, before any frame — holding
      // `sending` keeps posting threads off the stream until it is out. A
      // failure here is a connect failure — close and back off.
      const int fd = link->fd;
      link->sending = true;
      lock.unlock();
      const bool hello_ok = send_hello(fd);
      lock.lock();
      end_write_locked(*link);
      if (!hello_ok) {
        if (link->fd == fd) close_fd(link->fd);
        arm_backoff_locked(*link);
        continue;
      }
      if (link->replaying) {
        // Everything still queued rode out the blip and is about to replay.
        link->replaying = false;
        const std::uint64_t survived = link->queue.size();
        std::scoped_lock slock(mu_);
        stats_.frames_requeued += survived;
      }
      continue;  // re-check: a cut or eviction may have landed meanwhile
    }
    // Next queued frame — or the tail of one a posting thread could not
    // finish without blocking. Blocking writes are fine on this thread.
    FrameBuilder frame = std::move(link->queue.front());
    link->queue.pop_front();
    link->queue_bytes -= frame.size();
    std::size_t written = std::exchange(link->front_written, 0);
    link->sending = true;
    const int fd = link->fd;
    lock.unlock();
    const bool ok = write_frame(fd, frame, written, 0) == WriteResult::kDone;
    lock.lock();
    end_write_locked(*link);
    if (!ok) {
      requeue_failed_locked(*link, fd, std::move(frame), st.stop_requested());
    }
    if (link->quiescent_waiters > 0) link->cv.notify_all();
    if (link->queue.empty() && std::exchange(link->idle_wanted, false)) {
      // The link went idle: a batcher's frames coalesced behind this write
      // leave now, posted from this thread.
      lock.unlock();
      notify_idle(options_.local_node, link->id);
      lock.lock();
    }
  }
}

// ---- receive path ----------------------------------------------------------

void SocketTransport::listen_loop(const std::stop_token& st) {
  support::set_current_thread_name("net/accept");
  while (!st.stop_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (st.stop_requested()) return;
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener shut down
    }
    auto conn = std::make_shared<Inbound>();
    conn->fd = fd;
    {
      std::scoped_lock lock(mu_);
      inbound_.push_back(conn);
    }
    conn->reader = std::jthread(
        [this, conn](std::stop_token rst) { reader_loop(rst, conn); });
  }
}

bool SocketTransport::validate_hello(const HelloFrame& hello,
                                     std::string* why) const {
  if (hello.version != options_.protocol_version) {
    *why = "protocol version " + std::to_string(hello.version) +
           " != required " + std::to_string(options_.protocol_version);
    return false;
  }
  if (hello.token != options_.cluster_token) {
    *why = "cluster token mismatch";  // never echo either token
    return false;
  }
  if (hello.node == options_.local_node) {
    *why = "peer claims our own node id " + std::to_string(hello.node);
    return false;
  }
  if (!find_link(hello.node)) {
    *why = "node " + std::to_string(hello.node) + " is not in the peer set";
    return false;
  }
  return true;
}

void SocketTransport::reject_inbound(Inbound& conn, const std::string& why) {
  {
    std::scoped_lock lock(mu_);
    ++stats_.handshake_rejected;
  }
  support::net_health().handshake_rejected.add();
  ALPS_LOG_WARN("socket transport: rejecting inbound connection: %s",
                why.c_str());
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
}

void SocketTransport::poison_inbound(Inbound& conn, const std::string& why) {
  {
    std::scoped_lock lock(mu_);
    ++stats_.connections_poisoned;
  }
  support::net_health().connections_poisoned.add();
  ALPS_LOG_WARN("socket transport: poisoned connection dropped: %s",
                why.c_str());
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
}

void SocketTransport::reader_loop(const std::stop_token& st,
                                  std::shared_ptr<Inbound> conn) {
  support::set_current_thread_name("net/recv");
  read_stream(st, *conn);
  {
    std::scoped_lock lock(mu_);
    conn->finished = true;
  }
  inbound_cv_.notify_all();
}

void SocketTransport::await_older_streams(const std::stop_token& st,
                                          const Inbound& conn) {
  const NodeId peer = conn.peer.load(std::memory_order_relaxed);
  const auto older_live = [&] {
    for (const auto& other : inbound_) {
      if (other.get() == &conn) return false;  // the rest are newer
      // An older stream still in its handshake may be this peer's too.
      if (!other->finished &&
          (!other->authed.load(std::memory_order_acquire) ||
           other->peer.load(std::memory_order_relaxed) == peer)) {
        return true;
      }
    }
    return false;
  };
  std::unique_lock lock(mu_);
  inbound_cv_.wait_for(lock, options_.connect_timeout, [&] {
    return st.stop_requested() || !older_live();
  });
}

void SocketTransport::read_stream(const std::stop_token& st, Inbound& conn) {
  HelloReader hello;
  std::shared_ptr<PeerLink> peer_link;  // cached after the handshake
  StreamReassembler reassembler;
  std::vector<std::uint8_t> chunk(kReadChunk);
  while (!st.stop_requested()) {
    const ssize_t n = ::read(conn.fd, chunk.data(), chunk.size());
    if (n == 0) return;  // peer closed; a torn frame dies with the stream
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    const std::uint8_t* data = chunk.data();
    std::size_t remaining = static_cast<std::size_t>(n);
    if (!conn.authed.load(std::memory_order_relaxed)) {
      // Handshake phase: nothing reaches the reassembler until a valid
      // HELLO has been consumed — an impostor never delivers a frame.
      bool complete = false;
      try {
        complete = hello.feed(data, remaining);
      } catch (const Error& e) {
        reject_inbound(conn, std::string("bad hello: ") + e.what());
        return;
      }
      if (!complete) continue;
      std::string why;
      if (!validate_hello(hello.hello(), &why)) {
        reject_inbound(conn, why);
        return;
      }
      peer_link = find_link(hello.hello().node);
      conn.peer.store(hello.hello().node, std::memory_order_relaxed);
      conn.authed.store(true, std::memory_order_release);
      await_older_streams(st, conn);
      if (remaining == 0) continue;
    }
    try {
      reassembler.feed(data, remaining);
    } catch (const Error& e) {
      // Framing is unrecoverable on a byte stream: drop the connection. The
      // peer reconnects (replaying its queue) and the retry layer re-posts
      // what mattered.
      poison_inbound(conn, e.what());
      return;
    }
    while (auto msg = reassembler.next()) {
      const NodeId claimed = conn.peer.load(std::memory_order_relaxed);
      if (msg->src != claimed) {
        // A stream may only speak for the node its HELLO claimed.
        poison_inbound(conn, "frame src " + std::to_string(msg->src) +
                                  " does not match handshaken node " +
                                  std::to_string(claimed));
        return;
      }
      bool severed = false;
      bool removed = false;
      if (peer_link) {
        std::scoped_lock lock(peer_link->mu);
        severed = peer_link->severed;
        removed = peer_link->removed;
      }
      if (removed) {
        // Evicted — but maybe re-admitted under a new link since.
        peer_link = find_link(claimed);
        if (peer_link) {
          std::scoped_lock lock(peer_link->mu);
          severed = peer_link->severed;
        }
      }
      if (!peer_link) {
        // Evicted mid-stream (remove_peer race backstop): the rest of this
        // connection is part of the departure.
        count_lost(1, msg->payload.size());
        if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
        return;
      }
      if (severed) {
        // A severed peer's inbound traffic is part of the same cut.
        count_lost(1, msg->payload.size());
        continue;
      }
      deliver(msg->src, std::move(msg->payload));
    }
  }
}

void SocketTransport::deliver(NodeId src, Buffer payload) {
  Handler handler;
  {
    std::scoped_lock lock(mu_);
    if (!handler_) {
      ++stats_.frames_dropped;
      return;
    }
    handler = handler_;
    ++stats_.frames_delivered;
    stats_.bytes_delivered += payload.size();
    ++active_deliveries_;
  }
  handler(src, std::move(payload));  // outside the lock: handlers may post
  {
    std::scoped_lock lock(mu_);
    --active_deliveries_;
  }
  delivery_cv_.notify_all();
}

void SocketTransport::count_lost(std::size_t frames, std::size_t bytes) {
  if (frames == 0) return;
  std::scoped_lock lock(mu_);
  stats_.frames_lost += frames;
  (void)bytes;  // loss is counted in frames; bytes_posted already includes them
}

// ---- partition / lifecycle hooks -------------------------------------------

void SocketTransport::apply_cut(NodeId a, NodeId b, bool severed) {
  if (a != options_.local_node && b != options_.local_node) {
    raise(ErrorCode::kNetwork,
          "cut " + std::to_string(a) + "<->" + std::to_string(b) +
              ": a socket transport cuts only its own node's links");
  }
  const NodeId peer = a == options_.local_node ? b : a;
  if (auto link = find_link(peer)) {
    std::scoped_lock lock(link->mu);
    link->severed = severed;
    if (severed) {
      if (!link->queue.empty()) link->replaying = true;
      drop_connection_locked(*link);
    } else {
      // Mended: reconnect at once, whatever backoff was armed.
      link->unreachable = false;
      link->backoff = std::chrono::milliseconds(0);
      link->next_attempt = std::chrono::steady_clock::now();
    }
    link->cv.notify_all();
  }
  if (severed) shutdown_inbound_from(peer);
}

void SocketTransport::disconnect(NodeId peer) {
  auto link = find_link(peer);
  if (!link) return;
  std::scoped_lock lock(link->mu);
  drop_connection_locked(*link);
  link->cv.notify_all();
}

bool SocketTransport::link_down(NodeId a, NodeId b) const {
  auto link = find_link(a == options_.local_node ? b : a);
  if (!link) return false;
  std::scoped_lock lock(link->mu);
  return link->unreachable;
}

// ---- introspection ---------------------------------------------------------

TransportStats SocketTransport::transport_stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

std::size_t SocketTransport::node_count() const {
  std::scoped_lock lock(links_mu_);
  return links_.size() + 1;
}

std::string SocketTransport::node_name(NodeId id) const {
  if (id == options_.local_node) return options_.local_name;
  std::scoped_lock lock(links_mu_);
  auto it = peer_names_.find(id);
  if (it == peer_names_.end()) {
    raise(ErrorCode::kNetwork, "unknown node id");
  }
  return it->second;
}

void SocketTransport::wait_quiescent() const {
  std::vector<std::shared_ptr<PeerLink>> links;
  {
    std::scoped_lock lock(links_mu_);
    links.reserve(links_.size());
    for (const auto& [id, link] : links_) links.push_back(link);
  }
  for (const auto& link : links) {
    std::unique_lock lock(link->mu);
    ++link->quiescent_waiters;
    link->cv.wait(lock, [&] {
      // Parked frames (cut / backoff) count as quiescent: nothing is
      // moving until the peer comes back.
      return (link->queue.empty() && !link->sending) || link->severed ||
             link->unreachable || link->removed;
    });
    --link->quiescent_waiters;
  }
}

std::uint16_t SocketTransport::bound_port() const {
  return bound_port_ != 0 ? bound_port_ : options_.listen.port;
}

}  // namespace alps::net
