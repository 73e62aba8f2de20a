// Blocking MPMC queues and the lock-free call-intake queue.
//
// BlockingQueue<T> is the per-slot run queue of the SlotBound process model.
// It supports close(): after close, producers fail and consumers drain the
// residue then observe emptiness, which gives clean shutdown without
// sentinels. MpscIntakeQueue<T> is the wait-free producer side of the
// kernel's batched call intake (see core/object.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace alps::support {

/// Lock-free multi-producer batch-drain queue.
///
/// push() is a single CAS loop (wait-free in the absence of contention) and
/// never blocks; drain() takes the *entire* batch in one atomic exchange and
/// delivers it in FIFO order (a Treiber push-list, reversed at drain). Any
/// thread may drain at any time: concurrent drains atomically split the
/// backlog into disjoint chains, so no item is ever delivered twice or lost.
/// Per-producer FIFO order is preserved; cross-producer order is the
/// linearization order of the pushes.
///
/// This is deliberately *not* a blocking queue: consumers are expected to
/// pair it with an EventCount (producers push, then signal), which keeps the
/// producer fast path free of mutexes and wake syscalls.
template <class T>
class MpscIntakeQueue {
 public:
  MpscIntakeQueue() = default;
  MpscIntakeQueue(const MpscIntakeQueue&) = delete;
  MpscIntakeQueue& operator=(const MpscIntakeQueue&) = delete;
  ~MpscIntakeQueue() {
    drain([](T&&) {});
  }

  void push(T value) {
    Node* node = new Node{std::move(value),
                          head_.load(std::memory_order_relaxed)};
    while (!head_.compare_exchange_weak(node->next, node,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
    }
  }

  /// True when no pushed item is awaiting a drain. seq_cst so that drain
  /// loops of the form "push; if (!empty()) drain()" cannot strand an item
  /// (see Object::flush_intake for the protocol).
  bool empty() const {
    return head_.load(std::memory_order_seq_cst) == nullptr;
  }

  /// Delivers every queued item to `fn` in FIFO order and returns how many
  /// were delivered. `fn` must not throw.
  template <class Fn>
  std::size_t drain(Fn&& fn) {
    Node* chain = head_.exchange(nullptr, std::memory_order_seq_cst);
    Node* fifo = nullptr;  // reverse the push-order (LIFO) chain
    while (chain != nullptr) {
      Node* next = chain->next;
      chain->next = fifo;
      fifo = chain;
      chain = next;
    }
    std::size_t delivered = 0;
    while (fifo != nullptr) {
      Node* next = fifo->next;
      fn(std::move(fifo->value));
      delete fifo;
      fifo = next;
      ++delivered;
    }
    return delivered;
  }

 private:
  struct Node {
    T value;
    Node* next;
  };
  std::atomic<Node*> head_{nullptr};
};

template <class T>
class BlockingQueue {
 public:
  /// Returns false if the queue is closed (the item is dropped).
  bool push(T item) {
    {
      std::scoped_lock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  std::optional<T> try_pop() {
    std::scoped_lock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  template <class Rep, class Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, timeout,
                      [&] { return !items_.empty() || closed_; })) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    {
      std::scoped_lock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::scoped_lock lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::scoped_lock lock(mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace alps::support
