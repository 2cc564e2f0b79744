// Bounded MPMC blocking queue for engine batches.
//
// Multiple producers may push concurrently; multiple consumers may pop.
// push blocks while the queue is at capacity (bounded admission — the
// backpressure a serving layer needs so a fast producer cannot queue
// unbounded work), pop blocks while empty.  close() wakes everyone: pushes
// after close fail, pops drain the remaining items and then return empty.
//
// A mutex + two condition variables is deliberately boring: batches are
// coarse (hundreds of requests), so queue overhead is noise, and the
// determinism contract lives in the engine's in-order batch application,
// not here.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace fetcam::engine {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocks while full.  Returns false (drops the item) once closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    if (items_.size() > high_watermark_) high_watermark_ = items_.size();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed.
  bool try_push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > high_watermark_) high_watermark_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty.  Empty optional once closed AND drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Wake all waiters; subsequent pushes fail, pops drain then end.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Deepest the queue ever got (admission-pressure telemetry).
  std::size_t high_watermark() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return high_watermark_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t high_watermark_ = 0;
  bool closed_ = false;
};

}  // namespace fetcam::engine
