#include "common/thread_pool.h"

#include <stdexcept>

namespace qs {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads > 1) {
    workers_.reserve(threads - 1);
    for (std::size_t i = 0; i + 1 < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::slice(std::size_t begin, std::size_t end, std::size_t slices,
                       std::size_t index, std::size_t* lo, std::size_t* hi) {
  const std::size_t count = end - begin;
  const std::size_t base = count / slices;
  const std::size_t extra = count % slices;
  // First `extra` slices get one element more; boundaries are a pure
  // function of (begin, end, slices, index).
  *lo = begin + index * base + std::min(index, extra);
  *hi = *lo + base + (index < extra ? 1 : 0);
}

void ThreadPool::drain_chunks(const std::function<void(std::size_t)>* body,
                              std::size_t chunks, std::uint32_t tag) {
  // `body` is dereferenced only after claiming a chunk of job `tag`: the
  // claimed chunk keeps unfinished_ above zero until its decrement below,
  // and the caller cannot leave run_chunks() (destroying the function
  // object) before unfinished_ reaches zero. A late worker that read job
  // N's body finds a different tag once job N+1 starts, and claims nothing.
  std::size_t done = 0;
  std::uint64_t cur = claim_.load(std::memory_order_acquire);
  for (;;) {
    if (static_cast<std::uint32_t>(cur >> 32) != tag) break;
    const std::size_t c = static_cast<std::size_t>(cur & 0xffffffffu);
    if (c >= chunks) break;
    if (!claim_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
      continue;  // `cur` now holds the fresh value
    (*body)(c);
    ++done;
    cur = claim_.load(std::memory_order_acquire);
  }
  if (done > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    unfinished_ -= done;
    if (unfinished_ == 0) done_.notify_all();
  }
}

void ThreadPool::run_chunks(std::size_t chunks,
                            const std::function<void(std::size_t)>& body) {
  if (chunks == 0) return;
  if (workers_.empty() || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) body(c);
    return;
  }
  if (chunks > 0xffffffffu)
    throw std::invalid_argument("ThreadPool: more than 2^32 - 1 chunks");
  std::lock_guard<std::mutex> job_lock(job_mutex_);
  std::uint32_t tag = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    chunks_ = chunks;
    unfinished_ = chunks;
    ++epoch_;
    tag = static_cast<std::uint32_t>(epoch_);
    claim_.store(std::uint64_t{tag} << 32, std::memory_order_release);
  }
  wake_.notify_all();
  drain_chunks(&body, chunks, tag);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return unfinished_ == 0; });
  body_ = nullptr;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t chunks = 0;
    std::uint32_t tag = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || epoch_ != seen; });
      if (stopping_) return;
      seen = epoch_;
      // The job may already be fully drained (body_ cleared) by the time a
      // slow worker wakes; unfinished_ > 0 means body_ is still live.
      if (body_ != nullptr && unfinished_ > 0) {
        body = body_;
        chunks = chunks_;
        tag = static_cast<std::uint32_t>(epoch_);
      }
    }
    if (body != nullptr) drain_chunks(body, chunks, tag);
  }
}

}  // namespace qs
