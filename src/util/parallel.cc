#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <latch>
#include <mutex>
#include <thread>
#include <utility>

namespace gmine {
namespace {

constexpr int kMaxThreads = 256;

int DetectParallelism() {
  if (const char* env = std::getenv("GMINE_THREADS")) {
    char* endp = nullptr;
    long v = std::strtol(env, &endp, 10);
    if (endp != env && *endp == '\0' && v > 0) {
      return static_cast<int>(std::min<long>(v, kMaxThreads));
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
}

// Set for the lifetime of every pool worker thread. A parallel region
// entered from inside a pool worker runs entirely on the caller: queueing
// sub-tasks behind the outer region's tasks could deadlock.
thread_local bool t_pool_worker = false;

class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool pool(std::max(1, MaxParallelism() - 1));
    return pool;
  }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  explicit ThreadPool(int workers) {
    workers_.reserve(workers);
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void WorkerLoop() {
    t_pool_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Captures the first exception thrown by any participant.
struct ExceptionSlot {
  std::mutex mu;
  std::exception_ptr eptr;
  std::atomic<bool> failed{false};

  void Capture() {
    std::lock_guard<std::mutex> lk(mu);
    if (!eptr) eptr = std::current_exception();
    failed.store(true, std::memory_order_release);
  }

  void RethrowIfSet() {
    if (eptr) std::rethrow_exception(eptr);
  }
};

}  // namespace

int MaxParallelism() {
  static const int parallelism = DetectParallelism();
  return parallelism;
}

int ResolveThreads(int threads) {
  if (threads <= 0) return MaxParallelism();
  return std::min(threads, kMaxThreads);
}

namespace internal {

void RunChunks(size_t num_chunks, int parallelism,
               const std::function<void(size_t)>& chunk_fn) {
  if (num_chunks == 0) return;
  size_t extra = std::min<size_t>(
      parallelism > 0 ? static_cast<size_t>(parallelism - 1) : 0,
      num_chunks - 1);
  if (t_pool_worker) extra = 0;  // nested region: stay on the caller

  std::atomic<size_t> next{0};
  ExceptionSlot exc;
  auto drain = [&] {
    size_t c;
    while (!exc.failed.load(std::memory_order_acquire) &&
           (c = next.fetch_add(1, std::memory_order_relaxed)) < num_chunks) {
      try {
        chunk_fn(c);
      } catch (...) {
        exc.Capture();
      }
    }
  };

  if (extra == 0) {
    drain();
    exc.RethrowIfSet();
    return;
  }

  std::latch done(static_cast<ptrdiff_t>(extra));
  for (size_t i = 0; i < extra; ++i) {
    ThreadPool::Global().Submit([&] {
      drain();
      done.count_down();
    });
  }
  drain();
  done.wait();
  exc.RethrowIfSet();
}

void SubmitAsync(std::function<void()> task) {
  ThreadPool::Global().Submit(std::move(task));
}

bool InPoolWorker() { return t_pool_worker; }

void RunRanks(int ranks, const std::function<void(int)>& fn) {
  if (ranks <= 0) return;
  int extra = ranks - 1;
  if (t_pool_worker) {
    // Nested region: run every rank inline on the caller.
    ExceptionSlot exc;
    for (int r = 0; r < ranks && !exc.failed.load(); ++r) {
      try {
        fn(r);
      } catch (...) {
        exc.Capture();
      }
    }
    exc.RethrowIfSet();
    return;
  }
  if (extra == 0) {
    fn(0);
    return;
  }

  ExceptionSlot exc;
  std::latch done(static_cast<ptrdiff_t>(extra));
  for (int r = 1; r < ranks; ++r) {
    ThreadPool::Global().Submit([&, r] {
      if (!exc.failed.load(std::memory_order_acquire)) {
        try {
          fn(r);
        } catch (...) {
          exc.Capture();
        }
      }
      done.count_down();
    });
  }
  try {
    fn(0);
  } catch (...) {
    exc.Capture();
  }
  done.wait();
  exc.RethrowIfSet();
}

}  // namespace internal
}  // namespace gmine
