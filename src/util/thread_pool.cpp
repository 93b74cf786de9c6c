#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ndet {

unsigned resolve_thread_count(unsigned requested) {
  if (requested == 0) requested = std::thread::hardware_concurrency();
  return std::max(1u, requested);
}

const ThreadPool& ThreadPool::for_work(std::size_t work_words) const {
  static const ThreadPool serial(1);
  return work_words < kParallelWorkWords ? serial : *this;
}

void ThreadPool::run_workers(unsigned workers,
                             const std::function<void(unsigned)>& worker,
                             std::atomic<bool>& failed) {
  if (workers <= 1) {
    // Serial fallback on the calling thread; exceptions propagate directly.
    worker(0);
    return;
  }

  std::mutex error_mutex;
  std::exception_ptr error;
  const auto guarded = [&](unsigned id) {
    try {
      worker(id);
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(guarded, t);
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::annotate_and_rethrow(unsigned worker, std::size_t index) {
  const std::string context =
      "worker " + std::to_string(worker) + ", index " + std::to_string(index);
  try {
    throw;  // re-examine the in-flight exception
  } catch (Error& e) {
    // Mutate in place and rethrow the SAME object: the dynamic type (e.g.
    // contract_error) and kind survive, so existing catch sites still match.
    e.add_context(context);
    throw;
  } catch (const std::exception& e) {
    throw Error(ErrorKind::kInternal,
                std::string("worker exception: ") + e.what() + " [" + context +
                    "]");
  } catch (...) {
    throw Error(ErrorKind::kInternal,
                "worker threw a non-std exception [" + context + "]");
  }
}

}  // namespace ndet
