#include "sim/thread_pool.hpp"

#include "selfmon/metrics.hpp"

namespace papisim::sim {

ThreadPool::ThreadPool(std::uint32_t workers) {
  threads_.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this](std::stop_token st) { worker_loop(st); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Under the lock, so no worker can test its wait predicate between the
    // stop request and the notify and then sleep through it.
    std::lock_guard lock(mu_);
    for (auto& t : threads_) t.request_stop();
  }
  work_cv_.notify_all();
}

void ThreadPool::worker_loop(const std::stop_token& stop) {
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      const selfmon::TimePoint w0 = selfmon::clock_now();
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop.stop_requested() ||
               (current_ != nullptr && current_->next < current_->n);
      });
      if (stop.stop_requested()) return;
      batch = current_;
      selfmon::hist_record_since(selfmon::HistId::PoolQueueWaitNs, w0);
    }
    drain(batch);
  }
}

void ThreadPool::drain(const std::shared_ptr<Batch>& batch) {
  while (true) {
    std::uint32_t idx;
    {
      std::lock_guard lock(mu_);
      if (batch->next >= batch->n) return;
      idx = batch->next++;
    }
    selfmon::counter_add(selfmon::CounterId::PoolClaims);
    std::exception_ptr error;
    try {
      (*batch->fn)(idx);
      selfmon::counter_add(selfmon::CounterId::PoolTasks);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      if (error) {
        if (!batch->error) {
          batch->error = error;
        } else {
          // Only the first exception is rethrown (see header contract);
          // account for the ones the batch swallows.
          selfmon::counter_add(selfmon::CounterId::PoolExceptionsDropped);
        }
      }
      if (++batch->done == batch->n) {
        done_cv_.notify_all();
        return;
      }
    }
  }
}

void ThreadPool::parallel_for(std::uint32_t n,
                              const std::function<void(std::uint32_t)>& fn) {
  if (n == 0) return;
  const selfmon::Stopwatch dispatch(selfmon::HistId::PoolDispatchNs);
  selfmon::counter_add(selfmon::CounterId::PoolBatches);
  if (threads_.empty() || n == 1) {
    // Inline serial path; same exception contract as the pooled path (all
    // indices run, first exception rethrown, later ones counted + dropped).
    std::exception_ptr first;
    for (std::uint32_t i = 0; i < n; ++i) {
      selfmon::counter_add(selfmon::CounterId::PoolClaims);
      try {
        fn(i);
        selfmon::counter_add(selfmon::CounterId::PoolTasks);
      } catch (...) {
        if (!first) {
          first = std::current_exception();
        } else {
          selfmon::counter_add(selfmon::CounterId::PoolExceptionsDropped);
        }
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  {
    std::lock_guard lock(mu_);
    current_ = batch;
  }
  work_cv_.notify_all();
  drain(batch);  // the caller participates
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return batch->done == batch->n; });
    if (current_ == batch) current_ = nullptr;
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace papisim::sim
