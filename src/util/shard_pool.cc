#include "util/shard_pool.h"

#include "util/logging.h"

namespace besync {

ShardPool::ShardPool(int num_shards) : num_shards_(num_shards) {
  BESYNC_CHECK_GE(num_shards, 1);
  workers_.reserve(static_cast<size_t>(num_shards - 1));
  for (int shard = 1; shard < num_shards; ++shard) {
    workers_.emplace_back([this, shard] { WorkerLoop(shard); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ShardPool::Run(const std::function<void(int)>& fn) {
  Run(fn, nullptr);
}

void ShardPool::Run(const std::function<void(int)>& fn,
                    const std::function<void()>& main_prelude) {
  if (num_shards_ == 1) {
    if (main_prelude) main_prelude();
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    running_ = num_shards_ - 1;
    ++epoch_;
  }
  start_.notify_all();
  // The workers are off computing their shards; the prelude's serial work
  // rides under them on this thread.
  if (main_prelude) main_prelude();
  fn(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return running_ == 0; });
  job_ = nullptr;
}

void ShardPool::WorkerLoop(int shard) {
  uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_.wait(lock,
                  [this, seen_epoch] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    (*job)(shard);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last = --running_ == 0;
    }
    if (last) done_.notify_all();
  }
}

std::pair<int64_t, int64_t> ShardPool::ShardRange(int64_t count, int shard,
                                                  int num_shards) {
  BESYNC_CHECK_GE(count, 0);
  BESYNC_CHECK_GE(shard, 0);
  BESYNC_CHECK_LT(shard, num_shards);
  const int64_t shards = num_shards;
  const int64_t base = count / shards;
  const int64_t extra = count % shards;
  // The first `extra` shards take base + 1 items.
  const int64_t first =
      shard * base + (shard < extra ? shard : extra);
  const int64_t size = base + (shard < extra ? 1 : 0);
  return {first, first + size};
}

}  // namespace besync
