#ifndef BESYNC_UTIL_SHARD_POOL_H_
#define BESYNC_UTIL_SHARD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace besync {

/// A fixed team of workers for deterministic intra-run sharding: Run(fn)
/// executes fn(shard) once for every shard in [0, num_shards), split across
/// the team, and returns only when all shards finished — the per-tick
/// barrier of the sharded simulation phases.
///
/// Shards are pinned to lanes (shard s always runs on the same thread,
/// shard 0 on the caller), there is no task queue to contend on, and a
/// whole fan-out-plus-barrier costs one lock round-trip per worker. The
/// determinism contract lives one level up: callers partition state so that
/// shard s touches only its own slice, making the execution bitwise
/// identical to running the shards sequentially — at any team size. The
/// experiment runner uses the same team for coarse jobs: each lane claims
/// job indices from a shared atomic cursor (exp/runner.cc).
///
/// Run() must not be called concurrently with itself (one simulation, one
/// tick loop). Shard functions must not throw.
class ShardPool {
 public:
  /// A team of `num_shards` lanes (>= 1, checked): `num_shards - 1` worker
  /// threads plus the calling thread.
  explicit ShardPool(int num_shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  int num_shards() const { return num_shards_; }

  /// Runs fn(0), ..., fn(num_shards - 1) across the team; blocks until all
  /// have returned. fn(0) runs on the calling thread.
  void Run(const std::function<void(int)>& fn);

  /// Run(fn) with a caller-thread prelude overlapped with the workers:
  /// `main_prelude` executes on the calling thread after the worker shards
  /// are dispatched and before fn(0). Use it for serial work (e.g. a
  /// send-order shuffle drawing the main thread's RNG) that no shard
  /// function reads — it then costs no wall-clock at all instead of
  /// serializing ahead of the fan-out. With one shard the prelude simply
  /// runs before fn(0).
  void Run(const std::function<void(int)>& fn,
           const std::function<void()>& main_prelude);

  /// Contiguous half-open range [first, last) of shard `shard` over `count`
  /// items: the canonical deterministic partition (sizes differ by at most
  /// one; depends only on (count, shard, num_shards)).
  ///
  /// Footgun when `count < num_shards`: the trailing shards get EMPTY
  /// ranges, so a team sized past the item count silently idles those
  /// lanes every Run() — pure fan-out/barrier overhead for zero work.
  /// Worse, with the main_prelude overload the prelude still overlaps
  /// only fn(0): an over-wide team does not hide more serial work, it
  /// just wakes more threads. Callers should clamp their team size to
  /// the largest per-shard item count (CooperativeScheduler::Initialize
  /// clamps run_threads to max(num_sources, num_caches, num_nodes)).
  static std::pair<int64_t, int64_t> ShardRange(int64_t count, int shard,
                                                int num_shards);

  /// std::thread::hardware_concurrency() floored at 1 (it can report 0).
  static int HardwareThreads();

 private:
  void WorkerLoop(int shard);

  const int num_shards_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  /// Incremented once per Run(); workers run their shard once per epoch.
  uint64_t epoch_ = 0;
  /// Workers still running the current epoch's shard.
  int running_ = 0;
  const std::function<void(int)>* job_ = nullptr;
  bool stopping_ = false;
};

}  // namespace besync

#endif  // BESYNC_UTIL_SHARD_POOL_H_
