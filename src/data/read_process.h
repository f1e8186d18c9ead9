#ifndef BESYNC_DATA_READ_PROCESS_H_
#define BESYNC_DATA_READ_PROCESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/random.h"

namespace besync {

/// Which replica a capacity-limited cache evicts when an install would
/// exceed its capacity (read/cache_store.h implements the policies).
enum class EvictionPolicy {
  /// Least-recently-read first (installs count as the initial touch).
  kLru,
  /// Least-frequently-read first, ties broken least-recently-read.
  kLfu,
  /// Most-diverged replica first: the copy whose content is currently least
  /// trustworthy is dropped, so its next read misses and pulls fresh data
  /// instead of serving the stalest value in the store.
  kDivergenceAware,
};

std::string EvictionPolicyToString(EvictionPolicy policy);

/// Client read-side knobs, carried on Workload (and generated into it by
/// WorkloadConfig::read). The defaults disable the read path entirely —
/// read_rate = 0 generates no reads and capacity = 0 keeps every replica
/// permanently resident, reproducing the write-only engine bitwise.
struct ReadWorkloadConfig {
  /// Poisson arrival rate of client reads per cache (reads/second).
  /// 0 disables the generated read streams (trace-driven streams attached
  /// via Workload::read_streams still run).
  double read_rate = 0.0;
  /// Zipf exponent of the popularity law over each cache's replicated
  /// objects (larger = hotter heads).
  double zipf_exponent = 0.8;
  /// Rotate the popularity ranking per cache (cache c's hottest object is
  /// at a different replica slot than cache c+1's), so multi-cache
  /// workloads do not all hammer the same objects.
  bool rotate_popularity = true;
  /// Maximum resident objects per cache; <= 0 = unbounded (the historical
  /// model: every replicated object is always servable locally).
  int64_t capacity = 0;
  /// Which resident replica an over-capacity install evicts.
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// A pull left unanswered this long (e.g. the response was lost on a
  /// lossy link) is re-requested by the next missing read.
  double pull_retry_interval = 10.0;
  /// Base seed of the per-cache read streams; independent of the workload
  /// and scheduler seeds so enabling reads never perturbs update streams.
  uint64_t seed = 1;
};

/// Generates one cache's client read stream: when reads arrive and which of
/// the cache's replicated objects each read targets. Draws come from the
/// caller's RNG; instances may hold cursor state (trace replay), the one
/// piece of a workload a run mutates, and Clone() supports fanning a
/// workload across concurrent runner jobs.
class ReadProcess {
 public:
  virtual ~ReadProcess() = default;

  /// Time of the next read at or after `now` (trace replays may report a
  /// read exactly at `now` when several share a timestamp; generated
  /// streams return strictly later times); +infinity if none.
  virtual double NextReadTime(double now, Rng* rng) = 0;

  /// Slot (0 .. num_slots-1) within the cache's replica list the read
  /// targets; called once per read, after NextReadTime.
  virtual int64_t NextObjectSlot(int64_t num_slots, Rng* rng) = 0;

  /// Long-run average read rate (reads/second).
  virtual double rate() const = 0;

  /// Rewinds any cursor state so the same workload can be run under
  /// several schedulers. Stateless processes need not override.
  virtual void Reset() {}

  /// Deep copy including cursor state (CloneWorkload support).
  virtual std::unique_ptr<ReadProcess> Clone() const = 0;
};

/// Poisson read arrivals over a Zipf popularity law: inter-read gaps are
/// exponential with the configured rate; each read targets popularity rank
/// r ~ Zipf(num_slots, exponent), mapped to slot (r - 1 + rotation) mod
/// num_slots. The rotation offset realizes ReadWorkloadConfig::
/// rotate_popularity — each cache instance gets a different offset, so the
/// hot set differs per cache.
class PoissonZipfReadProcess : public ReadProcess {
 public:
  PoissonZipfReadProcess(double rate, double zipf_exponent, int64_t rotation = 0);

  double NextReadTime(double now, Rng* rng) override;
  int64_t NextObjectSlot(int64_t num_slots, Rng* rng) override;
  double rate() const override { return rate_; }
  std::unique_ptr<ReadProcess> Clone() const override {
    return std::make_unique<PoissonZipfReadProcess>(rate_, zipf_exponent_, rotation_);
  }

 private:
  double rate_;
  double zipf_exponent_;
  int64_t rotation_;
};

/// One timestamped read of a replayed client trace.
struct ReadTracePoint {
  double time = 0.0;
  /// Replica slot within the cache's member list (clamped into range at
  /// replay time, so traces survive workload reshaping).
  int64_t slot = 0;
};

/// Replays a fixed, time-ordered trace of client reads. Holds a cursor
/// advanced by NextObjectSlot; Clone() copies points and cursor.
class TraceReadProcess : public ReadProcess {
 public:
  explicit TraceReadProcess(std::vector<ReadTracePoint> points);

  double NextReadTime(double now, Rng* rng) override;
  int64_t NextObjectSlot(int64_t num_slots, Rng* rng) override;
  double rate() const override { return rate_; }
  void Reset() override { cursor_ = 0; }
  std::unique_ptr<ReadProcess> Clone() const override;

  size_t num_points() const { return points_.size(); }

 private:
  std::vector<ReadTracePoint> points_;
  size_t cursor_ = 0;
  double rate_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_DATA_READ_PROCESS_H_
