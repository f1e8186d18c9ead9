#ifndef BESYNC_READ_READ_PATH_H_
#define BESYNC_READ_READ_PATH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/harness.h"
#include "data/read_process.h"
#include "net/network.h"
#include "obs/trace.h"
#include "read/cache_store.h"
#include "util/quantile.h"
#include "util/random.h"

namespace besync {

/// Aggregated read-path counters over the measurement window (all zero when
/// the read path is disabled).
struct ReadPathCounters {
  int64_t reads = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t pull_requests = 0;
  int64_t pulls_delivered = 0;
  int64_t evictions = 0;
  /// Read-time staleness distribution: the divergence of the value a read
  /// is served (hits sample at read time; misses sample the pulled value at
  /// delivery time).
  double staleness_mean = 0.0;
  double staleness_p50 = 0.0;
  double staleness_p95 = 0.0;
  double staleness_p99 = 0.0;
  /// Mean time from a missing read to the delivery that serves it.
  double miss_latency_mean = 0.0;
  /// Replica invalidations applied (invalidation protocol; a batched
  /// kInvalidate of k objects counts k times).
  int64_t invalidations_received = 0;
};

/// The client read side of one simulation run: per-cache read streams,
/// capacity-limited residency (read/cache_store.h), read-time staleness
/// sampling against the ground truth, and miss-triggered pulls.
///
/// Owned and driven by the cooperative scheduler's tick
/// (core/system.cc):
///   - ProcessReads(t) consumes every client read with timestamp <= t in
///     global time order; hits sample the replica's current divergence,
///     misses register a pending pull (deduplicated per replica in
///     flight).
///   - SendPullRequests(t) drains the per-cache request queues upstream as
///     kPullRequest control mail, each request consuming one unit of the
///     leaf edge's remaining tick budget — after refresh deliveries, ahead
///     of surplus feedback.
///   - OnRefreshDelivered(message, t) runs for every refresh landing at a
///     cache (pushes and pull responses alike): it installs non-resident
///     members (evicting under the configured policy) and resolves the
///     pending reads waiting on the object.
///
/// Disabled (no reads configured and unbounded capacity) the object is
/// inert: no RNG is created, no state is touched, and the scheduler's
/// behavior is bitwise identical to the pre-read-path engine.
class ReadPath {
 public:
  ReadPath() = default;

  /// Builds the per-cache stores and read streams from the harness's
  /// workload. Trace streams attached to the workload (read_streams) are
  /// used in place after a Reset() — the workload-sharing hazard of
  /// exp/runner.h applies; Poisson/Zipf streams are built privately from
  /// ReadWorkloadConfig when read_rate > 0. `harness` must outlive this.
  /// A validity-tracking `protocol` (invalidation / TTL; may be null —
  /// push refresh) adds per-replica ReplicaSyncState to the stores and
  /// makes reads of invalid/expired replicas miss and pull.
  /// `has_cache_faults` (the run's effective fault schedule contains cache
  /// crashes) keeps the read path live even with no reads and unbounded
  /// capacity: crashes flow through the stores and recovery refills flow
  /// through delivery resolution. False changes nothing.
  void Initialize(Harness* harness, int num_caches,
                  const SyncProtocol* protocol = nullptr,
                  bool has_cache_faults = false);

  /// True when the read path participates in the run at all (client reads
  /// configured or finite capacity).
  bool enabled() const { return enabled_; }
  /// True when client reads are generated (rate- or trace-driven).
  bool reads_enabled() const { return reads_enabled_; }

  void ProcessReads(double t);
  void SendPullRequests(double t, Network* network);
  void OnRefreshDelivered(const Message& message, double t);
  /// Applies a delivered kInvalidate notification (primary object plus any
  /// batch-mates): the replicas turn invalid, so their next read misses.
  /// Residency is untouched — the stale bytes stay until overwritten.
  void OnInvalidateDelivered(const Message& message, double t);

  /// Fault hook: cache `cache_id` crashed at `now`. Drops every resident
  /// replica (CacheStore::Crash), resets per-replica protocol state
  /// (invalid / expired — a restarted replica must be re-fetched before it
  /// can serve), and cancels all pending pulls: responses already in flight
  /// will still install content on arrival, but they must not resolve reads
  /// that died with the process — each cancelled in-flight pull counts into
  /// crash_dropped_pulls().
  void OnCacheCrash(int cache_id, double now);
  /// Fault hook: cache `cache_id` came back (empty). Reads flow again;
  /// content returns only through installs.
  void OnCacheRestart(int cache_id);
  /// True while the cache is crashed (reads are consumed but discarded).
  bool cache_down(int cache_id) const { return caches_[cache_id].down; }
  /// Pending pulls cancelled by crashes (measurement window).
  int64_t crash_dropped_pulls() const { return crash_dropped_pulls_; }

  /// Drains the per-cache delivery scratch counters into the global
  /// totals, in ascending cache order. The delivery hooks
  /// (OnRefreshDelivered / OnInvalidateDelivered) record into per-cache
  /// scratch so the scheduler may apply different caches' deliveries
  /// concurrently; the scheduler calls this once per tick, after the apply
  /// barrier, on the main thread. The drain adds in ascending cache order
  /// whatever the lane count, so the float addition order of
  /// miss_latency_sum_ — and hence every reported bit — is identical at
  /// any thread count.
  void FlushDeliveryCounters();

  /// Measurement-window reset (residency and pending pulls persist; only
  /// statistics are zeroed).
  void OnMeasurementStart();

  /// Merged counters (per-cache staleness digests merged in cache order —
  /// deterministic).
  ReadPathCounters Counters() const;

  // Introspection (tests).
  const CacheStore& store(int cache_id) const { return caches_[cache_id].store; }

  /// Observability wiring (obs/trace.h): one buffer per cache id, or empty
  /// to disable (the default — hooks then cost one emptiness test). The
  /// read path records its own lifecycle events: pull requests,
  /// invalidation applies, evictions. Buffers must outlive the run.
  void SetTraceBuffers(std::vector<TraceBuffer*> buffers) {
    trace_ = std::move(buffers);
  }

  // Cheap cumulative totals for the observability sampler (counted since
  // the last measurement reset; 0 while disabled). O(1) reads — unlike
  // Counters(), which merges the per-cache staleness digests.
  int64_t reads_so_far() const { return reads_; }
  int64_t hits_so_far() const { return hits_; }
  int64_t pull_requests_so_far() const { return pull_requests_; }
  int64_t pulls_delivered_so_far() const { return pulls_delivered_; }
  /// Weighted mean over the per-cache staleness digests, O(num_caches).
  double StalenessMeanSoFar() const;

 private:
  /// One replica's in-flight pull state.
  struct PendingPull {
    bool active = false;     ///< >= 1 read is waiting on this replica
    bool enqueued = false;   ///< a request sits in the request queue
    bool requested = false;  ///< a request has been sent upstream
    double last_request_time = 0.0;
    int64_t waiting_reads = 0;
    /// Sum of the waiting reads' timestamps (miss-latency accounting).
    double waiting_time_sum = 0.0;
  };

  struct CacheState {
    explicit CacheState(CacheStore s) : store(std::move(s)) {}

    int32_t cache_id = 0;
    /// Crashed (fault injection): reads are discarded, deliveries are
    /// dropped by the scheduler before they reach us.
    bool down = false;
    CacheStore store;
    /// Null when this cache generates no reads.
    ReadProcess* stream = nullptr;
    std::unique_ptr<ReadProcess> owned_stream;
    Rng rng{0};
    double next_read_time = 0.0;
    /// Per-slot pending pulls; sized only for capacity-limited stores.
    std::vector<PendingPull> pending;
    /// Slots with an unsent pull request, in miss order.
    std::deque<int64_t> request_queue;
    QuantileDigest staleness;
    // Delivery-phase scratch, drained by FlushDeliveryCounters(). Integer
    // tallies are order-free; the float miss-latency contributions are
    // kept as individual terms so the drain can replay the exact
    // cache-major addition sequence.
    int64_t scratch_pulls_delivered = 0;
    int64_t scratch_invalidations = 0;
    int64_t scratch_latency_count = 0;
    std::vector<double> scratch_latency_terms;
  };

  /// Cache `cache_id`'s trace buffer, or null when tracing is off.
  TraceBuffer* trace_for(int32_t cache_id) const {
    return trace_.empty() ? nullptr : trace_[cache_id];
  }

  void HandleRead(CacheState* cache, int64_t slot, double t);
  void ResolveDelivery(CacheState* cache, ObjectIndex index, double t, bool is_pull);
  void ApplyInvalidate(CacheState* cache, ObjectIndex index, double t);
  double ReplicaDivergence(const CacheState& cache, ObjectIndex index) const;

  Harness* harness_ = nullptr;
  ReadWorkloadConfig config_;
  const SyncProtocol* protocol_ = nullptr;
  bool validity_tracked_ = false;
  bool enabled_ = false;
  bool reads_enabled_ = false;
  std::vector<CacheState> caches_;
  int64_t reads_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t pull_requests_ = 0;
  int64_t pulls_delivered_ = 0;
  double miss_latency_sum_ = 0.0;
  int64_t miss_latency_count_ = 0;
  int64_t invalidations_received_ = 0;
  int64_t crash_dropped_pulls_ = 0;
  /// Per-cache trace buffers; empty unless observability tracing is on.
  std::vector<TraceBuffer*> trace_;
};

}  // namespace besync

#endif  // BESYNC_READ_READ_PATH_H_
