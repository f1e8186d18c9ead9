#ifndef BESYNC_OBS_TRACE_H_
#define BESYNC_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "data/object.h"
#include "obs/obs_config.h"
#include "obs/timeseries.h"

namespace besync {

/// Message-lifecycle and run-event trace kinds. The enum order doubles as
/// the tie-break order for events at the same timestamp, so it follows the
/// pipeline: an enqueue sorts before the send it caused, a send before the
/// store/forward/deliver/apply downstream of it.
enum class TraceEventKind : int32_t {
  /// An object update entered a source's per-cache bookkeeping (or a
  /// restarted cache's replicas were re-enqueued for resync).
  kEnqueue = 0,
  /// A refresh (push, batch member, recovery, or pull response — the latter
  /// flagged `is_pull`) left the source onto its first-hop link.
  kSend = 1,
  /// A relay accepted a message into its store-and-forward buffer.
  kRelayStore = 2,
  /// A relay re-emitted a stored message toward the next hop.
  kRelayForward = 3,
  /// A refresh arrived at its leaf cache...
  kDeliver = 4,
  /// ...and was applied to the replica. The engine applies at arrival time,
  /// so kDeliver/kApply share a timestamp; both are recorded at the apply
  /// site because there each cache's messages are walked in link order by
  /// the one lane owning the cache, at any lane count.
  kApply = 5,
  /// The read path sent a pull request for a missed/invalid replica.
  kPullRequest = 6,
  /// A source put an invalidation on the wire (one event per invalidated
  /// object, batches included).
  kInvalidateSend = 7,
  /// A cache marked a replica invalid on receiving an invalidation.
  kInvalidateApply = 8,
  /// A capacity-limited cache store evicted a resident replica.
  kEvict = 9,
  /// A link dropped a message: random loss, or blackholed while down
  /// (`aux` = 1 for blackholed).
  kDrop = 10,
  /// A scripted fault event fired (`aux` = FaultEventKind).
  kFault = 11,
  /// A cache restart opened a time-to-resync episode (`aux` = replicas
  /// outstanding).
  kResyncStart = 12,
  /// The episode closed: every outstanding replica re-delivered
  /// (`value` = episode duration in seconds).
  kResyncDone = 13,
};

const char* TraceEventKindToString(TraceEventKind kind);

/// One structured trace event. Fields not meaningful for a kind stay at
/// their defaults (-1 / 0); `aux` and `value` are kind-specific extras
/// documented on the enum. The 8-byte fields lead so the row packs into 64
/// bytes (one cache line) with no interior padding.
struct TraceEvent {
  double t = 0.0;
  ObjectIndex object = -1;
  int64_t version = 0;
  int64_t aux = 0;
  double value = 0.0;
  TraceEventKind kind = TraceEventKind::kEnqueue;
  int32_t source = -1;  ///< originating source index
  int32_t cache = -1;   ///< destination leaf cache id
  int32_t node = -1;    ///< relay/link node id (fault target, store site)
  bool is_pull = false;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "trace buffers copy events as raw rows");
static_assert(sizeof(TraceEvent) <= 64, "a trace event fits one cache line");

/// The (time window, object set, cache set) predicate from ObsConfig.
/// `object < 0` / `cache < 0` act as wildcards (events that do not carry
/// that identity — faults, resync markers — always pass that axis).
struct TraceFilter {
  double start = 0.0;
  double end = -1.0;                  ///< < 0 = unbounded
  std::vector<int64_t> objects;       ///< sorted; empty = all
  std::vector<int32_t> caches;        ///< sorted; empty = all

  static TraceFilter FromConfig(const ObsConfig& config);

  bool PassTime(double t) const {
    return t >= start && (end < 0.0 || t <= end);
  }
  bool Pass(double t, ObjectIndex object, int32_t cache) const;
};

/// An append-only event buffer owned by exactly one entity (one source, one
/// cache, one relay node, or the scheduler main loop). Each engine entity
/// is recorded by exactly one thread per tick phase regardless of
/// `run_threads`, so per-entity buffering needs no locks and — unlike
/// per-thread buffering — yields buffer contents that are independent of
/// the thread count. Record() applies the shared filter and a per-buffer
/// event cap inline; a disabled trace is a null buffer pointer at the call
/// site, not a no-op Record.
class TraceBuffer {
 public:
  void Init(const TraceFilter* filter, int64_t cap) {
    filter_ = filter;
    cap_ = cap;
  }

  void Record(const TraceEvent& event) {
    if (!filter_->Pass(event.t, event.object, event.cache)) return;
    if (cap_ > 0 && static_cast<int64_t>(events_.size()) >= cap_) {
      ++dropped_;
      return;
    }
    events_.push_back(event);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  int64_t dropped() const { return dropped_; }
  /// Frees the recorded events (the merge calls this once a buffer has
  /// nothing left to contribute).
  void ReleaseEvents() { std::vector<TraceEvent>().swap(events_); }

 private:
  const TraceFilter* filter_ = nullptr;
  int64_t cap_ = 0;
  std::vector<TraceEvent> events_;
  int64_t dropped_ = 0;
};

/// Everything the collector hands back after a run: the sampled series, the
/// merged trace, and the tick cadence needed to draw phase slices. Attached
/// to RunResult as a shared_ptr; absent (null) unless obs was enabled.
struct ObsOutput {
  TimeSeries series;
  /// The first `max_trace_events` (all when 0) buffered events under one
  /// total order: ascending (t, kind, cache, node, source, object, version,
  /// buffer id, in-buffer sequence) — every key independent of
  /// `run_threads`.
  std::vector<TraceEvent> trace;
  /// Events lost to the per-buffer caps plus merge-stage truncation.
  int64_t trace_dropped = 0;
  /// Tick start times inside the trace window (capped) — the grid the
  /// Perfetto exporter draws phase slices on.
  std::vector<double> tick_times;
  double tick_length = 1.0;
  int num_caches = 0;
};

/// Owns the run's observer state: one TraceBuffer per entity, the shared
/// filter, the time series, and the tick grid. Created by the cooperative
/// scheduler in Initialize() iff `ObsConfig::enabled`; agents receive raw
/// buffer pointers (or nullptr when tracing is off) and never see the
/// collector.
class ObsCollector {
 public:
  ObsCollector(const ObsConfig& config, int num_sources, int num_caches,
               int num_relays, double tick_length);

  /// Null when tracing is disabled (hooks then cost one pointer test).
  TraceBuffer* main_buffer() { return buffer_or_null(0); }
  TraceBuffer* source_buffer(int source) {
    return buffer_or_null(1 + source);
  }
  TraceBuffer* cache_buffer(int cache) {
    return buffer_or_null(1 + num_sources_ + cache);
  }
  /// `relay` is the dense relay index (node id - num_caches).
  TraceBuffer* relay_buffer(int relay) {
    return buffer_or_null(1 + num_sources_ + num_caches_ + relay);
  }

  bool trace_enabled() const { return config_.trace; }
  const ObsConfig& config() const { return config_; }

  TimeSeries* series() { return &series_; }

  /// Registers a tick start for the phase-slice grid (trace window and
  /// `max_phase_slice_ticks` applied here).
  void NoteTick(double t);

  /// Merges the buffers and moves everything into an ObsOutput. Call once,
  /// after the run. Costs O(recorded) to select the kept events plus
  /// O(kept log kept) to order them; each buffer is freed as soon as its
  /// last kept event is copied out.
  std::shared_ptr<ObsOutput> Finish();

 private:
  TraceBuffer* buffer_or_null(size_t index) {
    return config_.trace ? &buffers_[index] : nullptr;
  }

  ObsConfig config_;
  TraceFilter filter_;
  int num_sources_;
  int num_caches_;
  std::vector<TraceBuffer> buffers_;
  TimeSeries series_;
  std::vector<double> tick_times_;
  double tick_length_;
};

}  // namespace besync

#endif  // BESYNC_OBS_TRACE_H_
