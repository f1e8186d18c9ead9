#include "obs/trace.h"

#include <algorithm>
#include <functional>
#include <tuple>

namespace besync {

const char* TraceEventKindToString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kEnqueue:
      return "enqueue";
    case TraceEventKind::kSend:
      return "send";
    case TraceEventKind::kRelayStore:
      return "relay_store";
    case TraceEventKind::kRelayForward:
      return "relay_forward";
    case TraceEventKind::kDeliver:
      return "deliver";
    case TraceEventKind::kApply:
      return "apply";
    case TraceEventKind::kPullRequest:
      return "pull_request";
    case TraceEventKind::kInvalidateSend:
      return "invalidate_send";
    case TraceEventKind::kInvalidateApply:
      return "invalidate_apply";
    case TraceEventKind::kEvict:
      return "evict";
    case TraceEventKind::kDrop:
      return "drop";
    case TraceEventKind::kFault:
      return "fault";
    case TraceEventKind::kResyncStart:
      return "resync_start";
    case TraceEventKind::kResyncDone:
      return "resync_done";
  }
  return "unknown";
}

TraceFilter TraceFilter::FromConfig(const ObsConfig& config) {
  TraceFilter filter;
  filter.start = config.trace_start;
  filter.end = config.trace_end;
  filter.objects = config.trace_objects;
  filter.caches = config.trace_caches;
  std::sort(filter.objects.begin(), filter.objects.end());
  std::sort(filter.caches.begin(), filter.caches.end());
  return filter;
}

bool TraceFilter::Pass(double t, ObjectIndex object, int32_t cache) const {
  if (!PassTime(t)) return false;
  if (object >= 0 && !objects.empty() &&
      !std::binary_search(objects.begin(), objects.end(), object)) {
    return false;
  }
  if (cache >= 0 && !caches.empty() &&
      !std::binary_search(caches.begin(), caches.end(), cache)) {
    return false;
  }
  return true;
}

ObsCollector::ObsCollector(const ObsConfig& config, int num_sources,
                           int num_caches, int num_relays, double tick_length)
    : config_(config),
      filter_(TraceFilter::FromConfig(config)),
      num_sources_(num_sources),
      num_caches_(num_caches),
      tick_length_(tick_length) {
  if (config_.trace) {
    buffers_.resize(1 + static_cast<size_t>(num_sources) + num_caches +
                    num_relays);
    for (TraceBuffer& buffer : buffers_) {
      buffer.Init(&filter_, config_.max_trace_events);
    }
  }
}

void ObsCollector::NoteTick(double t) {
  if (!config_.trace) return;
  if (static_cast<int>(tick_times_.size()) >= config_.max_phase_slice_ticks) {
    return;
  }
  if (!filter_.PassTime(t)) return;
  tick_times_.push_back(t);
}

namespace {

/// A recorded event's place in the merge: the leading sort keys inline (so
/// most comparisons touch no event), the buffer id, and the event itself.
/// Within one buffer, address order is record order.
struct MergeRef {
  double t;
  TraceEventKind kind;
  uint32_t buffer;
  const TraceEvent* event;
};

/// The merge's total order: (t, kind, cache, node, source, object, version,
/// buffer id, in-buffer sequence). It is exactly the order a stable sort of
/// the buffers concatenated in id order produces, and no two refs compare
/// equal, so any selection or sort over it yields the same sequence.
bool MergeLess(const MergeRef& a, const MergeRef& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.kind != b.kind) return a.kind < b.kind;
  const TraceEvent& x = *a.event;
  const TraceEvent& y = *b.event;
  const auto x_key = std::tie(x.cache, x.node, x.source, x.object, x.version);
  const auto y_key = std::tie(y.cache, y.node, y.source, y.object, y.version);
  if (x_key != y_key) return x_key < y_key;
  if (a.buffer != b.buffer) return a.buffer < b.buffer;
  return std::less<const TraceEvent*>()(a.event, b.event);
}

}  // namespace

std::shared_ptr<ObsOutput> ObsCollector::Finish() {
  auto output = std::make_shared<ObsOutput>();
  output->series = std::move(series_);
  output->tick_times = std::move(tick_times_);
  output->tick_length = tick_length_;
  output->num_caches = num_caches_;

  // Select the kept events by reference, then copy only those: O(recorded)
  // for the selection, O(kept log kept) for the order, and no copy of the
  // events the cap drops. Buffers need not be time-ordered (the read path
  // records read times after the tick's deliveries).
  std::vector<MergeRef> refs;
  size_t total = 0;
  for (const TraceBuffer& buffer : buffers_) {
    total += buffer.events().size();
    output->trace_dropped += buffer.dropped();
  }
  refs.reserve(total);
  for (size_t b = 0; b < buffers_.size(); ++b) {
    for (const TraceEvent& event : buffers_[b].events()) {
      refs.push_back({event.t, event.kind, static_cast<uint32_t>(b), &event});
    }
  }
  const int64_t cap = config_.max_trace_events;
  if (cap > 0 && static_cast<int64_t>(total) > cap) {
    output->trace_dropped += static_cast<int64_t>(total) - cap;
    std::nth_element(refs.begin(), refs.begin() + cap, refs.end(), MergeLess);
    refs.resize(static_cast<size_t>(cap));
    refs.shrink_to_fit();
  }
  std::sort(refs.begin(), refs.end(), MergeLess);

  // Free each buffer once its last kept event is out.
  std::vector<size_t> remaining(buffers_.size(), 0);
  for (const MergeRef& ref : refs) ++remaining[ref.buffer];
  for (size_t b = 0; b < buffers_.size(); ++b) {
    if (remaining[b] == 0) buffers_[b].ReleaseEvents();
  }
  output->trace.reserve(refs.size());
  for (const MergeRef& ref : refs) {
    output->trace.push_back(*ref.event);
    if (--remaining[ref.buffer] == 0) buffers_[ref.buffer].ReleaseEvents();
  }
  buffers_.clear();
  return output;
}

}  // namespace besync
