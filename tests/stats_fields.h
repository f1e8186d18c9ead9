// The one field table of SchedulerStats, for tests that must cover every
// statistic: thread-count invariance, observability inertness and the
// measurement-start reset audit walk this table instead of hand-written
// field lists. The static_asserts below fail to compile when a field is
// added to SchedulerStats without being listed here, or listed twice.

#ifndef BESYNC_TESTS_STATS_FIELDS_H_
#define BESYNC_TESTS_STATS_FIELDS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/harness.h"

namespace besync {

struct IntStatsField {
  const char* name;
  int64_t SchedulerStats::*member;
};

struct DoubleStatsField {
  const char* name;
  double SchedulerStats::*member;
};

#define BESYNC_STATS_FIELD(field) \
  { #field, &SchedulerStats::field }

inline constexpr IntStatsField kIntStatsFields[] = {
    BESYNC_STATS_FIELD(refreshes_sent),
    BESYNC_STATS_FIELD(refreshes_delivered),
    BESYNC_STATS_FIELD(feedback_sent),
    BESYNC_STATS_FIELD(polls_sent),
    BESYNC_STATS_FIELD(max_cache_queue),
    BESYNC_STATS_FIELD(relays_forwarded),
    BESYNC_STATS_FIELD(max_relay_store),
    BESYNC_STATS_FIELD(relay_control_moved),
    BESYNC_STATS_FIELD(reads_total),
    BESYNC_STATS_FIELD(read_hits),
    BESYNC_STATS_FIELD(read_misses),
    BESYNC_STATS_FIELD(pull_requests_sent),
    BESYNC_STATS_FIELD(pulls_delivered),
    BESYNC_STATS_FIELD(cache_evictions),
    BESYNC_STATS_FIELD(pull_units_delivered),
    BESYNC_STATS_FIELD(push_units_delivered),
    BESYNC_STATS_FIELD(invalidations_sent),
    BESYNC_STATS_FIELD(invalidations_received),
    BESYNC_STATS_FIELD(cache_crashes),
    BESYNC_STATS_FIELD(cache_restarts),
    BESYNC_STATS_FIELD(relay_failures),
    BESYNC_STATS_FIELD(link_down_events),
    BESYNC_STATS_FIELD(slowdown_events),
    BESYNC_STATS_FIELD(crash_dropped_pulls),
    BESYNC_STATS_FIELD(resync_deliveries),
    BESYNC_STATS_FIELD(resync_pending),
};

inline constexpr DoubleStatsField kDoubleStatsFields[] = {
    BESYNC_STATS_FIELD(cache_utilization),
    BESYNC_STATS_FIELD(avg_cache_queue),
    BESYNC_STATS_FIELD(mean_threshold),
    BESYNC_STATS_FIELD(relay_queue_delay_mean),
    BESYNC_STATS_FIELD(relay_transit_delay_mean),
    BESYNC_STATS_FIELD(read_staleness_mean),
    BESYNC_STATS_FIELD(read_staleness_p50),
    BESYNC_STATS_FIELD(read_staleness_p95),
    BESYNC_STATS_FIELD(read_staleness_p99),
    BESYNC_STATS_FIELD(read_miss_latency_mean),
    BESYNC_STATS_FIELD(pull_bandwidth_share),
    BESYNC_STATS_FIELD(time_to_resync_mean),
    BESYNC_STATS_FIELD(time_to_resync_p95),
};

#undef BESYNC_STATS_FIELD

template <typename Field, size_t N>
constexpr bool StatsFieldsDistinct(const Field (&fields)[N]) {
  for (size_t i = 0; i < N; ++i) {
    for (size_t j = i + 1; j < N; ++j) {
      if (fields[i].member == fields[j].member) return false;
    }
  }
  return true;
}

static_assert(StatsFieldsDistinct(kIntStatsFields), "a field is listed twice");
static_assert(StatsFieldsDistinct(kDoubleStatsFields), "a field is listed twice");
// Every field is 8 bytes wide, so distinct entries that add up to the
// struct's size are exactly its fields.
static_assert(sizeof(SchedulerStats) ==
                  8 * (std::size(kIntStatsFields) + std::size(kDoubleStatsFields)),
              "SchedulerStats gained or lost a field: update tests/stats_fields.h");

/// Calls fn(name, member pointer) for every field, in table order.
template <typename Fn>
void ForEachStatsField(Fn&& fn) {
  for (const IntStatsField& f : kIntStatsFields) fn(f.name, f.member);
  for (const DoubleStatsField& f : kDoubleStatsFields) fn(f.name, f.member);
}

/// "name: a vs b" for every field on which `a` and `b` differ (doubles
/// compared with ==, no tolerance). Empty when the two are identical.
inline std::vector<std::string> DifferingStatsFields(const SchedulerStats& a,
                                                     const SchedulerStats& b) {
  std::vector<std::string> out;
  ForEachStatsField([&](const char* name, auto member) {
    if (a.*member == b.*member) return;
    std::ostringstream line;
    line.precision(17);
    line << name << ": " << a.*member << " vs " << b.*member;
    out.push_back(line.str());
  });
  return out;
}

/// "name = value" for every non-zero field of `stats` not named in `skip`.
inline std::vector<std::string> NonZeroStatsFields(
    const SchedulerStats& stats, const std::set<std::string>& skip = {}) {
  std::vector<std::string> out;
  ForEachStatsField([&](const char* name, auto member) {
    if (stats.*member == 0 || skip.count(name) > 0) return;
    std::ostringstream line;
    line.precision(17);
    line << name << " = " << stats.*member;
    out.push_back(line.str());
  });
  return out;
}

}  // namespace besync

#endif  // BESYNC_TESTS_STATS_FIELDS_H_
