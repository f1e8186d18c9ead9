#include "obs/export.h"

#include <algorithm>
#include <fstream>

#include "util/json.h"
#include "util/phase_timer.h"

namespace besync {
namespace {

// Microseconds: the trace_event convention. Simulation seconds are already
// small, so the scale keeps Perfetto's zoom ergonomics sane.
JsonNumber TraceTs(double t) { return JsonNumber(t * 1e6); }

// Track (tid) assignment inside one job's process: 0 = tick phases, then
// per-cache, per-source, and per-node tracks in disjoint ranges. Purely a
// function of the event.
constexpr int64_t kTidPhases = 0;
constexpr int64_t kTidRun = 9999;
constexpr int64_t kTidCacheBase = 1;
constexpr int64_t kTidSourceBase = 10000;
constexpr int64_t kTidNodeBase = 20000;

int64_t EventTid(const TraceEvent& event) {
  if (event.kind == TraceEventKind::kRelayStore ||
      event.kind == TraceEventKind::kRelayForward) {
    return kTidNodeBase + event.node;
  }
  if (event.cache >= 0) return kTidCacheBase + event.cache;
  if (event.node >= 0) return kTidNodeBase + event.node;
  if (event.source >= 0) return kTidSourceBase + event.source;
  return kTidRun;
}

void WriteTidName(JsonWriter& out, int64_t tid) {
  if (tid == kTidPhases) {
    out << "\"tick_phases\"";
  } else if (tid == kTidRun) {
    out << "\"run\"";
  } else if (tid >= kTidNodeBase) {
    out << "\"node " << tid - kTidNodeBase << '"';
  } else if (tid >= kTidSourceBase) {
    out << "\"source " << tid - kTidSourceBase << '"';
  } else {
    out << "\"cache " << tid - kTidCacheBase << '"';
  }
}

/// Every track a job's trace uses, ascending and unique.
std::vector<int64_t> JobTids(const ObsOutput& obs) {
  std::vector<int64_t> tids;
  if (!obs.tick_times.empty()) tids.push_back(kTidPhases);
  for (const TraceEvent& event : obs.trace) {
    const int64_t tid = EventTid(event);
    // Merged events cluster by track, so most repeats are adjacent.
    if (tids.empty() || tids.back() != tid) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  return tids;
}

}  // namespace

void WriteTimeSeriesJson(std::ostream& os, const std::vector<ObsJob>& jobs) {
  JsonWriter out(&os);
  out << "{\n  \"schema\": \"besync.timeseries.v1\",\n  \"jobs\": [\n";
  bool first_job = true;
  for (const ObsJob& job : jobs) {
    if (job.obs == nullptr) continue;
    const TimeSeries& series = job.obs->series;
    if (!first_job) out << ",\n";
    first_job = false;
    out << "    {\"name\": " << JsonString(job.name)
        << ", \"sample_interval\": " << JsonNumber(series.sample_interval())
        << ", \"effective_interval\": "
        << JsonNumber(series.effective_interval())
        << ", \"samples_dropped\": " << series.samples_dropped()
        << ",\n     \"columns\": [\"t\"";
    for (const std::string& column : series.columns()) {
      out << ", " << JsonString(column);
    }
    out << "],\n     \"samples\": [";
    for (size_t i = 0; i < series.rows().size(); ++i) {
      const TimeSeries::Row& row = series.rows()[i];
      out << (i == 0 ? "\n" : ",\n") << "       [" << JsonNumber(row.t);
      for (double value : row.values) out << ", " << JsonNumber(value);
      out << ']';
    }
    out << "\n     ]}";
  }
  out << "\n  ]\n}\n";
}

void WriteTraceJson(std::ostream& os, const std::vector<ObsJob>& jobs) {
  JsonWriter out(&os);
  out << "{\n  \"schema\": \"besync.trace.v1\",\n"
      << "  \"displayTimeUnit\": \"ms\",\n  \"jobs\": [\n";
  bool first_job = true;
  int pid = -1;
  for (const ObsJob& job : jobs) {
    ++pid;
    if (job.obs == nullptr) continue;
    if (!first_job) out << ",\n";
    first_job = false;
    out << "    {\"name\": " << JsonString(job.name) << ", \"pid\": " << pid
        << ", \"tick_length\": " << JsonNumber(job.obs->tick_length)
        << ", \"trace_dropped\": " << job.obs->trace_dropped
        << ", \"events\": " << job.obs->trace.size() << '}';
  }
  out << "\n  ],\n  \"traceEvents\": [";

  bool first_event = true;
  // Opens one traceEvents entry; the caller writes its body.
  auto open_event = [&out, &first_event]() -> JsonWriter& {
    out << (first_event ? "\n    " : ",\n    ");
    first_event = false;
    return out;
  };

  pid = -1;
  for (const ObsJob& job : jobs) {
    ++pid;
    if (job.obs == nullptr) continue;
    const ObsOutput& obs = *job.obs;

    open_event() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
                 << pid << ", \"tid\": 0, \"args\": {\"name\": "
                 << JsonString(job.name) << "}}";

    // Thread-name metadata for every track this job actually uses,
    // ascending tid.
    for (int64_t tid : JobTids(obs)) {
      open_event() << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
                   << pid << ", \"tid\": " << tid << ", \"args\": {\"name\": ";
      WriteTidName(out, tid);
      out << "}}";
    }

    // Tick-phase duration slices: each recorded tick is split into the six
    // engine phases in execution order, equal sim-time widths. These show
    // the cadence and phase sequence deterministically; wall-clock phase
    // costs stay in the opt-in --perf path.
    const double slice = obs.tick_length / PhaseTimer::kNumPhases;
    for (double tick : obs.tick_times) {
      for (int phase = 0; phase < PhaseTimer::kNumPhases; ++phase) {
        open_event() << "{\"name\": \""
                     << PhaseTimer::Name(static_cast<PhaseTimer::Phase>(phase))
                     << "\", \"ph\": \"X\", \"ts\": "
                     << TraceTs(tick + phase * slice)
                     << ", \"dur\": " << TraceTs(slice) << ", \"pid\": " << pid
                     << ", \"tid\": 0}";
      }
    }

    for (const TraceEvent& event : obs.trace) {
      open_event() << "{\"name\": \"" << TraceEventKindToString(event.kind)
                   << "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": "
                   << TraceTs(event.t) << ", \"pid\": " << pid
                   << ", \"tid\": " << EventTid(event)
                   << ", \"args\": {\"t\": " << JsonNumber(event.t)
                   << ", \"object\": " << event.object
                   << ", \"cache\": " << event.cache
                   << ", \"source\": " << event.source
                   << ", \"node\": " << event.node
                   << ", \"version\": " << event.version
                   << ", \"aux\": " << event.aux
                   << ", \"pull\": " << (event.is_pull ? "true" : "false")
                   << ", \"value\": " << JsonNumber(event.value) << "}}";
    }
  }
  out << "\n  ]\n}\n";
}

namespace {

Status WriteFile(const std::string& path, const std::vector<ObsJob>& jobs,
                 void (*writer)(std::ostream&, const std::vector<ObsJob>&)) {
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open ", path, " for writing");
  writer(file, jobs);
  file.flush();
  if (!file) return Status::IOError("short write to ", path);
  return Status::OK();
}

}  // namespace

Status WriteTimeSeriesFile(const std::string& path,
                           const std::vector<ObsJob>& jobs) {
  return WriteFile(path, jobs, &WriteTimeSeriesJson);
}

Status WriteTraceFile(const std::string& path,
                      const std::vector<ObsJob>& jobs) {
  return WriteFile(path, jobs, &WriteTraceJson);
}

}  // namespace besync
