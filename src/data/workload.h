#ifndef BESYNC_DATA_WORKLOAD_H_
#define BESYNC_DATA_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "data/object.h"
#include "data/read_process.h"
#include "data/topology.h"
#include "data/update_process.h"
#include "fault/fault_schedule.h"
#include "util/fluctuation.h"
#include "util/result.h"

namespace besync {

/// Static description of one object in a workload: one trivially copyable
/// row. Everything a run mutates (value, version, RNG, trace cursor) lives
/// in the harness's ObjectRuntime; the interest map and the rare
/// parameters live in Workload tables (the row points at side-table rows by
/// index, -1 = none).
struct ObjectSpec {
  // Hot fields, read by every update event, kept together.
  /// Which source hosts this object (0 .. m-1).
  int32_t source_index = 0;
  /// Shape of the update stream (data/update_process.h).
  ProcessKind process = ProcessKind::kPoissonWalk;
  /// Long-run average update rate (the lambda parameter, available to
  /// oracles and to the CGM "ideal cache-based" baseline). It is also the
  /// rate kPoissonWalk and kDrift draw with and kBernoulliWalk's per-second
  /// update probability.
  double lambda = 0.0;
  /// Value change per update (all process kinds but kTrace).
  double step = 1.0;
  /// Average refresh weight W(O,t); the weight itself when weight_wave < 0.
  double weight = 1.0;
  /// Transmission cost of one refresh in bandwidth units (Section 10.1
  /// non-uniform-cost extension); 1 = the paper's unit-size model.
  int64_t refresh_cost = 1;
  /// Seed for this object's private RNG stream; derived deterministically
  /// from the workload seed so update streams are identical across
  /// schedulers run on the same workload configuration.
  uint64_t rng_seed = 0;

  double initial_value = 0.0;
  /// Maximum divergence rate R_i for the divergence-bounding policy of
  /// Section 9 (<= 0 when unknown/unused).
  double max_divergence_rate = 0.0;
  /// Row of Workload::regime_switches (kRegimeSwitching) or trace id in
  /// Workload::traces (kTrace); -1 for the other kinds.
  int32_t process_param = -1;
  /// Row of Workload::weight_waves holding a fluctuating weight.
  int32_t weight_wave = -1;
  /// Row of Workload::source_weights holding a conflicting per-source
  /// weight for the competitive experiments of Section 7 (-1 when sources
  /// and cache share one weighting scheme).
  int32_t source_weight = -1;
};

static_assert(std::is_trivially_copyable_v<ObjectSpec>);

/// One object's interest list: its slice of Workload::replica_caches.
struct CacheList {
  const int32_t* data = nullptr;
  int count = 0;

  const int32_t* begin() const { return data; }
  const int32_t* end() const { return data + count; }
  int size() const { return count; }
  int32_t operator[](int r) const { return data[r]; }
  int32_t front() const { return data[0]; }
};

/// A complete multi-source workload: m sources with n objects each,
/// replicated over `num_caches` caches according to the interest map.
/// Immutable during a run: schedulers and the harness only read it, so one
/// instance can be run any number of times in sequence (only
/// `read_streams` carry cursor state; see exp/runner.h).
struct Workload {
  int num_sources = 0;
  int objects_per_source = 0;
  /// Number of caches in the topology. 1 reproduces the paper's single-cache
  /// star of Figure 1.
  int num_caches = 1;
  /// Relay topology between the sources and the caches. Flat (the default)
  /// is the one-hop star the paper models; a tree routes refreshes through
  /// store-and-forward relays (data/topology.h). Leaf count must equal
  /// num_caches when non-flat.
  TopologySpec topology;
  std::vector<ObjectSpec> objects;  // size m*n, grouped by source
  /// The interest map in CSR form: object i is replicated at caches
  /// replica_caches[replica_offsets[i] .. replica_offsets[i+1]), ascending
  /// and duplicate-free (any nonempty subset of 0 .. num_caches-1; see
  /// InterestPattern for the generated shapes). replica_offsets[i] + r is
  /// also the row of replica (i, r) in every per-replica table: source
  /// trackers and ground-truth entries. Filled by AddObject.
  std::vector<int64_t> replica_offsets = {0};
  std::vector<int32_t> replica_caches;
  /// Side tables for rare per-object parameters (ObjectSpec indexes them).
  std::vector<RegimeSwitch> regime_switches;
  std::vector<Fluctuation> weight_waves;
  std::vector<Fluctuation> source_weights;
  /// Trace points of the kTrace objects (null when there are none); one
  /// immutable table that clones share.
  std::shared_ptr<const TraceTable> traces;
  /// True if any weight fluctuates over time (enables periodic weight
  /// refresh in the divergence accounting).
  bool has_fluctuating_weights = false;
  /// Client read-side knobs (data/read_process.h). The defaults — no reads,
  /// unbounded capacity — keep the read path entirely inert, so write-only
  /// runs are bitwise identical to the pre-read-path engine.
  ReadWorkloadConfig read;
  /// Optional per-cache client read streams (size num_caches when set;
  /// empty = generate Poisson/Zipf streams from `read` when read_rate > 0).
  /// The one part of a workload a run mutates (trace cursors) — the
  /// sharing hazard of exp/runner.h — so CloneWorkload deep-copies them.
  std::vector<std::unique_ptr<ReadProcess>> read_streams;
  /// Scripted fault events applied during the run (fault/fault_schedule.h).
  /// Empty (the default) keeps the fault layer entirely inert: fault-free
  /// runs are bitwise identical to the pre-fault engine.
  FaultSchedule faults;

  /// Appends `spec` as the next object, replicated at `caches` (ascending,
  /// duplicate-free; the default is the paper's single cache 0).
  void AddObject(const ObjectSpec& spec, const std::vector<int32_t>& caches = {0});
  /// Set one object's refresh weight W(O,t) (a fluctuating one goes to the
  /// weight_waves table), its separate source-scheme weight (Section 7), or
  /// a kRegimeSwitching process. Each call on a side table appends a row.
  void SetWeight(ObjectIndex index, const Fluctuation& weight);
  void SetSourceWeight(ObjectIndex index, const Fluctuation& weight);
  void SetRegimeSwitch(ObjectIndex index, const RegimeSwitch& regime);

  /// True when any client reads will be generated (rate-driven or
  /// trace-driven). Capacity limits apply independently of this.
  bool reads_enabled() const { return read.read_rate > 0.0 || !read_streams.empty(); }

  int64_t total_objects() const { return static_cast<int64_t>(objects.size()); }

  /// Total number of (object, cache) replicas — the unit the multi-cache
  /// objective sums over.
  int64_t total_replicas() const { return static_cast<int64_t>(replica_caches.size()); }

  /// The caches replicating object `index`.
  CacheList caches(ObjectIndex index) const {
    return CacheList{replica_caches.data() + replica_offsets[index],
                     num_replicas(index)};
  }
  int num_replicas(ObjectIndex index) const {
    return static_cast<int>(replica_offsets[index + 1] - replica_offsets[index]);
  }
  /// Position of `cache_id` in object `index`'s cache list (its replica
  /// slot at that cache), or -1 if the cache does not replicate it.
  int replica_slot(ObjectIndex index, int32_t cache_id) const {
    const CacheList list = caches(index);
    for (int r = 0; r < list.size(); ++r) {
      if (list[r] == cache_id) return r;
    }
    return -1;
  }

  /// Cache-scheme weight W(O_i, t).
  double WeightAt(ObjectIndex index, double t) const {
    const ObjectSpec& spec = objects[index];
    return spec.weight_wave < 0 ? spec.weight : weight_waves[spec.weight_wave].ValueAt(t);
  }
  /// Source-scheme weight (falls back to the cache scheme when the object
  /// defines no separate source weight).
  double SourceWeightAt(ObjectIndex index, double t) const {
    const int32_t row = objects[index].source_weight;
    return row < 0 ? WeightAt(index, t) : source_weights[row].ValueAt(t);
  }

  /// Object `index`'s update process, assembled from its row and the side
  /// tables (valid while this workload lives).
  UpdateProcess process(ObjectIndex index) const {
    const ObjectSpec& spec = objects[index];
    UpdateProcess process;
    process.kind = spec.process;
    process.rate = spec.lambda;
    process.step = spec.step;
    if (spec.process == ProcessKind::kRegimeSwitching) {
      process.regime = regime_switches[spec.process_param];
    } else if (spec.process == ProcessKind::kTrace) {
      process = UpdateProcess::Trace(*traces, spec.process_param);
    }
    return process;
  }
};

/// For each cache id 0..num_caches-1, the ascending duplicate-free list of
/// sources hosting at least one object replicated at that cache (the sources
/// the cache exchanges protocol messages with).
std::vector<std::vector<int32_t>> SourcesByCache(const Workload& workload);

/// How per-object update rates are assigned (paper Sections 4.3, 6).
enum class RateDistribution {
  /// lambda_i ~ Uniform(rate_lo, rate_hi) — "randomly assigned lambda values
  /// ... following a uniform distribution".
  kUniform,
  /// A randomly-selected half updates at `slow_rate`, the other half at
  /// `fast_rate` — the skewed configuration of Section 4.3 (0.01 vs 1).
  kHalfSlowHalfFast,
};

/// How refresh transmission costs (object sizes) are assigned
/// (Section 10.1 non-uniform-cost extension).
enum class CostScheme {
  /// All refreshes cost 1 unit (the paper's model).
  kUniform,
  /// A randomly-selected half of the objects cost `large_cost` units.
  kHalfLarge,
};

/// How weights are assigned.
enum class WeightScheme {
  /// All weights 1.
  kUniform,
  /// A randomly-selected half gets weight `heavy_weight`, the rest weight 1
  /// (Section 4.3's skew: 10 vs 1).
  kHalfHeavy,
};

/// How objects are assigned to caches in a multi-cache topology.
enum class InterestPattern {
  /// Every object is replicated at cache 0 only (the paper's topology).
  /// Requires num_caches == 1.
  kSingleCache,
  /// Each source's objects live at exactly one cache:
  /// cache = source_index mod num_caches. Disjoint partitions — caches
  /// behave like independent single-cache systems over sub-workloads.
  kPartitionedBySource,
  /// Every object is replicated at every cache.
  kFullReplication,
  /// Each object has a primary cache (source_index mod num_caches) plus a
  /// Zipf-distributed replication degree: most objects live at one cache, a
  /// popular few are replicated widely (overlapping interest).
  kZipfOverlap,
};

std::string InterestPatternToString(InterestPattern pattern);

/// Generator parameters for the synthetic random-walk workloads used
/// throughout the paper's evaluation.
struct WorkloadConfig {
  int num_sources = 1;
  int objects_per_source = 100;

  /// Multi-cache topology knobs. The defaults reproduce the paper's
  /// single-cache system exactly (and consume no generator randomness, so
  /// single-cache workloads are bit-identical to the pre-topology ones).
  int num_caches = 1;
  InterestPattern interest_pattern = InterestPattern::kSingleCache;
  /// Zipf exponent of the replication-degree distribution (kZipfOverlap);
  /// larger = fewer widely-replicated objects.
  double zipf_overlap_exponent = 1.0;

  /// Relay-tree knobs (0 tiers = the flat one-hop topology). When
  /// relay_tiers > 0 the generated workload carries a
  /// MakeRelayTree(num_caches, relay_fanout, relay_tiers) topology whose
  /// relay edges default to relay_bandwidth_factor (data/topology.h) —
  /// factor 0 keeps them pass-through. Consumes no generator randomness, so
  /// the object specs and RNG seeds are identical to the flat workload's.
  int relay_tiers = 0;
  int relay_fanout = 2;
  double relay_bandwidth_factor = 0.0;

  /// kPoisson: continuous-time Poisson updates (Section 6.2);
  /// kBernoulli: per-second update probability (Section 4.3).
  enum class UpdateModel { kPoisson, kBernoulli } update_model = UpdateModel::kPoisson;

  RateDistribution rate_distribution = RateDistribution::kUniform;
  double rate_lo = 0.0;  ///< uniform rate range lower bound (exclusive if 0)
  double rate_hi = 1.0;  ///< uniform rate range upper bound
  double slow_rate = 0.01;
  double fast_rate = 1.0;

  WeightScheme weight_scheme = WeightScheme::kUniform;
  double heavy_weight = 10.0;

  CostScheme cost_scheme = CostScheme::kUniform;
  int64_t large_cost = 4;

  /// Maximum relative amplitude of sine weight fluctuation; 0 = constant
  /// weights. Periods are drawn uniformly from [weight_period_min,
  /// weight_period_max] (Section 6: "randomly-assigned amplitudes and
  /// periods").
  double weight_fluctuation_amplitude = 0.0;
  double weight_period_min = 200.0;
  double weight_period_max = 2000.0;

  /// Random-walk step size per update.
  double value_step = 1.0;

  /// Client read-path knobs, copied verbatim onto the generated workload
  /// (consumes no generator randomness — the read streams draw from their
  /// own seed at run time — so workloads differing only in `read` carry
  /// identical objects and update streams).
  ReadWorkloadConfig read;

  /// Fault-schedule generator knobs (fault/fault_schedule.h). The schedule
  /// draws from its own `fault.seed` stream, never the generator's, so a
  /// disabled config (the default) builds byte-identical workloads and an
  /// enabled one perturbs nothing but `Workload::faults`.
  FaultScheduleConfig fault;

  uint64_t seed = 1;
};

/// Builds a synthetic workload. Deterministic given the config (including
/// the seed): two calls with the same config produce identical specs and
/// identical per-object RNG seeds.
Result<Workload> MakeWorkload(const WorkloadConfig& config);

/// Copy of a whole workload: the rows, the interest map and the side tables
/// are copied, the immutable trace table is shared, and the read streams
/// (the only state a run advances) are deep-copied. The clone replays
/// exactly the update stream the original would (same rows, same
/// per-object RNG seeds), and running or mutating it leaves the original
/// untouched. This is what lets one hand-constructed or trace-derived
/// workload (e.g. MakeBuoyWorkload) fan out across concurrent runner jobs:
/// each job runs a private clone (RunExperimentsOnWorkload in
/// exp/runner.h).
Workload CloneWorkload(const Workload& workload);

}  // namespace besync

#endif  // BESYNC_DATA_WORKLOAD_H_
