// Low-overhead observability: RAII phase timers + monotonic counters.
//
// Every pipeline layer hosts a probe — `obs::Scope` times one phase
// execution, `obs::add` bumps a named monotonic counter under a phase — and
// a process-global registry aggregates them. Worker threads of the
// util/parallel pool record into thread-local sinks (one mutex each, touched
// only by the owning thread and the snapshot reader), so probes never
// serialize the hot path against each other; `obs::snapshot()` merges all
// sinks into a Report (see obs/report.hpp) with p50/p95/max latency per
// phase and counter-derived throughput.
//
// Cost model:
//   - disabled (default): one relaxed atomic load per probe. Nothing is
//     allocated, nothing is recorded.
//   - enabled (`--metrics`, POWERGEAR_METRICS or set_enabled(true)): one
//     steady_clock read at scope entry/exit plus a thread-local vector
//     push_back.
//   - compiled out (-DPOWERGEAR_NO_OBS=ON): Scope/add are empty inlines;
//     the probes vanish entirely.
//
// Counters are summed per-task contributions, so totals are bit-identical
// for every POWERGEAR_JOBS value (same contract as the parallel runtime).
// Durations and their percentiles are wall-clock and machine-dependent by
// nature — they are reporting, never inputs to computation.
#pragma once

#include <cstdint>
#include <string>

namespace powergear::obs {

/// Instrumented pipeline phases, one per major layer. Order is the report
/// order; kCount is the array bound for the per-sink storage.
enum class Phase : int {
    HlsSchedule = 0, ///< hls::schedule — ASAP/modulo scheduling
    SimTrace,        ///< sim::Interpreter::run — IR value-trace simulation
    GraphGen,        ///< graphgen::construct_graph — DFG -> power graph
    DatasetGen,      ///< dataset::generate_dataset_for — whole-dataset flow
    EnsembleFit,     ///< gnn::Ensemble::fit — (fold x seed) member training
    EstimateBatch,   ///< core::PowerGear::estimate_batch — inference
    Dse,             ///< design-space exploration: Explorer::run,
                     ///< StreamingExplorer::run, run_shard, merge_shards
    Cache,           ///< io::Cache — pipeline-cache hits/misses/stores
    Serve,           ///< core::serve — per-request daemon latency + counters
    kCount
};

constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

/// Stable snake_case phase key used in the JSON report ("hls_schedule", ...).
const char* phase_name(Phase p);

#ifndef POWERGEAR_NO_OBS

/// Whether probes record. First query resolves the default from the
/// environment: truthy POWERGEAR_OBS or a non-empty POWERGEAR_METRICS path
/// turn recording on. set_enabled overrides (the CLI's --metrics flag).
bool enabled();
void set_enabled(bool on);

/// Drop every recorded duration and counter and restart the wall clock.
/// Not safe to call concurrently with in-flight Scopes; call it between
/// pipeline stages (tests, CLI startup), not inside parallel regions.
void reset();

/// Add `delta` to the named monotonic counter of `phase`. Counter names are
/// short snake_case literals ("samples", "estimates", "executed_ops").
void add(Phase phase, const char* counter, std::uint64_t delta = 1);

/// Record one externally-measured duration into `phase`, as if a Scope of
/// that length had just closed on the calling thread. For spans whose start
/// and end live on different threads (the serve daemon measures each request
/// from admission-queue entry to response write); prefer Scope everywhere a
/// span stays on one thread.
void record(Phase phase, double seconds);

/// RAII phase timer: construction stamps the start, destruction records the
/// elapsed wall time into the calling thread's sink. Scopes nest freely
/// (each records its own full span; nothing is subtracted) and may live on
/// pool worker threads.
class Scope {
public:
    explicit Scope(Phase phase);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Phase phase_;
    bool active_;
    std::uint64_t start_ns_ = 0;
};

#else // POWERGEAR_NO_OBS: probes compile to nothing.

inline bool enabled() { return false; }
inline void set_enabled(bool) {}
inline void reset() {}
inline void add(Phase, const char*, std::uint64_t = 1) {}
inline void record(Phase, double) {}

class Scope {
public:
    explicit Scope(Phase) {}
};

#endif // POWERGEAR_NO_OBS

} // namespace powergear::obs
