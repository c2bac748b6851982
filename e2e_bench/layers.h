// Per-layer attribution, measured from outside every layer.
//
// Three sources, none of which needs a change to the archive: the stage
// clocks every DONE frame carries, metrics::Registry and ResultCache
// deltas across the timed window, and -- in a traced run -- a replay of
// a fixed sample of statements through each layer's public entry point,
// one span per call.

#ifndef E2E_BENCH_LAYERS_H_
#define E2E_BENCH_LAYERS_H_

#include <string>
#include <vector>

#include "answer.h"
#include "core/metrics.h"
#include "core/status.h"
#include "load.h"
#include "query/result_cache.h"
#include "spans.h"
#include "stack.h"
#include "stats.h"
#include "workload.h"

namespace e2e {

/// What the monitor thread saw at the edges of the timed window.
struct WindowProbe {
  std::vector<sdss::metrics::InstrumentSnapshot> start, end;
  sdss::query::ResultCache::Stats cache_start, cache_end;
  double cpu_s = 0.0;  ///< Process CPU time inside the window.
  double peak_rss_bytes = 0.0;
};

/// Snapshots the registry, the result cache and the process CPU clock
/// at `warmup_s` and `stop_s` run seconds, sampling VmRSS every second
/// in between.
void Monitor(Stack* stack, Clock::time_point origin, double warmup_s,
             double stop_s, WindowProbe* out);

/// Per-layer metrics of the timed window, from DONE frames and the
/// probe's deltas.
std::vector<Metric> WindowLayerMetrics(
    const std::vector<const Sample*>& window, const WindowProbe& probe);

/// Bytes of the regular files under `dir`, recursively.
uint64_t DirectoryBytes(const std::string& dir);

/// Lays out one statement's spans from its DONE durations: the client's
/// root span, then admission wait and the run with its engine stages.
void AddStatementSpans(const Sample& s, SpanLog* log);

/// Replays `sample` through query::Parse, EstimateCost, ExecuteStreaming
/// with the result cache bypassed, and MyDb::Put of the statement's
/// cone into a scratch MyDB under `scratch_dir`; returns the replay
/// metrics (and persist.space_amp over both MyDBs).
sdss::Result<std::vector<Metric>> ReplayLayers(
    const Schedule& schedule, Stack* stack, Oracle* oracle,
    const std::string& scratch_dir, const std::vector<const Sample*>& sample,
    Clock::time_point origin, SpanLog* log);

}  // namespace e2e

#endif  // E2E_BENCH_LAYERS_H_
