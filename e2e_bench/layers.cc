#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "archive/mydb.h"
#include "catalog/photo_obj.h"
#include "core/proc_stats.h"
#include "query/parser.h"

namespace e2e {
namespace {

using sdss::metrics::HistogramSnapshot;
using sdss::metrics::InstrumentSnapshot;

const InstrumentSnapshot* Find(const std::vector<InstrumentSnapshot>& view,
                               const std::string& name) {
  for (const InstrumentSnapshot& inst : view) {
    if (inst.name == name) return &inst;
  }
  return nullptr;
}

double CounterDelta(const WindowProbe& p, const std::string& name) {
  const InstrumentSnapshot* a = Find(p.start, name);
  const InstrumentSnapshot* b = Find(p.end, name);
  if (b == nullptr) return 0.0;
  return static_cast<double>(b->counter - (a ? a->counter : 0));
}

/// The observations a histogram gained across the window.
HistogramSnapshot HistDelta(const WindowProbe& p, const std::string& name) {
  HistogramSnapshot d;
  const InstrumentSnapshot* b = Find(p.end, name);
  if (b == nullptr) return d;
  std::map<uint8_t, uint64_t> counts;
  for (auto [bucket, n] : b->hist.buckets) counts[bucket] += n;
  d.count = b->hist.count;
  if (const InstrumentSnapshot* a = Find(p.start, name)) {
    for (auto [bucket, n] : a->hist.buckets) {
      counts[bucket] -= std::min(counts[bucket], n);
    }
    d.count -= std::min(d.count, a->hist.count);
  }
  for (auto [bucket, n] : counts) {
    if (n > 0) d.buckets.emplace_back(bucket, n);
  }
  return d;
}

/// Quantile of a log2-bucket histogram, interpolated linearly inside the
/// bucket that holds it (bucket i spans [2^(i-1), 2^i)), so it does not
/// read the same bucket bound on every run.
double HistQuantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double below = 0.0;
  for (auto [bucket, n] : h.buckets) {
    if (below + static_cast<double>(n) >= rank) {
      if (bucket == 0) return 0.0;
      const double lo = std::ldexp(1.0, bucket - 1);
      return lo + lo * (rank - below) / static_cast<double>(n);
    }
    below += static_cast<double>(n);
  }
  return std::ldexp(1.0, h.buckets.back().first);
}

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

Clock::time_point At(Clock::time_point origin, double s) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
}

double Since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

}  // namespace

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void Monitor(Stack* stack, Clock::time_point origin, double warmup_s,
             double stop_s, WindowProbe* out) {
  sdss::query::ResultCache* cache = stack->engine->result_cache();
  std::this_thread::sleep_until(At(origin, warmup_s));
  out->start = stack->registry.Snapshot();
  out->cache_start = cache->stats();
  const double cpu0 = ProcessCpuSeconds();
  for (double t = warmup_s; t < stop_s; t += 1.0) {
    if (auto rss = sdss::ReadRssBytes(); rss.ok()) {
      out->peak_rss_bytes =
          std::max(out->peak_rss_bytes, static_cast<double>(*rss));
    }
    std::this_thread::sleep_until(At(origin, std::min(t + 1.0, stop_s)));
  }
  out->cpu_s = ProcessCpuSeconds() - cpu0;
  out->end = stack->registry.Snapshot();
  out->cache_end = cache->stats();
}

std::vector<Metric> WindowLayerMetrics(
    const std::vector<const Sample*>& window, const WindowProbe& probe) {
  std::vector<double> pre_run, queue, run, plan, containers, late;
  double wall = 0, probe_s = 0, ghost = 0, fan_out = 0, stream_out = 0;
  double rows = 0, bytes = 0;
  double per_class[kNumClasses] = {};
  for (const Sample* s : window) {
    if (s->outcome != Outcome::kDone) continue;
    const sdss::server::DoneMsg& d = s->done;
    const double w = s->done_s - s->send_s;
    ++per_class[static_cast<int>(s->cls)];
    wall += w;
    pre_run.push_back((w - d.seconds_queued - d.seconds_running) * 1e3);
    queue.push_back(d.seconds_queued * 1e3);
    run.push_back(d.seconds_running * 1e3);
    plan.push_back(d.seconds_plan * 1e3);
    containers.push_back(static_cast<double>(d.containers_scanned));
    probe_s += d.seconds_cache_probe;
    ghost += d.seconds_ghost_harvest;
    fan_out += d.seconds_fan_out;
    stream_out += d.seconds_stream_out;
    rows += static_cast<double>(d.rows);
    bytes += static_cast<double>(d.bytes_touched);
    if (s->idle_at_due) late.push_back((s->send_s - s->due_s) * 1e3);
  }
  const auto& c0 = probe.cache_start;
  const auto& c1 = probe.cache_end;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double contained =
      static_cast<double>(c1.containment_hits - c0.containment_hits);
  const double probes =
      hits + contained + static_cast<double>(c1.misses - c0.misses);
  const double stmts = static_cast<double>(window.size());
  const HistogramSnapshot append =
      HistDelta(probe, "persist_journal_append_us");
  const HistogramSnapshot fsync =
      HistDelta(probe, "persist_journal_fsync_us");

  return {
      {"server.pre_run_ms.p50", Median(pre_run), "ms"},
      {"server.stream_out_share", Ratio(stream_out, wall), "ratio"},
      {"server.busy_shed", CounterDelta(probe, "server_busy_shed"), "count"},
      {"workbench.queue_wait_ms.p50", Quantile(queue, 0.50), "ms"},
      {"workbench.queue_wait_ms.p99", Quantile(queue, 0.99), "ms"},
      {"workbench.run_ms.p50", Median(run), "ms"},
      {"query.plan_ms.p50", Median(plan), "ms"},
      {"query.cache_probe_share", Ratio(probe_s, wall), "ratio"},
      {"query.cache_probes", probes, "count"},
      {"query.cache_hit_ratio", Ratio(hits + contained, probes), "ratio"},
      {"query.cache_containment_share", Ratio(contained, probes), "ratio"},
      {"query.cache_evictions_per_stmt",
       Ratio(static_cast<double>(c1.evictions - c0.evictions), stmts),
       "ratio"},
      {"query.cache_entries", static_cast<double>(c1.entries), "count"},
      {"query.ghost_harvest_share", Ratio(ghost, wall), "ratio"},
      {"query.fan_out_share", Ratio(fan_out, wall), "ratio"},
      {"htm.containers_per_stmt.p50", Median(containers), "count"},
      {"catalog.bytes_per_row", Ratio(bytes, rows), "B"},
      {"persist.appends_per_stmt",
       Ratio(CounterDelta(probe, "persist_journal_appends"), stmts), "ratio"},
      {"persist.append_us.p50", HistQuantile(append, 0.50), "us"},
      {"persist.append_us.p99", HistQuantile(append, 0.99), "us"},
      {"persist.fsync_us.p50", HistQuantile(fsync, 0.50), "us"},
      {"persist.fsync_us.p99", HistQuantile(fsync, 0.99), "us"},
      {"gen.late_p99_ms", Quantile(late, 0.99), "ms"},
      {"gen.late_max_ms", Quantile(late, 1.0), "ms"},
      {"gen.quick_samples", per_class[static_cast<int>(Class::kQuick)],
       "count"},
      {"gen.sweep_samples", per_class[static_cast<int>(Class::kSweep)],
       "count"},
      {"gen.into_samples", per_class[static_cast<int>(Class::kInto)],
       "count"},
      {"gen.reread_samples", per_class[static_cast<int>(Class::kReread)],
       "count"},
  };
}

void AddStatementSpans(const Sample& s, SpanLog* log) {
  const sdss::server::DoneMsg& d = s.done;
  const std::string id = StatementId(s);
  const int lane = static_cast<int>(s.conn) + 1;
  const int root =
      log->Add({"client.query", s.due_s, s.done_s - s.due_s, -1, lane, id});
  // The server's part ends when the DONE frame arrives; what precedes
  // it (wire, session, admission pricing) is the root's self time.
  double t = s.done_s - d.seconds_queued - d.seconds_running;
  log->Add({"workbench.queue_wait", t, d.seconds_queued, root, lane, id});
  t += d.seconds_queued;
  const int run =
      log->Add({"workbench.run", t, d.seconds_running, root, lane, id});
  const std::pair<const char*, double> stages[] = {
      {"query.plan", d.seconds_plan},
      {"query.cache_probe", d.seconds_cache_probe},
      {"query.ghost_harvest", d.seconds_ghost_harvest},
      {"query.fan_out", d.seconds_fan_out}};
  for (auto [name, dur] : stages) {
    if (dur <= 0.0) continue;
    const int span = log->Add({name, t, dur, run, lane, id});
    if (std::string_view(name) == "query.fan_out" &&
        d.seconds_stream_out > 0.0) {
      log->Add({"server.stream_out", t + dur - d.seconds_stream_out,
                d.seconds_stream_out, span, lane, id});
    }
    t += dur;
  }
}

sdss::Result<std::vector<Metric>> ReplayLayers(
    const Schedule& schedule, Stack* stack, Oracle* oracle,
    const std::string& scratch_dir, const std::vector<const Sample*>& sample,
    Clock::time_point origin, SpanLog* log) {
  constexpr int kReplayLane = 10;
  sdss::archive::MyDb::Options scratch_options;
  scratch_options.persist_dir = scratch_dir;
  sdss::archive::MyDb scratch(scratch_options);
  if (auto attached = scratch.AttachStorage(); !attached.ok()) {
    return attached.status();
  }

  std::vector<double> parse_us, admit_ms, exec_ms, put_ms;
  double containers = 0, columnar = 0, bytes = 0, fan_out_s = 0;
  // Times `call`, logs it as a span, and returns its duration.
  auto timed = [&](const char* name, const std::string& id, auto&& call) {
    const double t0 = Since(origin);
    auto result = call();
    const double t1 = Since(origin);
    log->Add({name, t0, t1 - t0, -1, kReplayLane, id});
    return std::make_pair(std::move(result), t1 - t0);
  };
  for (const Sample* s : sample) {
    Statement scratch_stmt;
    const Statement& st = StatementOf(schedule, *s, &scratch_stmt);
    const std::string id = StatementId(*s);
    sdss::query::ExecContext ctx;
    ctx.mydb = stack->mydb->ResolverFor(schedule.connections[s->conn].user);
    ctx.no_result_cache = true;

    auto [parsed, parse_s] =
        timed("query.parse", id, [&] { return sdss::query::Parse(st.sql); });
    if (!parsed.ok()) return parsed.status();
    parse_us.push_back(parse_s * 1e6);

    auto [cost, cost_s] = timed("workbench.admit", id, [&] {
      return stack->engine->EstimateCost(st.sql, ctx);
    });
    if (!cost.ok()) return cost.status();
    admit_ms.push_back(cost_s * 1e3);

    // The engine alone refuses INTO, so an INTO's select runs bare.
    const std::string& sql = st.cls == Class::kInto ? st.oracle_sql : st.sql;
    auto [exec, exec_s] = timed("query.execute_nocache", id, [&] {
      return stack->engine->ExecuteStreaming(
          sql, [](const sdss::query::RowBatch&) { return true; }, ctx);
    });
    if (!exec.ok()) return exec.status();
    exec_ms.push_back(exec_s * 1e3);
    containers += static_cast<double>(exec->containers_scanned);
    columnar += static_cast<double>(exec->containers_columnar);
    bytes += static_cast<double>(exec->bytes_touched);
    fan_out_s += exec->seconds_fan_out;

    if (st.cone.radius <= 0.0) continue;
    // The write path of an INTO: the objects of a 1-degree cone at the
    // statement's centre, materialized by MyDb::Put.
    char cone_sql[128];
    std::snprintf(cone_sql, sizeof(cone_sql),
                  "SELECT * FROM photo WHERE CIRCLE('GAL', %.6f, %.6f, 1)",
                  st.cone.l, st.cone.b);
    auto rows = oracle->Rows(cone_sql);
    if (!rows.ok()) return rows.status();
    std::vector<sdss::catalog::PhotoObj> objects;
    for (const sdss::query::ResultRow& row : rows->rows) {
      auto obj = sdss::catalog::PhotoObjFromRow(rows->columns, row.values);
      if (!obj.ok()) return obj.status();
      objects.push_back(*obj);
    }
    char table[32];
    std::snprintf(table, sizeof(table), "p%zu", put_ms.size());
    auto [put, put_s] = timed("archive.mydb_put", id, [&] {
      return scratch.Put("replay", table, std::move(objects));
    });
    if (!put.ok()) return put;
    put_ms.push_back(put_s * 1e3);
  }

  uint64_t used = scratch.UsedBytes("replay");
  for (const ConnectionPlan& plan : schedule.connections) {
    used += stack->mydb->UsedBytes(plan.user);
  }
  const double on_disk = static_cast<double>(
      DirectoryBytes(stack->mydb_dir) + DirectoryBytes(scratch_dir));
  return std::vector<Metric>{
      {"query.parse_us.p50", Median(parse_us), "us"},
      {"workbench.admit_ms.p50", Median(admit_ms), "ms"},
      {"query.exec_nocache_ms.p50", Median(exec_ms), "ms"},
      {"query.columnar_share", Ratio(columnar, containers), "ratio"},
      {"catalog.scan_mb_per_s", Ratio(bytes / 1e6, fan_out_s), "MB/s"},
      {"archive.mydb_put_ms.p50", Median(put_ms), "ms"},
      {"persist.space_amp", Ratio(on_disk, static_cast<double>(used)),
       "ratio"},
      {"gen.replayed_statements", static_cast<double>(sample.size()),
       "count"},
  };
}

}  // namespace e2e
