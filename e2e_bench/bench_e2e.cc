// bench_e2e: the served-archive benchmark.
//
// Hosts the real stack in-process (stack.h), drives it over loopback
// TCP with one of four SkyServer traffic mixes (workload.h) from at most
// four client connections, checks a fixed sample of answers against a
// one-shard oracle, and prints every metric by name and unit. The last
// line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics, or with --trace the per-layer ones.
//
//   bench_e2e --workload=<interactive|hotspot|mining|mydb> --seed=<n>
//             [--seconds=<window>] [--trace=<trace.json>]
//             [--state=<dir>]
//
// Exits 0 when every sampled answer matched, 1 on a wrong answer, 2 on
// a usage or set-up error.

#include <sys/statfs.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "answer.h"
#include "load.h"
#include "layers.h"
#include "spans.h"
#include "stack.h"
#include "stats.h"
#include "workload.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

/// Untimed traffic before the window: long enough for the hotspot cache
/// to hold its working set and the interactive cache to be evicting.
constexpr double kMaxWarmupS = 3.0;
/// Boots per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// How long in-flight statements may take to finish after the window.
constexpr double kDrainS = 30.0;
/// Answers checked per statement kind, in every run.
constexpr size_t kOracleSamplesPerKind = 8;
/// Statements replayed layer by layer in a traced run.
constexpr size_t kReplaySamples = 200;

struct Args {
  Workload workload = Workload::kInteractive;
  uint64_t seed = 1;
  double seconds = 12.0;
  std::string trace_path;
  std::string state_dir = ".bench_state";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2), value = a.substr(eq + 1);
    if (key == "workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
      if (!(args->seconds > 0.0 && args->seconds <= 120.0)) return false;
    } else if (key == "trace") {
      args->trace_path = value;
    } else if (key == "state") {
      args->state_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string FilesystemType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(st.f_type));
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

/// The first `per_kind` completed in-window samples of every statement
/// kind, in (connection, send order): a fixed function of the seed.
std::vector<const Sample*> FixedSample(const Schedule& schedule,
                                       std::vector<const Sample*> window,
                                       size_t per_kind) {
  std::sort(window.begin(), window.end(), [](auto* a, auto* b) {
    return a->conn != b->conn ? a->conn < b->conn : a->index < b->index;
  });
  std::map<std::string, size_t> taken;
  std::vector<const Sample*> out;
  Statement scratch;
  for (const Sample* s : window) {
    if (s->outcome != Outcome::kDone) continue;
    size_t& n = taken[StatementOf(schedule, *s, &scratch).kind];
    if (n < per_kind) {
      ++n;
      out.push_back(s);
    }
  }
  return out;
}

/// Checks each sampled statement twice against the oracle: the answer
/// it got inside the timed window, and a replay over the wire now
/// (cache hits included). A replayed INTO writes a fresh table. Returns
/// the number of mismatches, printing the first few.
size_t CheckAnswers(const Schedule& schedule, uint16_t port,
                    const std::vector<const Sample*>& sample, Oracle* oracle,
                    Clock::time_point origin) {
  std::map<std::string, std::unique_ptr<sdss::server::Client>> clients;
  size_t mismatches = 0;
  auto fail = [&mismatches](const Statement& st, const std::string& why) {
    if (++mismatches <= 8) {
      std::printf("  MISMATCH (%s): %s\n", why.c_str(), st.sql.c_str());
    }
  };
  for (const Sample* s : sample) {
    Statement scratch;
    const Statement& st = StatementOf(schedule, *s, &scratch);
    const std::string& user = schedule.connections[s->conn].user;
    auto want = oracle->Expected(st);
    if (!want.ok()) {
      fail(st, "oracle: " + want.status().ToString());
      continue;
    }
    if (!Matches(st.compare, *want, s->answer, s->done.rows)) {
      fail(st, "answer in the window");
    }
    auto& client = clients[user];
    if (client == nullptr) {
      auto c = sdss::server::Client::Connect("127.0.0.1", port, user);
      if (!c.ok()) {
        fail(st, "replay connect: " + c.status().ToString());
        continue;
      }
      client = std::make_unique<sdss::server::Client>(std::move(*c));
    }
    char fresh[32];
    std::snprintf(fresh, sizeof(fresh), "r%u_%u", s->conn, s->index);
    const Statement replay =
        st.cls == Class::kInto ? IntoTable(st, fresh) : st;
    const Sample again = Send(client.get(), replay, origin);
    if (again.outcome != Outcome::kDone) {
      fail(st, "replay did not complete");
    } else if (!Matches(st.compare, *want, again.answer, again.done.rows)) {
      fail(st, "replayed answer");
    }
  }
  for (auto& [user, client] : clients) (void)client->Bye();
  return mismatches;
}

/// The class of statements each mix was built to stress, whose latency
/// the end-to-end kind_median_ms reports.
Class PrimaryClass(Workload workload) {
  switch (workload) {
    case Workload::kMining: return Class::kSweep;
    case Workload::kMyDb: return Class::kInto;
    default: return Class::kQuick;
  }
}

/// Latencies of the primary class. An INTO's runs from its due time to
/// the DONE frame of its re-read: the whole materialize-and-read step.
std::vector<Timed> PrimaryLatencies(Workload workload,
                                    const Schedule& schedule,
                                    const std::vector<const Sample*>& window,
                                    const std::vector<Sample>& all) {
  std::map<std::pair<uint32_t, uint32_t>, const Sample*> by_position;
  for (const Sample& s : all) by_position[{s.conn, s.index}] = &s;
  const Class primary = PrimaryClass(workload);
  std::vector<Timed> out;
  for (const Sample* s : window) {
    if (s->cls != primary || s->outcome != Outcome::kDone) continue;
    double done_s = s->done_s;
    if (primary == Class::kInto) {
      auto next = by_position.find({s->conn, s->index + 1});
      if (next == by_position.end() ||
          next->second->outcome != Outcome::kDone) {
        continue;
      }
      done_s = next->second->done_s;
    }
    Statement scratch;
    out.push_back({StatementOf(schedule, *s, &scratch).kind,
                   (done_s - s->due_s) * 1e3});
  }
  return out;
}

void PrintClasses(const Schedule& schedule,
                  const std::vector<const Sample*>& window) {
  std::map<std::string, std::vector<double>> by_class, by_kind, rows;
  std::map<std::string, int> long_lane;
  for (const Sample* s : window) {
    if (s->outcome != Outcome::kDone) continue;
    Statement scratch;
    const std::string kind = StatementOf(schedule, *s, &scratch).kind;
    by_class[ClassName(s->cls)].push_back(s->LatencyS() * 1e3);
    by_kind[kind].push_back(s->LatencyS() * 1e3);
    rows[kind].push_back(static_cast<double>(s->done.rows));
    long_lane[kind] += s->lane;
  }
  std::printf("latency by class (ms, pooled over the window)\n");
  for (const auto& [name, v] : by_class) {
    std::printf("  %-8s n=%5zu  p50 %8.3f  p90 %8.3f  p99 %8.3f\n",
                name.c_str(), v.size(), Quantile(v, 0.5), Quantile(v, 0.9),
                Quantile(v, 0.99));
  }
  for (const auto& [name, v] : by_kind) {
    std::printf("  kind %-14s n=%5zu  p50 %8.3f  rows p50 %6.0f  long "
                "lane %d\n",
                name.c_str(), v.size(), Quantile(v, 0.5),
                Quantile(rows[name], 0.5), long_lane[name]);
  }
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

int Run(const Args& args) {
  const double warmup_s = std::min(kMaxWarmupS, args.seconds);
  const double stop_s = warmup_s + args.seconds;
  const std::string& state = args.state_dir;
  std::error_code ec;
  fs::remove_all(state, ec);
  fs::create_directories(state, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create state dir %s\n", state.c_str());
    return 2;
  }
  std::printf("workload %s, seed %" PRIu64 ", window %g s after %g s "
              "warmup\n",
              WorkloadName(args.workload), args.seed, args.seconds,
              warmup_s);
  std::printf("host: %u cpus, %s; state on %s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              FilesystemType(state).c_str());

  // Input generation, untimed.
  const std::string snapshot = state + "/sky.snap";
  if (auto st = WriteSkySnapshot(snapshot); !st.ok()) {
    std::fprintf(stderr, "sky snapshot: %s\n", st.ToString().c_str());
    return 2;
  }
  const Schedule schedule = MakeSchedule(args.workload, args.seed, stop_s);

  // Set-up: mapped boot through server listening, several times over.
  std::vector<double> boots;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    const auto t0 = Clock::now();
    auto booted = Boot(snapshot, state + "/boot" + std::to_string(i));
    boots.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!booted.ok()) {
      std::fprintf(stderr, "boot: %s\n", booted.status().ToString().c_str());
      return 2;
    }
    stack = std::move(*booted);
  }
  std::printf("sky: %" PRIu64 " objects; %zu connections\n",
              stack->store->object_count(), schedule.connections.size());

  // The timed window.
  const auto origin = Clock::now() + std::chrono::milliseconds(100);
  WindowProbe probe;
  std::thread monitor(Monitor, stack.get(), origin, warmup_s, stop_s, &probe);
  const LoadResult load =
      RunLoad(schedule, stack->server->port(), origin, stop_s, kDrainS);
  monitor.join();

  std::vector<const Sample*> window;
  uint64_t failed = load.undrained;
  for (const Sample& s : load.samples) {
    if (s.due_s < warmup_s || s.due_s >= stop_s) continue;
    window.push_back(&s);
    if (s.outcome != Outcome::kDone) ++failed;
  }
  const uint64_t attempted = window.size() + load.undrained;
  // Everything the stack wrote for the statements sent so far (the
  // oracle's replays below write more).
  const auto done = [](const Sample& s) { return s.outcome == Outcome::kDone; };
  const double since_boot = static_cast<double>(
      std::count_if(load.samples.begin(), load.samples.end(), done));
  const double disk_bytes_per_stmt = Ratio(
      static_cast<double>(DirectoryBytes(stack->state_dir)), since_boot);
  PrintClasses(schedule, window);

  // Answers.
  Oracle oracle(stack->store.get());
  const auto checked = FixedSample(schedule, window, kOracleSamplesPerKind);
  const size_t mismatches = CheckAnswers(schedule, stack->server->port(),
                                         checked, &oracle, origin);
  std::printf("oracle: %zu statements checked in the window and replayed, "
              "%zu mismatches\n",
              checked.size(), mismatches);
  const bool correct = mismatches == 0 && !checked.empty();

  const std::vector<Timed> primary =
      PrimaryLatencies(args.workload, schedule, window, load.samples);
  const std::vector<Metric> e2e = {
      {"kind_median_ms", KindMedian(primary), "ms"},
      {"disk_bytes_per_stmt", disk_bytes_per_stmt, "B"},
      {"rss_mb", probe.peak_rss_bytes / (1 << 20), "MiB"},
      {"setup_s", Median(boots), "s"},
  };
  PrintMetrics("end-to-end", e2e);
  std::printf("  (medians of %zu %s statements; failed %" PRIu64 " of %" PRIu64
              ")\n",
              primary.size(), ClassName(PrimaryClass(args.workload)), failed,
              attempted);

  std::vector<Metric> layers = WindowLayerMetrics(window, probe);
  std::vector<double> primary_ms;
  for (const Timed& t : primary) primary_ms.push_back(t.ms);
  layers.push_back({"latency.p50_ms", Quantile(primary_ms, 0.50), "ms"});
  layers.push_back({"latency.p90_ms", Quantile(primary_ms, 0.90), "ms"});
  layers.push_back({"latency.p99_ms", Quantile(primary_ms, 0.99), "ms"});
  layers.push_back(
      {"process.cpu_ms_per_stmt",
       Ratio(probe.cpu_s * 1e3, static_cast<double>(attempted - failed)),
       "ms"});
  if (!args.trace_path.empty()) {
    SpanLog log;
    for (const Sample* s : window) {
      if (s->outcome == Outcome::kDone) AddStatementSpans(*s, &log);
    }
    const size_t kinds = FixedSample(schedule, window, 1).size();
    const auto replayed = FixedSample(
        schedule, window, kReplaySamples / std::max<size_t>(1, kinds));
    auto replay = ReplayLayers(schedule, stack.get(), &oracle,
                               state + "/scratch_mydb", replayed, origin,
                               &log);
    if (!replay.ok()) {
      std::fprintf(stderr, "layer replay: %s\n",
                   replay.status().ToString().c_str());
      return 2;
    }
    layers.insert(layers.end(), replay->begin(), replay->end());
    std::printf("trace: %zu spans; per span name:\n%s", log.size(),
                log.SelfTimeTable().c_str());
    std::ofstream(args.trace_path)
        << log.ToChromeJson(std::string("bench_e2e ") +
                            WorkloadName(args.workload));
    std::printf("trace written to %s\n", args.trace_path.c_str());
  }
  PrintMetrics("per-layer", layers);

  stack.reset();
  fs::remove_all(state, ec);
  std::printf("%s\n", ResultJson(correct, attempted, failed,
                                 args.trace_path.empty() ? e2e : layers)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=<interactive|hotspot|mining|"
                 "mydb> --seed=<n> [--seconds=<s>] [--trace=<file>] "
                 "[--state=<dir>]\n");
    return 2;
  }
  return e2e::Run(args);
}
