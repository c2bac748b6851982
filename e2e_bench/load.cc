#include "load.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

namespace e2e {
namespace {

using sdss::server::Client;
using sdss::server::QueryOutcome;

double Since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

Clock::time_point At(Clock::time_point origin, double s) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
}

/// State the connection threads share with the coordinating thread.
struct Coordination {
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  std::vector<Client*> clients;  ///< Live connections, for the abort.
  std::atomic<bool> abort{false};
};

/// One connection's whole run. Returns its samples; adds the statements
/// it could not send to `undrained`.
std::vector<Sample> RunConnection(const Schedule& schedule, uint32_t conn,
                                  uint16_t port, Clock::time_point origin,
                                  double stop_s, Coordination* co,
                                  std::atomic<uint64_t>* undrained) {
  const ConnectionPlan& plan = schedule.connections[conn];
  std::vector<Sample> samples;
  auto connected = Client::Connect("127.0.0.1", port, plan.user);
  Client* client = connected.ok() ? &*connected : nullptr;
  {
    std::lock_guard<std::mutex> lock(co->mu);
    if (client != nullptr) co->clients.push_back(client);
  }
  auto count_unsent = [&](size_t from) {
    for (size_t i = from; i < plan.statements.size(); ++i) {
      if (plan.statements[i].due_s < stop_s) undrained->fetch_add(1);
    }
  };
  std::this_thread::sleep_until(origin);

  if (client == nullptr) {
    count_unsent(0);
  } else if (plan.closed_loop) {
    for (uint32_t i = 0; Since(origin) < stop_s && !co->abort.load(); ++i) {
      Sample s = Send(client, SweepStatement(schedule.seed, i), origin);
      s.conn = conn;
      s.index = i;
      samples.push_back(std::move(s));
    }
  } else {
    for (size_t i = 0; i < plan.statements.size(); ++i) {
      const Statement& st = plan.statements[i];
      const bool chained = st.due_s < 0;
      if (!chained && st.due_s >= stop_s) break;
      if (co->abort.load()) {
        count_unsent(i);
        break;
      }
      const bool idle = !chained && Since(origin) <= st.due_s;
      if (idle) std::this_thread::sleep_until(At(origin, st.due_s));
      Sample s = Send(client, st, origin);
      if (!chained) s.due_s = st.due_s;
      s.idle_at_due = idle;
      s.conn = conn;
      s.index = static_cast<uint32_t>(i);
      samples.push_back(std::move(s));
    }
  }

  std::lock_guard<std::mutex> lock(co->mu);
  std::erase(co->clients, client);
  if (client != nullptr && !co->abort.load()) (void)client->Bye();
  --co->running;
  co->cv.notify_all();
  return samples;
}

}  // namespace

Sample Send(Client* client, const Statement& s, Clock::time_point origin) {
  Sample out;
  out.cls = s.cls;
  out.send_s = out.due_s = Since(origin);
  auto result = client->Query(s.sql, [&](const sdss::query::RowBatch& rows) {
    out.answer.Add(rows, s.compare);
    return true;
  });
  out.done_s = Since(origin);
  if (!result.ok()) {
    out.outcome = Outcome::kIoFailure;
    return out;
  }
  switch (result->kind) {
    case QueryOutcome::Kind::kDone:
      out.outcome = Outcome::kDone;
      out.done = result->done;
      out.lane = result->header.lane;
      break;
    case QueryOutcome::Kind::kError:
      out.outcome = Outcome::kError;
      break;
    case QueryOutcome::Kind::kBusy:
      out.outcome = Outcome::kBusy;
      break;
  }
  return out;
}

std::string StatementId(const Sample& s) {
  char id[32];
  std::snprintf(id, sizeof(id), "c%u.%u", s.conn, s.index);
  return id;
}

const Statement& StatementOf(const Schedule& schedule, const Sample& s,
                             Statement* scratch) {
  const ConnectionPlan& plan = schedule.connections[s.conn];
  if (plan.closed_loop) {
    *scratch = SweepStatement(schedule.seed, s.index);
    return *scratch;
  }
  return plan.statements[s.index];
}

LoadResult RunLoad(const Schedule& schedule, uint16_t port,
                   Clock::time_point origin, double stop_s, double drain_s) {
  Coordination co;
  std::atomic<uint64_t> undrained{0};
  const size_t n = schedule.connections.size();
  std::vector<std::vector<Sample>> per_conn(n);
  std::vector<std::thread> threads;
  co.running = static_cast<int>(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      per_conn[c] = RunConnection(schedule, static_cast<uint32_t>(c), port,
                                  origin, stop_s, &co, &undrained);
    });
  }
  {
    std::unique_lock<std::mutex> lock(co.mu);
    if (!co.cv.wait_until(lock, At(origin, stop_s + drain_s),
                          [&] { return co.running == 0; })) {
      co.abort.store(true);
      for (Client* client : co.clients) client->Abort();
    }
  }
  for (std::thread& t : threads) t.join();

  LoadResult result;
  result.undrained = undrained.load();
  for (auto& samples : per_conn) {
    for (Sample& s : samples) result.samples.push_back(std::move(s));
  }
  return result;
}

}  // namespace e2e
