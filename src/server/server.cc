#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "server/protocol.h"

namespace sdss::server {

QueryServer::QueryServer(workbench::JobScheduler* scheduler,
                         ServerOptions options)
    : scheduler_(scheduler), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<metrics::Registry>();
    metrics_ = owned_metrics_.get();
  }
  counters_.sessions_accepted =
      metrics_->GetCounter("server_sessions_accepted");
  counters_.sessions_refused =
      metrics_->GetCounter("server_sessions_refused");
  counters_.auth_failures = metrics_->GetCounter("server_auth_failures");
  counters_.queries_submitted =
      metrics_->GetCounter("server_queries_submitted");
  counters_.queries_succeeded =
      metrics_->GetCounter("server_queries_succeeded");
  counters_.queries_failed = metrics_->GetCounter("server_queries_failed");
  counters_.busy_shed = metrics_->GetCounter("server_busy_shed");
  counters_.protocol_errors =
      metrics_->GetCounter("server_protocol_errors");
  counters_.accept_retries = metrics_->GetCounter("server_accept_retries");
  counters_.cache_hits = metrics_->GetCounter("server_cache_hits");
  counters_.cache_containment =
      metrics_->GetCounter("server_cache_containment");
  counters_.cache_misses = metrics_->GetCounter("server_cache_misses");
  counters_.sessions_active = metrics_->GetGauge("server_sessions_active");
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (started_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  Result<TcpListener> listener =
      TcpListener::Listen(options_.host, options_.port, options_.backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QueryServer::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  // Order matters: stop the accept loop first (it is the only thread
  // that spawns sessions), then wake every live session, then join.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Session>> live;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    live.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) live.push_back(session);
    threads.reserve(session_threads_.size());
    for (auto& [id, thread] : session_threads_) {
      threads.push_back(std::move(thread));
    }
    session_threads_.clear();
  }
  for (auto& session : live) session->Shutdown();
  for (auto& thread : threads) thread.join();
  ReapFinishedThreads();
}

void QueryServer::AcceptLoop() {
  // Backoff for transient accept failures: start small (exhaustion is
  // usually momentary -- a burst of sessions closing will free fds),
  // double up to a cap so a stuck host doesn't busy-spin.
  constexpr int kBackoffMinMs = 1;
  constexpr int kBackoffMaxMs = 100;
  int backoff_ms = kBackoffMinMs;
  for (;;) {
    Result<TcpConn> conn = listener_.Accept();
    if (!conn.ok()) {
      // Orderly shutdown (kAborted from Shutdown()) or a listener that
      // was never usable ends the loop. Running out of fds or buffers
      // must not: the listener is fine, the pressure is elsewhere and
      // temporary, and pending connections are still queued in the
      // backlog. Sleep a beat and take them when resources return.
      if (conn.status().code() != StatusCode::kUnavailable) return;
      counters_.accept_retries->Inc();
      for (int waited = 0; waited < backoff_ms && !stopped_.load();
           ++waited) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (stopped_.load()) return;
      backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
      // Freeing our own zombies may be exactly what un-wedges EMFILE.
      ReapFinishedThreads();
      continue;
    }
    backoff_ms = kBackoffMinMs;
    counters_.sessions_accepted->Inc();
    ReapFinishedThreads();

    size_t active;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      active = sessions_.size();
    }
    if (active >= options_.max_sessions) {
      // Shed at the door: a BUSY verdict and an orderly close keep the
      // accept queue draining -- refusing cheaply is what prevents the
      // backlog (and every client's connect latency) from collapsing.
      counters_.sessions_refused->Inc();
      LogEvent(options_.events, EventSeverity::kWarn, "server",
               "session_refused", 0,
               {{"active", std::to_string(active)},
                {"max", std::to_string(options_.max_sessions)}});
      workbench::QueueDepths depths = scheduler_->LaneDepths();
      BusyMsg busy;
      busy.retry_after_ms = options_.busy_retry_ms;
      busy.quick_queued = SaturatingU32(depths.quick_queued);
      busy.long_queued = SaturatingU32(depths.long_queued);
      conn->WriteAll(EncodeBusy(busy));
      continue;  // conn's destructor closes the socket.
    }

    uint64_t id;
    std::shared_ptr<Session> session;
    {
      // The thread handle must be in the map before the session can
      // reach OnSessionClosed (which looks it up to park it), so the
      // thread starts under the same lock OnSessionClosed takes.
      std::lock_guard<std::mutex> lock(sessions_mu_);
      id = next_session_id_++;
      session = std::make_shared<Session>(id, std::move(*conn), this);
      sessions_.emplace(id, session);
      counters_.sessions_active->Set(
          static_cast<int64_t>(sessions_.size()));
      session_threads_.emplace(
          id, std::thread([session] { session->Run(); }));
    }
  }
}

bool QueryServer::Authenticate(const std::string& user,
                               const std::string& token) const {
  if (user.empty()) return false;
  if (options_.users.empty()) return true;  // Open access.
  auto it = options_.users.find(user);
  // Constant-time: a wrong token must cost the same wall-clock whether
  // its first byte or its last byte is the mismatch.
  return it != options_.users.end() && ConstantTimeEquals(it->second, token);
}

void QueryServer::OnSessionClosed(uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(id);
  counters_.sessions_active->Set(static_cast<int64_t>(sessions_.size()));
  // Park this thread's own handle for the reaper (moving a std::thread
  // from the thread it names is fine; joining it is what must happen
  // elsewhere). Stop() may already have taken the whole map.
  auto it = session_threads_.find(id);
  if (it != session_threads_.end()) {
    finished_threads_.push_back(std::move(it->second));
    session_threads_.erase(it);
  }
}

void QueryServer::ReapFinishedThreads() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    done.swap(finished_threads_);
  }
  // A parked thread has already passed its sign-off; the join only
  // waits out the last instructions of its lambda.
  for (auto& thread : done) thread.join();
}

}  // namespace sdss::server
