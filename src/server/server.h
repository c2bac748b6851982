// The archive's TCP front end.
//
// The paper's architecture puts a thin server between community users
// and the query engine ("the user talks to the archive through the
// User Interface / Query Support layers"); its successor services
// (SkyServer, CasJobs) made that front end a network protocol with
// authentication, per-user workspaces, and admission control. This
// module is that layer for the reproduction: a QueryServer accepts TCP
// connections, speaks the framed protocol of server/protocol.h
// (normative spec: docs/PROTOCOL.md), authenticates each session, and
// routes every statement through the workbench::JobScheduler so wire
// traffic gets the same cost-based admission, lane quotas, and
// cancellation as in-process submissions.
//
// Overload degrades gracefully instead of collapsing the accept queue:
//   - sessions above `max_sessions` are answered with BUSY and closed
//     at the door (bounded session set, bounded accept backlog);
//   - a QUERY arriving while the quick lane queues deeper than
//     `busy_quick_depth` is shed with BUSY + retry-after *before*
//     parsing -- no cycles spent planning work that would be refused;
//   - the scheduler's own bounded lanes (Options::max_queued_*) refuse
//     with kUnavailable, which the session translates to BUSY.

#ifndef SDSS_SERVER_SERVER_H_
#define SDSS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/eventlog.h"
#include "core/metrics.h"
#include "core/net.h"
#include "core/status.h"
#include "server/session.h"
#include "workbench/scheduler.h"

namespace sdss::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = pick an ephemeral port (readable via QueryServer::port()).
  uint16_t port = 0;
  int backlog = 128;
  /// Concurrent session ceiling; connections beyond it get BUSY + close.
  size_t max_sessions = 1024;
  /// Shed QUERYs (BUSY) once the quick lane queues this deep; 0 turns
  /// the fast-path shed off (the scheduler's bounds still apply).
  size_t busy_quick_depth = 64;
  /// Client backoff hint carried in every BUSY frame.
  uint32_t busy_retry_ms = 50;
  /// Protocol violation above this; must cover HELLO and QUERY frames.
  size_t max_frame_bytes = 1 << 20;
  /// Per-statement SQL ceiling; larger statements get a non-fatal ERROR.
  size_t max_sql_bytes = 64 << 10;
  /// user -> token. Empty map = open access (tests, local exploration).
  std::map<std::string, std::string> users;
  /// Human-readable server identification carried in WELCOME.
  std::string banner = "sdss-archive";
  /// Registry the server's counters live in (must outlive the server).
  /// Null = the server creates and owns a private registry. Pass the
  /// same registry the scheduler/engine/journal use so one STATS frame
  /// reports the whole process (see QueryServer::metrics()).
  metrics::Registry* metrics = nullptr;
  /// Operational events (component "server"): refused sessions, auth
  /// failures, and fatal protocol errors. Null = no events; must
  /// outlive the server.
  EventLog* events = nullptr;
};

/// The TCP front end. Start() spawns the accept loop; every accepted
/// connection runs a Session on its own thread. Stop() (idempotent,
/// also run by the destructor) shuts the listener, wakes every live
/// session, and joins all threads; in-flight jobs are cancelled through
/// the scheduler, never abandoned.
///
/// The scheduler (and everything behind it) must outlive the server.
class QueryServer {
 public:
  QueryServer(workbench::JobScheduler* scheduler, ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  Status Start();
  void Stop();

  /// The listening port, valid after Start() succeeded.
  uint16_t port() const { return port_; }

  const ServerOptions& options() const { return options_; }
  workbench::JobScheduler* scheduler() const { return scheduler_; }
  /// The registry every server_* instrument lives in: the caller's
  /// (ServerOptions::metrics) or the server's own private fallback.
  /// These instruments are the server's only stats: read them with
  /// GetCounter("server_...")->Value() (sessions_accepted / _refused,
  /// auth_failures, queries_submitted / _succeeded / _failed, busy_shed,
  /// protocol_errors, accept_retries, and the succeeded queries'
  /// cache_hits / cache_containment / cache_misses verdicts) and
  /// GetGauge("server_sessions_active"). Snapshot() of this is what a
  /// STATS frame ships.
  metrics::Registry* metrics() const { return metrics_; }

 private:
  friend class Session;

  /// Runs until Stop(). Transient accept failures (the kernel out of
  /// fds or socket buffers) are counted in server_accept_retries and
  /// waited out with a short capped backoff -- connections keep
  /// queueing in the backlog and are served once resources return;
  /// only shutdown (or a genuinely broken listener) ends the loop.
  void AcceptLoop();
  /// True when `user`/`token` may open a session. The token check is
  /// constant-time (see protocol.h ConstantTimeEquals).
  bool Authenticate(const std::string& user, const std::string& token) const;
  /// Session thread's sign-off: drops the server's reference and parks
  /// its own thread handle on the finished list for reaping.
  void OnSessionClosed(uint64_t id);
  /// Joins every thread on the finished list. Called by the accept loop
  /// on each connection (a long-running server must not accumulate one
  /// zombie thread per session ever served) and by Stop().
  void ReapFinishedThreads();

  /// The server_* instruments, resolved by name once in the constructor
  /// so the per-statement path does no lookup. They hold no values of
  /// their own: pointers are stable for the registry's lifetime, and
  /// sessions bump them lock-free.
  struct Counters {
    metrics::Counter* sessions_accepted = nullptr;
    metrics::Counter* sessions_refused = nullptr;
    metrics::Counter* auth_failures = nullptr;
    metrics::Counter* queries_submitted = nullptr;
    metrics::Counter* queries_succeeded = nullptr;
    metrics::Counter* queries_failed = nullptr;
    metrics::Counter* busy_shed = nullptr;
    metrics::Counter* protocol_errors = nullptr;
    metrics::Counter* accept_retries = nullptr;
    metrics::Counter* cache_hits = nullptr;
    metrics::Counter* cache_containment = nullptr;
    metrics::Counter* cache_misses = nullptr;
    metrics::Gauge* sessions_active = nullptr;
  };

  workbench::JobScheduler* const scheduler_;
  const ServerOptions options_;
  /// Fallback registry when ServerOptions::metrics is null; `metrics_`
  /// points at whichever registry is in use.
  std::unique_ptr<metrics::Registry> owned_metrics_;
  metrics::Registry* metrics_ = nullptr;
  TcpListener listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  mutable std::mutex sessions_mu_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  /// Live session threads by session id; a closing session moves its
  /// own handle to `finished_threads_`, where it awaits a cheap join.
  std::map<uint64_t, std::thread> session_threads_;
  std::vector<std::thread> finished_threads_;
  Counters counters_;
};

}  // namespace sdss::server

#endif  // SDSS_SERVER_SERVER_H_
