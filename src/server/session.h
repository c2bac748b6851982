// One authenticated client connection of the query server.
//
// A session runs on its own thread: it performs the HELLO handshake,
// binds the connection to the authenticated user, then loops reading
// frames. Every QUERY is routed through the workbench scheduler's
// Submit with streaming hooks, so admission pricing, lane quotas,
// per-user concurrency, and cooperative cancel all apply to wire
// traffic exactly as they do to in-process submissions -- the session
// adds only the fast-path BUSY shed (quick lane past the threshold) in
// front of them.
//
// Threading: the session thread reads; the lane worker executing the
// in-flight job writes HEADER/ROWS/DONE frames. The shared Wire
// serializes writes and outlives both -- hooks retained by terminal job
// bookkeeping hold a Wire whose conn was nulled at teardown, never a
// dangling socket. While a query is in flight the session thread polls
// the socket (CANCEL, BYE, disconnect) instead of blocking, so a client
// that vanishes mid-stream cancels its job instead of leaking a worker.

#ifndef SDSS_SERVER_SESSION_H_
#define SDSS_SERVER_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/net.h"
#include "core/status.h"
#include "server/protocol.h"
#include "workbench/scheduler.h"

namespace sdss::server {

class QueryServer;

/// The write side of a session, shared between the session thread and
/// the lane worker streaming the in-flight job's frames. Writes are
/// serialized under `mu`; after the session tears down, `conn` is null
/// and writes report kAborted instead of touching a dead socket.
struct Wire {
  std::mutex mu;
  TcpConn* conn = nullptr;

  Status Write(const std::string& frame);
};

/// One client connection. Constructed by the server's accept loop and
/// driven by Run() on a dedicated thread; Shutdown() (any thread) wakes
/// blocked socket I/O so Run returns.
class Session {
 public:
  Session(uint64_t id, TcpConn conn, QueryServer* server);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The session thread body: handshake, then the frame loop. Returns
  /// once the session is over (orderly BYE, disconnect, protocol
  /// violation, or server shutdown) with the in-flight job, if any,
  /// cancelled and terminal.
  void Run();

  /// Wakes any blocked socket I/O so Run() unwinds. Any thread.
  void Shutdown() { conn_.Shutdown(); }

  uint64_t id() const { return id_; }

 private:
  /// The terminal handoff from one submission's on_complete hook to the
  /// session thread's drain loop: `done` flips exactly once, just before
  /// the terminal frame (DONE or ERROR) goes to the wire.
  struct Pending {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    workbench::JobState state = workbench::JobState::kQueued;
    /// Result-cache verdict of the terminal snapshot (at most one set);
    /// the drain loop folds it into the server's cache counters.
    bool cache_hit = false;
    bool cache_containment = false;
  };

  bool RunLoop();  ///< Returns true for an orderly (BYE) close.
  /// Handles one QUERY frame end to end: shed, submit, stream, drain.
  /// Returns false when the session must close.
  bool HandleQuery(std::string_view payload);
  /// Polls the socket while a job is in flight, handling CANCEL / BYE /
  /// disconnect. Returns false when the session must close.
  bool DrainInFlight(const std::shared_ptr<Pending>& pending,
                     uint64_t job_id);
  void SendBusy();
  void SendError(const Status& error, bool fatal);
  /// Counts a protocol violation and emits its operational event.
  void NoteProtocolError(const Status& error);

  const uint64_t id_;
  TcpConn conn_;
  QueryServer* const server_;
  std::shared_ptr<Wire> wire_;
  std::string user_;
};

}  // namespace sdss::server

#endif  // SDSS_SERVER_SESSION_H_
