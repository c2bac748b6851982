#include "server/session.h"

#include <utility>

#include "server/server.h"

namespace sdss::server {

Status Wire::Write(const std::string& frame) {
  std::lock_guard<std::mutex> lock(mu);
  if (conn == nullptr) {
    return Status::Aborted("session torn down");
  }
  return conn->WriteAll(frame);
}

Session::Session(uint64_t id, TcpConn conn, QueryServer* server)
    : id_(id),
      conn_(std::move(conn)),
      server_(server),
      wire_(std::make_shared<Wire>()) {
  wire_->conn = &conn_;
}

void Session::NoteProtocolError(const Status& error) {
  server_->counters_.protocol_errors->Inc();
  LogEvent(server_->options().events, EventSeverity::kError, "server",
           "protocol_error", id_,
           {{"user", user_}, {"error", error.ToString()}});
}

void Session::Run() {
  RunLoop();
  // From here no frame may touch the socket: terminal-job bookkeeping
  // retains hooks (and this Wire) long after the session is gone, and
  // they must see a tombstone, not a recycled fd.
  {
    std::lock_guard<std::mutex> lock(wire_->mu);
    wire_->conn = nullptr;
  }
  conn_.Shutdown();
  server_->OnSessionClosed(id_);
}

bool Session::RunLoop() {
  const ServerOptions& opts = server_->options();

  // Handshake: exactly one HELLO, answered with WELCOME or fatal ERROR.
  Result<Frame> first = ReadFrame(&conn_, opts.max_frame_bytes);
  if (!first.ok()) {
    if (first.status().code() != StatusCode::kAborted) {
      NoteProtocolError(first.status());
      SendError(first.status(), /*fatal=*/true);
    }
    return false;
  }
  if (first->type != MsgType::kHello) {
    Status error = Status::InvalidArgument(
        std::string("expected HELLO, got ") + MsgTypeName(first->type));
    NoteProtocolError(error);
    SendError(error, /*fatal=*/true);
    return false;
  }
  Result<HelloMsg> hello = DecodeHello(first->payload);
  if (!hello.ok()) {
    NoteProtocolError(hello.status());
    SendError(hello.status(), /*fatal=*/true);
    return false;
  }
  if (hello->version != kProtocolVersion) {
    Status error = Status::FailedPrecondition(
        "protocol version " + std::to_string(hello->version) +
        " not supported (server speaks " +
        std::to_string(kProtocolVersion) + ")");
    NoteProtocolError(error);
    SendError(error, /*fatal=*/true);
    return false;
  }
  if (!server_->Authenticate(hello->user, hello->token)) {
    server_->counters_.auth_failures->Inc();
    LogEvent(server_->options().events, EventSeverity::kWarn, "server",
             "auth_failure", id_, {{"user", hello->user}});
    SendError(Status::InvalidArgument("unknown user or bad token"),
              /*fatal=*/true);
    return false;
  }
  user_ = hello->user;
  WelcomeMsg welcome;
  welcome.session_id = id_;
  welcome.banner = opts.banner;
  if (!wire_->Write(EncodeWelcome(welcome)).ok()) return false;

  for (;;) {
    Result<Frame> frame = ReadFrame(&conn_, opts.max_frame_bytes);
    if (!frame.ok()) {
      // kAborted = the client hung up without BYE; anything else is a
      // torn or oversized frame -- the stream cannot be re-synced.
      if (frame.status().code() != StatusCode::kAborted) {
        NoteProtocolError(frame.status());
        SendError(frame.status(), /*fatal=*/true);
      }
      return false;
    }
    switch (frame->type) {
      case MsgType::kQuery:
        if (!HandleQuery(frame->payload)) return false;
        break;
      case MsgType::kCancel:
        // Nothing in flight (completion may have raced the CANCEL onto
        // the wire): a no-op by protocol.
        break;
      case MsgType::kStats:
        // A point-in-time snapshot of the whole registry: when the
        // caller wired one registry through scheduler, engine, journal,
        // and server, this one frame reports the full process.
        if (!wire_->Write(EncodeStatsReport(
                 StatsMsg{1, server_->metrics()->Snapshot()}))
                 .ok()) {
          return false;
        }
        break;
      case MsgType::kBye:
        return true;
      default: {
        Status error = Status::InvalidArgument(
            std::string("unexpected ") + MsgTypeName(frame->type) +
            " frame");
        NoteProtocolError(error);
        SendError(error, /*fatal=*/true);
        return false;
      }
    }
  }
}

bool Session::HandleQuery(std::string_view payload) {
  const ServerOptions& opts = server_->options();
  workbench::JobScheduler* scheduler = server_->scheduler();

  Result<QueryMsg> query = DecodeQuery(payload);
  if (!query.ok()) {
    NoteProtocolError(query.status());
    SendError(query.status(), /*fatal=*/true);
    return false;
  }
  if (query->sql.size() > opts.max_sql_bytes) {
    SendError(Status::InvalidArgument(
                  "statement of " + std::to_string(query->sql.size()) +
                  " bytes exceeds the " +
                  std::to_string(opts.max_sql_bytes) + "-byte limit"),
              /*fatal=*/false);
    return true;
  }

  // Fast-path shed, before any parsing: a quick lane already queued past
  // the threshold means interactive latency is gone -- spending the
  // core planning a statement that bounded admission would refuse
  // anyway only deepens the overload.
  if (opts.busy_quick_depth > 0 &&
      scheduler->LaneDepths().quick_queued >= opts.busy_quick_depth) {
    SendBusy();
    return true;
  }

  auto pending = std::make_shared<Pending>();
  std::shared_ptr<Wire> wire = wire_;
  workbench::StreamHooks hooks;
  hooks.on_header = [wire](uint64_t job_id, workbench::Lane lane,
                           const query::ResultHeader& header) {
    HeaderMsg msg;
    msg.job_id = job_id;
    msg.lane = lane == workbench::Lane::kLong ? 1 : 0;
    msg.is_aggregate = header.is_aggregate;
    msg.columns = header.columns;
    wire->Write(EncodeHeader(msg));  // Failure surfaces on the next batch.
  };
  hooks.on_batch = [wire](const query::RowBatch& batch) {
    // A dead client fails the write; returning false cancels the job so
    // no worker keeps scanning for a result nobody will read.
    return wire->Write(EncodeRows(batch)).ok();
  };
  hooks.on_complete = [pending, wire](const workbench::JobSnapshot& snap) {
    // Flip `done` BEFORE the terminal write, not after: once the write
    // lands, the client may answer with its next QUERY faster than this
    // thread gets rescheduled, and the drain loop must already see
    // `done` by then or it would misread that QUERY as a violation.
    // The inverse order is safe: the session thread writes nothing
    // until the client's next statement, and the client does not send
    // one until it received this terminal frame.
    {
      std::lock_guard<std::mutex> lock(pending->mu);
      pending->done = true;
      pending->state = snap.state;
      pending->cache_hit = snap.exec.cache_hit;
      pending->cache_containment = snap.exec.cache_containment;
      pending->cv.notify_all();
    }
    if (snap.state == workbench::JobState::kSucceeded) {
      DoneMsg done;
      done.job_id = snap.id;
      done.rows = snap.rows;
      done.seconds_queued = snap.seconds_queued;
      done.seconds_running = snap.seconds_running;
      done.containers_scanned = snap.exec.containers_scanned;
      done.bytes_touched = snap.exec.bytes_touched;
      done.seconds_plan = snap.exec.seconds_plan;
      done.seconds_cache_probe = snap.exec.seconds_cache_probe;
      done.seconds_ghost_harvest = snap.exec.seconds_ghost_harvest;
      done.seconds_fan_out = snap.exec.seconds_fan_out;
      done.seconds_stream_out = snap.exec.seconds_stream_out;
      wire->Write(EncodeDone(done));
    } else {
      ErrorMsg error;
      error.code = snap.error.code();
      error.fatal = false;
      error.message = snap.error.message();
      wire->Write(EncodeError(error));
    }
  };

  Result<uint64_t> submitted =
      scheduler->Submit(user_, query->sql, std::move(hooks));
  if (!submitted.ok()) {
    if (submitted.status().code() == StatusCode::kUnavailable) {
      // Bounded admission refused the lane: same verdict as the
      // fast-path shed, decided with the statement actually priced.
      SendBusy();
    } else {
      SendError(submitted.status(), /*fatal=*/false);
    }
    return true;
  }
  server_->counters_.queries_submitted->Inc();
  return DrainInFlight(pending, *submitted);
}

bool Session::DrainInFlight(const std::shared_ptr<Pending>& pending,
                            uint64_t job_id) {
  workbench::JobScheduler* scheduler = server_->scheduler();
  bool keep_session = true;
  bool abandoned = false;  ///< Socket is done; just wait for terminal.

  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pending->mu);
      if (abandoned) {
        // The job was cancelled; the cooperative flag stops it at the
        // next scan/join cancellation point. Waiting here (not in some
        // detached limbo) is what "no leaked worker" means.
        pending->cv.wait(lock, [&pending] { return pending->done; });
      }
      if (pending->done) break;
    }
    Result<bool> readable = conn_.WaitReadable(/*timeout_ms=*/20);
    if (!readable.ok()) {
      scheduler->Cancel(job_id);
      keep_session = false;
      abandoned = true;
      continue;
    }
    if (!*readable) continue;
    {
      // Readable while in flight is CANCEL, BYE, a violation -- or the
      // next QUERY of a conforming client, which can only arrive after
      // our DONE/ERROR frame, i.e. after `done` was set. Re-checking
      // here keeps that QUERY buffered for the main loop instead of
      // misreading it as a violation.
      std::lock_guard<std::mutex> lock(pending->mu);
      if (pending->done) break;
    }
    Result<Frame> frame =
        ReadFrame(&conn_, server_->options().max_frame_bytes);
    if (!frame.ok()) {
      // Mid-stream disconnect (or torn frame): cancel the job, close.
      if (frame.status().code() != StatusCode::kAborted) {
        NoteProtocolError(frame.status());
      }
      scheduler->Cancel(job_id);
      keep_session = false;
      abandoned = true;
      continue;
    }
    switch (frame->type) {
      case MsgType::kCancel:
        // Terminal-race is fine: Cancel answers FailedPrecondition and
        // the client still gets the job's real terminal frame.
        scheduler->Cancel(job_id);
        break;
      case MsgType::kBye:
        scheduler->Cancel(job_id);
        keep_session = false;
        abandoned = true;
        break;
      default: {
        Status error = Status::FailedPrecondition(
            std::string("unexpected ") + MsgTypeName(frame->type) +
            " frame while a query is in flight (one statement per "
            "session at a time)");
        NoteProtocolError(error);
        SendError(error, /*fatal=*/true);
        scheduler->Cancel(job_id);
        keep_session = false;
        abandoned = true;
        break;
      }
    }
  }

  if (pending->state == workbench::JobState::kSucceeded) {
    server_->counters_.queries_succeeded->Inc();
    if (pending->cache_hit) {
      server_->counters_.cache_hits->Inc();
    } else if (pending->cache_containment) {
      server_->counters_.cache_containment->Inc();
    } else {
      server_->counters_.cache_misses->Inc();
    }
  } else {
    server_->counters_.queries_failed->Inc();
  }
  return keep_session;
}

void Session::SendBusy() {
  const ServerOptions& opts = server_->options();
  workbench::QueueDepths depths = server_->scheduler()->LaneDepths();
  BusyMsg busy;
  busy.retry_after_ms = opts.busy_retry_ms;
  busy.quick_queued = SaturatingU32(depths.quick_queued);
  busy.long_queued = SaturatingU32(depths.long_queued);
  server_->counters_.busy_shed->Inc();
  wire_->Write(EncodeBusy(busy));
}

void Session::SendError(const Status& error, bool fatal) {
  ErrorMsg msg;
  msg.code = error.code();
  msg.fatal = fatal;
  msg.message = error.message();
  wire_->Write(EncodeError(msg));
}

}  // namespace sdss::server
