// Failure-mode tests for the query server: the paths where the client
// misbehaves or vanishes. A disconnect mid-stream must cancel the
// running job (no leaked worker); malformed or oversized frames must
// close the session with a clean fatal ERROR; sessions of the same user
// must share the workbench per-user quota.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/server_test_util.h"

namespace sdss::server {
namespace {

using server_test::ServerTest;
using server_test::kQuickSql;
using workbench::JobState;

std::string Bytes(std::initializer_list<unsigned char> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

// A spatial pair join wide enough to run for seconds: the executor
// streams pair batches bucket by bucket (with a cancel check per
// bucket), so a client that vanishes or cancels after the first batch
// does so while plenty of work remains -- the cancel lands mid-run,
// deterministically.
constexpr char kSlowStreamSql[] =
    "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
    "JOIN photoobj AS b WITHIN 2 DEG";

class ServerFailureTest : public ServerTest {
 protected:
  /// A raw connection that has completed the handshake: the vehicle for
  /// sending bytes a conforming Client never would.
  Result<TcpConn> RawHandshake(const std::string& user) {
    auto conn = TcpConn::Connect("127.0.0.1", server_->port());
    if (!conn.ok()) return conn.status();
    HelloMsg hello;
    hello.user = user;
    SDSS_RETURN_IF_ERROR(conn->WriteAll(EncodeHello(hello)));
    auto welcome = ReadFrame(&*conn, 1 << 20);
    if (!welcome.ok()) return welcome.status();
    if (welcome->type != MsgType::kWelcome) {
      return Status::Internal("handshake did not yield WELCOME");
    }
    return conn;
  }

  /// Reads one frame and asserts it is a fatal ERROR, then asserts the
  /// server closed the connection (clean EOF on the next read).
  void ExpectFatalErrorThenClose(TcpConn* conn, StatusCode code) {
    auto frame = ReadFrame(conn, 1 << 20);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, MsgType::kError);
    auto error = DecodeError(frame->payload);
    ASSERT_TRUE(error.ok());
    EXPECT_TRUE(error->fatal);
    EXPECT_EQ(error->code, code) << error->message;
    auto next = ReadFrame(conn, 1 << 20);
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kAborted);
  }
};

TEST_F(ServerFailureTest, DisconnectWhileQueuedCancelsTheJob) {
  auto lanes = DefaultLanes();
  lanes.quick_workers = 1;
  StartServer(lanes, ServerOptions());

  std::promise<void> release;
  uint64_t blocked = BlockWorker("blocker", release.get_future().share());

  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  // Submit from a thread (Query blocks on the terminal frame, which
  // never comes -- we are about to vanish).
  std::thread submitter([&client] {
    auto outcome = client->Query(kQuickSql);
    EXPECT_FALSE(outcome.ok());  // Connection died before a terminal.
  });
  // Wait until the wire query is queued behind the blocker, find it.
  uint64_t wire_job = 0;
  for (;;) {
    for (const auto& snap : scheduler_->Jobs()) {
      if (snap.user == "alice") wire_job = snap.id;
    }
    if (wire_job != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  client->Abort();  // Vanish without BYE or CANCEL.
  submitter.join();

  // The session's drain loop must notice the disconnect and cancel the
  // queued job -- it never runs, and no worker is left waiting on it.
  EXPECT_EQ(AwaitTerminal(wire_job), JobState::kCancelled);
  release.set_value();
  EXPECT_EQ(AwaitTerminal(blocked), JobState::kSucceeded);
}

TEST_F(ServerFailureTest, MidStreamDisconnectCancelsTheRunningJob) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());

  int batches_seen = 0;
  auto outcome = client->Query(
      kSlowStreamSql, [&client, &batches_seen](const query::RowBatch&) {
        if (++batches_seen == 1) client->Abort();
        return true;  // Never a protocol CANCEL: just vanish.
      });
  EXPECT_FALSE(outcome.ok());
  EXPECT_GE(batches_seen, 1);

  // No leaked worker: the job must reach a terminal state (cancelled
  // via the failed-write path or the drain loop's disconnect path).
  uint64_t wire_job = 0;
  for (const auto& snap : scheduler_->Jobs()) {
    if (snap.user == "alice") wire_job = snap.id;
  }
  ASSERT_NE(wire_job, 0u);
  JobState state = AwaitTerminal(wire_job);
  EXPECT_EQ(state, JobState::kCancelled);
}

TEST_F(ServerFailureTest, CancelFrameEndsTheJobWithACleanError) {
  StartServer(DefaultLanes(), ServerOptions());
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());

  // The streaming sink returning false makes the client send CANCEL
  // and keep draining; the terminal frame must be ERROR / Cancelled.
  auto outcome = client->Query(kSlowStreamSql,
                               [](const query::RowBatch&) { return false; });
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->kind, QueryOutcome::Kind::kError);
  EXPECT_FALSE(outcome->error.fatal);
  EXPECT_EQ(outcome->error.code, StatusCode::kCancelled);

  // The session survives a per-query cancel.
  auto after = client->Query(kQuickSql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->kind, QueryOutcome::Kind::kDone);
  EXPECT_TRUE(client->Bye().ok());
}

TEST_F(ServerFailureTest, CancelWhileQueuedNeverRunsTheJob) {
  auto lanes = DefaultLanes();
  lanes.quick_workers = 1;
  StartServer(lanes, ServerOptions());

  std::promise<void> release;
  uint64_t blocked = BlockWorker("blocker", release.get_future().share());

  // Raw frames so this thread is free to send CANCEL while the query
  // sits queued behind the blocker.
  auto conn = RawHandshake("alice");
  ASSERT_TRUE(conn.ok());
  QueryMsg query;
  query.sql = kQuickSql;
  ASSERT_TRUE(conn->WriteAll(EncodeQuery(query)).ok());
  uint64_t wire_job = 0;
  for (;;) {
    for (const auto& snap : scheduler_->Jobs()) {
      if (snap.user == "alice") wire_job = snap.id;
    }
    if (wire_job != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(conn->WriteAll(EncodeCancel()).ok());

  // Terminal frame: ERROR / Cancelled, with no HEADER or ROWS before it
  // (the job never started).
  auto frame = ReadFrame(&*conn, 1 << 20);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MsgType::kError);
  auto error = DecodeError(frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kCancelled);
  EXPECT_FALSE(error->fatal);
  EXPECT_EQ(AwaitTerminal(wire_job), JobState::kCancelled);

  release.set_value();
  EXPECT_EQ(AwaitTerminal(blocked), JobState::kSucceeded);
}

TEST_F(ServerFailureTest, ZeroLengthFrameIsAFatalProtocolError) {
  StartServer(DefaultLanes(), ServerOptions());
  auto conn = RawHandshake("alice");
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll(Bytes({0x00, 0x00, 0x00, 0x00})).ok());
  ExpectFatalErrorThenClose(&*conn, StatusCode::kInvalidArgument);
  EXPECT_GE(ServerCounter("server_protocol_errors"), 1u);
}

TEST_F(ServerFailureTest, OversizedFrameIsAFatalProtocolError) {
  ServerOptions options;
  options.max_frame_bytes = 512;
  StartServer(DefaultLanes(), options);
  auto conn = RawHandshake("alice");
  ASSERT_TRUE(conn.ok());
  // A length prefix promising 1 MiB against a 512-byte limit: refused
  // from the prefix alone, without reading (or allocating) the body.
  ASSERT_TRUE(conn->WriteAll(Bytes({0x00, 0x00, 0x10, 0x00})).ok());
  ExpectFatalErrorThenClose(&*conn, StatusCode::kInvalidArgument);
}

TEST_F(ServerFailureTest, TruncatedPayloadIsAFatalProtocolError) {
  StartServer(DefaultLanes(), ServerOptions());
  auto conn = RawHandshake("alice");
  ASSERT_TRUE(conn.ok());
  // A QUERY frame whose payload is one byte: the length-prefixed sql
  // cannot decode.
  ASSERT_TRUE(conn->WriteAll(Bytes({0x02, 0x00, 0x00, 0x00, 0x03, 0x01}))
                  .ok());
  ExpectFatalErrorThenClose(&*conn, StatusCode::kInvalidArgument);
}

TEST_F(ServerFailureTest, UnknownFrameTypeIsAFatalProtocolError) {
  StartServer(DefaultLanes(), ServerOptions());
  auto conn = RawHandshake("alice");
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll(Bytes({0x01, 0x00, 0x00, 0x00, 0x63})).ok());
  ExpectFatalErrorThenClose(&*conn, StatusCode::kInvalidArgument);
}

TEST_F(ServerFailureTest, QueryBeforeHelloIsRefused) {
  StartServer(DefaultLanes(), ServerOptions());
  auto conn = TcpConn::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  QueryMsg query;
  query.sql = kQuickSql;
  ASSERT_TRUE(conn->WriteAll(EncodeQuery(query)).ok());
  ExpectFatalErrorThenClose(&*conn, StatusCode::kInvalidArgument);
}

TEST_F(ServerFailureTest, VersionMismatchIsRefused) {
  StartServer(DefaultLanes(), ServerOptions());
  auto conn = TcpConn::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  HelloMsg hello;
  hello.version = 99;
  hello.user = "alice";
  ASSERT_TRUE(conn->WriteAll(EncodeHello(hello)).ok());
  ExpectFatalErrorThenClose(&*conn, StatusCode::kFailedPrecondition);
}

TEST_F(ServerFailureTest, OversizedStatementGetsANonFatalError) {
  ServerOptions options;
  options.max_sql_bytes = 64;
  StartServer(DefaultLanes(), options);
  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  auto refused = client->Query(std::string(200, 'x'));
  ASSERT_TRUE(refused.ok());
  ASSERT_EQ(refused->kind, QueryOutcome::Kind::kError);
  EXPECT_FALSE(refused->error.fatal);
  EXPECT_EQ(refused->error.code, StatusCode::kInvalidArgument);
  // The session survives and serves the next (legal) statement.
  auto after = client->Query(kQuickSql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->kind, QueryOutcome::Kind::kDone);
}

TEST_F(ServerFailureTest, SameUserSessionsShareThePerUserQuota) {
  auto lanes = DefaultLanes();
  lanes.quick_workers = 2;  // Two free workers: only the quota gates.
  lanes.per_user_running = 1;
  StartServer(lanes, ServerOptions());

  // Alice already runs one job (started, held pre-scan by the gate).
  std::promise<void> release;
  uint64_t running = BlockWorker("alice", release.get_future().share());

  auto client = Connect("alice");
  ASSERT_TRUE(client.ok());
  std::thread submitter([&client] {
    auto outcome = client->Query(kQuickSql);
    ASSERT_TRUE(outcome.ok());
    // Once the quota slot frees, the job runs to completion.
    EXPECT_EQ(outcome->kind, QueryOutcome::Kind::kDone);
  });

  // The wire-submitted job must sit QUEUED behind the quota even though
  // a quick worker is idle.
  uint64_t wire_job = 0;
  for (;;) {
    for (const auto& snap : scheduler_->Jobs()) {
      if (snap.id != running && snap.user == "alice") wire_job = snap.id;
    }
    if (wire_job != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 50; ++i) {
    auto snap = scheduler_->Snapshot(wire_job);
    ASSERT_TRUE(snap.ok());
    ASSERT_EQ(snap->state, JobState::kQueued)
        << "second session of the same user ran past the quota";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  release.set_value();
  submitter.join();
  EXPECT_EQ(AwaitTerminal(running), JobState::kSucceeded);
  EXPECT_EQ(AwaitTerminal(wire_job), JobState::kSucceeded);
}

}  // namespace
}  // namespace sdss::server
