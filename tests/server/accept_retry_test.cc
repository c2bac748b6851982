// Regression test for the accept-loop fd-exhaustion bug: the server's
// accept loop used to exit on ANY accept() failure, so the first EMFILE
// burst (a long-running server under fd pressure) silently killed the
// front door -- the process stayed up but never accepted again. Now
// transient exhaustion is counted, waited out with a short backoff, and
// the queued connections are served once fds free up.
//
// Technique: lower RLIMIT_NOFILE, fill every free descriptor slot with
// dup(2), then queue SEVERAL client connections (each connect frees one
// slot for the client's own socket, and the TCP handshake completes
// into the listener's backlog without accept). The process table has
// zero free slots, so accepting any of them fails with EMFILE. We
// deliberately park multiple connections: sandboxed/instrumented
// environments can transiently free a stray descriptor and let one
// sneak through, but with several queued at least one always stays
// unacceptable, so the retry counter must climb. The regression is
// proven by (a) retries grow while starved -- the old loop would have
// exited on the first failure -- and (b) after the dummies close, every
// queued connection completes a HELLO/WELCOME handshake and fresh
// connects work.
//
// While the table is full the tests touch only locals resolved before
// the squeeze (the server pointer, its port, its registry counters) and
// never call into the test fixture: UBSan's vptr check on a member call
// of the (polymorphic) fixture probes memory through pipe(2), which
// fails with no fds left and is reported as a bad member call.

#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/server_test_util.h"

namespace sdss::server {
namespace {

using server_test::ServerTest;

/// Restores the original RLIMIT_NOFILE whatever the test does.
struct RlimitGuard {
  rlimit orig{};
  RlimitGuard() { getrlimit(RLIMIT_NOFILE, &orig); }
  ~RlimitGuard() { setrlimit(RLIMIT_NOFILE, &orig); }
};

/// Owns a pile of dup'd descriptors; closing them is what simulates
/// "fd pressure cleared".
struct FdHoard {
  std::vector<int> fds;
  ~FdHoard() { CloseAll(); }
  void FillToLimit() {
    for (;;) {
      int fd = ::dup(0);
      if (fd < 0) break;  // EMFILE: the table is full.
      fds.push_back(fd);
    }
  }
  /// Closes one hoarded descriptor; false when none is left.
  bool FreeOne() {
    if (fds.empty()) return false;
    ::close(fds.back());
    fds.pop_back();
    return true;
  }
  void CloseAll() {
    for (int fd : fds) ::close(fd);
    fds.clear();
  }
};

/// Polls `pred` at 1 ms until true or the deadline; returns whether it
/// held. A free function so polling never calls into the fixture.
template <typename Pred>
bool Await(const Pred& pred, int seconds = 10) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Connects a client while the table is full: frees one hoarded slot
/// for the client's socket(2). The retrying accept loop can take that
/// slot first (admitting a connection parked earlier); the client's
/// socket(2) then fails with EMFILE, and the next attempt frees another.
Result<TcpConn> ConnectStarved(FdHoard* hoard, uint16_t port) {
  for (;;) {
    if (!hoard->FreeOne()) {
      return Status::ResourceExhausted("no hoarded descriptor left");
    }
    auto conn = TcpConn::Connect("127.0.0.1", port);
    if (conn.ok() || conn.status().message().rfind("socket:", 0) != 0) {
      return conn;
    }
  }
}

class AcceptRetryTest : public ServerTest {};

TEST_F(AcceptRetryTest, ServerKeepsAcceptingAfterFdExhaustionClears) {
  StartServer(DefaultLanes(), ServerOptions());
  const uint16_t port = server_->port();
  metrics::Registry* registry = server_->metrics();
  metrics::Counter* retries = registry->GetCounter("server_accept_retries");
  metrics::Counter* accepted =
      registry->GetCounter("server_sessions_accepted");
  metrics::Gauge* active = registry->GetGauge("server_sessions_active");

  // Sanity baseline: the front door works before the squeeze.
  {
    auto ok = Connect("alice");
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_TRUE(ok->Bye().ok());
  }
  // Let the baseline session fully close before the squeeze so its two
  // descriptors don't free up mid-test. The gauge drops before the
  // session object (and its fd) is destroyed, so give the session
  // thread's last instructions a beat too.
  ASSERT_TRUE(Await([active] { return active->Value() == 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t retries_before = retries->Value();
  const uint64_t accepted_before = accepted->Value();

  RlimitGuard guard;
  // Low enough to exhaust quickly, high enough that the fixture's
  // already-open descriptors sit below it harmlessly -- dup(2) fills
  // every remaining hole either way.
  rlimit squeezed = guard.orig;
  squeezed.rlim_cur = 128;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &squeezed), 0);

  FdHoard hoard;
  hoard.FillToLimit();
  ASSERT_FALSE(hoard.fds.empty()) << "limit was already exhausted";
  // Second sweep after a pause: scoop up any descriptor some background
  // thread freed between the first fill and now.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hoard.FillToLimit();

  // Park several connections in the backlog. Each connect hands the
  // client's socket(2) one freed slot, so after it the table is full
  // again and the server cannot admit them all.
  constexpr int kPending = 4;
  std::vector<TcpConn> parked;
  for (int i = 0; i < kPending; ++i) {
    auto conn = ConnectStarved(&hoard, port);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    parked.push_back(std::move(*conn));
  }

  // The accept loop must be hitting EMFILE and surviving it: retries
  // climb while the loop thread stays alive.
  ASSERT_TRUE(Await([retries, retries_before] {
    return retries->Value() > retries_before;
  })) << "accept loop never reported a transient retry";
  // It cannot have served everything yet -- the table has no room.
  EXPECT_LT(accepted->Value(), accepted_before + kPending);

  // Pressure clears: every parked connection must now be served.
  hoard.CloseAll();
  ASSERT_TRUE(Await([accepted, accepted_before] {
    return accepted->Value() >= accepted_before + kPending;
  })) << "accept loop did not resume after fds freed";

  // And the sessions are live end to end: handshake over each
  // connection that waited out the exhaustion in the backlog.
  for (auto& conn : parked) {
    HelloMsg hello;
    hello.user = "alice";
    ASSERT_TRUE(conn.WriteAll(EncodeHello(hello)).ok());
    auto welcome = ReadFrame(&conn, 1 << 20);
    ASSERT_TRUE(welcome.ok()) << welcome.status().ToString();
    ASSERT_EQ(welcome->type, MsgType::kWelcome);
    auto decoded = DecodeWelcome(welcome->payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_GT(decoded->session_id, 0u);
    conn.WriteAll(EncodeBye());
  }

  // A fresh connection works too -- the loop is fully back in business.
  auto again = Connect("bob");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->Bye().ok());
}

TEST_F(AcceptRetryTest, StopWhileStarvedShutsDownPromptly) {
  // Shutdown must not wait out the whole backoff ladder: Stop() during
  // an EMFILE squeeze returns quickly (the backoff sleeps are chopped
  // into stop-checked slices).
  StartServer(DefaultLanes(), ServerOptions());
  QueryServer* server = server_.get();
  const uint16_t port = server->port();
  metrics::Counter* retries =
      server->metrics()->GetCounter("server_accept_retries");
  const uint64_t retries_before = retries->Value();

  RlimitGuard guard;
  rlimit squeezed = guard.orig;
  squeezed.rlim_cur = 128;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &squeezed), 0);

  FdHoard hoard;
  hoard.FillToLimit();
  std::vector<TcpConn> parked;
  for (int i = 0; i < 2; ++i) {
    auto conn = ConnectStarved(&hoard, port);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    parked.push_back(std::move(*conn));
  }
  ASSERT_TRUE(Await([retries, retries_before] {
    return retries->Value() > retries_before;
  }));

  hoard.CloseAll();  // Stop() needs no fds, but teardown below might.
  auto start = std::chrono::steady_clock::now();
  server->Stop();
  auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::seconds(2));
}

}  // namespace
}  // namespace sdss::server
