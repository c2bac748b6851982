// The load generator: one client thread and one connection per planned
// connection (at most four), each a distinct user.
//
// Open-loop statements are sent at their due time whatever the server
// is doing, and their latency runs from the due time to the DONE frame,
// so a stall also charges the statements that queued behind it. A
// closed-loop connection sends its next statement as soon as the
// previous one completes.

#ifndef E2E_BENCH_LOAD_H_
#define E2E_BENCH_LOAD_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "answer.h"
#include "server/client.h"
#include "server/protocol.h"
#include "workload.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// How one statement ended.
enum class Outcome : uint8_t { kDone, kError, kBusy, kIoFailure };

/// One statement as the client saw it. Times are seconds since the run
/// origin.
struct Sample {
  uint32_t conn = 0;
  uint32_t index = 0;  ///< Position in the connection's send order.
  Class cls = Class::kQuick;
  double due_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  /// The connection was idle when the statement fell due, so any delay
  /// between due and send is the generator's own lateness.
  bool idle_at_due = false;
  Outcome outcome = Outcome::kDone;
  uint8_t lane = 0;  ///< From HEADER: 0 quick, 1 long.
  sdss::server::DoneMsg done;
  Answer answer;

  double LatencyS() const { return done_s - due_s; }
};

struct LoadResult {
  std::vector<Sample> samples;  ///< Every statement sent, in no order.
  /// Statements due before the stop time that were never sent because
  /// the drain deadline passed.
  uint64_t undrained = 0;
};

/// Drives `schedule` against the server on `port` from `origin` until
/// `stop_s` run seconds: no statement due at or after `stop_s` is sent.
/// In-flight statements drain afterwards; any connection still busy at
/// `stop_s + drain_s` is aborted.
LoadResult RunLoad(const Schedule& schedule, uint16_t port,
                   Clock::time_point origin, double stop_s, double drain_s);

/// Sends `s` on `client` now and waits for its terminal frame, folding
/// the answer as it streams in. due_s = send_s.
Sample Send(sdss::server::Client* client, const Statement& s,
            Clock::time_point origin);

/// "c<connection>.<index>": the id every span of one statement shares.
std::string StatementId(const Sample& s);

/// The statement `s` was sent for. Closed-loop statements are rebuilt
/// into `scratch`.
const Statement& StatementOf(const Schedule& schedule, const Sample& s,
                             Statement* scratch);

}  // namespace e2e

#endif  // E2E_BENCH_LOAD_H_
