// The batch query workbench: cost-based admission, bounded worker
// lanes, cooperative cancellation, and MyDB result materialization.
//
// Synchronous execution does not survive community traffic: "Data Mining
// the SDSS SkyServer Database" (Gray, Szalay et al.) shows mining
// queries that run for hours next to cone searches that must answer in
// milliseconds. The JobScheduler puts an admission layer in front of the
// FederatedQueryEngine: every submission is prepared once -- parsed,
// planned and fingerprinted by FederatedQueryEngine::Prepare -- priced
// with the engine's density-map cost estimate (PredictShards), admitted
// to the QUICK or LONG lane, and run on that lane's bounded worker pool
// under a per-user concurrency quota. Lane order, running counts, quota
// slots and job states all live under one lock, so a job's lane, slot
// and state change together. The job runs the statement its
// admission priced; only the fleet-dependent steps (shard snapshot,
// GATHER split, cache epoch) wait until it starts. "SELECT ... INTO mydb.<name>" jobs
// materialize their result into the submitting user's archive::MyDb
// store -- quota-checked, all-or-nothing -- so the next step of a mining
// workflow reads derived data instead of re-scanning the fleet.
//
// Every job streams: its rows go to the submitter's StreamHooks as the
// executor produces them (or, for INTO, to the MyDB store), and the
// scheduler keeps only bookkeeping -- never a result. A job submitted
// without hooks counts its rows and keeps nothing.
//
// Durability (optional): RecoverFrom(dir) turns the scheduler into a
// crash-safe service for the one job effect that outlives a connection,
// an INTO job's MyDB commit. Every INTO job transition (submit, start,
// terminal) is appended to a persist::Journal in `dir`, and recovery
// replays a prior incarnation's journal: INTO jobs that were QUEUED at
// the crash are prepared again from their SQL and re-enqueued in their
// original lane order, ones that were RUNNING are marked FAILED with an
// Aborted error and `retryable` set (the MyDB commit protocol is
// all-or-nothing, so a resubmit is safe), and already-terminal ones
// come back as bookkeeping so Snapshot/Jobs keep answering. Read-only
// jobs are never journaled: their rows went to a consumer a restart has
// lost, so recovery neither re-runs nor fails them, and their terminal
// bookkeeping does not survive a restart. Job ids still never repeat
// across incarnations. Shutdown deliberately journals nothing for
// in-flight jobs -- a clean exit and a SIGKILL look identical to
// recovery, which is what makes the crash path testable.

#ifndef SDSS_WORKBENCH_SCHEDULER_H_
#define SDSS_WORKBENCH_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "core/eventlog.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "persist/journal.h"
#include "query/federated_engine.h"

namespace sdss::workbench {

/// Admission lanes: the cost-based split that keeps a full-archive scan
/// off the workers a cone search waits for.
enum class Lane { kQuick, kLong };

const char* LaneName(Lane lane);

/// Lifecycle of a job. Queued and running are transient; the other
/// three are terminal.
enum class JobState { kQueued, kRunning, kSucceeded, kFailed, kCancelled };

const char* JobStateName(JobState state);

/// A point-in-time copy of one job's bookkeeping.
struct JobSnapshot {
  uint64_t id = 0;
  std::string user;
  std::string sql;
  Lane lane = Lane::kQuick;
  JobState state = JobState::kQueued;
  Status error;            ///< Set for kFailed / kCancelled.
  std::string into;        ///< MyDB target table; empty = rows returned.
  uint64_t predicted_bytes = 0;  ///< Admission estimate (scan + ship).
  uint64_t rows = 0;       ///< Rows returned, or objects materialized.
  query::ExecStats exec;   ///< Filled when the job ran.
  double seconds_queued = 0.0;
  double seconds_running = 0.0;
  /// Set on jobs that were RUNNING when a prior incarnation crashed:
  /// the failure is the crash, not the query -- resubmitting the same
  /// SQL is safe and expected.
  bool retryable = false;
};

/// Point-in-time load of both admission lanes: how many jobs sit queued
/// and how many are running, per lane. This is the introspection the
/// query server's backpressure keys off (a quick lane deeper than the
/// BUSY threshold sheds new work with a retry-after instead of letting
/// the queue -- and every interactive user's latency -- grow without
/// bound).
struct QueueDepths {
  size_t quick_queued = 0;
  size_t quick_running = 0;
  size_t long_queued = 0;
  size_t long_running = 0;

  size_t Queued(Lane lane) const {
    return lane == Lane::kQuick ? quick_queued : long_queued;
  }
  size_t Running(Lane lane) const {
    return lane == Lane::kQuick ? quick_running : long_running;
  }
};

/// Callbacks a submission receives as its job executes -- the query
/// server's wire path: batches go to the socket as the executor produces
/// them, and nothing is materialized in scheduler memory. Every hook is
/// optional.
///
/// Threading: on_header and on_batch run on the lane worker executing
/// the job; on_complete runs exactly once per terminal transition, on
/// the worker, the cancelling thread (cancel-while-queued), or the
/// destructor's thread -- never under the scheduler's lock. Hooks must
/// not block for long (they hold a lane worker) and must not call
/// Wait() on their own job; Snapshot/Cancel are safe.
struct StreamHooks {
  /// The job's id and admission lane, then the result shape: once,
  /// before the first batch. Not invoked for jobs cancelled while
  /// queued, or failed by recovery because their SQL no longer prepares.
  std::function<void(uint64_t job_id, Lane lane,
                     const query::ResultHeader& header)>
      on_header;
  /// Batches in ASAP order. Return false to stop consuming (the client
  /// vanished): remaining upstream work is abandoned and the job
  /// finishes as cancelled. Never invoked for INTO jobs (their rows go
  /// to the MyDB store).
  std::function<bool(const query::RowBatch&)> on_batch;
  /// The job's final snapshot, after it reached a terminal state.
  std::function<void(const JobSnapshot&)> on_complete;
};

/// What JobScheduler::RecoverFrom rebuilt from a prior incarnation.
struct SchedulerRecoveryReport {
  uint64_t jobs_seen = 0;            ///< Distinct INTO jobs journaled.
  /// INTO jobs re-enqueued because they were QUEUED at the crash, in their
  /// original submission (and therefore lane) order.
  std::vector<uint64_t> requeued_ids;
  uint64_t failed_running = 0;       ///< RUNNING at crash -> retryable.
  uint64_t terminal_restored = 0;    ///< Already-terminal bookkeeping.
  persist::ReplayReport journal;     ///< The raw replay outcome.
};

/// Runs submitted queries through a FederatedQueryEngine on two bounded
/// worker lanes.
///
/// Thread-safety: all public methods may be called concurrently. The
/// engine and mydb must outlive the scheduler. Destruction cancels
/// queued jobs, raises the cancel flag of running ones, and joins the
/// workers.
class JobScheduler {
 public:
  struct Options {
    size_t quick_workers = 2;   ///< Interactive lane width.
    size_t long_workers = 1;    ///< Mining lane width.
    size_t per_user_running = 1;
    /// Admission split: a predicted cost (bytes to scan + bytes
    /// shipped) above this sends the job to the LONG lane.
    uint64_t quick_lane_max_bytes = 4ull << 20;
    /// When set, every job execution reports the archive containers it
    /// scans to this fleet's RecordAccess -- the scheduler-driven heat
    /// feed of the replica-promotion loop. Must outlive the scheduler.
    archive::ShardedStore* heat = nullptr;
    /// Bounded admission (0 = unbounded, the in-process default): a
    /// submission whose target lane already queues this many jobs is
    /// refused with kUnavailable and no side effects -- the overload
    /// verdict the query server translates into a protocol-level BUSY
    /// instead of letting the queue grow into accept-queue collapse.
    size_t max_queued_quick = 0;
    size_t max_queued_long = 0;
    /// Retention cap on terminal bookkeeping (0 = unlimited, the
    /// in-process default), and the only reaper: when set, every
    /// terminal transition prunes the oldest completed jobs down to this
    /// many, so a long-lived service stays bounded. Jobs whose
    /// completion hook has not fired yet, or that a Wait() is still
    /// parked on, are never pruned out from under their observers.
    size_t max_retained_terminal_jobs = 0;
    /// Metrics registry the scheduler publishes into: per-lane
    /// queued/running gauges, workbench_queue_wait_us and
    /// workbench_run_us latency histograms, the finished-jobs counter.
    /// Also forwarded to the recovery journal
    /// (persist_journal_append_us / fsync_us). Null = no metrics; must
    /// outlive the scheduler.
    metrics::Registry* metrics = nullptr;
    /// A finished job whose run time reaches this is slow: it emits a
    /// slow_query event (when `events` is set) and pushes its trace
    /// capture to `trace_ring` (when that is set).
    double slow_query_seconds = 1.0;
    /// Operational events (component "workbench"): every slow job emits
    /// a kWarn slow_query event with user/sql/seconds, plus `trace`, the
    /// ring id of its capture, when `trace_ring` took one. Also
    /// forwarded to the recovery journal (journal_poisoned). Null = no
    /// events; must outlive the scheduler.
    EventLog* events = nullptr;
    /// In-memory ring the admin endpoint's /tracez lists, and the one
    /// place trace captures live. Jobs run traced only when this is
    /// set. Slow jobs always push their capture; with
    /// trace_sample_every = N > 0 every Nth finished job is pushed too
    /// (slow = false), so /tracez has content on a healthy server. Must
    /// outlive the scheduler.
    query::TraceRing* trace_ring = nullptr;
    size_t trace_sample_every = 0;
  };

  JobScheduler(query::FederatedQueryEngine* engine, archive::MyDb* mydb,
               Options options);
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Recovers a prior incarnation's INTO jobs from the journal in `dir`
  /// and starts journaling this incarnation's INTO transitions there.
  /// Must be called before the first Submit (FailedPrecondition
  /// otherwise). QUEUED INTO jobs are prepared again and re-enqueued
  /// under their original ids in original lane order (one whose prepare
  /// fails becomes FAILED with that error); RUNNING ones become
  /// FAILED/Aborted with `retryable` set; terminal ones are restored as
  /// bookkeeping. Attach the MyDb's storage first: the prepare resolves
  /// the jobs' mydb tables.
  /// Read-only jobs left no record, so nothing of them comes back. Each
  /// incarnation issues ids from its own 2^32 block, so no id repeats.
  Result<SchedulerRecoveryReport> RecoverFrom(const std::string& dir);

  /// Prepares (parses and plans) `sql` once for `user`, prices that
  /// statement and enqueues it; the job runs it and streams its result
  /// through `hooks`. INTO jobs materialize into MyDB instead, so
  /// their hooks see on_header and on_complete only. Returns the job
  /// id, or the parse/plan error (nothing is queued on failure), or
  /// kUnavailable when the target lane is at its configured bound, or,
  /// for an INTO job only, the journal's error once it is poisoned.
  Result<uint64_t> Submit(const std::string& user, const std::string& sql,
                          StreamHooks hooks = {});

  /// Cancels a job: a queued job terminates immediately; a running job
  /// has its cooperative cancel flag raised and terminates at the
  /// executor's next scan/join cancellation point. FailedPrecondition
  /// if the job already reached a terminal state.
  Status Cancel(uint64_t job_id);

  /// Current bookkeeping of one job.
  Result<JobSnapshot> Snapshot(uint64_t job_id) const;

  /// Blocks until the job reaches a terminal state; returns its final
  /// snapshot.
  Result<JobSnapshot> Wait(uint64_t job_id);

  /// All jobs, ascending id.
  std::vector<JobSnapshot> Jobs() const;

  /// Queued + running job counts of both lanes, as one consistent
  /// snapshot -- the introspection bounded admission and the server's
  /// BUSY threshold decide on.
  QueueDepths LaneDepths() const;

  /// (user, table) of every INTO name a queued or running job holds,
  /// ascending: MyDb's reservations. Submit reserves the name before it
  /// enqueues, and the job releases it once its Put has committed or
  /// failed, so of two same-name submissions exactly one is admitted.
  std::vector<std::pair<std::string, std::string>> IntoClaims() const;

  const Options& options() const { return options_; }

 private:
  struct Job {
    JobSnapshot snap;
    /// The statement admission prepared and priced, and the job runs.
    /// Released once the job is terminal, so retained bookkeeping holds
    /// neither the plan nor the personal stores it read.
    std::unique_ptr<query::PreparedQuery> prepared;
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point started;
    StreamHooks hooks;
    /// Terminal hook has returned (set under mu_): the job is safe for
    /// the retention cap to reap.
    bool notified = false;
    /// Wait() calls currently parked on this job (guarded by mu_);
    /// pruning skips jobs with observers.
    int waiters = 0;
  };

  /// One admission lane: its queued jobs in FIFO order and how many of
  /// its jobs run, guarded by mu_, and where its idle workers wait.
  struct LaneState {
    std::deque<Job*> queued;
    size_t running = 0;
    std::condition_variable work_cv;
  };

  LaneState& LaneOf(Lane lane) { return lanes_[static_cast<size_t>(lane)]; }
  const LaneState& LaneOf(Lane lane) const {
    return lanes_[static_cast<size_t>(lane)];
  }
  void WorkerLoop(Lane lane);
  /// Takes the first job of `lane` whose user is under quota out of the
  /// queue and makes it RUNNING: its slot, the lane's running count and
  /// the START record change together. Null when no job is eligible.
  /// Requires mu_.
  Job* StartNextLocked(Lane lane);
  void RunJob(Job* job);
  /// Fires a terminal job's on_complete hook. Must be called without
  /// mu_ held (hooks may write to sockets or call Snapshot/Cancel).
  static void NotifyComplete(Job* job, JobSnapshot snap);
  /// NotifyComplete, then marks the job reapable and applies the
  /// terminal retention cap (Options::max_retained_terminal_jobs).
  /// Skipped wholesale during shutdown (the destructor owns teardown).
  void NotifyAndPrune(Job* job, JobSnapshot snap);
  /// Erases the oldest completed jobs beyond the retention cap. Only
  /// notified, observer-free jobs are eligible. Requires mu_.
  void AutoPruneLocked();
  /// Appends a terminal-transition record; no-op when not journaling or
  /// for a read-only job.
  /// Callers skip this for shutdown-driven terminals (see the file
  /// comment: shutdown must look like a crash to recovery).
  void JournalTerminal(const JobSnapshot& snap);
  /// Publishes the lane counts to the per-lane gauges; called wherever
  /// they change. Requires mu_.
  void SetLaneGaugesLocked();
  /// Releases an INTO job's MyDb name reservation (no-op for other
  /// jobs). Must be called without mu_ held.
  void ReleaseInto(const JobSnapshot& snap);

  query::FederatedQueryEngine* engine_;
  archive::MyDb* mydb_;
  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::map<uint64_t, std::unique_ptr<Job>> jobs_;
  LaneState lanes_[2];  ///< Indexed by Lane.
  /// Running jobs per user, across both lanes (absent = none).
  std::map<std::string, size_t> running_by_user_;
  uint64_t next_id_ = 1;
  std::atomic<bool> shutting_down_{false};
  /// Traced jobs finished, the modulus trace sampling counts on.
  std::atomic<uint64_t> traced_finished_{0};
  std::unique_ptr<persist::Journal> journal_;  ///< Null until recovered.
  // Instruments resolved once in the constructor; all null when
  // Options::metrics is unset.
  metrics::Gauge* g_quick_queued_ = nullptr;
  metrics::Gauge* g_quick_running_ = nullptr;
  metrics::Gauge* g_long_queued_ = nullptr;
  metrics::Gauge* g_long_running_ = nullptr;
  metrics::Histogram* m_queue_wait_us_ = nullptr;
  metrics::Histogram* m_run_us_ = nullptr;
  metrics::Counter* m_jobs_finished_ = nullptr;
  ThreadGroup workers_;
};

}  // namespace sdss::workbench

#endif  // SDSS_WORKBENCH_SCHEDULER_H_
