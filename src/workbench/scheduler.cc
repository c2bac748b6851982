#include "workbench/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <utility>

#include "catalog/photo_obj.h"
#include "persist/coding.h"

namespace sdss::workbench {
namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// True for the three terminal states.
bool IsTerminal(JobState state) {
  return state == JobState::kSucceeded || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// The one durability decision: a job is journaled -- and recovered --
/// only when its effect outlives the connection. Only an INTO job's
/// MyDB commit does; a read-only job's rows went to a consumer that a
/// restart has lost, so re-running it would send them nowhere.
bool IsDurable(const JobSnapshot& snap) { return !snap.into.empty(); }

/// Journal record types: one per job transition. SUBMIT carries the
/// whole admission decision (recovery prepares the SQL again, so nothing
/// else needs to survive); START and TERMINAL are keyed by id.
enum class JobRecord : uint8_t { kSubmit = 1, kStart = 2, kTerminal = 3 };

std::string EncodeSubmit(const JobSnapshot& snap) {
  std::string rec;
  persist::PutFixed8(&rec, static_cast<uint8_t>(JobRecord::kSubmit));
  persist::PutFixed64(&rec, snap.id);
  persist::PutFixed8(&rec, snap.lane == Lane::kLong ? 1 : 0);
  persist::PutFixed64(&rec, snap.predicted_bytes);
  persist::PutLengthPrefixed(&rec, snap.user);
  persist::PutLengthPrefixed(&rec, snap.sql);
  persist::PutLengthPrefixed(&rec, snap.into);
  return rec;
}

std::string EncodeStart(uint64_t id) {
  std::string rec;
  persist::PutFixed8(&rec, static_cast<uint8_t>(JobRecord::kStart));
  persist::PutFixed64(&rec, id);
  return rec;
}

std::string EncodeTerminal(const JobSnapshot& snap) {
  std::string rec;
  persist::PutFixed8(&rec, static_cast<uint8_t>(JobRecord::kTerminal));
  persist::PutFixed64(&rec, snap.id);
  persist::PutFixed8(&rec, static_cast<uint8_t>(snap.state));
  persist::PutFixed64(&rec, snap.rows);
  persist::PutFixed8(&rec, static_cast<uint8_t>(snap.error.code()));
  persist::PutLengthPrefixed(&rec, snap.error.message());
  return rec;
}

/// One job's journal history folded to its state at the crash.
struct ReplayedJob {
  JobSnapshot snap;
  bool started = false;
  bool terminal = false;
};

Status ApplyJobRecord(std::string_view record,
                      std::map<uint64_t, ReplayedJob>* jobs) {
  persist::Cursor cursor(record);
  uint8_t type = 0;
  if (!cursor.GetFixed8(&type)) {
    return Status::Corruption("job journal record is empty");
  }
  uint64_t id = 0;
  if (!cursor.GetFixed64(&id)) {
    return Status::Corruption("job journal record has no id");
  }
  switch (static_cast<JobRecord>(type)) {
    case JobRecord::kSubmit: {
      uint8_t lane = 0;
      std::string_view user, sql, into;
      ReplayedJob job;
      if (!cursor.GetFixed8(&lane) ||
          !cursor.GetFixed64(&job.snap.predicted_bytes) ||
          !cursor.GetLengthPrefixed(&user) ||
          !cursor.GetLengthPrefixed(&sql) ||
          !cursor.GetLengthPrefixed(&into)) {
        return Status::Corruption("bad job SUBMIT record");
      }
      job.snap.id = id;
      job.snap.lane = lane != 0 ? Lane::kLong : Lane::kQuick;
      job.snap.user = std::string(user);
      job.snap.sql = std::string(sql);
      job.snap.into = std::string(into);
      job.snap.state = JobState::kQueued;
      (*jobs)[id] = std::move(job);
      return Status::OK();
    }
    case JobRecord::kStart: {
      auto it = jobs->find(id);
      // A START for an unknown id means its SUBMIT fell past the torn
      // tail of an earlier segment -- impossible with ordered replay,
      // so treat it as corruption.
      if (it == jobs->end()) {
        return Status::Corruption("job START without SUBMIT");
      }
      it->second.started = true;
      it->second.snap.state = JobState::kRunning;
      return Status::OK();
    }
    case JobRecord::kTerminal: {
      auto it = jobs->find(id);
      if (it == jobs->end()) {
        return Status::Corruption("job TERMINAL without SUBMIT");
      }
      uint8_t state = 0;
      uint8_t code = 0;
      std::string_view msg;
      if (!cursor.GetFixed8(&state) ||
          !cursor.GetFixed64(&it->second.snap.rows) ||
          !cursor.GetFixed8(&code) || !cursor.GetLengthPrefixed(&msg)) {
        return Status::Corruption("bad job TERMINAL record");
      }
      it->second.terminal = true;
      it->second.snap.state = static_cast<JobState>(state);
      it->second.snap.error =
          Status::FromCode(static_cast<StatusCode>(code), std::string(msg));
      // An Aborted terminal is the crash-interruption verdict a prior
      // recovery journaled: keep the retryable marking across restarts.
      it->second.snap.retryable =
          it->second.snap.error.code() == StatusCode::kAborted;
      return Status::OK();
    }
  }
  return Status::Corruption("unknown job journal record type " +
                            std::to_string(type));
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "QUEUED";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kSucceeded:
      return "SUCCEEDED";
    case JobState::kFailed:
      return "FAILED";
    case JobState::kCancelled:
      return "CANCELLED";
  }
  return "?";
}

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kQuick:
      return "QUICK";
    case Lane::kLong:
      return "LONG";
  }
  return "?";
}

JobScheduler::JobScheduler(query::FederatedQueryEngine* engine,
                           archive::MyDb* mydb, Options options)
    : engine_(engine), mydb_(mydb), options_(options) {
  if (options_.metrics != nullptr) {
    g_quick_queued_ =
        options_.metrics->GetGauge("workbench_quick_queued");
    g_quick_running_ =
        options_.metrics->GetGauge("workbench_quick_running");
    g_long_queued_ = options_.metrics->GetGauge("workbench_long_queued");
    g_long_running_ =
        options_.metrics->GetGauge("workbench_long_running");
    m_queue_wait_us_ =
        options_.metrics->GetHistogram("workbench_queue_wait_us");
    m_run_us_ = options_.metrics->GetHistogram("workbench_run_us");
    m_jobs_finished_ =
        options_.metrics->GetCounter("workbench_jobs_finished");
  }
  for (size_t i = 0; i < options_.quick_workers; ++i) {
    workers_.Spawn([this] { WorkerLoop(Lane::kQuick); });
  }
  for (size_t i = 0; i < options_.long_workers; ++i) {
    workers_.Spawn([this] { WorkerLoop(Lane::kLong); });
  }
}

JobScheduler::~JobScheduler() {
  {
    // Idle workers stop; running jobs get their flag raised so the
    // executors unwind at the next cancellation point.
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_.store(true);
    for (auto& [id, job] : jobs_) {
      if (job->snap.state == JobState::kRunning) job->cancel.store(true);
    }
  }
  for (LaneState& lane : lanes_) lane.work_cv.notify_all();
  workers_.JoinAll();
  // Queued jobs will never run.
  std::vector<std::pair<Job*, JobSnapshot>> completed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (LaneState& lane : lanes_) {
      for (Job* job : lane.queued) {
        job->snap.state = JobState::kCancelled;
        job->snap.error = Status::Cancelled("scheduler shut down");
        completed.emplace_back(job, job->snap);
      }
      lane.queued.clear();
    }
    SetLaneGaugesLocked();
  }
  for (const auto& [job, snap] : completed) ReleaseInto(snap);
  for (auto& [job, snap] : completed) NotifyComplete(job, std::move(snap));
  done_cv_.notify_all();
}

void JobScheduler::NotifyComplete(Job* job, JobSnapshot snap) {
  if (job->hooks.on_complete) job->hooks.on_complete(snap);
}

void JobScheduler::NotifyAndPrune(Job* job, JobSnapshot snap) {
  NotifyComplete(job, std::move(snap));
  // Released outside mu_: the last owner of a dropped table frees it.
  std::unique_ptr<query::PreparedQuery> released = std::move(job->prepared);
  std::lock_guard<std::mutex> lock(mu_);
  // Only now -- with the hook returned -- is the job reapable; pruning
  // an un-notified job would free it out from under its own callback.
  job->notified = true;
  // Shutdown teardown is the destructor's job (it holds no retention
  // expectations and must not race the final sweep).
  if (!shutting_down_.load()) AutoPruneLocked();
}

void JobScheduler::AutoPruneLocked() {
  const size_t cap = options_.max_retained_terminal_jobs;
  if (cap == 0) return;
  // Every queued or running job is in a lane (and never pruned), so the
  // rest of jobs_ is terminal.
  size_t terminal = jobs_.size();
  for (const LaneState& lane : lanes_) {
    terminal -= lane.queued.size() + lane.running;
  }
  // Oldest first (jobs_ is ascending by id). A terminal job still
  // awaiting its hook or holding parked Wait() calls is skipped -- it
  // counts against the cap but cannot be freed yet.
  for (auto it = jobs_.begin(); it != jobs_.end() && terminal > cap;) {
    Job* job = it->second.get();
    if (IsTerminal(job->snap.state) && job->notified && job->waiters == 0) {
      it = jobs_.erase(it);
      --terminal;
    } else {
      ++it;
    }
  }
}

QueueDepths JobScheduler::LaneDepths() const {
  std::lock_guard<std::mutex> lock(mu_);
  const LaneState& quick = LaneOf(Lane::kQuick);
  const LaneState& mining = LaneOf(Lane::kLong);
  return QueueDepths{quick.queued.size(), quick.running,
                     mining.queued.size(), mining.running};
}

void JobScheduler::SetLaneGaugesLocked() {
  if (g_quick_queued_ == nullptr) return;
  const LaneState& quick = LaneOf(Lane::kQuick);
  const LaneState& mining = LaneOf(Lane::kLong);
  g_quick_queued_->Set(static_cast<int64_t>(quick.queued.size()));
  g_quick_running_->Set(static_cast<int64_t>(quick.running));
  g_long_queued_->Set(static_cast<int64_t>(mining.queued.size()));
  g_long_running_->Set(static_cast<int64_t>(mining.running));
}

void JobScheduler::ReleaseInto(const JobSnapshot& snap) {
  if (!snap.into.empty()) mydb_->Release(snap.user, snap.into);
}

std::vector<std::pair<std::string, std::string>> JobScheduler::IntoClaims()
    const {
  return mydb_->Reservations();
}

Result<uint64_t> JobScheduler::Submit(const std::string& user,
                                      const std::string& sql,
                                      StreamHooks hooks) {
  if (shutting_down_.load()) {
    return Status::FailedPrecondition("scheduler is shutting down");
  }
  // Prepare and price the query before admitting it; a parse/plan error
  // (unknown attribute, missing mydb table, tag on a tagless fleet) is
  // rejected here, costing the submitter no queue slot. The job runs
  // this same statement: its mydb leaves already hold the user's tables,
  // and the run takes the shard routing that exists when it starts.
  query::ExecContext ctx;
  ctx.mydb = mydb_->ResolverFor(user);
  auto prepared = engine_->Prepare(sql, ctx);
  if (!prepared.ok()) return prepared.status();
  auto estimate = engine_->EstimateCost(*prepared, ctx);
  if (!estimate.ok()) return estimate.status();
  // A copy: `prepared` moves into the job below.
  const std::string into = prepared->into();
  // Taken-name INTO jobs would only discover the collision at the final
  // Put; refuse them before they cost lane time. MyDb decides under its
  // own lock whether the name is a table or reserved by a queued or
  // running job, so of two same-name submissions exactly one gets here.
  // The reservation is taken before mu_ (never under it) and is given
  // back below if the job is not admitted.
  if (!into.empty()) SDSS_RETURN_IF_ERROR(mydb_->Reserve(user, into));

  auto job = std::make_unique<Job>();
  job->snap.user = user;
  job->snap.sql = sql;
  job->snap.into = into;
  job->snap.predicted_bytes = estimate->TotalBytes();
  job->snap.lane = estimate->TotalBytes() > options_.quick_lane_max_bytes
                       ? Lane::kLong
                       : Lane::kQuick;
  job->prepared =
      std::make_unique<query::PreparedQuery>(std::move(prepared).value());
  job->submitted = std::chrono::steady_clock::now();
  job->hooks = std::move(hooks);

  uint64_t id = 0;
  Status refused;
  const Lane lane = job->snap.lane;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Bounded admission: refuse (no id, no journal record, no queue
    // slot) instead of queueing past the configured depth. Checked
    // under mu_, the lock every enqueue holds, so the bound is exact.
    const size_t bound = lane == Lane::kQuick ? options_.max_queued_quick
                                              : options_.max_queued_long;
    std::deque<Job*>& queued = LaneOf(lane).queued;
    if (bound > 0 && queued.size() >= bound) {
      refused = Status::Unavailable(
          std::string(LaneName(lane)) + " lane is at its admission bound (" +
          std::to_string(bound) + " jobs queued); retry after a backoff");
    } else {
      id = next_id_++;
      job->snap.id = id;
      if (journal_ != nullptr && IsDurable(job->snap)) {
        // The SUBMIT record is durable before the job is visible
        // anywhere: an INTO job that exists can always be recovered. On
        // append failure nothing is queued (the id gap is harmless), so
        // a poisoned journal refuses INTO jobs and keeps serving reads.
        refused = journal_->Append(EncodeSubmit(job->snap));
      }
    }
    if (refused.ok()) {
      // Enqueued with the id under mu_, so queue order always equals id
      // order -- the invariant RecoverFrom's in-original-lane-order
      // re-enqueue rests on.
      queued.push_back(job.get());
      jobs_.emplace(id, std::move(job));
      SetLaneGaugesLocked();
    }
  }
  if (!refused.ok()) {
    if (!into.empty()) mydb_->Release(user, into);
    return refused;
  }
  LaneOf(lane).work_cv.notify_one();
  return id;
}

Result<SchedulerRecoveryReport> JobScheduler::RecoverFrom(
    const std::string& dir) {
  SchedulerRecoveryReport report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (journal_ != nullptr) {
      return Status::FailedPrecondition("scheduler already recovered");
    }
    if (!jobs_.empty()) {
      return Status::FailedPrecondition(
          "RecoverFrom must run before the first Submit");
    }
    std::map<uint64_t, ReplayedJob> replayed;
    auto replay = persist::ReplayJournal(
        dir, [&replayed](std::string_view rec) {
          return ApplyJobRecord(rec, &replayed);
        });
    if (!replay.ok()) return replay.status();
    report.journal = *replay;
    persist::Journal::Options journal_options;
    journal_options.metrics = options_.metrics;
    journal_options.events = options_.events;
    auto journal = persist::Journal::Open(dir, journal_options);
    if (!journal.ok()) return journal.status();
    journal_ = std::move(*journal);

    uint64_t max_id = 0;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, rj] : replayed) {
      max_id = std::max(max_id, id);
      // A read-only job in a journal written before reads stopped being
      // journaled: it has nothing to recover.
      if (!IsDurable(rj.snap)) continue;
      ++report.jobs_seen;
      auto job = std::make_unique<Job>();
      job->snap = rj.snap;
      job->submitted = now;
      if (rj.terminal) {
        // Bookkeeping survives. No hook is pending (it belonged to the
        // dead incarnation), so the job is immediately reapable.
        job->notified = true;
        ++report.terminal_restored;
      } else if (rj.started) {
        // RUNNING at the crash: whether it finished is unknowable, so
        // fail it retryably. (An INTO job is safe to resubmit either
        // way: if its MyDB commit landed, the resubmit is refused with
        // AlreadyExists; if not, recovery wiped the orphan.)
        job->snap.state = JobState::kFailed;
        job->snap.error = Status::Aborted(
            "job was RUNNING when the scheduler went down; resubmit to "
            "retry");
        job->snap.retryable = true;
        job->notified = true;
        ++report.failed_running;
        // Fold the verdict into the journal so the next recovery (and
        // any journal inspection) sees a terminal job, not a phantom
        // runner. Best-effort: replay reaches the same verdict without
        // it.
        (void)journal_->Append(EncodeTerminal(job->snap));
      } else {
        // QUEUED at the crash: the SUBMIT record is the whole job, so it
        // is prepared again and queues. A statement that no longer
        // prepares (its mydb source is gone) fails here with the error
        // its run would have met.
        // Its name is reserved again as it requeues (RecoverFrom runs
        // before the first Submit, so nothing competes for it).
        query::ExecContext ctx;
        ctx.mydb = mydb_->ResolverFor(job->snap.user);
        auto prepared = engine_->Prepare(job->snap.sql, ctx);
        Status admitted = prepared.status();
        if (admitted.ok()) {
          admitted = mydb_->Reserve(job->snap.user, job->snap.into);
        }
        if (admitted.ok()) {
          job->prepared = std::make_unique<query::PreparedQuery>(
              std::move(prepared).value());
          report.requeued_ids.push_back(id);
          // Ascending id = original submission order = original lane
          // order (Submit enqueues under mu_ in id order).
          LaneOf(job->snap.lane).queued.push_back(job.get());
        } else {
          job->snap.state = JobState::kFailed;
          job->snap.error = admitted;
          job->notified = true;
          JournalTerminal(job->snap);
        }
      }
      jobs_.emplace(id, std::move(job));
    }
    // Ids stay unique across restarts -- the event log and the trace
    // ring key on them and outlive an incarnation -- though read-only
    // jobs leave no record: each incarnation issues ids from its own
    // 2^32 block, picked by the fresh segment Open just allocated.
    next_id_ = std::max(max_id, (journal_->current_segment() - 1) << 32) + 1;
    SetLaneGaugesLocked();
  }
  for (LaneState& lane : lanes_) lane.work_cv.notify_all();
  done_cv_.notify_all();  // Waiters on crash-failed jobs wake now.
  return report;
}

void JobScheduler::JournalTerminal(const JobSnapshot& snap) {
  if (journal_ == nullptr || !IsDurable(snap)) return;
  (void)journal_->Append(EncodeTerminal(snap));
}

Status JobScheduler::Cancel(uint64_t job_id) {
  Job* completed = nullptr;
  JobSnapshot completed_snap;
  Status result = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(job_id));
    }
    Job* job = it->second.get();
    switch (job->snap.state) {
      case JobState::kQueued: {
        // A queued job is in its lane (a worker takes it out only by
        // making it RUNNING under this lock): terminal right here.
        std::deque<Job*>& queued = LaneOf(job->snap.lane).queued;
        queued.erase(std::find(queued.begin(), queued.end(), job));
        SetLaneGaugesLocked();
        job->snap.state = JobState::kCancelled;
        job->snap.error = Status::Cancelled("cancelled while queued");
        job->snap.seconds_queued = SecondsBetween(
            job->submitted, std::chrono::steady_clock::now());
        JournalTerminal(job->snap);  // A user decision: it survives.
        completed = job;
        completed_snap = job->snap;
        break;
      }
      case JobState::kRunning:
        job->cancel.store(true);
        break;
      case JobState::kSucceeded:
      case JobState::kFailed:
      case JobState::kCancelled:
        result = Status::FailedPrecondition(
            "job " + std::to_string(job_id) + " already " +
            JobStateName(job->snap.state));
        break;
    }
  }
  // The name is released and the terminal hook fires outside mu_ (it
  // may write to a socket or call back into Snapshot); waiters wake once
  // the name is free.
  if (completed != nullptr) {
    ReleaseInto(completed_snap);
    done_cv_.notify_all();
    NotifyAndPrune(completed, std::move(completed_snap));
  }
  return result;
}

Result<JobSnapshot> JobScheduler::Snapshot(uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  return it->second->snap;
}

Result<JobSnapshot> JobScheduler::Wait(uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  Job* job = it->second.get();
  // Parked waiters pin the job: the retention cap may not free it while
  // this predicate still dereferences it.
  ++job->waiters;
  done_cv_.wait(lock, [job] { return IsTerminal(job->snap.state); });
  --job->waiters;
  return job->snap;
}

std::vector<JobSnapshot> JobScheduler::Jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobSnapshot> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job->snap);
  return out;
}

void JobScheduler::WorkerLoop(Lane lane) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Job* job = nullptr;
    LaneOf(lane).work_cv.wait(lock, [&] {
      return shutting_down_.load() || (job = StartNextLocked(lane)) != nullptr;
    });
    if (job == nullptr) return;  // Shutdown: queued jobs stay queued.
    lock.unlock();
    RunJob(job);
    done_cv_.notify_all();
    lock.lock();
  }
}

JobScheduler::Job* JobScheduler::StartNextLocked(Lane lane) {
  LaneState& state = LaneOf(lane);
  // First job whose user is under quota; later jobs of saturated users
  // wait behind it without blocking other users.
  auto it = std::find_if(
      state.queued.begin(), state.queued.end(), [this](const Job* j) {
        auto slots = running_by_user_.find(j->snap.user);
        return slots == running_by_user_.end() ||
               slots->second < options_.per_user_running;
      });
  if (it == state.queued.end()) return nullptr;
  Job* job = *it;
  state.queued.erase(it);
  ++state.running;
  ++running_by_user_[job->snap.user];
  SetLaneGaugesLocked();
  job->snap.state = JobState::kRunning;
  job->started = std::chrono::steady_clock::now();
  job->snap.seconds_queued = SecondsBetween(job->submitted, job->started);
  if (journal_ != nullptr && IsDurable(job->snap)) {
    (void)journal_->Append(EncodeStart(job->snap.id));
  }
  return job;
}

void JobScheduler::RunJob(Job* job) {
  if (m_queue_wait_us_ != nullptr) {
    m_queue_wait_us_->Record(
        static_cast<uint64_t>(job->snap.seconds_queued * 1e6));
  }
  const query::PreparedQuery& prepared = *job->prepared;
  query::ExecContext ctx;
  ctx.cancel = &job->cancel;
  // Tracing rides the /tracez ring: when it is configured every job
  // runs traced (the spans are a handful of mutex-guarded appends, not
  // per-row work) and the capture is kept only if the job turns out
  // slow or is sampled. Planning and the admission wait predate the
  // trace, so each is recorded as an annotated zero-length span.
  std::unique_ptr<query::QueryTrace> trace;
  if (options_.trace_ring != nullptr) {
    trace = std::make_unique<query::QueryTrace>();
    char idbuf[32];
    std::snprintf(idbuf, sizeof(idbuf), "%llu",
                  static_cast<unsigned long long>(job->snap.id));
    trace->SetMeta("job", idbuf);
    trace->SetMeta("user", job->snap.user);
    trace->SetMeta("sql", job->snap.sql);
    const int plan_span = trace->Begin("plan");
    trace->Num(plan_span, "seconds_plan", prepared.seconds_plan);
    trace->End(plan_span);
    const int wait_span = trace->Begin("admission_wait");
    trace->Num(wait_span, "seconds_queued", job->snap.seconds_queued);
    trace->End(wait_span);
    ctx.trace = trace.get();
  }
  if (options_.heat != nullptr) {
    // Scheduler-driven heat: every container this job's scans touch
    // counts one access, so mining workloads (not just interactive
    // traffic) drive the fleet's replica-promotion loop.
    ctx.access_recorder = [this](uint64_t container) {
      options_.heat->RecordAccess(container);
    };
  }

  // The one sink. An INTO job's rows become the PhotoObjs of one
  // all-or-nothing MyDb::Put, under the owner's byte quota so a runaway
  // result aborts early; every other job's rows go to on_batch as the
  // executor produces them, or are only counted. Nothing is retained.
  // The job's id and lane are fixed at admission, so they are read here
  // without mu_.
  const bool into = !job->snap.into.empty();
  ctx.into_sink = into;
  const std::vector<std::string>& names = catalog::PhotoAttributeNames();
  const uint64_t budget = into ? mydb_->RemainingBytes(job->snap.user) : 0;
  std::vector<catalog::PhotoObj> objects;
  Status sink_error;
  uint64_t rows = 0;
  if (job->hooks.on_header) {
    job->hooks.on_header(job->snap.id, job->snap.lane, prepared.header());
  }
  auto stats = engine_->Run(
      prepared, ctx, [&](query::RowBatch&& batch) {
        rows += batch.size();
        if (!into) {
          if (job->hooks.on_batch && !job->hooks.on_batch(batch)) {
            // The consumer walked away mid-stream (client disconnect):
            // the job is a cancellation, not a success with missing rows.
            sink_error =
                Status::Cancelled("stream consumer stopped mid-result");
            return false;
          }
          return true;
        }
        for (const query::ResultRow& row : batch) {
          auto obj = catalog::PhotoObjFromRow(names, row.values);
          if (!obj.ok()) {
            sink_error = obj.status();
            return false;
          }
          objects.push_back(std::move(obj).value());
        }
        if (objects.size() * sizeof(catalog::PhotoObj) > budget) {
          sink_error = Status::ResourceExhausted(
              "mydb quota of user '" + job->snap.user +
              "' exceeded while materializing mydb." + job->snap.into);
          return false;
        }
        return true;
      });
  Status status;
  query::ExecStats exec;
  if (!stats.ok()) {
    status = stats.status();
    rows = 0;
  } else {
    exec = *stats;
    status = sink_error;
    if (status.ok() && into) {
      status = mydb_->Put(job->snap.user, job->snap.into, std::move(objects));
    }
  }
  // Released once the Put has committed or failed and before the job is
  // visibly terminal: a same-name Submit sees the reservation or the
  // table, and a Wait() that returns can resubmit a failed name at once.
  ReleaseInto(job->snap);

  JobSnapshot final_snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->snap.exec = exec;
    job->snap.rows = rows;
    job->snap.seconds_running =
        SecondsBetween(job->started, std::chrono::steady_clock::now());
    if (status.ok()) {
      job->snap.state = JobState::kSucceeded;
    } else {
      job->snap.state = status.code() == StatusCode::kCancelled
                            ? JobState::kCancelled
                            : JobState::kFailed;
      job->snap.error = status;
    }
    // The lane count and the user's quota slot are released with the
    // terminal transition.
    --LaneOf(job->snap.lane).running;
    auto slots = running_by_user_.find(job->snap.user);
    if (--slots->second == 0) running_by_user_.erase(slots);
    SetLaneGaugesLocked();
    // The freed slot may make a held job eligible. A lane with nothing
    // queued wakes no worker: a woken worker takes mu_, which this job's
    // Wait() callers need next.
    for (LaneState& lane : lanes_) {
      if (!lane.queued.empty()) lane.work_cv.notify_one();
    }
    // Crash-equivalence at shutdown: a job torn down by the destructor is
    // left un-journaled, so recovery treats it exactly like a job the
    // power cord interrupted (re-enqueued or failed-retryable).
    if (!shutting_down_.load()) JournalTerminal(job->snap);
    final_snap = job->snap;
  }
  if (m_jobs_finished_ != nullptr) m_jobs_finished_->Inc();
  if (m_run_us_ != nullptr) {
    m_run_us_->Record(
        static_cast<uint64_t>(final_snap.seconds_running * 1e6));
  }
  // Slowness is the run time alone; tracing only decides whether the
  // slow_query event can point at a capture.
  const bool slow = final_snap.seconds_running >= options_.slow_query_seconds;
  uint64_t trace_id = 0;
  if (trace != nullptr) {
    // Every slow trace lands in the ring; a healthy server contributes
    // every trace_sample_every-th traced job so /tracez is never empty.
    const uint64_t nth =
        traced_finished_.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool sampled = options_.trace_sample_every > 0 &&
                         nth % options_.trace_sample_every == 0;
    if (slow || sampled) {
      query::TraceCapture capture;
      capture.job_id = final_snap.id;
      capture.user = final_snap.user;
      capture.sql = final_snap.sql;
      capture.seconds = final_snap.seconds_running;
      capture.slow = slow;
      capture.chrome_json = trace->ToChromeJson();
      trace_id = options_.trace_ring->Push(std::move(capture));
    }
  }
  if (slow && options_.events != nullptr) {
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.3f",
                  final_snap.seconds_running);
    Event event;
    event.severity = EventSeverity::kWarn;
    event.component = "workbench";
    event.name = "slow_query";
    event.id = final_snap.id;
    event.fields = {{"user", final_snap.user},
                    {"sql", final_snap.sql},
                    {"seconds", seconds}};
    // The capture id /tracez?id= answers for, when the ring took one.
    if (trace_id != 0) {
      event.fields.emplace_back("trace", std::to_string(trace_id));
    }
    options_.events->Emit(event);
  }
  NotifyAndPrune(job, std::move(final_snap));
}

}  // namespace sdss::workbench
