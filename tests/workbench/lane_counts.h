// The lane-count invariant the workbench suites share: what the
// scheduler reports about its lanes -- LaneDepths(), the four per-lane
// gauges the watchdog's quick_lane_pinned rule reads, and the INTO name
// claims -- equals a recount of the jobs' own states.

#ifndef SDSS_TESTS_WORKBENCH_LANE_COUNTS_H_
#define SDSS_TESTS_WORKBENCH_LANE_COUNTS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "workbench/scheduler.h"

namespace sdss::workbench {

/// Recounts Jobs() by lane and state and checks LaneDepths(),
/// IntoClaims() (one claim per queued or running INTO job) and, when
/// `registry` is set, the workbench_{quick,long}_{queued,running} gauges
/// against it. Call only while no job can change state (workers gated
/// or idle).
inline void ExpectLaneCountsMatchJobs(const JobScheduler& sched,
                                      metrics::Registry* registry) {
  QueueDepths recount;
  std::vector<std::pair<std::string, std::string>> claims;
  for (const JobSnapshot& job : sched.Jobs()) {
    const bool quick = job.lane == Lane::kQuick;
    if (job.state == JobState::kQueued) {
      ++(quick ? recount.quick_queued : recount.long_queued);
    } else if (job.state == JobState::kRunning) {
      ++(quick ? recount.quick_running : recount.long_running);
    }
    const bool live =
        job.state == JobState::kQueued || job.state == JobState::kRunning;
    if (live && !job.into.empty()) claims.emplace_back(job.user, job.into);
  }
  std::sort(claims.begin(), claims.end());
  EXPECT_EQ(sched.IntoClaims(), claims);
  const QueueDepths depths = sched.LaneDepths();
  EXPECT_EQ(depths.quick_queued, recount.quick_queued);
  EXPECT_EQ(depths.quick_running, recount.quick_running);
  EXPECT_EQ(depths.long_queued, recount.long_queued);
  EXPECT_EQ(depths.long_running, recount.long_running);
  if (registry == nullptr) return;
  auto gauge = [registry](const char* name) {
    return static_cast<size_t>(registry->GetGauge(name)->Value());
  };
  EXPECT_EQ(gauge("workbench_quick_queued"), recount.quick_queued);
  EXPECT_EQ(gauge("workbench_quick_running"), recount.quick_running);
  EXPECT_EQ(gauge("workbench_long_queued"), recount.long_queued);
  EXPECT_EQ(gauge("workbench_long_running"), recount.long_running);
}

}  // namespace sdss::workbench

#endif  // SDSS_TESTS_WORKBENCH_LANE_COUNTS_H_
