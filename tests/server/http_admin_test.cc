// The HTTP admin endpoint: routing, Prometheus scrapes, /varz windows,
// /tracez downloads, and the acceptance path -- /healthz flipping to
// 503 while the quick lane is pinned and recovering when it drains.

#include "server/http_admin.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "core/metrics.h"
#include "core/metrics_history.h"
#include "core/net.h"
#include "core/watchdog.h"
#include "query/federated_engine.h"
#include "query/trace.h"
#include "workbench/scheduler.h"

namespace sdss::server {
namespace {

using workbench::JobScheduler;

/// One blocking HTTP/1.0 GET against the admin port; returns the raw
/// response (status line, headers, body).
std::string HttpGet(uint16_t port, const std::string& target) {
  auto conn = TcpConn::Connect("127.0.0.1", port);
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  if (!conn.ok()) return {};
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: admin\r\n\r\n";
  EXPECT_TRUE(conn->WriteAll(request).ok());
  std::string response;
  char c = 0;
  while (conn->ReadExact(&c, 1).ok()) response.push_back(c);
  return response;
}

TEST(HttpAdminHandle, RoutesAndRejects) {
  metrics::Registry registry;
  HttpAdmin::Options opt;
  opt.metrics = &registry;
  HttpAdmin admin(opt);

  EXPECT_EQ(admin.Handle("GET", "/nope").status, 404);
  EXPECT_EQ(admin.Handle("POST", "/metrics").status, 405);
  // No watchdog wired: readiness degrades to liveness.
  EXPECT_EQ(admin.Handle("GET", "/healthz").status, 200);
  EXPECT_EQ(admin.Handle("GET", "/healthz?mode=live").status, 200);
  // Optional planes answer "not configured", not 404 (the route exists).
  EXPECT_EQ(admin.Handle("GET", "/varz").status, 503);
  EXPECT_EQ(admin.Handle("GET", "/tracez").status, 503);
  EXPECT_EQ(admin.requests_served(), 6u);
  EXPECT_EQ(registry.GetCounter("admin_http_requests")->Value(), 6u);
}

TEST(HttpAdminHandle, MetricsScrapeIsPrometheusWithProcessGauges) {
  metrics::Registry registry;
  registry.GetCounter("server_queries_submitted")->Inc(7);
  HttpAdmin::Options opt;
  opt.metrics = &registry;
  HttpAdmin admin(opt);

  HttpResponse response = admin.Handle("GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4");
  EXPECT_NE(response.body.find("# TYPE server_queries_submitted counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("server_queries_submitted 7"),
            std::string::npos);
  // The scrape itself refreshed the process self-gauges.
  EXPECT_NE(response.body.find("process_open_fds"), std::string::npos);
  EXPECT_NE(response.body.find("process_uptime_seconds"),
            std::string::npos);
}

TEST(HttpAdminHandle, VarzParsesWindowsAndSurvivesYouth) {
  metrics::Registry registry;
  metrics::History::Options hopt;
  hopt.capacity = 16;
  metrics::History history(&registry, hopt);
  HttpAdmin::Options opt;
  opt.metrics = &registry;
  opt.history = &history;
  HttpAdmin admin(opt);

  // Too young to window: still a 200 (scrapers should not alarm on a
  // fresh process), with the reason in a comment.
  HttpResponse young = admin.Handle("GET", "/varz");
  EXPECT_EQ(young.status, 200);
  EXPECT_NE(young.body.find("# varz unavailable"), std::string::npos);

  metrics::Counter* reqs = registry.GetCounter("reqs_total");
  history.Sample(0.0);
  reqs->Inc(120);
  history.Sample(10.0);

  HttpResponse varz = admin.Handle("GET", "/varz?window=60s");
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.body.find("# window"), std::string::npos);
  EXPECT_NE(varz.body.find("reqs_total rate=12.00/s delta=120"),
            std::string::npos);
  // "5m" and bare seconds parse; junk is a 400.
  EXPECT_EQ(admin.Handle("GET", "/varz?window=5m").status, 200);
  EXPECT_EQ(admin.Handle("GET", "/varz?window=90").status, 200);
  EXPECT_EQ(admin.Handle("GET", "/varz?window=soon").status, 400);
  EXPECT_EQ(admin.Handle("GET", "/varz?window=0s").status, 400);
}

TEST(HttpAdminHandle, TracezListsAndDownloadsCaptures) {
  metrics::Registry registry;
  query::TraceRing ring(4);
  query::TraceCapture slow;
  slow.job_id = 41;
  slow.user = "ana";
  slow.sql = "SELECT \"quoted\"";
  slow.seconds = 2.5;
  slow.slow = true;
  slow.chrome_json = "{\"traceEvents\":[{\"name\":\"fan_out\"}]}";
  const uint64_t slow_id = ring.Push(std::move(slow));
  query::TraceCapture sampled;
  sampled.job_id = 42;
  sampled.user = "bob";
  sampled.chrome_json = "{\"traceEvents\":[]}";
  ring.Push(std::move(sampled));

  HttpAdmin::Options opt;
  opt.metrics = &registry;
  opt.traces = &ring;
  HttpAdmin admin(opt);

  HttpResponse index = admin.Handle("GET", "/tracez");
  EXPECT_EQ(index.status, 200);
  EXPECT_EQ(index.content_type, "application/json");
  EXPECT_NE(index.body.find("\"pushes\":2"), std::string::npos);
  EXPECT_NE(index.body.find("\"user\":\"ana\""), std::string::npos);
  EXPECT_NE(index.body.find("\"sql\":\"SELECT \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(index.body.find("\"slow\":true"), std::string::npos);

  HttpResponse by_id =
      admin.Handle("GET", "/tracez?id=" + std::to_string(slow_id));
  EXPECT_EQ(by_id.status, 200);
  EXPECT_EQ(by_id.content_type, "application/json");
  EXPECT_NE(by_id.body.find("\"fan_out\""), std::string::npos);

  // latest = the most recent push, ready for check_trace.py.
  HttpResponse latest = admin.Handle("GET", "/tracez?latest=1");
  EXPECT_EQ(latest.status, 200);
  EXPECT_EQ(latest.body, "{\"traceEvents\":[]}");

  EXPECT_EQ(admin.Handle("GET", "/tracez?id=9999").status, 404);
}

TEST(HttpAdminHttp, ServesRealSocketsFramedCorrectly) {
  metrics::Registry registry;
  HttpAdmin::Options opt;
  opt.metrics = &registry;
  HttpAdmin admin(opt);
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_GT(admin.port(), 0);

  std::string response = HttpGet(admin.port(), "/metrics");
  ASSERT_NE(response.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  // Content-Length frames exactly the body that follows the blank line.
  const size_t blank = response.find("\r\n\r\n");
  ASSERT_NE(blank, std::string::npos);
  const std::string body = response.substr(blank + 4);
  const size_t cl = response.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  EXPECT_EQ(std::stoul(response.substr(cl + 16)), body.size());
  EXPECT_NE(body.find("admin_http_requests"), std::string::npos);

  EXPECT_NE(HttpGet(admin.port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);
  admin.Stop();
  // Stop is idempotent and the port is really closed.
  admin.Stop();
  EXPECT_FALSE(TcpConn::Connect("127.0.0.1", admin.port()).ok());
}

TEST(HttpAdminHttp, ConcurrentScrapesUnderRegistryChurn) {
  metrics::Registry registry;
  HttpAdmin::Options opt;
  opt.metrics = &registry;
  HttpAdmin admin(opt);
  ASSERT_TRUE(admin.Start().ok());

  // A writer hammers the registry while several scrapers pull /metrics
  // and /healthz: every response must come back well-formed.
  std::atomic<bool> stop{false};
  std::thread churn([&registry, &stop] {
    metrics::Counter* c = registry.GetCounter("churn_total");
    metrics::Histogram* h = registry.GetHistogram("churn_us");
    uint64_t i = 0;
    while (!stop.load()) {
      c->Inc();
      h->Record(++i);
    }
  });
  constexpr int kThreads = 4;
  constexpr int kRequests = 16;
  std::atomic<int> good{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([&admin, &good, t] {
      for (int i = 0; i < kRequests; ++i) {
        const std::string target =
            (t + i) % 2 == 0 ? "/metrics" : "/healthz";
        std::string response = HttpGet(admin.port(), target);
        if (response.find("HTTP/1.0 200 OK\r\n") != std::string::npos &&
            response.find("\r\n\r\n") != std::string::npos) {
          good.fetch_add(1);
        }
      }
    });
  }
  for (auto& s : scrapers) s.join();
  stop.store(true);
  churn.join();
  EXPECT_EQ(good.load(), kThreads * kRequests);
  EXPECT_EQ(admin.requests_served(),
            static_cast<uint64_t>(kThreads * kRequests));
}

// The acceptance path: a pinned quick lane flips /healthz to 503 within
// the watchdog's consecutive-sample persistence, /statusz narrates the
// state, and draining the lane recovers readiness.
class HttpAdminHealthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyModel m;
    m.seed = 2300;
    m.num_galaxies = 4000;
    m.num_stars = 3000;
    m.num_quasars = 100;
    source_ = new catalog::ObjectStore();
    ASSERT_TRUE(
        source_->BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
    archive::ReplicationOptions repl;
    repl.num_servers = 2;
    repl.base_replicas = 1;
    sharded_ = new archive::ShardedStore(*source_, repl);
    auto shards = sharded_->LiveShards();
    ASSERT_TRUE(shards.ok());
    engine_ = new query::FederatedQueryEngine(*shards);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete sharded_;
    delete source_;
    engine_ = nullptr;
    sharded_ = nullptr;
    source_ = nullptr;
  }

  static catalog::ObjectStore* source_;
  static archive::ShardedStore* sharded_;
  static query::FederatedQueryEngine* engine_;
};

catalog::ObjectStore* HttpAdminHealthTest::source_ = nullptr;
archive::ShardedStore* HttpAdminHealthTest::sharded_ = nullptr;
query::FederatedQueryEngine* HttpAdminHealthTest::engine_ = nullptr;

TEST_F(HttpAdminHealthTest, HealthzFlipsWhenQuickLanePinsAndRecovers) {
  metrics::Registry registry;
  metrics::History::Options hopt;
  hopt.capacity = 32;
  metrics::History history(&registry, hopt);
  constexpr size_t kQuickDepthMax = 3;
  HealthWatchdog::Options wopt;
  wopt.rules = HealthWatchdog::DefaultRules(kQuickDepthMax);
  HealthWatchdog watchdog(&history, wopt);

  JobScheduler::Options sopt;
  sopt.quick_workers = 1;  // One worker: one blocked job pins the lane.
  sopt.long_workers = 1;
  sopt.metrics = &registry;
  archive::MyDb mydb;
  JobScheduler scheduler(engine_, &mydb, sopt);

  HttpAdmin::Options opt;
  opt.metrics = &registry;
  opt.history = &history;
  opt.watchdog = &watchdog;
  opt.scheduler = &scheduler;
  HttpAdmin admin(opt);
  ASSERT_TRUE(admin.Start().ok());

  // Two healthy samples so the gauge rules have a window to read.
  history.Sample(0.0);
  history.Sample(10.0);
  watchdog.Evaluate();
  EXPECT_NE(HttpGet(admin.port(), "/healthz").find("HTTP/1.0 200"),
            std::string::npos);

  // Wedge the quick lane: a streaming job whose batch hook parks the
  // only quick worker until we release it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> parked{false};
  workbench::StreamHooks hooks;
  hooks.on_batch = [&](const query::RowBatch&) {
    parked.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return true;
  };
  auto wedge = scheduler.Submit(
      "ana", "SELECT COUNT(*) FROM photo WHERE r < 23", std::move(hooks));
  ASSERT_TRUE(wedge.ok()) << wedge.status().ToString();
  while (!parked.load()) std::this_thread::yield();

  // Pile up kQuickDepthMax more behind it.
  std::vector<uint64_t> queued;
  for (size_t i = 0; i < kQuickDepthMax; ++i) {
    auto job = scheduler.Submit(
        "ana", "SELECT COUNT(*) FROM photo WHERE r < 2" +
                   std::to_string(i));
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    queued.push_back(*job);
  }
  ASSERT_GE(scheduler.LaneDepths().quick_queued, kQuickDepthMax);

  // The quick_lane_pinned rule wants the gauge at the bound for 3
  // consecutive samples -- one flip per sampler period.
  double now = 20.0;
  for (int i = 0; i < 3; ++i) {
    history.Sample(now);
    now += 10.0;
    watchdog.Evaluate();
  }
  EXPECT_FALSE(watchdog.ready());
  std::string sick = HttpGet(admin.port(), "/healthz");
  EXPECT_NE(sick.find("HTTP/1.0 503"), std::string::npos);
  EXPECT_NE(sick.find("quick_lane_pinned"), std::string::npos);
  // Liveness stays green while readiness is red: drain, don't restart.
  EXPECT_NE(HttpGet(admin.port(), "/healthz?mode=live")
                .find("HTTP/1.0 200"),
            std::string::npos);

  // /statusz narrates the same state in operator units.
  std::string statusz = HttpGet(admin.port(), "/statusz");
  EXPECT_NE(statusz.find("quick: queued=" +
                         std::to_string(kQuickDepthMax) + " running=1"),
            std::string::npos);

  // Release the wedge and drain; the rule clears on the next sample.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(scheduler.Wait(*wedge).ok());
  for (const uint64_t id : queued) ASSERT_TRUE(scheduler.Wait(id).ok());
  history.Sample(now);
  watchdog.Evaluate();
  EXPECT_TRUE(watchdog.ready());
  EXPECT_NE(HttpGet(admin.port(), "/healthz").find("HTTP/1.0 200"),
            std::string::npos);

  // Per-user accounting now shows the drained work.
  std::string after = HttpGet(admin.port(), "/statusz");
  EXPECT_NE(after.find("ana: total=4"), std::string::npos);
  EXPECT_NE(after.find("succeeded=4"), std::string::npos);
}

}  // namespace
}  // namespace sdss::server
