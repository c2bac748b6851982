#include "stack.h"

#include <utility>

#include "catalog/sky_generator.h"
#include "persist/snapshot.h"

namespace e2e {

using sdss::Result;
using sdss::Status;

Status WriteSkySnapshot(const std::string& path) {
  // 4x the bench model: about 394k objects on the north galactic cap.
  sdss::catalog::SkyModel model;
  model.seed = 42;
  model.num_galaxies = 200'000;
  model.num_stars = 192'000;
  model.num_quasars = 2'000;
  sdss::catalog::StoreOptions options;
  options.cluster_level = 6;
  sdss::catalog::ObjectStore store(options);
  SDSS_RETURN_IF_ERROR(
      store.BulkLoad(sdss::catalog::SkyGenerator(model).Generate()));
  return sdss::persist::SnapshotWriter(path).Write(store);
}

Result<std::unique_ptr<Stack>> Boot(const std::string& snapshot_path,
                                    const std::string& state_dir) {
  auto stack = std::make_unique<Stack>();
  auto mapped = sdss::persist::MapSnapshotStore(snapshot_path);
  if (!mapped.ok()) return mapped.status();
  stack->store =
      std::make_unique<sdss::catalog::ObjectStore>(std::move(*mapped));

  sdss::archive::ReplicationOptions replication;
  replication.num_servers = 4;
  replication.base_replicas = 2;
  stack->fleet =
      std::make_unique<sdss::archive::ShardedStore>(*stack->store, replication);
  auto shards = stack->fleet->LiveShards();
  if (!shards.ok()) return shards.status();

  sdss::query::FederatedQueryEngine::Options engine;
  engine.result_cache_bytes = kResultCacheBytes;
  sdss::archive::ShardedStore* fleet = stack->fleet.get();
  engine.cache_epoch_source = [fleet] { return fleet->Epoch(); };
  engine.metrics = &stack->registry;
  stack->engine = std::make_unique<sdss::query::FederatedQueryEngine>(
      std::move(*shards), std::move(engine));

  sdss::archive::MyDb::Options mydb;
  stack->state_dir = state_dir;
  stack->mydb_dir = state_dir + "/mydb";
  mydb.persist_dir = stack->mydb_dir;
  stack->mydb = std::make_unique<sdss::archive::MyDb>(std::move(mydb));
  auto attached = stack->mydb->AttachStorage();
  if (!attached.ok()) return attached.status();

  sdss::workbench::JobScheduler::Options lanes;
  lanes.quick_workers = 4;
  lanes.long_workers = 1;
  lanes.max_queued_quick = 256;
  lanes.max_retained_terminal_jobs = 1024;
  lanes.metrics = &stack->registry;
  stack->scheduler = std::make_unique<sdss::workbench::JobScheduler>(
      stack->engine.get(), stack->mydb.get(), std::move(lanes));
  auto recovered = stack->scheduler->RecoverFrom(state_dir + "/jobs");
  if (!recovered.ok()) return recovered.status();

  sdss::server::ServerOptions server;
  server.metrics = &stack->registry;
  stack->server = std::make_unique<sdss::server::QueryServer>(
      stack->scheduler.get(), std::move(server));
  SDSS_RETURN_IF_ERROR(stack->server->Start());
  return stack;
}

}  // namespace e2e
