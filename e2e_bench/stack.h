// The server under test: the real archive stack, hosted in-process.
//
//   QueryServer -> JobScheduler -> FederatedQueryEngine (+ ResultCache)
//     -> ShardedStore / MyDb -> persist
//
// Every setting is a fixed constant of the benchmark, not a flag, so two
// commits are always measured on the same configuration.

#ifndef E2E_BENCH_STACK_H_
#define E2E_BENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/object_store.h"
#include "core/metrics.h"
#include "core/status.h"
#include "query/federated_engine.h"
#include "server/server.h"
#include "workbench/scheduler.h"

namespace e2e {

/// Result-cache budget: the hotspot working set fits, the interactive
/// one does not.
inline constexpr size_t kResultCacheBytes = 256 << 10;

/// Generates the sky (4x the bench model, sky seed 42) and writes it as a
/// snapshot to `path`. Input generation: never timed.
sdss::Status WriteSkySnapshot(const std::string& path);

/// One booted stack. Members are declared in dependency order, so
/// destruction stops the server first and unmaps the store last.
struct Stack {
  sdss::metrics::Registry registry;
  std::unique_ptr<sdss::catalog::ObjectStore> store;  ///< Mapped snapshot.
  std::unique_ptr<sdss::archive::ShardedStore> fleet;
  std::unique_ptr<sdss::query::FederatedQueryEngine> engine;
  std::unique_ptr<sdss::archive::MyDb> mydb;
  std::unique_ptr<sdss::workbench::JobScheduler> scheduler;
  std::unique_ptr<sdss::server::QueryServer> server;
  std::string state_dir;  ///< Everything the stack writes lives here.
  std::string mydb_dir;
};

/// Boots a stack from the snapshot at `snapshot_path`, with its
/// durable state (scheduler journal, MyDB) under `state_dir`, and
/// starts the server listening on a loopback port. This is what
/// setup_s times.
sdss::Result<std::unique_ptr<Stack>> Boot(const std::string& snapshot_path,
                                          const std::string& state_dir);

}  // namespace e2e

#endif  // E2E_BENCH_STACK_H_
