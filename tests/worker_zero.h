// One real Worker over a bare CommHub, for tests in which the test thread
// plays the worker's peers: endpoint 1 stands in for worker 1 and endpoint
// 2 for the master.

#ifndef GTHINKER_TESTS_WORKER_ZERO_H_
#define GTHINKER_TESTS_WORKER_ZERO_H_

#include <functional>
#include <memory>

#include "core/worker.h"
#include "storage/mini_dfs.h"

namespace gthinker {

/// Worker 0 of `config.num_workers` over vertices 0..9 (slots for 0, 2, 4,
/// 6, 8 with two workers) on `hub`, loaded and wired by `setup` but not
/// started.
template <typename ComperT>
std::unique_ptr<Worker<ComperT>> LoadWorkerZero(
    CommHub* hub, const JobConfig& config,
    const std::function<void(Worker<ComperT>*)>& setup = nullptr) {
  auto worker = std::make_unique<Worker<ComperT>>(
      0, config, hub, [] { return std::make_unique<ComperT>(); }, nullptr,
      TempDirPath("worker_zero"));
  worker->SizeLocalTable(10);
  worker->FinalizeLoad();
  if (setup) setup(worker.get());
  return worker;
}

/// Starts worker 0 of 2, with one comper, over vertices 0..9 on `hub`.
template <typename ComperT>
std::unique_ptr<Worker<ComperT>> StartWorkerZero(CommHub* hub) {
  JobConfig config;
  config.num_workers = 2;
  config.compers_per_worker = 1;
  auto worker = LoadWorkerZero<ComperT>(hub, config);
  worker->Start();
  return worker;
}

}  // namespace gthinker

#endif  // GTHINKER_TESTS_WORKER_ZERO_H_
