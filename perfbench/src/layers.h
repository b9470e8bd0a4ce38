// Direct calls into single layers, made from the benchmark's own code
// in traced runs: the partition optimizer's steps and checkouts, and a
// storage recovery on a copy of the workload's directory.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct PartitionLayer {
  double lyresplit_ms = 0;  // LyreSplit::RunForBudget
  double build_ms = 0;      // PartitionStore::Build
  int64_t partitions = 0;
  double est_checkout_records = 0;
  double est_storage_records = 0;
  // Means over sampled preloaded versions.
  double checkout_ms = 0;  // PartitionStore::CheckoutVersion
  double checkout_rows_scanned = 0;
  double unpartitioned_checkout_ms = 0;  // DataModel::CheckoutVersion
  double unpartitioned_rows_scanned = 0;
};

// Requires a partitioned split-by-rlist CVD and no concurrent sessions.
Result<PartitionLayer> MeasurePartitionLayer(orpheus::core::EngineApi* api,
                                             const std::string& cvd_name,
                                             int64_t preloaded_versions,
                                             uint64_t seed, SpanLog* log);

struct StorageLayer {
  double open_ms = 0;          // OrpheusDB::Open
  int64_t replay_records = 0;  // WAL records replayed by that open
};

// Copies `dir` to `copy`, opens the copy once, removes it.
Result<StorageLayer> MeasureStorageOpen(const std::string& dir,
                                        const std::string& copy, SpanLog* log);

// Bytes of the regular files under `dir` (MANIFEST, segments, WAL),
// excluding the LOCK file.
int64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
