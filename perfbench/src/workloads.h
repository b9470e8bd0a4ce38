// The benchmark's two workloads and the loader they share.
//
//   sci_explore  read-mostly exploration of a LyreSplit-partitioned SCI
//                CVD (tree version graph), in memory.
//   cur_commit   write-heavy curation of an unpartitioned CUR CVD (DAG
//                with merges) on a durable, group-committed directory.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "harness.h"
#include "workload/generator.h"

namespace perfbench {

// Loads every version of `data` into a new CVD `cvd` through the
// engine's own verbs: `init` from a CSV of version 1, then per version
// `checkout` of its parents, `sql` DELETE/INSERT of the difference,
// and `commit`. Files go under `dir`.
Status LoadHistory(orpheus::core::EngineApi* api, const orpheus::wl::Dataset& data,
                   const std::string& cvd, const std::string& dir);

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                            uint64_t seed);

// Auto-checkpoint bound used by cur_commit (bytes of WAL).
inline constexpr uint64_t kCurCheckpointBytes = 24ull << 20;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
