// Shared helpers for the figure/table reproduction harnesses.
//
// Scales: the paper's datasets range from 1M to 10M records on a
// 16 GB workstation; these harnesses default to ~40x smaller inputs so
// the whole suite runs in minutes on a small machine. Every binary
// accepts --scale=<f> to grow the datasets toward paper size.

#ifndef ORPHEUS_BENCH_BENCH_UTIL_H_
#define ORPHEUS_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "core/data_model.h"
#include "relstore/database.h"
#include "workload/generator.h"

namespace orpheus::bench {

// Standard dataset sizes (before --scale). Branches/inserts follow the
// paper's Table 2 proportions: B = |V|/10, I such that |R| lands near
// the target.
wl::DatasetSpec SmallSpec(wl::WorkloadKind kind);   // ~9K records
wl::DatasetSpec MediumSpec(wl::WorkloadKind kind);  // ~25K records
wl::DatasetSpec LargeSpec(wl::WorkloadKind kind);   // ~60K records

// Applies a linear scale factor to versions and inserts.
wl::DatasetSpec Scaled(wl::DatasetSpec spec, double scale);

// Loads every version of `data` into `model` through
// DataModel::AddVersion, using the generator's exact rid lists (so no
// record-resolution hashing is involved — this is dataset loading, not
// the commit benchmark itself). Tables must not exist yet.
Status PopulateModel(core::DataModel* model, const wl::Dataset& data);

// Deterministically samples `count` version ids.
std::vector<core::VersionId> SampleVersions(const wl::Dataset& data, int count,
                                            uint64_t seed);

// Column-aligned console table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

// "12.3s" / "45ms" style duration formatting.
std::string FormatSeconds(double seconds);
// "1.2 GB" / "34.5 MB" style size formatting.
std::string FormatBytes(int64_t bytes);

// --- JSON output (the --json flag every harness shares) ---

// Escapes `s` for embedding inside a JSON string literal (quotes,
// backslashes, control characters).
std::string JsonEscape(const std::string& s);

// Renders the process-global metrics registry as a JSON object of
// flattened-series-name -> number entries, e.g.
//   {"orpheus_ops_total{verb=commit}": 42, ...}
// Histograms contribute two entries, <flat>_count and <flat>_sum.
// Every bench embeds this under a "metrics" key so the checked-in
// BENCH_*.json files carry the engine's own counters next to the
// harness timings (docs/OBSERVABILITY.md). `indent` prefixes each
// line after the first.
std::string MetricsJson(const std::string& indent);

// Assembles the standard bench JSON document every harness writes via
// --json: {"bench": <name>, "points": [<objects>], "metrics": {...}}.
// `point_objects` are already-rendered JSON objects (one per point —
// heterogeneous shapes are fine; tag them with an "experiment" key).
std::string BenchJson(const std::string& bench,
                      const std::vector<std::string>& point_objects);

// Writes `content` to `path` and prints "wrote <path>"; reports an
// error and returns false when the file cannot be written.
bool WriteJsonFile(const std::string& path, const std::string& content);

// Pulls one sample out of a Prometheus text exposition (the `metrics`
// verb's reply): the value of the line that starts "<series> ", where
// series includes any {labels} part verbatim. Returns 0 when the
// series is absent — scrape deltas of never-bumped counters read 0.
double PromValue(const std::string& text, const std::string& series);

}  // namespace orpheus::bench

#endif  // ORPHEUS_BENCH_BENCH_UTIL_H_
