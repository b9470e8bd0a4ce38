// Data-science pipeline (the paper's SCI workload): a team iterates on
// an evolving dataset, producing dozens of versions across branches.
// When checkouts get slow, the partition optimizer (`optimize` in the
// CLI) reorganizes the CVD with LYRESPLIT — this example invokes it
// through the library API and measures the speedup, including the
// weighted variant (Appendix C.2) that favours recent versions.
//
// Build & run:  ./build/examples/data_science_pipeline

#include <iostream>
#include <map>

#include "common/timer.h"
#include "core/orpheus.h"
#include "partition/lyresplit.h"
#include "partition/partition_store.h"
#include "workload/generator.h"

using orpheus::WallTimer;
using orpheus::core::Cvd;
using orpheus::core::SplitByRlistModel;
using orpheus::core::VersionId;

namespace {

void Die(const std::string& what, const orpheus::Status& status) {
  std::cerr << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

}  // namespace

int main() {
  // Generate a SCI-style history: 200 versions across 20 branches of
  // an evolving measurement table, and load it as a CVD.
  orpheus::wl::DatasetSpec spec;
  spec.num_versions = 400;
  spec.num_branches = 50;
  spec.inserts_per_version = 30;
  spec.num_attrs = 6;
  orpheus::wl::Dataset data = orpheus::wl::Generate(spec);
  std::cout << "generated history: " << data.versions().size() << " versions, "
            << data.num_records() << " distinct records\n";

  orpheus::rel::Database db;
  auto model = orpheus::core::MakeDataModel(
      orpheus::core::DataModelKind::kSplitByRlist, &db, "experiments",
      data.DataSchema());
  if (auto st = model->Init(); !st.ok()) Die("init", st);

  // Load versions through the model (the repository's bulk-load path).
  orpheus::core::RecordId watermark = 0;
  for (const orpheus::wl::VersionSpec& v : data.versions()) {
    // Stage the version's rows.
    orpheus::rel::Chunk rows = data.RowsFor(v.rids);
    orpheus::rel::Schema schema;
    schema.AddColumn("rid", orpheus::rel::DataType::kInt64);
    for (const auto& def : rows.schema().columns()) {
      schema.AddColumn(def.name, def.type);
    }
    orpheus::rel::Chunk staged(schema);
    for (auto rid : v.rids) staged.mutable_column(0).AppendInt(rid);
    std::vector<uint32_t> all(rows.num_rows());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
    for (int c = 0; c < rows.num_columns(); ++c) {
      staged.mutable_column(c + 1).Gather(rows.column(c), all);
    }
    orpheus::rel::Chunk new_records(schema);
    std::vector<uint32_t> fresh;
    for (size_t i = 0; i < v.rids.size(); ++i) {
      if (v.rids[i] >= watermark) fresh.push_back(static_cast<uint32_t>(i));
    }
    new_records.GatherFrom(staged, fresh);
    for (uint32_t i : fresh) {
      watermark = std::max(watermark, v.rids[i] + 1);
    }
    VersionId parent = v.parents.empty() ? -1 : v.parents[0];
    if (auto st = model->AddVersion(v.vid, v.rids, new_records, parent);
        !st.ok()) {
      Die("load", st);
    }
  }
  std::cout << "loaded CVD (" << model->StorageBytes() / 1024 << " KiB)\n\n";

  // --- Unpartitioned checkout latency ---------------------------------
  // Average over the 20 most recent versions (the team's daily pattern).
  std::vector<VersionId> recent;
  for (size_t i = data.versions().size() - 20; i < data.versions().size(); ++i) {
    recent.push_back(data.versions()[i].vid);
  }
  auto latest = data.versions().back().vid;
  db.ResetStats();
  WallTimer before;
  for (VersionId vid : recent) {
    if (auto st = model->CheckoutVersion(vid, "w" + std::to_string(vid));
        !st.ok()) {
      Die("checkout", st);
    }
    (void)db.DropTable("w" + std::to_string(vid));
  }
  double unpartitioned = before.ElapsedSeconds() / recent.size();
  int64_t unpartitioned_rows =
      db.stats()->rows_scanned / static_cast<int64_t>(recent.size());
  std::cout << "avg checkout without partitioning: " << unpartitioned * 1e3
            << " ms (" << unpartitioned_rows << " rows touched)\n";

  // --- Partition with LYRESPLIT (gamma = 2|R|) -------------------------
  auto graph = data.BuildGraph();
  auto split = orpheus::part::LyreSplit::RunForBudget(graph,
                                                      2 * data.num_records());
  if (!split.ok()) Die("lyresplit", split.status());
  std::cout << "LYRESPLIT chose delta=" << split.value().delta << " -> "
            << split.value().partitioning.num_partitions() << " partitions\n";

  auto* rlist = dynamic_cast<SplitByRlistModel*>(model.get());
  orpheus::part::PartitionStore store(&db, "experiments", rlist->DataTable());
  std::map<VersionId, std::vector<orpheus::core::RecordId>> rids;
  for (const auto& v : data.versions()) rids[v.vid] = v.rids;
  if (auto st = store.Build(split.value().partitioning, std::move(rids));
      !st.ok()) {
    Die("build partitions", st);
  }

  // Warm the partitions' lazily built indexes, then time.
  if (auto st = store.CheckoutVersion(latest, "warm"); !st.ok()) {
    Die("partitioned checkout", st);
  }
  db.ResetStats();
  WallTimer after;
  for (VersionId vid : recent) {
    if (auto st = store.CheckoutVersion(vid, "p" + std::to_string(vid));
        !st.ok()) {
      Die("partitioned checkout", st);
    }
    (void)db.DropTable("p" + std::to_string(vid));
  }
  double partitioned = after.ElapsedSeconds() / recent.size();
  int64_t partitioned_rows =
      db.stats()->rows_scanned / static_cast<int64_t>(recent.size());
  std::cout << "avg checkout with partitioning:    " << partitioned * 1e3
            << " ms (" << partitioned_rows << " rows touched, "
            << unpartitioned / partitioned << "x faster)\n";
  std::cout << "storage: " << store.StorageRecords() << " records across "
            << store.num_partitions() << " partitions (vs "
            << data.num_records() << " unpartitioned)\n\n";

  // --- Weighted variant: the team mostly checks out recent versions ---
  std::map<VersionId, int64_t> frequency;
  for (const auto& v : data.versions()) {
    // Most-recent tenth of versions is checked out 30x as often.
    frequency[v.vid] =
        v.vid > static_cast<VersionId>(data.versions().size() * 9 / 10) ? 30 : 1;
  }
  auto weighted =
      orpheus::part::LyreSplit::RunWeighted(graph, frequency, split.value().delta);
  if (!weighted.ok()) Die("weighted", weighted.status());
  auto bip = data.BuildBipartite();
  orpheus::part::Partitioning wp = weighted.value().partitioning;
  if (auto st = wp.ComputeCosts(bip); !st.ok()) Die("costs", st);

  // Weighted checkout cost under the hot-version workload.
  double weighted_cost = 0;
  double plain_cost = 0;
  int64_t total_freq = 0;
  orpheus::part::Partitioning pp = split.value().partitioning;
  if (auto st = pp.ComputeCosts(bip); !st.ok()) Die("costs", st);
  auto cost_of = [&](const orpheus::part::Partitioning& p, VersionId vid) {
    for (size_t k = 0; k < p.groups.size(); ++k) {
      for (VersionId member : p.groups[k]) {
        if (member == vid) return static_cast<double>(p.partition_records[k]);
      }
    }
    return 0.0;
  };
  for (const auto& [vid, f] : frequency) {
    weighted_cost += static_cast<double>(f) * cost_of(wp, vid);
    plain_cost += static_cast<double>(f) * cost_of(pp, vid);
    total_freq += f;
  }
  std::cout << "frequency-weighted checkout cost under the skewed workload "
               "(records/checkout):\n"
            << "  unweighted LYRESPLIT: " << plain_cost / total_freq
            << " (storage " << pp.storage_cost << " records)\n"
            << "  weighted LYRESPLIT:   " << weighted_cost / total_freq
            << " (storage " << wp.storage_cost << " records)\n"
            << "Appendix C.2 guarantees the same ((1+d)^l, 1/d) bound on the "
               "weighted objective;\nwhich variant wins depends on the "
               "frequency skew and d.\n";
  return 0;
}
