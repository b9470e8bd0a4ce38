#include "layers.h"

#include <algorithm>
#include <filesystem>

#include "common/rng.h"
#include "core/data_model.h"
#include "obs/metrics.h"
#include "partition/lyresplit.h"
#include "partition/partition_store.h"
#include "storage/storage_manager.h"

namespace perfbench {

namespace {

double RowsScanned() {
  return PromValue(orpheus::obs::GlobalMetrics().RenderPrometheus(),
                   "orpheus_exec_rows_scanned_total");
}

}  // namespace

Result<PartitionLayer> MeasurePartitionLayer(orpheus::core::EngineApi* api,
                                             const std::string& cvd_name,
                                             int64_t preloaded_versions,
                                             uint64_t seed, SpanLog* log) {
  using orpheus::core::RecordId;
  using orpheus::core::VersionId;
  PartitionLayer out;
  ScopedSpan phase(log, "partition.direct_calls");
  orpheus::core::OrpheusDB* engine = api->orpheus();
  ORPHEUS_ASSIGN_OR_RETURN(orpheus::core::Cvd * cvd, engine->GetCvd(cvd_name));
  auto* model = dynamic_cast<orpheus::core::SplitByRlistModel*>(cvd->model());
  orpheus::part::PartitionStore* attached = engine->partition_store(cvd_name);
  if (model == nullptr || attached == nullptr) {
    return Status::FailedPrecondition(cvd_name + " is not partitioned");
  }

  // The optimizer's two steps, on the engine's own graph and records,
  // with the `optimize` verb's budget (2x the distinct records).
  const auto gamma = static_cast<int64_t>(2.0 * static_cast<double>(cvd->total_records()));
  orpheus::part::LyreSplitResult split;
  {
    ScopedSpan span(log, "partition.LyreSplit::RunForBudget", phase.id());
    ORPHEUS_ASSIGN_OR_RETURN(split, orpheus::part::LyreSplit::RunForBudget(
                                        cvd->graph(), gamma));
    out.lyresplit_ms = span.ElapsedMs();
  }
  std::map<VersionId, std::vector<RecordId>> version_rids;
  for (VersionId vid : cvd->graph().versions()) {
    ORPHEUS_ASSIGN_OR_RETURN(version_rids[vid], model->VersionRecords(vid));
  }
  {
    orpheus::part::PartitionStore store(engine->db(), "perfbench_" + cvd_name,
                                        model->DataTable());
    {
      ScopedSpan span(log, "partition.PartitionStore::Build", phase.id());
      ORPHEUS_RETURN_NOT_OK(store.Build(split.partitioning, std::move(version_rids)));
      out.build_ms = span.ElapsedMs();
    }
    ORPHEUS_RETURN_NOT_OK(store.DropAll());
  }
  out.partitions = static_cast<int64_t>(split.partitioning.num_partitions());
  out.est_checkout_records = split.estimated_checkout;
  out.est_storage_records = static_cast<double>(split.estimated_storage);

  // Partitioned vs unpartitioned checkout of the same sampled versions.
  constexpr int kSamples = 40;
  orpheus::Rng rng(Mix64(seed ^ 0x5eed));
  const std::string table = "perfbench_direct_checkout";
  for (int i = 0; i < kSamples; ++i) {
    const VersionId vid =
        1 + static_cast<VersionId>(rng.Uniform(static_cast<uint64_t>(preloaded_versions)));
    const double scanned0 = RowsScanned();
    {
      ScopedSpan span(log, "partition.PartitionStore::CheckoutVersion", phase.id());
      ORPHEUS_RETURN_NOT_OK(attached->CheckoutVersion(vid, table));
      out.checkout_ms += span.ElapsedMs() / kSamples;
    }
    const double scanned1 = RowsScanned();
    ORPHEUS_RETURN_NOT_OK(engine->db()->DropTable(table));
    {
      ScopedSpan span(log, "core.DataModel::CheckoutVersion", phase.id());
      ORPHEUS_RETURN_NOT_OK(model->CheckoutVersion(vid, table));
      out.unpartitioned_checkout_ms += span.ElapsedMs() / kSamples;
    }
    const double scanned2 = RowsScanned();
    ORPHEUS_RETURN_NOT_OK(engine->db()->DropTable(table));
    out.checkout_rows_scanned += (scanned1 - scanned0) / kSamples;
    out.unpartitioned_rows_scanned += (scanned2 - scanned1) / kSamples;
  }
  return out;
}

Result<StorageLayer> MeasureStorageOpen(const std::string& dir,
                                        const std::string& copy, SpanLog* log) {
  std::error_code ec;
  std::filesystem::remove_all(copy, ec);
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive, ec);
  if (ec) return Status::Internal("copy " + dir + ": " + ec.message());
  // The live directory's LOCK file is copied too; it is only a flock
  // target, so the copy opens as an unlocked directory.
  StorageLayer out;
  ScopedSpan phase(log, "storage.direct_calls");
  {
    orpheus::core::OrpheusDB engine;
    ScopedSpan span(log, "storage.OrpheusDB::Open", phase.id());
    ORPHEUS_RETURN_NOT_OK(engine.Open(copy));
    out.open_ms = span.ElapsedMs();
    out.replay_records = static_cast<int64_t>(engine.storage()->wal_records());
  }
  std::filesystem::remove_all(copy, ec);
  return out;
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) && entry.path().filename() != "LOCK") {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

}  // namespace perfbench
