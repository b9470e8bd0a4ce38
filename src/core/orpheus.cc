#include "core/orpheus.h"

#include "core/data_model.h"
#include "storage/io_util.h"
#include "storage/storage_manager.h"

namespace orpheus::core {

OrpheusDB::OrpheusDB() {
  users_.insert("default");
  current_user_ = "default";
}

OrpheusDB::~OrpheusDB() = default;

Status OrpheusDB::CreateUser(const std::string& name) {
  if (!users_.insert(name).second) {
    return Status::AlreadyExists("user already exists: " + name);
  }
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogCreateUser(name));
  }
  return Status::OK();
}

Status OrpheusDB::Login(const std::string& name) {
  if (users_.count(name) == 0) {
    return Status::NotFound("no such user: " + name);
  }
  current_user_ = name;
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogLogin(name));
  }
  return Status::OK();
}

Result<Cvd*> OrpheusDB::InitCvd(const std::string& name, const rel::Chunk& rows,
                                CvdOptions options, const std::string& message) {
  if (cvds_.count(name) > 0) {
    return Status::AlreadyExists("CVD already exists: " + name);
  }
  ORPHEUS_ASSIGN_OR_RETURN(auto cvd,
                           Cvd::Create(&db_, name, rows.schema(), options));
  ORPHEUS_ASSIGN_OR_RETURN(VersionId v1, cvd->InitVersion(rows, message));
  (void)v1;
  Cvd* raw = cvd.get();
  cvds_[name] = std::move(cvd);
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogInitCvd(name, options, message, rows));
  }
  return raw;
}

Result<Cvd*> OrpheusDB::GetCvd(const std::string& name) {
  auto it = cvds_.find(name);
  if (it == cvds_.end()) return Status::NotFound("no such CVD: " + name);
  return it->second.get();
}

std::vector<std::string> OrpheusDB::ListCvds() const {
  std::vector<std::string> names;
  names.reserve(cvds_.size());
  for (const auto& [name, cvd] : cvds_) names.push_back(name);
  return names;
}

Status OrpheusDB::DropCvd(const std::string& name) {
  auto it = cvds_.find(name);
  if (it == cvds_.end()) return Status::NotFound("no such CVD: " + name);
  // Partition tables go with their store; then everything else with
  // this CVD's prefix.
  DetachPartitionStore(name);
  for (const std::string& table : db_.ListTables()) {
    if (table.rfind(name + "_", 0) == 0) {
      ORPHEUS_RETURN_NOT_OK(db_.DropTable(table));
    }
  }
  resolver_overrides_.erase(name);
  cvds_.erase(it);
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogDropCvd(name));
  }
  return Status::OK();
}

Status OrpheusDB::Checkout(const std::string& cvd_name,
                           const std::vector<VersionId>& vids,
                           const std::string& table_name) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  ORPHEUS_RETURN_NOT_OK(cvd->Checkout(vids, table_name));
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogCheckout(cvd_name, vids, table_name));
  }
  return Status::OK();
}

Result<VersionId> OrpheusDB::Commit(const std::string& cvd_name,
                                    const std::string& table_name,
                                    const std::string& message) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  ORPHEUS_ASSIGN_OR_RETURN(CommitDelta delta,
                           cvd->ResolveCommit(table_name, message));
  ORPHEUS_ASSIGN_OR_RETURN(VersionId vid, ApplyCommit(cvd_name, delta));
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogCommit(cvd_name, delta));
  }
  return vid;
}

Result<VersionId> OrpheusDB::ApplyCommit(const std::string& cvd_name,
                                         const CommitDelta& delta) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  part::PartitionStore* store = partition_store(cvd_name);
  if (store == nullptr) return cvd->ApplyCommit(delta);

  // A partitioned CVD keeps every version placed (§4.1): the new one
  // joins its primary parent's partition. Look the partition up first
  // so a failure leaves nothing half-applied.
  ORPHEUS_ASSIGN_OR_RETURN(size_t partition,
                           store->PartitionOf(delta.primary_parent()));
  ORPHEUS_ASSIGN_OR_RETURN(VersionId vid, cvd->ApplyCommit(delta));
  // Records are fetched by their cached data-table rows: every commit
  // appends to the data table, which drops its rid index.
  DataModel* model = cvd->model();
  ORPHEUS_RETURN_NOT_OK(model->PrepareRecordCache(cvd->total_records()));
  std::vector<uint32_t> rows;
  rows.reserve(delta.rids.size());
  for (RecordId rid : delta.rids) {
    if (!model->HasRecord(rid)) {
      return Status::NotFound("record not stored: " + std::to_string(rid));
    }
    rows.push_back(static_cast<uint32_t>(model->LocateRecord(rid).row));
  }
  ORPHEUS_RETURN_NOT_OK(
      store->AddVersionToPartition(vid, partition, delta.rids, rows));
  return vid;
}

Status OrpheusDB::DiscardStaged(const std::string& cvd_name,
                                const std::string& table_name) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  ORPHEUS_RETURN_NOT_OK(cvd->DiscardStaged(table_name));
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogDiscardStaged(cvd_name, table_name));
  }
  return Status::OK();
}

Result<std::pair<std::string, std::string>> OrpheusDB::ResolveTables(
    const std::string& cvd_name, VersionId vid) {
  auto override_it = resolver_overrides_.find(cvd_name);
  if (override_it != resolver_overrides_.end()) {
    return override_it->second(cvd_name, vid);
  }
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  auto* rlist = dynamic_cast<SplitByRlistModel*>(cvd->model());
  if (rlist == nullptr) {
    return Status::NotSupported(
        "versioned SQL requires the split-by-rlist data model (CVD " +
        cvd_name + " uses " + DataModelKindName(cvd->model()->kind()) + ")");
  }
  return std::make_pair(rlist->DataTable(), rlist->VersioningTable());
}

void OrpheusDB::SetTableResolver(const std::string& cvd_name,
                                 TableResolver resolver) {
  resolver_overrides_[cvd_name] = std::move(resolver);
}

void OrpheusDB::ClearTableResolver(const std::string& cvd_name) {
  resolver_overrides_.erase(cvd_name);
}

Status OrpheusDB::AttachPartitionStore(
    const std::string& cvd_name, std::unique_ptr<part::PartitionStore> store) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  auto* model = dynamic_cast<SplitByRlistModel*>(cvd->model());
  if (model == nullptr) {
    return Status::NotSupported(
        "partition stores require the split-by-rlist data model");
  }
  part::PartitionStore* raw = store.get();
  cvd->SetCheckoutOverride(
      [raw](VersionId vid, const std::string& table) {
        return raw->CheckoutVersion(vid, table);
      });
  SetTableResolver(
      cvd_name, [raw, model](const std::string&, VersionId vid)
                    -> Result<std::pair<std::string, std::string>> {
        if (vid < 0) {
          // Whole-CVD queries still use the unpartitioned tables.
          return std::make_pair(model->DataTable(), model->VersioningTable());
        }
        return raw->TablesFor(vid);
      });
  partition_stores_[cvd_name] = std::move(store);
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(
        storage_->LogRepartition(cvd_name, raw->VersionGroups()));
  }
  return Status::OK();
}

part::PartitionStore* OrpheusDB::partition_store(const std::string& cvd_name) {
  auto it = partition_stores_.find(cvd_name);
  return it == partition_stores_.end() ? nullptr : it->second.get();
}

void OrpheusDB::DetachPartitionStore(const std::string& cvd_name) {
  auto it = partition_stores_.find(cvd_name);
  if (it == partition_stores_.end()) return;
  auto cvd = GetCvd(cvd_name);
  if (cvd.ok()) cvd.value()->ClearCheckoutOverride();
  ClearTableResolver(cvd_name);
  partition_stores_.erase(it);  // the store drops its tables
}

Result<rel::Chunk> OrpheusDB::Run(const std::string& sql) {
  TableResolver resolver = [this](const std::string& cvd_name, VersionId vid) {
    return ResolveTables(cvd_name, vid);
  };
  ORPHEUS_ASSIGN_OR_RETURN(std::string translated,
                           TranslateVersionedSql(sql, resolver));
  return db_.Execute(translated);
}

Status OrpheusDB::Open(const std::string& dir) {
  if (storage_ != nullptr) {
    return Status::InvalidArgument("durable storage already open at " +
                                   storage_->dir());
  }
  // Pre-existing state would never reach the log (only verbs issued
  // while durable are appended), so anything beyond the construction
  // defaults — including extra users — must be rejected, or later
  // logged verbs could reference state that replay cannot rebuild.
  if (!cvds_.empty() || !db_.ListTables().empty() ||
      users_ != std::set<std::string>{"default"} ||
      current_user_ != "default") {
    return Status::InvalidArgument(
        "Open requires a fresh engine (CVDs, tables, or users already exist)");
  }
  ORPHEUS_ASSIGN_OR_RETURN(storage_, storage::StorageManager::Open(dir, this));
  return Status::OK();
}

Status OrpheusDB::Checkpoint() {
  if (storage_ == nullptr) {
    return Status::InvalidArgument("no durable storage open (use Open first)");
  }
  return storage_->Checkpoint();
}

Status OrpheusDB::SaveSnapshot(const std::string& dir) {
  if (storage_ != nullptr) {
    // Compare directory identities, not spellings: a watermark-0
    // snapshot dropped into the live directory would make the next
    // open replay the whole WAL on top of it. The open dir always
    // resolves; if the target does not yet exist it cannot be it.
    auto open_dir = storage::CanonicalPath(storage_->dir());
    auto target = storage::CanonicalPath(dir);
    if (open_dir.ok() && target.ok() && open_dir.value() == target.value()) {
      return Status::InvalidArgument(
          "target is the open durable directory; use Checkpoint() instead");
    }
  }
  return storage::StorageManager::SaveSnapshotTo(this, dir);
}

std::string OrpheusDB::storage_dir() const {
  return storage_ == nullptr ? std::string() : storage_->dir();
}

}  // namespace orpheus::core
