#include "core/data_model.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/str_util.h"

namespace orpheus::core {

namespace {

// Extracts an INT column named `name` from a chunk.
Result<std::vector<int64_t>> IntColumn(const rel::Chunk& chunk,
                                       const std::string& name) {
  ORPHEUS_ASSIGN_OR_RETURN(int col, chunk.schema().Resolve(name));
  if (chunk.column(col).type() != rel::DataType::kInt64) {
    return Status::Internal("column " + name + " is not INT");
  }
  return chunk.column(col).ints();
}

// Bulk-appends `rows` (schema: rid + data) into `table`, whose leading
// columns must match. This is the middleware's COPY-equivalent bulk
// path; per-row INSERT statements would only add parse overhead.
Status BulkAppend(rel::Table* table, const rel::Chunk& rows) {
  if (rows.num_rows() == 0) return Status::OK();
  std::vector<uint32_t> all(rows.num_rows());
  std::iota(all.begin(), all.end(), 0);
  rel::Chunk& dst = table->mutable_chunk();
  for (int c = 0; c < rows.num_columns(); ++c) {
    dst.mutable_column(c).Gather(rows.column(c), all);
  }
  // Backfill any trailing columns (e.g. vlist) — caller fills them.
  return Status::OK();
}

// Table 1 commit of the vlist models: appends `vid` to the vlist of
// every record in `rids`, once however often a rid repeats (records
// new in this version already hold {vid}). `vlists` is row-aligned
// with the model's record-cache table.
Status AppendVidToVlists(const DataModel& model, VersionId vid,
                         const std::vector<RecordId>& rids, rel::Column* vlists) {
  std::vector<rel::IntArray>& arrays = vlists->mutable_arrays();
  for (RecordId rid : rids) {
    if (!model.HasRecord(rid)) {
      return Status::NotFound("record not stored in CVD " + model.cvd_name() +
                              ": " + std::to_string(rid));
    }
    const size_t row = model.LocateRecord(rid).row;
    if (row >= arrays.size()) {
      return Status::Internal("vlist column of CVD " + model.cvd_name() +
                              " is not row-aligned with its records");
    }
    rel::IntArray& vlist = arrays[row];
    if (vlist.empty() || vlist.back() != vid) vlist.push_back(vid);
  }
  return Status::OK();
}

}  // namespace

const char* DataModelKindName(DataModelKind kind) {
  switch (kind) {
    case DataModelKind::kTablePerVersion:
      return "a-table-per-version";
    case DataModelKind::kCombinedTable:
      return "combined-table";
    case DataModelKind::kSplitByVlist:
      return "split-by-vlist";
    case DataModelKind::kSplitByRlist:
      return "split-by-rlist";
    case DataModelKind::kDeltaBased:
      return "delta-based";
  }
  return "unknown";
}

Result<DataModelKind> DataModelKindFromName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "a-table-per-version" || lower == "tpv") {
    return DataModelKind::kTablePerVersion;
  }
  if (lower == "combined-table" || lower == "combined") {
    return DataModelKind::kCombinedTable;
  }
  if (lower == "split-by-vlist" || lower == "vlist") {
    return DataModelKind::kSplitByVlist;
  }
  if (lower == "split-by-rlist" || lower == "rlist") {
    return DataModelKind::kSplitByRlist;
  }
  if (lower == "delta-based" || lower == "delta") {
    return DataModelKind::kDeltaBased;
  }
  return Status::InvalidArgument("unknown data model: " + name);
}

DataModel::DataModel(rel::Database* db, std::string cvd_name,
                     rel::Schema data_schema)
    : db_(db), cvd_name_(std::move(cvd_name)), data_schema_(std::move(data_schema)) {}

rel::Schema DataModel::RecordSchema() const {
  rel::Schema schema;
  schema.AddColumn("rid", rel::DataType::kInt64);
  for (const rel::ColumnDef& def : data_schema_.columns()) {
    schema.AddColumn(def.name, def.type);
  }
  return schema;
}

std::string DataModel::RecordColumnList() const {
  std::vector<std::string> cols = {"rid"};
  for (const rel::ColumnDef& def : data_schema_.columns()) {
    cols.push_back(def.name);
  }
  return Join(cols, ", ");
}

int64_t DataModel::TableBytes(const std::string& table) const {
  auto result = db_->GetTable(table);
  if (!result.ok()) return 0;
  return result.value()->ByteSize() + result.value()->IndexByteSize();
}

Result<rel::Chunk> DataModel::VersionRows(VersionId vid) {
  const std::string tmp = cvd_name_ + "_vrows_tmp";
  ORPHEUS_RETURN_NOT_OK(db_->DropTable(tmp, /*if_exists=*/true));
  ORPHEUS_RETURN_NOT_OK(CheckoutVersion(vid, tmp));
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * table, db_->GetTable(tmp));
  rel::Chunk rows = std::move(table->mutable_chunk());
  ORPHEUS_RETURN_NOT_OK(db_->DropTable(tmp));
  return rows;
}

Status DataModel::AddDataColumn(const std::string& name, rel::DataType type) {
  (void)name;
  (void)type;
  return Status::NotSupported(std::string(DataModelKindName(kind())) +
                              " does not support schema evolution");
}

Status DataModel::WidenDataColumn(const std::string& name, rel::DataType type) {
  (void)name;
  (void)type;
  return Status::NotSupported(std::string(DataModelKindName(kind())) +
                              " does not support schema evolution");
}

Status DataModel::RestoreFromTables(const VersionGraph& graph) {
  (void)graph;
  return Status::OK();
}

Status DataModel::PrepareRecordCache(RecordId end_rid) {
  record_end_ = std::max(record_end_, end_rid);
  return RefreshRecordCache();
}

Status DataModel::RefreshRecordCache() {
  if (cache_built_) {
    bool fresh = true;
    for (CachedTable& cached : cache_tables_) {
      auto table = db_->GetTable(cached.name);
      if (!table.ok() || table.value()->epoch() != cached.epoch) {
        fresh = false;
        break;
      }
      cached.table = table.value();
    }
    if (fresh) return Status::OK();
    InvalidateRecordCache();
  }
  cache_built_ = true;
  for (const std::string& table : RecordTables()) {
    Status st = CacheRows(table, 0, record_end_);
    if (!st.ok()) {
      InvalidateRecordCache();
      return st;
    }
  }
  return Status::OK();
}

Status DataModel::CacheStoredRecords(const std::string& table_name,
                                     size_t from_row) {
  if (!cache_built_) return Status::OK();
  // Rows the model just stored carry valid rids by AddVersion's
  // contract; they raise the bound rather than being checked by it.
  return CacheRows(table_name, from_row, std::numeric_limits<RecordId>::max());
}

Status DataModel::CacheRows(const std::string& table_name, size_t from_row,
                            RecordId end_rid) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * table, db_->GetTable(table_name));
  uint32_t slot = 0;
  while (slot < cache_tables_.size() && cache_tables_[slot].name != table_name) {
    ++slot;
  }
  if (slot == cache_tables_.size()) cache_tables_.push_back({table_name, table});
  cache_tables_[slot].table = table;

  const rel::Chunk& rows = table->data();
  const int num_data = data_schema_.num_columns();
  if (rows.num_columns() < 1 + num_data ||
      rows.column(0).type() != rel::DataType::kInt64) {
    return Status::Internal("record table " + table_name +
                            " lacks the rid + data attribute columns");
  }
  std::vector<int> data_cols(static_cast<size_t>(num_data));
  std::iota(data_cols.begin(), data_cols.end(), 1);
  const std::vector<int64_t>& rids = rows.column(0).ints();
  for (size_t row = from_row; row < rows.num_rows(); ++row) {
    const RecordId rid = rids[row];
    if (rid < 0 || rid >= end_rid || rows.column(0).IsNull(row) ||
        HasRecord(rid)) {
      continue;
    }
    const auto i = static_cast<size_t>(rid);
    if (i >= record_slots_.size()) {
      record_slots_.resize(i + 1);
      record_hashes_.resize(i + 1);
    }
    record_slots_[i] = {slot, static_cast<uint32_t>(row)};
    record_hashes_[i] = HashRecord(rows, row, data_cols);
    record_end_ = std::max(record_end_, rid + 1);
  }
  cache_tables_[slot].epoch = table->epoch();
  return Status::OK();
}

void DataModel::InvalidateRecordCache() {
  cache_built_ = false;
  cache_tables_.clear();
  record_slots_.clear();
  record_hashes_.clear();
}

Status DataModel::AppendRecords(const std::vector<RecordId>& rids,
                                const rel::Chunk& new_records, rel::Chunk* dst) {
  ORPHEUS_RETURN_NOT_OK(RefreshRecordCache());
  const int num_cols = 1 + data_schema_.num_columns();
  std::unordered_map<RecordId, size_t> new_rows;
  if (new_records.num_rows() > 0) {
    const std::vector<int64_t>& new_rids = new_records.column(0).ints();
    for (size_t i = 0; i < new_rids.size(); ++i) new_rows[new_rids[i]] = i;
  }
  for (RecordId rid : rids) {
    const rel::Chunk* src;
    size_t row;
    auto it = new_rows.find(rid);
    if (it != new_rows.end()) {
      src = &new_records;
      row = it->second;
    } else if (HasRecord(rid)) {
      RecordRef ref = LocateRecord(rid);
      src = ref.chunk;
      row = ref.row;
    } else {
      return Status::NotFound("record not stored in CVD " + cvd_name_ + ": " +
                              std::to_string(rid));
    }
    for (int c = 0; c < num_cols; ++c) {
      dst->mutable_column(c).AppendFrom(src->column(c), row);
    }
  }
  return Status::OK();
}

std::unique_ptr<DataModel> MakeDataModel(DataModelKind kind, rel::Database* db,
                                         const std::string& cvd_name,
                                         rel::Schema data_schema) {
  switch (kind) {
    case DataModelKind::kTablePerVersion:
      return std::make_unique<TablePerVersionModel>(db, cvd_name,
                                                    std::move(data_schema));
    case DataModelKind::kCombinedTable:
      return std::make_unique<CombinedTableModel>(db, cvd_name,
                                                  std::move(data_schema));
    case DataModelKind::kSplitByVlist:
      return std::make_unique<SplitByVlistModel>(db, cvd_name,
                                                 std::move(data_schema));
    case DataModelKind::kSplitByRlist:
      return std::make_unique<SplitByRlistModel>(db, cvd_name,
                                                 std::move(data_schema));
    case DataModelKind::kDeltaBased:
      return std::make_unique<DeltaBasedModel>(db, cvd_name,
                                               std::move(data_schema));
  }
  return nullptr;
}

// --- A-table-per-version ----------------------------------------------

std::string TablePerVersionModel::VersionTable(VersionId vid) const {
  return cvd_name_ + "_v" + std::to_string(vid);
}

Status TablePerVersionModel::Init() { return Status::OK(); }

Status TablePerVersionModel::AddVersion(VersionId vid,
                                        const std::vector<RecordId>& rids,
                                        const rel::Chunk& new_records,
                                        VersionId primary_parent) {
  (void)primary_parent;
  // A full copy of the version's rows; that is the point of this model.
  rel::Chunk rows(RecordSchema());
  ORPHEUS_RETURN_NOT_OK(AppendRecords(rids, new_records, &rows));
  ORPHEUS_RETURN_NOT_OK(db_->AdoptTable(VersionTable(vid), std::move(rows)));
  versions_.push_back(vid);
  return CacheStoredRecords(VersionTable(vid), 0);
}

Status TablePerVersionModel::CheckoutVersion(VersionId vid,
                                             const std::string& table_name) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("SELECT " + RecordColumnList() + " INTO " + table_name +
                   " FROM " + VersionTable(vid)));
  (void)unused;
  return Status::OK();
}

Result<std::vector<RecordId>> TablePerVersionModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out,
                           db_->Execute("SELECT rid FROM " + VersionTable(vid)));
  return IntColumn(out, "rid");
}

int64_t TablePerVersionModel::StorageBytes() const {
  int64_t bytes = 0;
  for (VersionId vid : versions_) bytes += TableBytes(VersionTable(vid));
  return bytes;
}

std::vector<std::string> TablePerVersionModel::RecordTables() const {
  std::vector<std::string> tables;
  tables.reserve(versions_.size());
  for (VersionId vid : versions_) tables.push_back(VersionTable(vid));
  return tables;
}

Status TablePerVersionModel::RestoreFromTables(const VersionGraph& graph) {
  versions_ = graph.versions();
  for (VersionId vid : versions_) {
    if (!db_->HasTable(VersionTable(vid))) {
      return Status::Internal("missing version table after restore: " +
                              VersionTable(vid));
    }
  }
  return Status::OK();
}

// --- Combined table ----------------------------------------------------

Status CombinedTableModel::Init() {
  rel::Schema schema = RecordSchema();
  schema.AddColumn("vlist", rel::DataType::kIntArray);
  return db_->CreateTable(CombinedTable(), std::move(schema), {"rid"});
}

Status CombinedTableModel::AddVersion(VersionId vid,
                                      const std::vector<RecordId>& rids,
                                      const rel::Chunk& new_records,
                                      VersionId primary_parent) {
  (void)primary_parent;
  ORPHEUS_RETURN_NOT_OK(RefreshRecordCache());
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * table, db_->GetTable(CombinedTable()));
  const size_t from_row = table->num_rows();
  // New records go in with a singleton vlist ...
  ORPHEUS_RETURN_NOT_OK(BulkAppend(table, new_records));
  rel::Column& vlists =
      table->mutable_chunk().mutable_column(table->schema().FindColumn("vlist"));
  for (size_t i = 0; i < new_records.num_rows(); ++i) vlists.AppendArray({vid});
  ORPHEUS_RETURN_NOT_OK(CacheStoredRecords(CombinedTable(), from_row));
  // ... and the Table 1 commit appends vid to every reused record.
  return AppendVidToVlists(*this, vid, rids, &vlists);
}

Status CombinedTableModel::CheckoutVersion(VersionId vid,
                                           const std::string& table_name) {
  // Table 1 checkout: array-containment scan over the combined table.
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("SELECT " + RecordColumnList() + " INTO " + table_name +
                   " FROM " + CombinedTable() + " WHERE ARRAY[" +
                   std::to_string(vid) + "] <@ vlist"));
  (void)unused;
  return Status::OK();
}

Result<std::vector<RecordId>> CombinedTableModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk out,
      db_->Execute("SELECT rid FROM " + CombinedTable() + " WHERE ARRAY[" +
                   std::to_string(vid) + "] <@ vlist"));
  return IntColumn(out, "rid");
}

int64_t CombinedTableModel::StorageBytes() const {
  return TableBytes(CombinedTable());
}

// --- Split-by-vlist ------------------------------------------------------

Status SplitByVlistModel::Init() {
  ORPHEUS_RETURN_NOT_OK(db_->CreateTable(DataTable(), RecordSchema(), {"rid"}));
  rel::Schema versioning;
  versioning.AddColumn("rid", rel::DataType::kInt64);
  versioning.AddColumn("vlist", rel::DataType::kIntArray);
  return db_->CreateTable(VersioningTable(), std::move(versioning), {"rid"});
}

Status SplitByVlistModel::AddVersion(VersionId vid,
                                     const std::vector<RecordId>& rids,
                                     const rel::Chunk& new_records,
                                     VersionId primary_parent) {
  (void)primary_parent;
  ORPHEUS_RETURN_NOT_OK(RefreshRecordCache());
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(DataTable()));
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * versioning,
                           db_->GetTable(VersioningTable()));
  const size_t from_row = data->num_rows();
  if (versioning->num_rows() != from_row) {
    return Status::Internal(VersioningTable() + " is not row-aligned with " +
                            DataTable());
  }
  ORPHEUS_RETURN_NOT_OK(BulkAppend(data, new_records));
  rel::Chunk& vc = versioning->mutable_chunk();
  for (size_t i = 0; i < new_records.num_rows(); ++i) {
    vc.mutable_column(0).AppendInt(new_records.column(0).ints()[i]);
    vc.mutable_column(1).AppendArray({vid});
  }
  ORPHEUS_RETURN_NOT_OK(CacheStoredRecords(DataTable(), from_row));
  // Table 1 commit: the combined-table array append, on the (narrow)
  // versioning table.
  return AppendVidToVlists(*this, vid, rids, &vc.mutable_column(1));
}

Status SplitByVlistModel::CheckoutVersion(VersionId vid,
                                          const std::string& table_name) {
  // Table 1 checkout: select qualifying rids, then join the data table.
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("SELECT d.* INTO " + table_name + " FROM " + DataTable() +
                   " d, (SELECT rid AS rid_tmp FROM " + VersioningTable() +
                   " WHERE ARRAY[" + std::to_string(vid) +
                   "] <@ vlist) AS tmp WHERE d.rid = tmp.rid_tmp"));
  (void)unused;
  return Status::OK();
}

Result<std::vector<RecordId>> SplitByVlistModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk out,
      db_->Execute("SELECT rid FROM " + VersioningTable() + " WHERE ARRAY[" +
                   std::to_string(vid) + "] <@ vlist"));
  return IntColumn(out, "rid");
}

int64_t SplitByVlistModel::StorageBytes() const {
  return TableBytes(DataTable()) + TableBytes(VersioningTable());
}

Status SplitByVlistModel::AddDataColumn(const std::string& name,
                                        rel::DataType type) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(DataTable()));
  ORPHEUS_RETURN_NOT_OK(data->AddColumn(name, type));
  data_schema_.AddColumn(name, type);
  InvalidateRecordCache();
  return Status::OK();
}

Status SplitByVlistModel::WidenDataColumn(const std::string& name,
                                          rel::DataType type) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(DataTable()));
  ORPHEUS_RETURN_NOT_OK(data->AlterColumnType(name, type));
  rel::Schema updated;
  for (const rel::ColumnDef& def : data_schema_.columns()) {
    updated.AddColumn(def.name, def.name == name ? type : def.type);
  }
  data_schema_ = std::move(updated);
  InvalidateRecordCache();
  return Status::OK();
}

// --- Split-by-rlist ------------------------------------------------------

Status SplitByRlistModel::Init() {
  ORPHEUS_RETURN_NOT_OK(db_->CreateTable(DataTable(), RecordSchema(), {"rid"}));
  rel::Schema versioning;
  versioning.AddColumn("vid", rel::DataType::kInt64);
  versioning.AddColumn("rlist", rel::DataType::kIntArray);
  return db_->CreateTable(VersioningTable(), std::move(versioning), {"vid"});
}

Status SplitByRlistModel::AddVersion(VersionId vid,
                                     const std::vector<RecordId>& rids,
                                     const rel::Chunk& new_records,
                                     VersionId primary_parent) {
  (void)primary_parent;
  ORPHEUS_RETURN_NOT_OK(RefreshRecordCache());
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(DataTable()));
  const size_t from_row = data->num_rows();
  ORPHEUS_RETURN_NOT_OK(BulkAppend(data, new_records));
  ORPHEUS_RETURN_NOT_OK(CacheStoredRecords(DataTable(), from_row));
  // Table 1 commit: a single versioning-table tuple — no array appends.
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db_->GetTable(VersioningTable()));
  rel::Chunk& chunk = rlist->mutable_chunk();
  chunk.mutable_column(0).AppendInt(vid);
  chunk.mutable_column(1).AppendArray(rel::IntArray(rids.begin(), rids.end()));
  return Status::OK();
}

Status SplitByRlistModel::CheckoutVersion(VersionId vid,
                                          const std::string& table_name) {
  // Table 1 checkout: unnest the version's rlist, join the data table.
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("SELECT d.* INTO " + table_name + " FROM " + DataTable() +
                   " d, (SELECT unnest(rlist) AS rid_tmp FROM " +
                   VersioningTable() + " WHERE vid = " + std::to_string(vid) +
                   ") AS tmp WHERE d.rid = tmp.rid_tmp"));
  (void)unused;
  return Status::OK();
}

Result<std::vector<RecordId>> SplitByRlistModel::VersionRecords(VersionId vid) {
  // The rlist itself, read in place: one tuple per version, so a scan
  // of the vid column is all it takes.
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db_->GetTable(VersioningTable()));
  const rel::Chunk& rows = rlist->data();
  const std::vector<int64_t>& vids = rows.column(0).ints();
  for (size_t r = 0; r < vids.size(); ++r) {
    if (vids[r] == vid && !rows.column(0).IsNull(r)) {
      const rel::IntArray& list = rows.column(1).arrays()[r];
      return std::vector<RecordId>(list.begin(), list.end());
    }
  }
  return std::vector<RecordId>();
}

int64_t SplitByRlistModel::StorageBytes() const {
  return TableBytes(DataTable()) + TableBytes(VersioningTable());
}

Status SplitByRlistModel::AddDataColumn(const std::string& name,
                                        rel::DataType type) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(DataTable()));
  ORPHEUS_RETURN_NOT_OK(data->AddColumn(name, type));
  data_schema_.AddColumn(name, type);
  InvalidateRecordCache();
  return Status::OK();
}

Status SplitByRlistModel::WidenDataColumn(const std::string& name,
                                          rel::DataType type) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(DataTable()));
  ORPHEUS_RETURN_NOT_OK(data->AlterColumnType(name, type));
  rel::Schema updated;
  for (const rel::ColumnDef& def : data_schema_.columns()) {
    updated.AddColumn(def.name, def.name == name ? type : def.type);
  }
  data_schema_ = std::move(updated);
  InvalidateRecordCache();
  return Status::OK();
}

// --- Delta-based ---------------------------------------------------------

std::string DeltaBasedModel::DeltaTable(VersionId vid) const {
  return cvd_name_ + "_delta_" + std::to_string(vid);
}

Status DeltaBasedModel::Init() {
  rel::Schema meta;
  meta.AddColumn("vid", rel::DataType::kInt64);
  meta.AddColumn("base", rel::DataType::kInt64);
  return db_->CreateTable(cvd_name_ + "_deltameta", std::move(meta), {"vid"});
}

Status DeltaBasedModel::AddVersion(VersionId vid,
                                   const std::vector<RecordId>& rids,
                                   const rel::Chunk& new_records,
                                   VersionId primary_parent) {
  std::unordered_set<RecordId> parent_rids;
  if (primary_parent >= 0) {
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> prids,
                             VersionRecords(primary_parent));
    parent_rids.insert(prids.begin(), prids.end());
  }

  // Inserts: rows of the new version absent from the base version.
  std::vector<RecordId> inserts;
  std::unordered_set<RecordId> version_set;
  version_set.reserve(rids.size() * 2);
  for (RecordId rid : rids) {
    version_set.insert(rid);
    if (parent_rids.count(rid) == 0) inserts.push_back(rid);
  }
  rel::Schema delta_schema = RecordSchema();
  delta_schema.AddColumn("tombstone", rel::DataType::kBool);
  rel::Chunk delta(delta_schema);
  ORPHEUS_RETURN_NOT_OK(AppendRecords(inserts, new_records, &delta));
  const int tomb_col = delta_schema.num_columns() - 1;
  for (size_t i = 0; i < inserts.size(); ++i) {
    delta.mutable_column(tomb_col).Append(rel::Value::Bool(false));
  }
  // Deletes: base records absent from the new version get tombstones.
  for (RecordId rid : parent_rids) {
    if (version_set.count(rid) > 0) continue;
    std::vector<rel::Value> row(static_cast<size_t>(delta_schema.num_columns()));
    row[0] = rel::Value::Int(rid);
    row[static_cast<size_t>(tomb_col)] = rel::Value::Bool(true);
    delta.AppendRow(row);
  }
  ORPHEUS_RETURN_NOT_OK(db_->CreateTable(DeltaTable(vid), delta_schema, {"rid"}));
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * table, db_->GetTable(DeltaTable(vid)));
  table->mutable_chunk() = std::move(delta);

  base_[vid] = primary_parent;
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("INSERT INTO " + cvd_name_ + "_deltameta VALUES (" +
                   std::to_string(vid) + ", " + std::to_string(primary_parent) +
                   ")"));
  (void)unused;
  return CacheStoredRecords(DeltaTable(vid), 0);
}

std::vector<std::string> DeltaBasedModel::RecordTables() const {
  std::vector<std::string> tables;
  tables.reserve(base_.size());
  for (const auto& [vid, base] : base_) tables.push_back(DeltaTable(vid));
  return tables;
}

Result<std::vector<VersionId>> DeltaBasedModel::Lineage(VersionId vid) const {
  std::vector<VersionId> chain;
  VersionId cur = vid;
  while (cur >= 0) {
    auto it = base_.find(cur);
    if (it == base_.end()) {
      return Status::NotFound("no delta for version " + std::to_string(cur));
    }
    chain.push_back(cur);
    cur = it->second;
  }
  return chain;
}

Status DeltaBasedModel::Replay(VersionId vid, rel::Chunk* out) {
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<VersionId> chain, Lineage(vid));
  std::unordered_set<RecordId> seen;
  for (VersionId v : chain) {  // newest first: first occurrence wins
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * delta, db_->GetTable(DeltaTable(v)));
    const rel::Chunk& rows = delta->data();
    int rid_col = rows.schema().FindColumn("rid");
    int tomb_col = rows.schema().FindColumn("tombstone");
    const std::vector<int64_t>& rids = rows.column(rid_col).ints();
    const std::vector<int64_t>& tombs = rows.column(tomb_col).ints();
    std::vector<uint32_t> keep;
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      if (!seen.insert(rids[i]).second) continue;  // discarded: occurred before
      if (tombs[i] == 0) keep.push_back(static_cast<uint32_t>(i));
    }
    // Append kept rows (rid + data columns; tombstone dropped).
    for (int c = 0; c < out->num_columns(); ++c) {
      out->mutable_column(c).Gather(rows.column(c), keep);
    }
  }
  return Status::OK();
}

Status DeltaBasedModel::CheckoutVersion(VersionId vid,
                                        const std::string& table_name) {
  rel::Chunk out(RecordSchema());
  ORPHEUS_RETURN_NOT_OK(Replay(vid, &out));
  return db_->AdoptTable(table_name, std::move(out));
}

Result<std::vector<RecordId>> DeltaBasedModel::VersionRecords(VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<VersionId> chain, Lineage(vid));
  std::unordered_set<RecordId> seen;
  std::vector<RecordId> out;
  for (VersionId v : chain) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * delta, db_->GetTable(DeltaTable(v)));
    const rel::Chunk& rows = delta->data();
    int rid_col = rows.schema().FindColumn("rid");
    int tomb_col = rows.schema().FindColumn("tombstone");
    const std::vector<int64_t>& rids = rows.column(rid_col).ints();
    const std::vector<int64_t>& tombs = rows.column(tomb_col).ints();
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      if (!seen.insert(rids[i]).second) continue;
      if (tombs[i] == 0) out.push_back(rids[i]);
    }
  }
  return out;
}

int64_t DeltaBasedModel::StorageBytes() const {
  int64_t bytes = TableBytes(cvd_name_ + "_deltameta");
  for (const auto& [vid, base] : base_) bytes += TableBytes(DeltaTable(vid));
  return bytes;
}

Status DeltaBasedModel::RestoreFromTables(const VersionGraph& graph) {
  (void)graph;
  base_.clear();
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk rows,
      db_->Execute("SELECT vid, base FROM " + cvd_name_ + "_deltameta"));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> vids, IntColumn(rows, "vid"));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> bases, IntColumn(rows, "base"));
  for (size_t i = 0; i < vids.size(); ++i) base_[vids[i]] = bases[i];
  return Status::OK();
}

}  // namespace orpheus::core
