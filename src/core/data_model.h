// The five CVD representations of §3 of the paper, behind one
// interface. Each model owns its backing tables inside the (version-
// unaware) relstore database and implements version addition and
// checkout following the paper's Table 1.
//
//  - kTablePerVersion : one table per version (storage baseline)
//  - kCombinedTable   : single table with a `vlist INT[]` per record
//  - kSplitByVlist    : data table + versioning table keyed by rid
//  - kSplitByRlist    : data table + versioning table keyed by vid
//                       (the model OrpheusDB adopts)
//  - kDeltaBased      : per-version delta tables with tombstones
//
// Division of labour: the CVD layer (cvd.h) is the record manager — it
// resolves which staged rows are new records and assigns rids. Models
// only persist and retrieve. A commit hands a model the resolved rid
// list and the new records directly (the same call serves WAL replay,
// where no staged table exists); records the version reuses are read
// from their stored copies through the record cache below.
//
// Execution: every checkout bottoms out in relstore SQL, so the scans
// (vlist containment, unnest joins, rid probes) run on the executor's
// batched parallel pipeline and scale with --threads (see
// relstore/executor.h). Models never spawn threads themselves.

#ifndef ORPHEUS_CORE_DATA_MODEL_H_
#define ORPHEUS_CORE_DATA_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/record.h"
#include "core/version_graph.h"
#include "relstore/database.h"

namespace orpheus::core {

enum class DataModelKind {
  kTablePerVersion,
  kCombinedTable,
  kSplitByVlist,
  kSplitByRlist,
  kDeltaBased,
};

const char* DataModelKindName(DataModelKind kind);
Result<DataModelKind> DataModelKindFromName(const std::string& name);

class DataModel {
 public:
  // `data_schema` holds the data attributes only; models prepend rid.
  DataModel(rel::Database* db, std::string cvd_name, rel::Schema data_schema);
  virtual ~DataModel() = default;

  DataModel(const DataModel&) = delete;
  DataModel& operator=(const DataModel&) = delete;

  virtual DataModelKind kind() const = 0;

  // Creates the backing tables. Called once per CVD.
  virtual Status Init() = 0;

  // Registers version `vid` whose record list, in rlist order, is
  // `rids`. `new_records` holds exactly the records this version
  // creates (schema: rid + data attributes; a row-less chunk of any
  // schema means none); every other rid must already be stored.
  // `primary_parent` is the parent sharing the most records (-1 for
  // the initial version); only the delta model depends on it.
  virtual Status AddVersion(VersionId vid, const std::vector<RecordId>& rids,
                            const rel::Chunk& new_records,
                            VersionId primary_parent) = 0;

  // Materializes version `vid` as `table_name` (schema: rid + data
  // attributes) — the checkout path.
  virtual Status CheckoutVersion(VersionId vid, const std::string& table_name) = 0;

  // The rid set of a version (record-manager bookkeeping).
  virtual Result<std::vector<RecordId>> VersionRecords(VersionId vid) = 0;

  // Convenience: version rows as an in-memory chunk (rid + data).
  Result<rel::Chunk> VersionRows(VersionId vid);

  // Payload + index bytes across this model's backing tables.
  virtual int64_t StorageBytes() const = 0;

  // Rebuilds model-private bookkeeping after a snapshot restore, when
  // the backing tables already exist in the database (so Init must not
  // be called). TPV recovers its version list from the graph; the
  // delta model reloads its base map from <cvd>_deltameta. Default:
  // stateless models need nothing.
  virtual Status RestoreFromTables(const VersionGraph& graph);

  // Schema evolution support (§3.3). Only the split models support it;
  // others return NotSupported.
  virtual Status AddDataColumn(const std::string& name, rel::DataType type);
  virtual Status WidenDataColumn(const std::string& name, rel::DataType type);

  const rel::Schema& data_schema() const { return data_schema_; }
  const std::string& cvd_name() const { return cvd_name_; }
  // rid + data attributes: the schema of stored records.
  rel::Schema RecordSchema() const;

  // --- Record cache (record-manager support) ---------------------------
  //
  // Every record has one stored copy that the model treats as its
  // canonical content: the row where it was first stored (the data
  // table of the split and combined models; the creating version's
  // table for a-table-per-version and delta-based). The cache maps
  // rid -> that row and keeps an 8-byte content hash per record
  // (HashRecord over the data attributes), so the commit resolver
  // never re-materializes or re-hashes parent versions.
  //
  // It is built from the tables on first use and extended as
  // AddVersion stores new records. After its own writes the model
  // records each table's epoch (rel::Table::epoch); a table whose epoch
  // has moved since was changed some other way — raw SQL DML on a
  // backing table, schema evolution — and the cache is rebuilt, so a
  // cached row or hash is never stale.
  //
  // PrepareRecordCache brings the cache up to date; call it before the
  // accessors, in the same exclusive section, and again after anything
  // that may write a record table. `end_rid` is the CVD's next fresh
  // rid: a row whose rid is NULL, negative or not below it (a raw
  // INSERT can put one there) is not a record and is not cached.
  struct RecordRef {
    const rel::Chunk* chunk;  // leading columns: rid + data attributes
    size_t row;
  };
  Status PrepareRecordCache(RecordId end_rid);
  bool HasRecord(RecordId rid) const {
    return rid >= 0 && static_cast<size_t>(rid) < record_slots_.size() &&
           record_slots_[static_cast<size_t>(rid)].table != kNoTable;
  }
  // Both require HasRecord(rid).
  uint64_t RecordHash(RecordId rid) const {
    return record_hashes_[static_cast<size_t>(rid)];
  }
  RecordRef LocateRecord(RecordId rid) const {
    const RecordSlot& slot = record_slots_[static_cast<size_t>(rid)];
    return {&cache_tables_[slot.table].table->data(), slot.row};
  }

 protected:
  // Comma-separated "rid, a1, a2, ..." projection list.
  std::string RecordColumnList() const;

  int64_t TableBytes(const std::string& table) const;

  // Tables holding canonical record copies, oldest first: the cache
  // build scans them in this order and keeps each rid's first row.
  virtual std::vector<std::string> RecordTables() const = 0;

  // PrepareRecordCache with the rid bound already known: AddVersion
  // calls this before it reads cached records.
  Status RefreshRecordCache();
  // Caches rows [from_row, end) of `table` — rows the model itself just
  // stored — whose rids are not cached yet. AddVersion refreshes the
  // cache before its first write and calls this after its last write
  // to `table`, whose epoch it records. A no-op until the cache is
  // built (the build scans everything).
  Status CacheStoredRecords(const std::string& table, size_t from_row);
  void InvalidateRecordCache();

  // Appends the rows of `rids`, in order, to the leading RecordSchema()
  // columns of `dst`: records in `new_records` from there, the rest
  // from their canonical copies.
  Status AppendRecords(const std::vector<RecordId>& rids,
                       const rel::Chunk& new_records, rel::Chunk* dst);

  rel::Database* db_;
  std::string cvd_name_;
  rel::Schema data_schema_;

 private:
  static constexpr uint32_t kNoTable = 0xffffffffu;
  struct RecordSlot {
    uint32_t table = kNoTable;  // index into cache_tables_
    uint32_t row = 0;
  };
  struct CachedTable {
    std::string name;
    const rel::Table* table = nullptr;
    uint64_t epoch = 0;  // the table's epoch when last cached
  };
  // Caches rows [from_row, end) of `table_name` with a rid below
  // `end_rid` that are not cached yet, and records the table's epoch.
  Status CacheRows(const std::string& table_name, size_t from_row,
                   RecordId end_rid);

  bool cache_built_ = false;
  RecordId record_end_ = 0;  // rids at or above this are not records
  std::vector<CachedTable> cache_tables_;
  std::vector<RecordSlot> record_slots_;  // by rid
  std::vector<uint64_t> record_hashes_;   // by rid
};

// Factory for all five models.
std::unique_ptr<DataModel> MakeDataModel(DataModelKind kind, rel::Database* db,
                                         const std::string& cvd_name,
                                         rel::Schema data_schema);

// --- Concrete models (exposed for white-box tests) -------------------

class TablePerVersionModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kTablePerVersion; }
  Status Init() override;
  Status AddVersion(VersionId vid, const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  Status CheckoutVersion(VersionId vid, const std::string& table_name) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;
  Status RestoreFromTables(const VersionGraph& graph) override;

 protected:
  std::vector<std::string> RecordTables() const override;

 private:
  std::string VersionTable(VersionId vid) const;
  std::vector<VersionId> versions_;
};

class CombinedTableModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kCombinedTable; }
  Status Init() override;
  Status AddVersion(VersionId vid, const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  Status CheckoutVersion(VersionId vid, const std::string& table_name) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;

 protected:
  std::vector<std::string> RecordTables() const override {
    return {CombinedTable()};
  }

 private:
  std::string CombinedTable() const { return cvd_name_ + "_combined"; }
};

class SplitByVlistModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kSplitByVlist; }
  Status Init() override;
  Status AddVersion(VersionId vid, const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  Status CheckoutVersion(VersionId vid, const std::string& table_name) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;
  Status AddDataColumn(const std::string& name, rel::DataType type) override;
  Status WidenDataColumn(const std::string& name, rel::DataType type) override;

 protected:
  std::vector<std::string> RecordTables() const override { return {DataTable()}; }

 private:
  std::string DataTable() const { return cvd_name_ + "_data"; }
  // Row-aligned with the data table: both get each new record appended
  // at the same position.
  std::string VersioningTable() const { return cvd_name_ + "_vlist"; }
};

class SplitByRlistModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kSplitByRlist; }
  Status Init() override;
  Status AddVersion(VersionId vid, const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  Status CheckoutVersion(VersionId vid, const std::string& table_name) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;
  Status AddDataColumn(const std::string& name, rel::DataType type) override;
  Status WidenDataColumn(const std::string& name, rel::DataType type) override;

  // Names exposed for the partition optimizer, which re-organizes the
  // backing tables of this model.
  std::string DataTable() const { return cvd_name_ + "_data"; }
  std::string VersioningTable() const { return cvd_name_ + "_rlist"; }

 protected:
  std::vector<std::string> RecordTables() const override { return {DataTable()}; }
};

class DeltaBasedModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kDeltaBased; }
  Status Init() override;
  Status AddVersion(VersionId vid, const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  Status CheckoutVersion(VersionId vid, const std::string& table_name) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;
  Status RestoreFromTables(const VersionGraph& graph) override;

 protected:
  // Delta tables in vid order. A tombstone row is never a record's
  // first row: its record was inserted by an older version's delta.
  std::vector<std::string> RecordTables() const override;

 private:
  std::string DeltaTable(VersionId vid) const;
  // Walks vid -> base -> ... -> root, newest first.
  Result<std::vector<VersionId>> Lineage(VersionId vid) const;
  // Applies the paper's first-seen-wins replay; returns kept row
  // positions per lineage table.
  Status Replay(VersionId vid, rel::Chunk* out);

  // Precedent metadata: vid -> base version (also persisted in the
  // <cvd>_deltameta table for inspection).
  std::map<VersionId, VersionId> base_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_DATA_MODEL_H_
