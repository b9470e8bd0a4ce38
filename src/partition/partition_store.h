// PartitionStore: the physical side of the partition optimizer.
//
// Materializes a Partitioning of a split-by-rlist CVD as real table
// pairs <cvd>_p<id>_data / <cvd>_p<id>_rlist inside the backing
// database, so that checking out a version touches exactly one
// partition's tables (§4.1's single-partition-per-version invariant).
//
// Also implements the migration engine of §4.3: `Migrate` transforms
// the current physical layout into a new partitioning either naively
// (drop + rebuild) or intelligently (match each new partition to its
// closest existing partition by modification cost and apply row-level
// inserts/deletes).

#ifndef ORPHEUS_PARTITION_PARTITION_STORE_H_
#define ORPHEUS_PARTITION_PARTITION_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "partition/bipartite.h"
#include "relstore/database.h"

namespace orpheus::part {

class PartitionStore {
 public:
  // `source_data_table` is the CVD's unpartitioned data table (rid +
  // data attributes, indexed on rid); it remains the record source for
  // building partitions and migrations.
  PartitionStore(rel::Database* db, std::string cvd_name,
                 std::string source_data_table);
  ~PartitionStore();

  PartitionStore(const PartitionStore&) = delete;
  PartitionStore& operator=(const PartitionStore&) = delete;

  // Materializes `partitioning`; `version_rids` supplies each
  // version's record list. Migrations read the lists back from the
  // partitions' versioning tables, the one copy kept.
  Status Build(const Partitioning& partitioning,
               std::map<VersionId, std::vector<RecordId>> version_rids);

  // Single-version checkout against the owning partition's tables
  // (same SQL shape as split-by-rlist checkout in Table 1).
  Status CheckoutVersion(VersionId vid, const std::string& table_name);

  // {data table, versioning table} backing `vid` (for the query
  // translator override).
  Result<std::pair<std::string, std::string>> TablesFor(VersionId vid) const;

  // --- Online maintenance hooks (§4.3) --------------------------------

  // Row positions of `rids` in the source data table, through its rid
  // index (which every append to the table drops, so this can cost a
  // pass over all records).
  Result<std::vector<uint32_t>> SourceRows(const std::vector<RecordId>& rids);

  // Appends a freshly committed version to an existing partition.
  // `source_rows[i]` is the source data table row of `rids[i]`: callers
  // that track record rows themselves (the engine's record cache) pass
  // them, others take them from SourceRows.
  Status AddVersionToPartition(VersionId vid, size_t partition,
                               const std::vector<RecordId>& rids,
                               const std::vector<uint32_t>& source_rows);
  // Creates a new partition holding only `vid`. Returns its index.
  Result<size_t> AddVersionAsNewPartition(VersionId vid,
                                          const std::vector<RecordId>& rids);

  Result<size_t> PartitionOf(VersionId vid) const;

  // --- Migration (§4.3) ------------------------------------------------

  struct MigrationStats {
    double seconds = 0.0;
    int64_t rows_inserted = 0;
    int64_t rows_deleted = 0;
    int partitions_rebuilt = 0;   // built from scratch
    int partitions_modified = 0;  // transformed in place
  };

  Result<MigrationStats> Migrate(const Partitioning& new_partitioning,
                                 bool intelligent);

  // --- Cost accounting ---------------------------------------------------

  int64_t StorageRecords() const;   // S = sum |Rk|
  double AvgCheckoutCost() const;   // Cavg = sum |Vk||Rk| / n
  size_t num_partitions() const { return parts_.size(); }
  size_t num_versions() const { return vid_to_part_.size(); }

  // Version groups per partition, in partition order (the repartition
  // WAL record logs exactly this so replay can rebuild the store).
  std::vector<std::vector<VersionId>> VersionGroups() const;

  // Drops all partition tables and clears state.
  Status DropAll();

  // --- Durability (storage subsystem) ---------------------------------

  // The private state a snapshot must carry. The partition tables
  // themselves are persisted by the database snapshot; this is just
  // the wiring between them.
  struct PersistedState {
    struct Part {
      std::string data_table;
      std::string rlist_table;
    };
    std::string source_data_table;
    int next_phys_id = 0;
    std::vector<Part> parts;
  };
  PersistedState ExportState() const;

  // Re-attaches to partition tables already present in `db` (restored
  // from a snapshot): rebuilds per-partition record sets and version
  // placement from the partition tables.
  static Result<std::unique_ptr<PartitionStore>> Restore(
      rel::Database* db, std::string cvd_name, const PersistedState& state);

 private:
  struct Phys {
    std::string data_table;
    std::string rlist_table;
    std::unordered_set<RecordId> records;
    std::vector<VersionId> versions;
  };

  Result<Phys> CreatePhys();
  // Appends the given records, copied from their `source_rows` in the
  // source data table, to a partition's data table.
  Status InsertRecords(Phys* phys, const std::vector<RecordId>& rids,
                       const std::vector<uint32_t>& source_rows);
  // The same, with the rows taken from SourceRows.
  Status InsertRecords(Phys* phys, const std::vector<RecordId>& rids);
  Status AppendRlistRow(Phys* phys, VersionId vid,
                        const std::vector<RecordId>& rids);
  // Every placed version's record list, read from the rlist tables.
  std::map<VersionId, std::vector<RecordId>> VersionRids() const;

  rel::Database* db_;
  std::string cvd_name_;
  std::string source_data_table_;
  std::vector<Phys> parts_;
  std::map<VersionId, size_t> vid_to_part_;
  int next_phys_id_ = 0;
};

}  // namespace orpheus::part

#endif  // ORPHEUS_PARTITION_PARTITION_STORE_H_
