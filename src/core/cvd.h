// Cvd: a collaborative versioned dataset (§2.1 of the paper).
//
// A CVD corresponds to one relation and implicitly contains many
// versions of it. This class is the middleware's record manager +
// version manager + provenance manager for a single CVD:
//
//  * record manager  — resolves staged rows to immutable records,
//    assigning fresh rids to added/modified rows (the paper's
//    "no cross-version diff" rule: staged rows are compared against
//    the parent versions only, never all ancestors);
//  * version manager — maintains the metadata table, the attribute
//    table (single-pool schema evolution, §3.3), and the in-memory
//    version graph with shared-record edge weights;
//  * provenance manager — tracks which staged tables derive from
//    which versions, so commit can infer parents.
//
// The backing database never learns about any of this; it only sees
// ordinary tables and SQL.

#ifndef ORPHEUS_CORE_CVD_H_
#define ORPHEUS_CORE_CVD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "core/version_graph.h"
#include "relstore/database.h"

namespace orpheus::storage {
class SnapshotCodec;
}

namespace orpheus::core {

struct CvdOptions {
  DataModelKind model = DataModelKind::kSplitByRlist;
  // Relation primary key attributes; may be empty. Enforced per
  // version (not across versions), and used for precedence-order
  // conflict resolution during multi-version checkout.
  std::vector<std::string> primary_key;
};

// One attribute-table entry (Figure 5 of the paper). Any change to an
// attribute's properties creates a new entry.
struct AttributeEntry {
  int64_t attr_id;
  std::string name;
  rel::DataType type;
};

// A resolved commit: what the record manager decided about a staged
// table, and all that installing the version needs. It is also
// exactly what the commit WAL record carries, so replay installs a
// logged commit without resolving anything (see Cvd::ApplyCommit).
struct CommitDelta {
  std::string table_name;  // the staged table being committed
  std::string message;
  VersionId vid = -1;      // the version this commit creates
  std::vector<VersionId> parents;      // precedence order
  std::vector<int64_t> parent_weights;  // records shared with each parent
  // The version's record list, in rlist (staged-row) order.
  std::vector<RecordId> rids;
  // The records this commit creates (rid + data attributes, in the
  // schema after `staged_schema` is reconciled); their rids are the
  // next fresh ones, in order.
  rel::Chunk new_records;
  // The staged table's data attributes (no rid): drives schema
  // evolution and the version's attribute set.
  rel::Schema staged_schema;

  // The parent sharing the most records (the first on ties); -1 if
  // there are no parents.
  VersionId primary_parent() const;
};

// Provenance of an uncommitted staged table.
struct StagedTableInfo {
  std::string table_name;
  std::vector<VersionId> parents;  // precedence order
  int64_t checkout_time = 0;
};

class Cvd {
 public:
  // Creates a new, empty CVD with the given data-attribute schema.
  static Result<std::unique_ptr<Cvd>> Create(rel::Database* db,
                                             const std::string& name,
                                             rel::Schema data_schema,
                                             CvdOptions options);

  // --- Version-control verbs ----------------------------------------

  // Creates the initial version from raw data rows (schema must match
  // the data attributes; no rid column). Returns the new vid.
  Result<VersionId> InitVersion(const rel::Chunk& rows, const std::string& message);

  // Materializes one or more versions into `table_name`. With several
  // vids this is a merging checkout: records are added in precedence
  // order and a record is skipped if its primary key was already
  // emitted (§2.2).
  //
  // With `materialize` false only the provenance is recorded (the
  // version check, the staging entry, the clock tick) and no table is
  // created: WAL replay does this for a checkout whose table a later
  // log record commits or discards, since neither reads its rows.
  Status Checkout(const std::vector<VersionId>& vids, const std::string& table_name,
                  bool materialize = true);

  // Commits a staged table as a new version; parents come from the
  // table's checkout provenance. Returns the new vid. This is
  // ResolveCommit followed by ApplyCommit.
  Result<VersionId> Commit(const std::string& table_name, const std::string& message);

  // Resolve: turns a staged table into a CommitDelta. Staged rows are
  // matched against the parents' records only (the paper's
  // no-cross-version-diff rule): a row reuses the first equal-content
  // parent record, in parent order and then rlist order, and otherwise
  // becomes a new record with a fresh rid. Parent record lists come
  // from the model and record content from its record cache, so no
  // parent version is materialized or re-hashed. Nothing changes
  // here: schema evolution (a new or widened attribute) is planned
  // into the delta's record schema and applied by ApplyCommit.
  Result<CommitDelta> ResolveCommit(const std::string& table_name,
                                    const std::string& message);

  // Apply: installs a resolved commit — validates it against this
  // CVD's counters and staging area, evolves the schema, stores the
  // new records and the version, and drops the staged table. Live
  // commits and WAL replay both end here.
  Result<VersionId> ApplyCommit(const CommitDelta& delta);

  // Records in `a` but not in `b`.
  Result<rel::Chunk> Diff(VersionId a, VersionId b);

  // Discards a staged table without committing.
  Status DiscardStaged(const std::string& table_name);

  // --- Introspection --------------------------------------------------

  const std::string& name() const { return name_; }
  const VersionGraph& graph() const { return graph_; }
  DataModel* model() { return model_.get(); }
  const std::vector<std::string>& primary_key() const { return primary_key_; }
  const std::vector<AttributeEntry>& attributes() const { return attributes_; }

  // Attribute ids carried by one version (metadata table content).
  Result<std::vector<int64_t>> VersionAttributes(VersionId vid) const;

  VersionId latest_version() const { return next_vid_ - 1; }
  int64_t total_records() const { return next_rid_; }
  int64_t StorageBytes() const { return model_->StorageBytes(); }

  const std::map<std::string, StagedTableInfo>& staged_tables() const {
    return staged_;
  }

  // Name of this CVD's metadata table in the backing database.
  std::string MetadataTableName() const { return name_ + "_meta"; }
  std::string AttributeTableName() const { return name_ + "_attr"; }

  // --- Partition integration ------------------------------------------
  // When the partition optimizer has reorganized this CVD, it installs
  // a checkout override that routes single-version checkouts to the
  // right partition's tables.
  using CheckoutOverride =
      std::function<Status(VersionId, const std::string& table_name)>;
  void SetCheckoutOverride(CheckoutOverride fn) { checkout_override_ = std::move(fn); }
  void ClearCheckoutOverride() { checkout_override_ = nullptr; }

 private:
  // The snapshot codec reconstructs a Cvd around already-restored
  // backing tables, bypassing Create's table DDL.
  friend class storage::SnapshotCodec;

  Cvd(rel::Database* db, std::string name, rel::Schema data_schema,
      CvdOptions options);

  // Materializes a single version into `table_name`, honoring any
  // partition override and the version's attribute set.
  Status CheckoutSingle(VersionId vid, const std::string& table_name);

  // Applies schema differences between a staged table and the CVD
  // (new / widened attributes), returning this version's attribute ids.
  Result<std::vector<int64_t>> ReconcileSchema(const rel::Schema& staged_schema);
  // The data schema ReconcileSchema(staged_schema) would leave.
  rel::Schema EvolvedDataSchema(const rel::Schema& staged_schema) const;

  // Registers an attribute entry and returns its id.
  int64_t AddAttributeEntry(const std::string& name, rel::DataType type);

  Status AppendMetadataRow(VersionId vid, const std::vector<VersionId>& parents,
                           int64_t checkout_time, int64_t commit_time,
                           const std::string& message,
                           const std::vector<int64_t>& attr_ids);

  rel::Database* db_;
  std::string name_;
  std::vector<std::string> primary_key_;
  std::unique_ptr<DataModel> model_;
  VersionGraph graph_;

  std::vector<AttributeEntry> attributes_;
  // name -> current attribute id (the live entry for that name).
  std::map<std::string, int64_t> live_attrs_;
  std::map<VersionId, std::vector<int64_t>> version_attrs_;

  std::map<std::string, StagedTableInfo> staged_;

  RecordId next_rid_ = 0;
  VersionId next_vid_ = 1;
  int64_t logical_clock_ = 0;

  CheckoutOverride checkout_override_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_CVD_H_
