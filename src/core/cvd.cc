#include "core/cvd.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/str_util.h"

namespace orpheus::core {

namespace {

// Widening lattice for single-pool schema evolution: INT -> DOUBLE ->
// TEXT (§3.3, after Jain et al.).
int TypeRank(rel::DataType type) {
  switch (type) {
    case rel::DataType::kBool:
    case rel::DataType::kInt64:
      return 0;
    case rel::DataType::kDouble:
      return 1;
    default:
      return 2;
  }
}

rel::DataType WidenType(rel::DataType a, rel::DataType b) {
  return TypeRank(a) >= TypeRank(b) ? a : b;
}

// rid + the data attributes: the schema of stored records.
rel::Schema RecordSchemaOf(const rel::Schema& data_schema) {
  rel::Schema schema;
  schema.AddColumn("rid", rel::DataType::kInt64);
  for (const rel::ColumnDef& def : data_schema.columns()) {
    schema.AddColumn(def.name, def.type);
  }
  return schema;
}

std::string EscapeSqlString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  return out;
}

std::string IntArrayLiteral(const std::vector<int64_t>& values) {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (int64_t v : values) parts.push_back(std::to_string(v));
  return "ARRAY[" + Join(parts, ", ") + "]";
}

}  // namespace

Cvd::Cvd(rel::Database* db, std::string name, rel::Schema data_schema,
         CvdOptions options)
    : db_(db),
      name_(std::move(name)),
      primary_key_(std::move(options.primary_key)),
      model_(MakeDataModel(options.model, db, name_, std::move(data_schema))) {}

Result<std::unique_ptr<Cvd>> Cvd::Create(rel::Database* db,
                                         const std::string& name,
                                         rel::Schema data_schema,
                                         CvdOptions options) {
  // Validate the primary key against the schema up front.
  for (const std::string& pk : options.primary_key) {
    if (data_schema.FindColumn(pk) < 0) {
      return Status::InvalidArgument("primary key attribute not in schema: " + pk);
    }
  }
  if (data_schema.FindColumn("rid") >= 0) {
    return Status::InvalidArgument("'rid' is reserved for internal record ids");
  }
  std::unique_ptr<Cvd> cvd(new Cvd(db, name, data_schema, std::move(options)));
  ORPHEUS_RETURN_NOT_OK(cvd->model_->Init());

  // Metadata table (Figure 4a).
  rel::Schema meta;
  meta.AddColumn("vid", rel::DataType::kInt64);
  meta.AddColumn("parents", rel::DataType::kIntArray);
  meta.AddColumn("checkout_t", rel::DataType::kInt64);
  meta.AddColumn("commit_t", rel::DataType::kInt64);
  meta.AddColumn("msg", rel::DataType::kString);
  meta.AddColumn("attributes", rel::DataType::kIntArray);
  ORPHEUS_RETURN_NOT_OK(db->CreateTable(cvd->MetadataTableName(), meta, {"vid"}));

  // Attribute table (Figure 5b).
  rel::Schema attr;
  attr.AddColumn("attr_id", rel::DataType::kInt64);
  attr.AddColumn("attr_name", rel::DataType::kString);
  attr.AddColumn("data_type", rel::DataType::kString);
  ORPHEUS_RETURN_NOT_OK(
      db->CreateTable(cvd->AttributeTableName(), attr, {"attr_id"}));

  for (const rel::ColumnDef& def : data_schema.columns()) {
    cvd->AddAttributeEntry(def.name, def.type);
  }
  return cvd;
}

int64_t Cvd::AddAttributeEntry(const std::string& name, rel::DataType type) {
  int64_t id = static_cast<int64_t>(attributes_.size()) + 1;
  attributes_.push_back({id, name, type});
  live_attrs_[name] = id;
  // Mirror into the attribute table (best-effort bookkeeping).
  (void)db_->Execute("INSERT INTO " + AttributeTableName() + " VALUES (" +
                     std::to_string(id) + ", '" + EscapeSqlString(name) + "', '" +
                     rel::DataTypeName(type) + "')");
  return id;
}

Status Cvd::AppendMetadataRow(VersionId vid, const std::vector<VersionId>& parents,
                              int64_t checkout_time, int64_t commit_time,
                              const std::string& message,
                              const std::vector<int64_t>& attr_ids) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("INSERT INTO " + MetadataTableName() + " VALUES (" +
                   std::to_string(vid) + ", " + IntArrayLiteral(parents) + ", " +
                   std::to_string(checkout_time) + ", " +
                   std::to_string(commit_time) + ", '" + EscapeSqlString(message) +
                   "', " + IntArrayLiteral(attr_ids) + ")"));
  (void)unused;
  return Status::OK();
}

Result<std::vector<int64_t>> Cvd::VersionAttributes(VersionId vid) const {
  auto it = version_attrs_.find(vid);
  if (it == version_attrs_.end()) {
    return Status::NotFound("version not found: " + std::to_string(vid));
  }
  return it->second;
}

Result<VersionId> Cvd::InitVersion(const rel::Chunk& rows,
                                   const std::string& message) {
  if (next_vid_ != 1) {
    return Status::InvalidArgument("CVD already initialized: " + name_);
  }
  const rel::Schema& data_schema = model_->data_schema();
  if (!rows.schema().Equals(data_schema)) {
    return Status::InvalidArgument("init rows schema " + rows.schema().ToString() +
                                   " does not match CVD schema " +
                                   data_schema.ToString());
  }
  // Primary-key uniqueness within the version.
  if (!primary_key_.empty()) {
    std::vector<int> pk_cols;
    for (const std::string& pk : primary_key_) {
      pk_cols.push_back(rows.schema().FindColumn(pk));
    }
    std::unordered_set<uint64_t> seen;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      if (!seen.insert(HashRecord(rows, r, pk_cols)).second) {
        return Status::ConstraintViolation(
            "duplicate primary key in initial version");
      }
    }
  }

  VersionId vid = next_vid_++;
  std::vector<RecordId> rids(rows.num_rows());
  std::iota(rids.begin(), rids.end(), next_rid_);
  next_rid_ += static_cast<RecordId>(rows.num_rows());

  // Every initial row is a new record.
  rel::Chunk with_rid(model_->RecordSchema());
  for (RecordId rid : rids) with_rid.mutable_column(0).AppendInt(rid);
  std::vector<uint32_t> all(rows.num_rows());
  std::iota(all.begin(), all.end(), 0);
  for (int c = 0; c < rows.num_columns(); ++c) {
    with_rid.mutable_column(c + 1).Gather(rows.column(c), all);
  }

  ORPHEUS_RETURN_NOT_OK(
      model_->AddVersion(vid, rids, with_rid, /*primary_parent=*/-1));

  ORPHEUS_RETURN_NOT_OK(graph_.AddVersion(vid, {}, {}, static_cast<int64_t>(rids.size())));
  std::vector<int64_t> attr_ids;
  for (const rel::ColumnDef& def : data_schema.columns()) {
    attr_ids.push_back(live_attrs_.at(def.name));
  }
  version_attrs_[vid] = attr_ids;
  int64_t now = ++logical_clock_;
  ORPHEUS_RETURN_NOT_OK(AppendMetadataRow(vid, {}, now, now, message, attr_ids));
  return vid;
}

Status Cvd::CheckoutSingle(VersionId vid, const std::string& table_name) {
  if (!graph_.Contains(vid)) {
    return Status::NotFound("version not found: " + std::to_string(vid));
  }
  // Does this version carry all live attributes?
  const rel::Schema& schema = model_->data_schema();
  std::vector<std::string> attr_names;
  for (int64_t attr_id : version_attrs_.at(vid)) {
    attr_names.push_back(attributes_[static_cast<size_t>(attr_id - 1)].name);
  }
  bool full = attr_names.size() == static_cast<size_t>(schema.num_columns());

  const std::string target = full ? table_name : table_name + "_fullattrs";
  if (checkout_override_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(checkout_override_(vid, target));
  } else {
    ORPHEUS_RETURN_NOT_OK(model_->CheckoutVersion(vid, target));
  }
  if (!full) {
    // Project down to the attributes this version actually has.
    std::vector<std::string> cols = {"rid"};
    cols.insert(cols.end(), attr_names.begin(), attr_names.end());
    ORPHEUS_ASSIGN_OR_RETURN(
        rel::Chunk unused,
        db_->Execute("SELECT " + Join(cols, ", ") + " INTO " + table_name +
                     " FROM " + target));
    (void)unused;
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(target));
  }
  return Status::OK();
}

Status Cvd::Checkout(const std::vector<VersionId>& vids,
                     const std::string& table_name, bool materialize) {
  if (vids.empty()) return Status::InvalidArgument("no versions given");
  if (db_->HasTable(table_name)) {
    return Status::AlreadyExists("table already exists: " + table_name);
  }
  for (VersionId vid : vids) {
    if (!graph_.Contains(vid)) {
      return Status::NotFound("version not found: " + std::to_string(vid));
    }
  }

  if (!materialize) {
    // Provenance only (see the header).
  } else if (vids.size() == 1) {
    ORPHEUS_RETURN_NOT_OK(CheckoutSingle(vids[0], table_name));
  } else {
    // Merging checkout: precedence order with primary-key conflict
    // resolution (§2.2). Without a primary key, rid identity dedupes.
    rel::Chunk merged;
    bool first = true;
    std::vector<int> pk_cols;
    std::unordered_set<uint64_t> seen_keys;
    std::unordered_set<RecordId> seen_rids;
    for (VersionId vid : vids) {
      ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, model_->VersionRows(vid));
      if (first) {
        merged = rel::Chunk(rows.schema());
        for (const std::string& pk : primary_key_) {
          pk_cols.push_back(rows.schema().FindColumn(pk));
        }
        first = false;
      }
      int rid_col = rows.schema().FindColumn("rid");
      std::vector<uint32_t> keep;
      for (size_t r = 0; r < rows.num_rows(); ++r) {
        if (!primary_key_.empty()) {
          if (!seen_keys.insert(HashRecord(rows, r, pk_cols)).second) continue;
        } else {
          if (!seen_rids.insert(rows.column(rid_col).ints()[r]).second) continue;
        }
        keep.push_back(static_cast<uint32_t>(r));
      }
      merged.GatherFrom(rows, keep);
    }
    ORPHEUS_RETURN_NOT_OK(db_->AdoptTable(table_name, std::move(merged)));
  }

  StagedTableInfo info;
  info.table_name = table_name;
  info.parents = vids;
  info.checkout_time = ++logical_clock_;
  staged_[table_name] = std::move(info);
  return Status::OK();
}

Result<std::vector<int64_t>> Cvd::ReconcileSchema(const rel::Schema& staged_schema) {
  std::vector<int64_t> attr_ids;
  for (const rel::ColumnDef& def : staged_schema.columns()) {
    auto it = live_attrs_.find(def.name);
    if (it == live_attrs_.end()) {
      // New attribute: extend the CVD, NULL-backfilling old records.
      ORPHEUS_RETURN_NOT_OK(model_->AddDataColumn(def.name, def.type));
      attr_ids.push_back(AddAttributeEntry(def.name, def.type));
      continue;
    }
    const AttributeEntry& live = attributes_[static_cast<size_t>(it->second - 1)];
    rel::DataType widened = WidenType(live.type, def.type);
    if (widened != live.type) {
      // Type change: widen the pool column, register a new attribute
      // entry (single-pool method).
      ORPHEUS_RETURN_NOT_OK(model_->WidenDataColumn(def.name, widened));
      attr_ids.push_back(AddAttributeEntry(def.name, widened));
    } else {
      attr_ids.push_back(it->second);
    }
  }
  return attr_ids;
}

rel::Schema Cvd::EvolvedDataSchema(const rel::Schema& staged_schema) const {
  // ReconcileSchema's outcome, computed without applying it: widened
  // types in place, new attributes appended in staged order.
  const rel::Schema& current = model_->data_schema();
  rel::Schema evolved;
  for (const rel::ColumnDef& def : current.columns()) {
    const int s = staged_schema.FindColumn(def.name);
    evolved.AddColumn(def.name, s < 0 ? def.type
                                      : WidenType(def.type,
                                                  staged_schema.column(s).type));
  }
  for (const rel::ColumnDef& def : staged_schema.columns()) {
    if (current.FindColumn(def.name) < 0) evolved.AddColumn(def.name, def.type);
  }
  return evolved;
}

VersionId CommitDelta::primary_parent() const {
  if (parents.empty()) return -1;
  size_t best = 0;
  for (size_t p = 1; p < parents.size() && p < parent_weights.size(); ++p) {
    if (parent_weights[p] > parent_weights[best]) best = p;
  }
  return parents[best];
}

Result<VersionId> Cvd::Commit(const std::string& table_name,
                              const std::string& message) {
  ORPHEUS_ASSIGN_OR_RETURN(CommitDelta delta, ResolveCommit(table_name, message));
  return ApplyCommit(delta);
}

Result<CommitDelta> Cvd::ResolveCommit(const std::string& table_name,
                                       const std::string& message) {
  auto staged_it = staged_.find(table_name);
  if (staged_it == staged_.end()) {
    return Status::NotFound("table was not checked out from CVD " + name_ + ": " +
                            table_name);
  }
  CommitDelta delta;
  delta.table_name = table_name;
  delta.message = message;
  delta.vid = next_vid_;
  delta.parents = staged_it->second.parents;
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged_table, db_->GetTable(table_name));
  const rel::Chunk& staged_rows = staged_table->data();

  // --- The data schema after this commit -----------------------------
  // Schema evolution (a new or widened attribute) is only planned here;
  // ApplyCommit applies it, so a commit that fails below changes nothing.
  for (const rel::ColumnDef& def : staged_rows.schema().columns()) {
    if (def.name != "rid") delta.staged_schema.AddColumn(def.name, def.type);
  }
  const rel::Schema data_schema = EvolvedDataSchema(delta.staged_schema);
  const bool evolves = !data_schema.Equals(model_->data_schema());

  // --- Staged rows in the evolved data schema ------------------------
  // Read in place when every attribute is there with its pool type;
  // otherwise align a copy (missing attributes NULL, narrower types
  // widened, e.g. an INT column committed into a DOUBLE attribute).
  const size_t n = staged_rows.num_rows();
  std::vector<int> staged_cols;  // data attribute -> column of *rows
  bool in_place = true;
  for (const rel::ColumnDef& def : data_schema.columns()) {
    int src = staged_rows.schema().FindColumn(def.name);
    in_place = in_place && src >= 0 && staged_rows.column(src).type() == def.type;
    staged_cols.push_back(src);
  }
  const rel::Chunk* rows = &staged_rows;
  rel::Chunk aligned;
  if (!in_place) {
    aligned = rel::Chunk(data_schema);
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    for (int c = 0; c < data_schema.num_columns(); ++c) {
      const int src = staged_cols[static_cast<size_t>(c)];
      rel::Column& dst = aligned.mutable_column(c);
      if (src < 0) {
        dst.AppendNulls(n);
      } else if (staged_rows.column(src).type() == data_schema.column(c).type) {
        dst.Gather(staged_rows.column(src), all);
      } else {
        rel::Column tmp(staged_rows.column(src).type());
        tmp.Gather(staged_rows.column(src), all);
        ORPHEUS_RETURN_NOT_OK(tmp.ConvertTo(data_schema.column(c).type));
        for (size_t r = 0; r < n; ++r) dst.AppendFrom(tmp, r);
      }
    }
    rows = &aligned;
    std::iota(staged_cols.begin(), staged_cols.end(), 0);
  }

  // --- Primary-key check within the committed version ----------------
  if (!primary_key_.empty()) {
    std::vector<int> pk_cols;
    for (const std::string& pk : primary_key_) {
      pk_cols.push_back(
          staged_cols[static_cast<size_t>(data_schema.FindColumn(pk))]);
    }
    std::unordered_set<uint64_t> seen;
    seen.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      if (!seen.insert(HashRecord(*rows, r, pk_cols)).second) {
        return Status::ConstraintViolation(
            "duplicate primary key in committed table " + table_name);
      }
    }
  }

  // --- Record resolution (the no-cross-version-diff rule) -----------
  // Candidates: every parent record, keyed by its cached content hash
  // and ordered by (hash, parent order, rlist order), so the first
  // equal-content candidate of a hash run is the rule's answer. A
  // parent rid with no stored record (raw SQL on a backing table can
  // delete one) has no content to match and is no candidate.
  ORPHEUS_RETURN_NOT_OK(model_->PrepareRecordCache(next_rid_));
  std::vector<int> record_cols(staged_cols.size());
  std::iota(record_cols.begin(), record_cols.end(), 1);
  std::vector<std::vector<RecordId>> parent_rids(delta.parents.size());
  struct Candidate {
    uint64_t hash;
    uint32_t order;
    RecordId rid;
    bool operator<(const Candidate& o) const {
      return hash != o.hash ? hash < o.hash : order < o.order;
    }
  };
  std::vector<Candidate> candidates;
  // Under schema evolution the parent records are compared as they
  // will read once it is applied: row `order` of this copy holds
  // candidate `order` with new attributes NULL and widened ones
  // converted, as ApplyCommit will do to the pool.
  rel::Chunk evolved_parents;
  if (evolves) evolved_parents = rel::Chunk(model_->RecordSchema());
  for (size_t p = 0; p < delta.parents.size(); ++p) {
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> rids,
                             model_->VersionRecords(delta.parents[p]));
    for (RecordId rid : rids) {
      if (!model_->HasRecord(rid) || rid >= next_rid_) continue;
      parent_rids[p].push_back(rid);
      candidates.push_back({model_->RecordHash(rid),
                            static_cast<uint32_t>(candidates.size()), rid});
      if (evolves) {
        DataModel::RecordRef ref = model_->LocateRecord(rid);
        for (int c = 0; c < evolved_parents.num_columns(); ++c) {
          evolved_parents.mutable_column(c).AppendFrom(ref.chunk->column(c),
                                                       ref.row);
        }
      }
    }
  }
  if (evolves) {
    const int num_current = model_->data_schema().num_columns();
    for (int c = 0; c < data_schema.num_columns(); ++c) {
      const rel::ColumnDef& def = data_schema.column(c);
      if (c >= num_current) {
        evolved_parents.AddNullColumn(def.name, def.type);
      } else if (def.type != model_->data_schema().column(c).type) {
        ORPHEUS_RETURN_NOT_OK(evolved_parents.ConvertColumn(c + 1, def.type));
      }
    }
    for (Candidate& candidate : candidates) {
      candidate.hash = HashRecord(evolved_parents, candidate.order, record_cols);
    }
  }
  std::sort(candidates.begin(), candidates.end());

  delta.rids.resize(n);
  std::vector<uint32_t> new_rows;
  for (size_t r = 0; r < n; ++r) {
    const uint64_t h = HashRecord(*rows, r, staged_cols);
    RecordId found = -1;
    auto it = std::lower_bound(
        candidates.begin(), candidates.end(), h,
        [](const Candidate& c, uint64_t key) { return c.hash < key; });
    for (; it != candidates.end() && it->hash == h; ++it) {
      DataModel::RecordRef ref =
          evolves ? DataModel::RecordRef{&evolved_parents, it->order}
                  : model_->LocateRecord(it->rid);
      if (RecordsEqual(*rows, r, staged_cols, *ref.chunk, ref.row,
                       record_cols)) {
        found = it->rid;
        break;
      }
    }
    if (found >= 0) {
      delta.rids[r] = found;
    } else {
      delta.rids[r] = next_rid_ + static_cast<RecordId>(new_rows.size());
      new_rows.push_back(static_cast<uint32_t>(r));
    }
  }

  // New records: fresh rids + their staged rows.
  delta.new_records = rel::Chunk(RecordSchemaOf(data_schema));
  for (uint32_t row : new_rows) {
    delta.new_records.mutable_column(0).AppendInt(delta.rids[row]);
  }
  for (int c = 0; c < data_schema.num_columns(); ++c) {
    delta.new_records.mutable_column(c + 1).Gather(
        rows->column(staged_cols[static_cast<size_t>(c)]), new_rows);
  }

  // --- Edge weights: records shared with each parent -----------------
  delta.parent_weights.assign(delta.parents.size(), 0);
  std::vector<bool> in_parent;
  for (size_t p = 0; p < delta.parents.size(); ++p) {
    in_parent.assign(static_cast<size_t>(next_rid_), false);
    for (RecordId rid : parent_rids[p]) in_parent[static_cast<size_t>(rid)] = true;
    for (RecordId rid : delta.rids) {
      if (rid < next_rid_ && in_parent[static_cast<size_t>(rid)]) {
        ++delta.parent_weights[p];
      }
    }
  }
  return delta;
}

Result<VersionId> Cvd::ApplyCommit(const CommitDelta& delta) {
  auto staged_it = staged_.find(delta.table_name);
  if (staged_it == staged_.end()) {
    return Status::NotFound("table was not checked out from CVD " + name_ + ": " +
                            delta.table_name);
  }
  // Validate before mutating anything: a replayed delta is decoded
  // from disk, so it must agree with the counters and staging area.
  if (delta.vid != next_vid_) {
    return Status::InvalidArgument(
        "commit delta creates version " + std::to_string(delta.vid) + ", but " +
        name_ + "'s next version is " + std::to_string(next_vid_));
  }
  if (delta.parents != staged_it->second.parents ||
      delta.parent_weights.size() != delta.parents.size()) {
    return Status::InvalidArgument("commit delta parents do not match the "
                                   "checkout of " + delta.table_name);
  }
  const rel::Chunk& new_records = delta.new_records;
  const size_t num_new = new_records.num_rows();
  if (num_new > 0) {
    if (new_records.schema().FindColumn("rid") != 0 ||
        new_records.column(0).type() != rel::DataType::kInt64 ||
        new_records.column(0).has_null_bitmap()) {
      return Status::InvalidArgument("commit delta new records lack rids");
    }
    for (size_t i = 0; i < num_new; ++i) {
      if (new_records.column(0).ints()[i] != next_rid_ + static_cast<RecordId>(i)) {
        return Status::InvalidArgument(
            "commit delta new record rid " +
            std::to_string(new_records.column(0).ints()[i]) + " is not fresh");
      }
    }
  }
  // Every new record appears exactly once; every other rid is stored.
  std::vector<bool> new_seen(num_new, false);
  size_t new_refs = 0;
  for (RecordId rid : delta.rids) {
    if (rid < 0 || rid >= next_rid_ + static_cast<RecordId>(num_new)) {
      return Status::InvalidArgument("commit delta references unknown record " +
                                     std::to_string(rid));
    }
    if (rid >= next_rid_) {
      const auto i = static_cast<size_t>(rid - next_rid_);
      if (new_seen[i]) {
        return Status::InvalidArgument("commit delta references new record " +
                                       std::to_string(rid) + " twice");
      }
      new_seen[i] = true;
      ++new_refs;
    }
  }
  if (new_refs != num_new) {
    return Status::InvalidArgument(
        "commit delta rid count mismatch: " + std::to_string(num_new) +
        " new records, " + std::to_string(new_refs) + " referenced once");
  }

  if (num_new > 0) {
    const rel::Schema record_schema =
        RecordSchemaOf(EvolvedDataSchema(delta.staged_schema));
    if (!new_records.schema().Equals(record_schema)) {
      return Status::InvalidArgument("commit delta new records have schema " +
                                     new_records.schema().ToString() +
                                     ", expected " + record_schema.ToString());
    }
  }

  ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> attr_ids,
                           ReconcileSchema(delta.staged_schema));

  // Replay reaches here without a resolve: give the model's record
  // cache the rid bound before AddVersion reads it.
  ORPHEUS_RETURN_NOT_OK(model_->PrepareRecordCache(next_rid_));
  VersionId vid = next_vid_++;
  next_rid_ += static_cast<RecordId>(num_new);
  ORPHEUS_RETURN_NOT_OK(model_->AddVersion(vid, delta.rids, new_records,
                                           delta.primary_parent()));
  ORPHEUS_RETURN_NOT_OK(graph_.AddVersion(vid, delta.parents, delta.parent_weights,
                                          static_cast<int64_t>(delta.rids.size())));
  version_attrs_[vid] = attr_ids;
  ORPHEUS_RETURN_NOT_OK(AppendMetadataRow(vid, delta.parents,
                                          staged_it->second.checkout_time,
                                          ++logical_clock_, delta.message,
                                          attr_ids));

  // Commit removes the table from the staging area (§2.3). Replay may
  // never have materialized it (see Checkout).
  ORPHEUS_RETURN_NOT_OK(db_->DropTable(delta.table_name, /*if_exists=*/true));
  staged_.erase(staged_it);
  return vid;
}

Result<rel::Chunk> Cvd::Diff(VersionId a, VersionId b) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows_a, model_->VersionRows(a));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> rids_b, model_->VersionRecords(b));
  std::unordered_set<RecordId> b_set(rids_b.begin(), rids_b.end());
  int rid_col = rows_a.schema().FindColumn("rid");
  std::vector<uint32_t> keep;
  for (size_t r = 0; r < rows_a.num_rows(); ++r) {
    if (b_set.count(rows_a.column(rid_col).ints()[r]) == 0) {
      keep.push_back(static_cast<uint32_t>(r));
    }
  }
  rel::Chunk out(rows_a.schema());
  out.GatherFrom(rows_a, keep);
  return out;
}

Status Cvd::DiscardStaged(const std::string& table_name) {
  auto it = staged_.find(table_name);
  if (it == staged_.end()) {
    return Status::NotFound("not a staged table: " + table_name);
  }
  ORPHEUS_RETURN_NOT_OK(db_->DropTable(table_name, /*if_exists=*/true));
  staged_.erase(it);
  return Status::OK();
}

}  // namespace orpheus::core
