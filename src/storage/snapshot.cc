#include "storage/snapshot.h"

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/orpheus.h"

namespace orpheus::storage {

namespace {

using core::Cvd;
using core::OrpheusDB;
using core::VersionId;
using core::VersionNode;

Result<rel::DataType> DecodeDataType(BinaryReader* r) {
  uint8_t raw = r->GetU8();
  if (raw > static_cast<uint8_t>(rel::DataType::kIntArray)) {
    return Status::Internal("snapshot decode: unknown data type tag " +
                            std::to_string(raw));
  }
  return static_cast<rel::DataType>(raw);
}

// --- Partition-store section -------------------------------------------

void EncodePartitionStore(const std::string& cvd_name,
                          const part::PartitionStore& store, BinaryWriter* w) {
  part::PartitionStore::PersistedState state = store.ExportState();
  w->PutString(cvd_name);
  w->PutString(state.source_data_table);
  w->PutI64(state.next_phys_id);
  w->PutU32(static_cast<uint32_t>(state.parts.size()));
  for (const auto& part : state.parts) {
    w->PutString(part.data_table);
    w->PutString(part.rlist_table);
  }
}

}  // namespace

// --- Table section ------------------------------------------------------

void SnapshotCodec::EncodeTableSection(const rel::Table& table,
                                       BinaryWriter* w) {
  w->PutString(table.name());
  EncodeStringVec(table.primary_key(), w);
  w->PutString(table.clustered_on());
  EncodeStringVec(table.DeclaredIndexColumns(), w);
  EncodeChunk(table.data(), w);
}

Result<std::unique_ptr<rel::Table>> SnapshotCodec::DecodeTableObject(
    BinaryReader* r) {
  std::string name = r->GetString();
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<std::string> pk, DecodeStringVec(r));
  std::string clustered = r->GetString();
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<std::string> indexes, DecodeStringVec(r));
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk chunk, DecodeChunk(r));
  auto table =
      std::make_unique<rel::Table>(name, chunk.schema(), std::move(pk));
  table->mutable_chunk() = std::move(chunk);
  for (const std::string& column : indexes) {
    ORPHEUS_RETURN_NOT_OK(table->DeclareIndex(column));
  }
  table->RestoreClusteredMarker(std::move(clustered));
  return table;
}

// --- CVD section --------------------------------------------------------

void SnapshotCodec::EncodeCvd(const Cvd& cvd, BinaryWriter* w) {
  w->PutString(cvd.name_);
  w->PutU8(static_cast<uint8_t>(cvd.model_->kind()));
  EncodeStringVec(cvd.primary_key_, w);
  EncodeSchema(cvd.model_->data_schema(), w);

  w->PutU32(static_cast<uint32_t>(cvd.attributes_.size()));
  for (const core::AttributeEntry& attr : cvd.attributes_) {
    w->PutI64(attr.attr_id);
    w->PutString(attr.name);
    w->PutU8(static_cast<uint8_t>(attr.type));
  }
  w->PutU32(static_cast<uint32_t>(cvd.version_attrs_.size()));
  for (const auto& [vid, attr_ids] : cvd.version_attrs_) {
    w->PutI64(vid);
    EncodeI64Vec(attr_ids, w);
  }
  w->PutU32(static_cast<uint32_t>(cvd.staged_.size()));
  for (const auto& [table, info] : cvd.staged_) {
    w->PutString(info.table_name);
    EncodeI64Vec(info.parents, w);
    w->PutI64(info.checkout_time);
  }
  w->PutI64(cvd.next_rid_);
  w->PutI64(cvd.next_vid_);
  w->PutI64(cvd.logical_clock_);

  const core::VersionGraph& graph = cvd.graph_;
  w->PutU32(static_cast<uint32_t>(graph.num_versions()));
  for (VersionId vid : graph.versions()) {
    const VersionNode* node = graph.GetNode(vid).value();
    w->PutI64(vid);
    EncodeI64Vec(node->parents, w);
    EncodeI64Vec(node->parent_weights, w);
    w->PutI64(node->num_records);
  }
}

Status SnapshotCodec::DecodeCvd(BinaryReader* r, OrpheusDB* db) {
  std::string name = r->GetString();
  uint8_t kind_raw = r->GetU8();
  if (kind_raw > static_cast<uint8_t>(core::DataModelKind::kDeltaBased)) {
    return Status::Internal("snapshot decode: unknown data model tag " +
                            std::to_string(kind_raw));
  }
  core::CvdOptions options;
  options.model = static_cast<core::DataModelKind>(kind_raw);
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<std::string> pk, DecodeStringVec(r));
  options.primary_key = std::move(pk);
  ORPHEUS_ASSIGN_OR_RETURN(rel::Schema data_schema, DecodeSchema(r));

  // Backing tables already exist (restored by the table section), so
  // this goes through the raw constructor, not Create.
  std::unique_ptr<Cvd> cvd(
      new Cvd(&db->db_, name, std::move(data_schema), std::move(options)));

  uint32_t num_attrs = r->GetU32();
  for (uint32_t i = 0; i < num_attrs && r->ok(); ++i) {
    core::AttributeEntry attr;
    attr.attr_id = r->GetI64();
    attr.name = r->GetString();
    ORPHEUS_ASSIGN_OR_RETURN(attr.type, DecodeDataType(r));
    // Replaying entries in order rebuilds the live map (latest entry
    // for a name wins, exactly as AddAttributeEntry maintained it).
    cvd->live_attrs_[attr.name] = attr.attr_id;
    cvd->attributes_.push_back(std::move(attr));
  }
  uint32_t num_version_attrs = r->GetU32();
  for (uint32_t i = 0; i < num_version_attrs && r->ok(); ++i) {
    VersionId vid = r->GetI64();
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> ids, DecodeI64Vec(r));
    cvd->version_attrs_[vid] = std::move(ids);
  }
  uint32_t num_staged = r->GetU32();
  for (uint32_t i = 0; i < num_staged && r->ok(); ++i) {
    core::StagedTableInfo info;
    info.table_name = r->GetString();
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> parents, DecodeI64Vec(r));
    info.parents = std::move(parents);
    info.checkout_time = r->GetI64();
    cvd->staged_[info.table_name] = std::move(info);
  }
  cvd->next_rid_ = r->GetI64();
  cvd->next_vid_ = r->GetI64();
  cvd->logical_clock_ = r->GetI64();

  uint32_t num_versions = r->GetU32();
  for (uint32_t i = 0; i < num_versions && r->ok(); ++i) {
    VersionId vid = r->GetI64();
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> parents, DecodeI64Vec(r));
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> weights, DecodeI64Vec(r));
    int64_t num_records = r->GetI64();
    ORPHEUS_RETURN_NOT_OK(r->status());
    ORPHEUS_RETURN_NOT_OK(
        cvd->graph_.AddVersion(vid, parents, weights, num_records));
  }
  ORPHEUS_RETURN_NOT_OK(r->status());
  ORPHEUS_RETURN_NOT_OK(cvd->model_->RestoreFromTables(cvd->graph_));
  db->cvds_[name] = std::move(cvd);
  return Status::OK();
}

Status SnapshotCodec::DecodePartitionStore(BinaryReader* r, OrpheusDB* db) {
  std::string cvd_name = r->GetString();
  part::PartitionStore::PersistedState state;
  state.source_data_table = r->GetString();
  state.next_phys_id = static_cast<int>(r->GetI64());
  uint32_t num_parts = r->GetU32();
  for (uint32_t i = 0; i < num_parts && r->ok(); ++i) {
    part::PartitionStore::PersistedState::Part part;
    part.data_table = r->GetString();
    part.rlist_table = r->GetString();
    state.parts.push_back(std::move(part));
  }
  ORPHEUS_RETURN_NOT_OK(r->status());
  ORPHEUS_ASSIGN_OR_RETURN(
      std::unique_ptr<part::PartitionStore> store,
      part::PartitionStore::Restore(&db->db_, cvd_name, state));
  return db->AttachPartitionStore(cvd_name, std::move(store));
}

// --- Shared schema/chunk codecs ----------------------------------------

void EncodeSchema(const rel::Schema& schema, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const rel::ColumnDef& def : schema.columns()) {
    w->PutString(def.name);
    w->PutU8(static_cast<uint8_t>(def.type));
  }
}

Result<rel::Schema> DecodeSchema(BinaryReader* r) {
  uint32_t n = r->GetU32();
  rel::Schema schema;
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    std::string name = r->GetString();
    ORPHEUS_ASSIGN_OR_RETURN(rel::DataType type, DecodeDataType(r));
    schema.AddColumn(std::move(name), type);
  }
  ORPHEUS_RETURN_NOT_OK(r->status());
  return schema;
}

void EncodeChunk(const rel::Chunk& chunk, BinaryWriter* w) {
  EncodeSchema(chunk.schema(), w);
  const size_t num_rows = chunk.num_rows();
  w->PutU64(num_rows);
  for (int c = 0; c < chunk.num_columns(); ++c) {
    const rel::Column& col = chunk.column(c);
    w->PutU8(col.has_null_bitmap() ? 1 : 0);
    if (col.has_null_bitmap()) {
      std::string bits((num_rows + 7) / 8, '\0');
      for (size_t row = 0; row < num_rows; ++row) {
        if (col.IsNull(row)) bits[row >> 3] |= static_cast<char>(1 << (row & 7));
      }
      w->PutRaw(bits.data(), bits.size());
    }
    switch (col.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        w->PutRaw(col.ints().data(), col.ints().size() * sizeof(int64_t));
        break;
      case rel::DataType::kDouble:
        w->PutRaw(col.doubles().data(), col.doubles().size() * sizeof(double));
        break;
      case rel::DataType::kString:
        for (const std::string& s : col.strings()) {
          w->PutString(s);
          w->Spill();
        }
        break;
      case rel::DataType::kIntArray:
        for (const rel::IntArray& a : col.arrays()) {
          w->PutU64(a.size());
          w->PutRaw(a.data(), a.size() * sizeof(int64_t));
          w->Spill();
        }
        break;
      case rel::DataType::kNull:
        break;
    }
    w->Spill();
  }
}

Result<rel::Chunk> DecodeChunk(BinaryReader* r) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Schema schema, DecodeSchema(r));
  uint64_t num_rows = r->GetU64();
  ORPHEUS_RETURN_NOT_OK(r->status());
  rel::Chunk chunk(schema);
  for (int c = 0; c < schema.num_columns(); ++c) {
    rel::Column& col = chunk.mutable_column(c);
    uint8_t has_bitmap = r->GetU8();
    std::string bits;
    if (has_bitmap != 0) {
      bits.resize((num_rows + 7) / 8);
      r->GetRaw(bits.data(), bits.size());
    }
    // Guard the row count before the append loops: every row costs at
    // least 8 bytes in every storable type, so this bounds allocation
    // on corrupt input.
    if (!r->ok() || num_rows > r->remaining() / 8) {
      return Status::Internal("chunk decode: truncated column payload");
    }
    switch (schema.column(c).type) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        for (uint64_t row = 0; row < num_rows; ++row) col.AppendInt(r->GetI64());
        break;
      case rel::DataType::kDouble:
        for (uint64_t row = 0; row < num_rows; ++row) {
          col.AppendDouble(r->GetDouble());
        }
        break;
      case rel::DataType::kString:
        for (uint64_t row = 0; row < num_rows; ++row) {
          col.AppendString(r->GetString());
        }
        break;
      case rel::DataType::kIntArray: {
        for (uint64_t row = 0; row < num_rows; ++row) {
          uint64_t n = r->GetU64();
          if (!r->ok() || n * sizeof(int64_t) > r->remaining()) {
            return Status::Internal("chunk decode: truncated array payload");
          }
          rel::IntArray a(n);
          r->GetRaw(a.data(), n * sizeof(int64_t));
          col.AppendArray(std::move(a));
        }
        break;
      }
      case rel::DataType::kNull:
        break;
    }
    ORPHEUS_RETURN_NOT_OK(r->status());
    if (has_bitmap != 0) {
      col.MaterializeNullBitmap();
      for (uint64_t row = 0; row < num_rows; ++row) {
        if ((bits[row >> 3] >> (row & 7)) & 1) col.SetNull(row);
      }
    }
  }
  return chunk;
}

// --- Engine-metadata section (everything but the tables) ----------------

void SnapshotCodec::EncodeMeta(OrpheusDB& db, BinaryWriter* w) {
  EncodeStringVec(std::vector<std::string>(db.users_.begin(), db.users_.end()),
                  w);
  w->PutString(db.current_user_);

  w->PutU32(static_cast<uint32_t>(db.cvds_.size()));
  for (const auto& [name, cvd] : db.cvds_) EncodeCvd(*cvd, w);

  w->PutU32(static_cast<uint32_t>(db.partition_stores_.size()));
  for (const auto& [name, store] : db.partition_stores_) {
    EncodePartitionStore(name, *store, w);
  }
}

Status SnapshotCodec::DecodeMeta(BinaryReader* r, OrpheusDB* db) {
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<std::string> users, DecodeStringVec(r));
  db->users_ = std::set<std::string>(users.begin(), users.end());
  db->current_user_ = r->GetString();

  uint32_t num_cvds = r->GetU32();
  for (uint32_t i = 0; i < num_cvds && r->ok(); ++i) {
    ORPHEUS_RETURN_NOT_OK(DecodeCvd(r, db));
  }
  uint32_t num_stores = r->GetU32();
  for (uint32_t i = 0; i < num_stores && r->ok(); ++i) {
    ORPHEUS_RETURN_NOT_OK(DecodePartitionStore(r, db));
  }
  return r->status();
}

// --- Whole-snapshot codec ----------------------------------------------

std::string SnapshotCodec::Encode(OrpheusDB& db, uint64_t last_lsn) {
  BinaryWriter body;

  EncodeStringVec(std::vector<std::string>(db.users_.begin(), db.users_.end()),
                  &body);
  body.PutString(db.current_user_);

  std::vector<std::string> table_names = db.db_.ListTables();
  body.PutU32(static_cast<uint32_t>(table_names.size()));
  for (const std::string& name : table_names) {
    EncodeTableSection(*db.db_.GetTable(name).value(), &body);
  }

  body.PutU32(static_cast<uint32_t>(db.cvds_.size()));
  for (const auto& [name, cvd] : db.cvds_) EncodeCvd(*cvd, &body);

  body.PutU32(static_cast<uint32_t>(db.partition_stores_.size()));
  for (const auto& [name, store] : db.partition_stores_) {
    EncodePartitionStore(name, *store, &body);
  }

  BinaryWriter file;
  file.PutRaw(kSnapshotMagic, 8);
  file.PutU32(kSnapshotFormatVersion);
  file.PutU64(last_lsn);
  file.PutU64(body.data().size());
  file.PutU32(Crc32(body.data()));
  file.PutRaw(body.data().data(), body.data().size());
  return file.Release();
}

Status SnapshotCodec::Decode(std::string_view file, OrpheusDB* db,
                             uint64_t* last_lsn) {
  constexpr size_t kHeaderBytes = 8 + 4 + 8 + 8 + 4;
  if (file.size() < kHeaderBytes ||
      std::memcmp(file.data(), kSnapshotMagic, 8) != 0) {
    return Status::InvalidArgument("not an OrpheusDB snapshot file");
  }
  BinaryReader header(file.substr(8));
  uint32_t version = header.GetU32();
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "snapshot format version " + std::to_string(version) +
        " unsupported (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  uint64_t lsn = header.GetU64();
  uint64_t body_len = header.GetU64();
  uint32_t body_crc = header.GetU32();
  if (body_len != file.size() - kHeaderBytes) {
    return Status::Internal("snapshot body length mismatch (corrupt file)");
  }
  std::string_view body_bytes = file.substr(kHeaderBytes);
  if (Crc32(body_bytes) != body_crc) {
    return Status::Internal("snapshot checksum mismatch (corrupt file)");
  }

  if (!db->cvds_.empty() || !db->db_.ListTables().empty()) {
    return Status::InvalidArgument(
        "snapshot restore requires a fresh engine (CVDs or tables exist)");
  }

  BinaryReader r(body_bytes);
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<std::string> users, DecodeStringVec(&r));
  db->users_ = std::set<std::string>(users.begin(), users.end());
  db->current_user_ = r.GetString();

  uint32_t num_tables = r.GetU32();
  for (uint32_t i = 0; i < num_tables && r.ok(); ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<rel::Table> table,
                             DecodeTableObject(&r));
    ORPHEUS_RETURN_NOT_OK(db->db_.AdoptTableObject(std::move(table)));
  }
  uint32_t num_cvds = r.GetU32();
  for (uint32_t i = 0; i < num_cvds && r.ok(); ++i) {
    ORPHEUS_RETURN_NOT_OK(DecodeCvd(&r, db));
  }
  uint32_t num_stores = r.GetU32();
  for (uint32_t i = 0; i < num_stores && r.ok(); ++i) {
    ORPHEUS_RETURN_NOT_OK(DecodePartitionStore(&r, db));
  }
  ORPHEUS_RETURN_NOT_OK(r.status());
  if (r.remaining() != 0) {
    return Status::Internal("snapshot has trailing bytes (corrupt file)");
  }
  if (last_lsn != nullptr) *last_lsn = lsn;
  return Status::OK();
}

}  // namespace orpheus::storage
