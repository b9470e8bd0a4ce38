#include "storage/storage_manager.h"

#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "core/orpheus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_util.h"
#include "storage/segment.h"
#include "storage/snapshot.h"

namespace orpheus::storage {

namespace {

using core::VersionId;

// Fresh segment file name; ids are allocated from the manifest's
// next_segment_id and never reused, so a checkpoint can never
// overwrite a live segment (at worst it reclaims the name of an
// orphan a crashed checkpoint left behind).
std::string SegmentFileName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%08llu.orps",
                static_cast<unsigned long long>(id));
  return buf;
}

// Marks the checkout records whose staged table a later record in
// `records` commits or discards. Replay skips materializing those: a
// commit record carries its resolved delta and a discard drops the
// table unread, so the checkout's rows would be built only to be
// thrown away. The two records agree on (CVD, table name), and no
// record in between can see the table — raw SQL is not logged.
std::vector<bool> ConsumedCheckouts(const std::vector<WalRecord>& records) {
  std::vector<bool> consumed(records.size(), false);
  std::map<std::pair<std::string, std::string>, size_t> open;
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    BinaryReader r(record.payload);
    std::string cvd_name = r.GetString();
    std::string table;
    if (record.type == WalRecordType::kCheckout) {
      if (!DecodeI64Vec(&r).ok()) continue;
      table = r.GetString();
      if (r.ok()) open[{cvd_name, table}] = i;
      continue;
    }
    if (record.type != WalRecordType::kCommit &&
        record.type != WalRecordType::kDiscardStaged) {
      continue;
    }
    table = r.GetString();
    if (!r.ok()) continue;
    auto it = open.find({cvd_name, table});
    if (it == open.end()) continue;
    consumed[it->second] = true;
    open.erase(it);
  }
  return consumed;
}

const char* RecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kCreateUser: return "create_user";
    case WalRecordType::kLogin: return "login";
    case WalRecordType::kInitCvd: return "init_cvd";
    case WalRecordType::kCheckout: return "checkout";
    case WalRecordType::kCommitChunk: return "commit_chunk";
    case WalRecordType::kCommit: return "commit";
    case WalRecordType::kDiscardStaged: return "discard_staged";
    case WalRecordType::kDropCvd: return "drop_cvd";
    case WalRecordType::kRepartition: return "repartition";
  }
  return "unknown";
}

}  // namespace

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const std::string& dir, core::OrpheusDB* db) {
  ORPHEUS_RETURN_NOT_OK(CreateDirectories(dir));
  std::unique_ptr<StorageManager> manager(new StorageManager(dir, db));
  // Single-writer guard: hold <dir>/LOCK for the manager's lifetime so
  // a second engine (same or another process) gets a clean refusal
  // instead of two WAL appenders interleaving frames.
  ORPHEUS_ASSIGN_OR_RETURN(manager->lock_fd_, AcquireLockFile(LockPath(dir)));
  ORPHEUS_RETURN_NOT_OK(manager->Recover());
  return manager;
}

StorageManager::~StorageManager() {
  // Clean shutdown drains whatever the last statements enqueued; a
  // crash instead loses only records whose WaitDurable never returned
  // OK, which is exactly the durability contract.
  (void)FlushPending();
  ReleaseLockFile(lock_fd_);
}

void StorageManager::SetAutoCheckpointPolicy(uint64_t max_wal_bytes,
                                             uint64_t max_wal_records) {
  max_wal_bytes_ = max_wal_bytes;
  max_wal_records_ = max_wal_records;
}

Status StorageManager::SaveSnapshotTo(core::OrpheusDB* db,
                                      const std::string& dir) {
  ORPHEUS_RETURN_NOT_OK(CreateDirectories(dir));
  // A standalone export covers everything, so its watermark is 0: a
  // later Open of the directory replays nothing.
  std::string blob = SnapshotCodec::Encode(*db, /*last_lsn=*/0);
  return WriteFileAtomic(SnapshotPath(dir), blob);
}

Status StorageManager::RestoreFromManifest(uint64_t* last_lsn) {
  const std::string manifest_path = ManifestPath(dir_);
  ORPHEUS_ASSIGN_OR_RETURN(std::string blob, ReadFileToString(manifest_path));
  ORPHEUS_ASSIGN_OR_RETURN(manifest_, DecodeManifest(blob, manifest_path));

  if (!db_->cvds_.empty() || !db_->db_.ListTables().empty()) {
    return Status::InvalidArgument(
        "manifest restore requires a fresh engine (CVDs or tables exist)");
  }

  // Read + validate + decode every segment in parallel; adopt
  // sequentially in manifest order afterwards so the restored table
  // map is deterministic and errors surface in a stable order.
  const int n = static_cast<int>(manifest_.segments.size());
  std::vector<std::unique_ptr<rel::Table>> tables(n);
  std::vector<Status> statuses(n);
  orpheus::ExecParallelFor(n, [&](int i) {
    const ManifestSegment& seg = manifest_.segments[i];
    const std::string path = SegmentPath(dir_, seg.file);
    Result<std::string> bytes_or = ReadFileToString(path);
    if (!bytes_or.ok()) {
      statuses[i] = Status::Internal("missing segment file " + path +
                                     " (referenced by MANIFEST): " +
                                     bytes_or.status().ToString());
      return;
    }
    const std::string& bytes = bytes_or.value();
    if (bytes.size() != seg.size) {
      statuses[i] = Status::Internal(
          "segment size mismatch for " + path + ": manifest says " +
          std::to_string(seg.size) + " bytes, file has " +
          std::to_string(bytes.size()));
      return;
    }
    if (Crc32(bytes) != seg.crc) {
      statuses[i] =
          Status::Internal("segment checksum mismatch (corrupt file " + path +
                           ", expected by MANIFEST)");
      return;
    }
    Result<std::unique_ptr<rel::Table>> table_or =
        DecodeSegmentFile(bytes, path);
    if (!table_or.ok()) {
      statuses[i] = table_or.status();
      return;
    }
    if (table_or.value()->name() != seg.table) {
      statuses[i] = Status::Internal(
          "segment table mismatch for " + path + ": manifest says \"" +
          seg.table + "\", file holds \"" + table_or.value()->name() + "\"");
      return;
    }
    tables[i] = std::move(table_or).value();
  });
  for (int i = 0; i < n; ++i) {
    ORPHEUS_RETURN_NOT_OK(statuses[i]);
    ORPHEUS_RETURN_NOT_OK(db_->db_.AdoptTableObject(std::move(tables[i])));
  }

  BinaryReader r(manifest_.meta);
  Status st = SnapshotCodec::DecodeMeta(&r, db_);
  if (st.ok() && r.remaining() != 0) {
    st = Status::Internal("manifest metadata has trailing bytes");
  }
  if (!st.ok()) {
    return Status::Internal("manifest metadata restore failed (corrupt file " +
                            manifest_path + "): " + st.ToString());
  }

  // The segments on disk are exact for the state just restored; stamp
  // every table clean *now*, before WAL replay re-dirties whatever it
  // touches.
  clean_epochs_.clear();
  for (const std::string& name : db_->db_.ListTables()) {
    clean_epochs_[name] = db_->db_.GetTable(name).value()->epoch();
  }

  *last_lsn = manifest_.last_lsn;
  return Status::OK();
}

Status StorageManager::DeleteOrphanSegments(uint64_t* deleted) {
  uint64_t count = 0;
  std::set<std::string> live;
  for (const ManifestSegment& seg : manifest_.segments) live.insert(seg.file);
  Result<std::vector<std::string>> names_or = ListDir(SegmentsDir(dir_));
  if (names_or.ok()) {
    for (const std::string& name : names_or.value()) {
      if (live.count(name) > 0) continue;
      ORPHEUS_RETURN_NOT_OK(
          DeleteFileChecked(SegmentPath(dir_, name), IoFileClass::kSegment));
      ++count;
    }
  } else if (names_or.status().code() != StatusCode::kNotFound) {
    return names_or.status();
  }
  // A legacy v1 snapshot superseded by the manifest is an orphan too
  // (migration's final step; also re-run here if that step crashed).
  if (FileExists(SnapshotPath(dir_))) {
    ORPHEUS_RETURN_NOT_OK(
        DeleteFileChecked(SnapshotPath(dir_), IoFileClass::kSegment));
    ++count;
  }
  if (deleted != nullptr) *deleted = count;
  return Status::OK();
}

Status StorageManager::Recover() {
  uint64_t snapshot_lsn = 0;
  bool migrate_v1 = false;
  if (FileExists(ManifestPath(dir_))) {
    Status st = RestoreFromManifest(&snapshot_lsn);
    if (!st.ok()) {
      return Status::Internal("cannot recover " + dir_ +
                              ": manifest restore failed: " + st.ToString());
    }
  } else if (FileExists(SnapshotPath(dir_))) {
    // Legacy v1 directory: restore the monolithic snapshot, then (once
    // the WAL is replayed and the appender armed) migrate in place.
    ORPHEUS_ASSIGN_OR_RETURN(std::string blob,
                             ReadFileToString(SnapshotPath(dir_)));
    Status st = SnapshotCodec::Decode(blob, db_, &snapshot_lsn);
    if (!st.ok()) {
      return Status::Internal("cannot recover " + dir_ +
                              ": snapshot restore failed: " + st.ToString());
    }
    migrate_v1 = true;
  }

  uint64_t max_lsn = snapshot_lsn;
  uint64_t replayed_records = 0;
  const std::string wal_path = WalPath(dir_);
  if (FileExists(wal_path)) {
    ORPHEUS_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(wal_path));
    size_t valid_bytes = 0;
    std::vector<WalRecord> records =
        ParseWal(bytes, snapshot_lsn, &valid_bytes);
    const std::vector<bool> consumed = ConsumedCheckouts(records);
    for (size_t i = 0; i < records.size(); ++i) {
      const WalRecord& record = records[i];
      Status st = ApplyRecord(record, /*materialize_checkout=*/!consumed[i]);
      if (!st.ok()) {
        return Status::Internal(
            "cannot recover " + dir_ + ": WAL replay failed at lsn " +
            std::to_string(record.lsn) + " (" + RecordTypeName(record.type) +
            "): " + st.ToString());
      }
      max_lsn = record.lsn;
      ++replayed_records;
    }
    // Anything past the well-formed prefix is a torn or corrupt tail;
    // discard it so the appender continues at a clean frame boundary.
    if (valid_bytes < bytes.size()) {
      ORPHEUS_RETURN_NOT_OK(TruncateFile(wal_path, valid_bytes));
    }
  }
  ORPHEUS_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(wal_path, max_lsn + 1, replayed_records));

  if (migrate_v1) {
    // One-shot v1→v2 migration: clean_epochs_ is empty, so this full
    // checkpoint segments every table, commits the first MANIFEST, and
    // retires snapshot.orph (as an orphan). If it fails the directory
    // is still a valid v1 directory and the next open retries.
    ORPHEUS_RETURN_NOT_OK(Checkpoint());
  } else if (FileExists(ManifestPath(dir_))) {
    // Remove segments a crashed checkpoint wrote but never committed.
    ORPHEUS_RETURN_NOT_OK(DeleteOrphanSegments(nullptr));
  }
  return Status::OK();
}

// --- Group commit -------------------------------------------------------

void StorageManager::SetGroupCommit(bool on) {
  {
    std::lock_guard<std::mutex> lock(group_mu_);
    if (group_commit_ == on) return;
  }
  // Turning the mode off must not strand queued records: drain first,
  // so the synchronous path resumes on a clean frame boundary.
  if (!on) (void)FlushPending();
  std::lock_guard<std::mutex> lock(group_mu_);
  group_commit_ = on;
}

bool StorageManager::group_commit() const {
  std::lock_guard<std::mutex> lock(group_mu_);
  return group_commit_;
}

std::vector<AppendTicket> StorageManager::TakePendingTickets() {
  std::lock_guard<std::mutex> lock(group_mu_);
  return std::move(unclaimed_);
}

void StorageManager::LeadGroup(std::unique_lock<std::mutex>& lock) {
  writer_active_ = true;
  std::vector<AppendTicket> batch(queue_.begin(), queue_.end());
  queue_.clear();
  queued_bytes_ = 0;
  lock.unlock();

  // The expensive part — one write(), one fdatasync for the whole
  // group — runs with no lock held: concurrent sessions keep applying
  // and enqueueing the next group meanwhile.
  std::vector<WalAppendEntry> entries;
  entries.reserve(batch.size());
  for (const AppendTicket& ticket : batch) {
    entries.push_back({ticket->type, ticket->body});
  }
  uint64_t first_lsn = 0;
  Status st = wal_->AppendBatch(entries.data(), entries.size(), &first_lsn);

  lock.lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i]->status = st;
    batch[i]->lsn = st.ok() ? first_lsn + i : 0;
    batch[i]->done = true;
  }
  writer_active_ = false;
  group_cv_.notify_all();
}

Status StorageManager::WaitDurable(const std::vector<AppendTicket>& tickets) {
  Status first_error;
  std::unique_lock<std::mutex> lock(group_mu_);
  for (const AppendTicket& ticket : tickets) {
    while (!ticket->done) {
      if (!writer_active_ && !queue_.empty()) {
        LeadGroup(lock);
      } else {
        group_cv_.wait(lock);
      }
    }
    if (first_error.ok() && !ticket->status.ok()) {
      first_error = ticket->status;
    }
  }
  return first_error;
}

Status StorageManager::FlushPending() {
  // A manager whose Open failed before the writer was armed (lock file
  // contention, unrecoverable snapshot) has nothing to flush.
  if (wal_ == nullptr) return Status::OK();
  std::unique_lock<std::mutex> lock(group_mu_);
  while (writer_active_ || !queue_.empty()) {
    if (!writer_active_ && !queue_.empty()) {
      LeadGroup(lock);
    } else {
      group_cv_.wait(lock);
    }
  }
  return wal_->health();
}

Status StorageManager::AppendChecked(WalRecordType type,
                                     std::string_view body) {
  obs::TraceSpan enqueue_span(obs::TraceStage::kWalEnqueue);
  bool over_bytes = false;
  bool over_records = false;
  bool grouped;
  {
    std::lock_guard<std::mutex> lock(group_mu_);
    grouped = group_commit_;
    if (grouped) {
      auto ticket = std::make_shared<PendingAppend>();
      ticket->type = type;
      ticket->body.assign(body.data(), body.size());
      // Frame = [u32 len][u32 crc] + [u64 lsn][u8 type] + body.
      queued_bytes_ += 17 + body.size();
      queue_.push_back(ticket);
      unclaimed_.push_back(std::move(ticket));
      over_bytes = max_wal_bytes_ > 0 &&
                   wal_->file_bytes() + queued_bytes_ > max_wal_bytes_;
      over_records = max_wal_records_ > 0 &&
                     wal_->records() + queue_.size() > max_wal_records_;
    }
  }
  if (!grouped) {
    ORPHEUS_RETURN_NOT_OK(wal_->Append(type, body));
    over_bytes = max_wal_bytes_ > 0 && wal_->file_bytes() > max_wal_bytes_;
    over_records =
        max_wal_records_ > 0 && wal_->records() > max_wal_records_;
  }
  if (over_bytes || over_records) {
    // Safe here: the appender's caller holds the engine's exclusive
    // lock, so the in-memory state the snapshot encodes is stable and
    // no new enqueues can race the flush.
    return Checkpoint();
  }
  return Status::OK();
}

Status StorageManager::Checkpoint() {
  obs::TraceSpan checkpoint_span(obs::TraceStage::kCheckpoint);
  ORPHEUS_RETURN_NOT_OK(FlushPending());

  Manifest next;
  next.sequence = manifest_.sequence + 1;
  next.last_lsn = wal_->next_lsn() - 1;
  next.next_segment_id = manifest_.next_segment_id;

  std::map<std::string, const ManifestSegment*> live;
  for (const ManifestSegment& seg : manifest_.segments) {
    live[seg.table] = &seg;
  }

  CheckpointStats stats;
  std::map<std::string, uint64_t> observed_epochs;
  ORPHEUS_RETURN_NOT_OK(CreateDirectories(SegmentsDir(dir_)));
  for (const std::string& name : db_->db_.ListTables()) {
    const rel::Table* table = db_->db_.GetTable(name).value();
    const uint64_t epoch = table->epoch();
    observed_epochs[name] = epoch;

    auto clean = clean_epochs_.find(name);
    auto old_seg = live.find(name);
    if (incremental_ && old_seg != live.end() &&
        clean != clean_epochs_.end() && clean->second == epoch) {
      // Unchanged since its segment was encoded: carry it over.
      next.segments.push_back(*old_seg->second);
      ++stats.segments_reused;
      continue;
    }
    // Dirty (or full-rewrite mode): fresh segment under a fresh name.
    ManifestSegment seg;
    seg.table = name;
    seg.file = SegmentFileName(next.next_segment_id++);
    ORPHEUS_RETURN_NOT_OK(WriteSegmentFile(*table, SegmentPath(dir_, seg.file),
                                           IoFileClass::kSegment, &seg.size,
                                           &seg.crc));
    stats.bytes_written += seg.size;
    next.segments.push_back(std::move(seg));
    ++stats.segments_written;
  }
  if (stats.segments_written > 0) {
    // New segment files' directory entries must be durable before the
    // manifest references them.
    ORPHEUS_RETURN_NOT_OK(SyncDir(SegmentsDir(dir_)));
  }

  BinaryWriter meta;
  SnapshotCodec::EncodeMeta(*db_, &meta);
  next.meta = meta.Release();

  // The commit point: atomically replace the MANIFEST. Before the
  // rename lands, recovery sees the old manifest plus the full WAL;
  // after, the new manifest whose watermark skips those records.
  ORPHEUS_RETURN_NOT_OK(WriteFileAtomic(ManifestPath(dir_),
                                        EncodeManifest(next),
                                        IoFileClass::kManifest));

  manifest_ = std::move(next);
  clean_epochs_ = std::move(observed_epochs);
  last_stats_ = stats;

  // CheckpointStats promoted into the registry: last_stats_ stays the
  // per-checkpoint view, these accumulate across the process.
  obs::MetricsRegistry& reg = obs::GlobalMetrics();
  reg.GetCounter("orpheus_checkpoints_total", "Checkpoints committed.")->Inc();
  reg.GetCounter("orpheus_checkpoint_segments_written_total",
                 "Segment files rewritten by checkpoints.")
      ->Inc(static_cast<uint64_t>(stats.segments_written));
  reg.GetCounter("orpheus_checkpoint_segments_reused_total",
                 "Clean segment files carried over by checkpoints.")
      ->Inc(static_cast<uint64_t>(stats.segments_reused));
  reg.GetCounter("orpheus_checkpoint_bytes_written_total",
                 "Segment bytes written by checkpoints.")
      ->Inc(static_cast<uint64_t>(stats.bytes_written));

  // Cleanup after the commit point: failures here leave orphans (or a
  // stale-but-skipped WAL), both harmless and retried later.
  ORPHEUS_RETURN_NOT_OK(DeleteOrphanSegments(&last_stats_.segments_deleted));
  return wal_->Reset();
}

// --- Appenders ----------------------------------------------------------

Status StorageManager::LogCreateUser(const std::string& name) {
  BinaryWriter body;
  body.PutString(name);
  return AppendChecked(WalRecordType::kCreateUser, body.data());
}

Status StorageManager::LogLogin(const std::string& name) {
  BinaryWriter body;
  body.PutString(name);
  return AppendChecked(WalRecordType::kLogin, body.data());
}

Status StorageManager::LogInitCvd(const std::string& name,
                                  const core::CvdOptions& options,
                                  const std::string& message,
                                  const rel::Chunk& rows) {
  BinaryWriter body;
  body.PutString(name);
  body.PutU8(static_cast<uint8_t>(options.model));
  EncodeStringVec(options.primary_key, &body);
  body.PutString(message);
  EncodeChunk(rows, &body);
  return AppendChecked(WalRecordType::kInitCvd, body.data());
}

Status StorageManager::LogCheckout(const std::string& cvd_name,
                                   const std::vector<VersionId>& vids,
                                   const std::string& table_name) {
  BinaryWriter body;
  body.PutString(cvd_name);
  EncodeI64Vec(vids, &body);
  body.PutString(table_name);
  return AppendChecked(WalRecordType::kCheckout, body.data());
}

std::string StorageManager::EncodeCommitBody(const std::string& cvd_name,
                                             const core::CommitDelta& delta) {
  BinaryWriter body;
  body.PutString(cvd_name);
  body.PutString(delta.table_name);
  body.PutString(delta.message);
  body.PutI64(delta.vid);
  EncodeI64Vec(delta.parents, &body);
  EncodeI64Vec(delta.parent_weights, &body);
  EncodeSchema(delta.staged_schema, &body);
  EncodeI64Vec(delta.rids, &body);
  EncodeChunk(delta.new_records, &body);
  return body.Release();
}

Status StorageManager::DecodeCommitBody(std::string_view body,
                                        std::string* cvd_name,
                                        core::CommitDelta* delta) {
  BinaryReader r(body);
  *cvd_name = r.GetString();
  delta->table_name = r.GetString();
  delta->message = r.GetString();
  delta->vid = r.GetI64();
  ORPHEUS_ASSIGN_OR_RETURN(delta->parents, DecodeI64Vec(&r));
  ORPHEUS_ASSIGN_OR_RETURN(delta->parent_weights, DecodeI64Vec(&r));
  ORPHEUS_ASSIGN_OR_RETURN(delta->staged_schema, DecodeSchema(&r));
  ORPHEUS_ASSIGN_OR_RETURN(delta->rids, DecodeI64Vec(&r));
  ORPHEUS_ASSIGN_OR_RETURN(delta->new_records, DecodeChunk(&r));
  ORPHEUS_RETURN_NOT_OK(r.status());
  if (r.remaining() != 0) {
    return Status::Internal("commit record has trailing bytes");
  }
  return Status::OK();
}

Status StorageManager::LogCommit(const std::string& cvd_name,
                                 const core::CommitDelta& delta) {
  return AppendChecked(WalRecordType::kCommit,
                       EncodeCommitBody(cvd_name, delta));
}

Status StorageManager::LogDiscardStaged(const std::string& cvd_name,
                                        const std::string& table_name) {
  BinaryWriter body;
  body.PutString(cvd_name);
  body.PutString(table_name);
  return AppendChecked(WalRecordType::kDiscardStaged, body.data());
}

Status StorageManager::LogDropCvd(const std::string& cvd_name) {
  BinaryWriter body;
  body.PutString(cvd_name);
  return AppendChecked(WalRecordType::kDropCvd, body.data());
}

Status StorageManager::LogRepartition(
    const std::string& cvd_name,
    const std::vector<std::vector<VersionId>>& groups) {
  BinaryWriter body;
  body.PutString(cvd_name);
  body.PutU32(static_cast<uint32_t>(groups.size()));
  for (const std::vector<VersionId>& group : groups) EncodeI64Vec(group, &body);
  return AppendChecked(WalRecordType::kRepartition, body.data());
}

// --- Replay -------------------------------------------------------------

Status StorageManager::ApplyRecord(const WalRecord& record,
                                   bool materialize_checkout) {
  BinaryReader r(record.payload);
  switch (record.type) {
    case WalRecordType::kCreateUser: {
      std::string name = r.GetString();
      ORPHEUS_RETURN_NOT_OK(r.status());
      return db_->CreateUser(name);
    }
    case WalRecordType::kLogin: {
      std::string name = r.GetString();
      ORPHEUS_RETURN_NOT_OK(r.status());
      return db_->Login(name);
    }
    case WalRecordType::kInitCvd: {
      std::string name = r.GetString();
      core::CvdOptions options;
      uint8_t kind_raw = r.GetU8();
      if (kind_raw > static_cast<uint8_t>(core::DataModelKind::kDeltaBased)) {
        return Status::Internal("unknown data model tag in init record");
      }
      options.model = static_cast<core::DataModelKind>(kind_raw);
      ORPHEUS_ASSIGN_OR_RETURN(options.primary_key, DecodeStringVec(&r));
      std::string message = r.GetString();
      ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, DecodeChunk(&r));
      ORPHEUS_RETURN_NOT_OK(r.status());
      ORPHEUS_ASSIGN_OR_RETURN(
          core::Cvd * cvd,
          db_->InitCvd(name, rows, std::move(options), message));
      (void)cvd;
      return Status::OK();
    }
    case WalRecordType::kCheckout: {
      std::string cvd_name = r.GetString();
      ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> vids, DecodeI64Vec(&r));
      std::string table = r.GetString();
      ORPHEUS_RETURN_NOT_OK(r.status());
      if (!materialize_checkout) {
        ORPHEUS_ASSIGN_OR_RETURN(core::Cvd * cvd, db_->GetCvd(cvd_name));
        return cvd->Checkout(vids, table, /*materialize=*/false);
      }
      return db_->Checkout(cvd_name, vids, table);
    }
    case WalRecordType::kCommit: {
      std::string cvd_name;
      core::CommitDelta delta;
      ORPHEUS_RETURN_NOT_OK(DecodeCommitBody(record.payload, &cvd_name, &delta));
      return db_->ApplyCommit(cvd_name, delta).status();
    }
    case WalRecordType::kCommitChunk:
      return Status::NotSupported(
          "full-chunk commit records (type 5) are retired; this log predates "
          "commit deltas and cannot be replayed");
    case WalRecordType::kDiscardStaged: {
      std::string cvd_name = r.GetString();
      std::string table = r.GetString();
      ORPHEUS_RETURN_NOT_OK(r.status());
      return db_->DiscardStaged(cvd_name, table);
    }
    case WalRecordType::kDropCvd: {
      std::string cvd_name = r.GetString();
      ORPHEUS_RETURN_NOT_OK(r.status());
      return db_->DropCvd(cvd_name);
    }
    case WalRecordType::kRepartition: {
      std::string cvd_name = r.GetString();
      uint32_t num_groups = r.GetU32();
      part::Partitioning partitioning;
      for (uint32_t i = 0; i < num_groups && r.ok(); ++i) {
        ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> group, DecodeI64Vec(&r));
        partitioning.groups.push_back(std::move(group));
      }
      ORPHEUS_RETURN_NOT_OK(r.status());
      ORPHEUS_ASSIGN_OR_RETURN(core::Cvd * cvd, db_->GetCvd(cvd_name));
      auto* model = dynamic_cast<core::SplitByRlistModel*>(cvd->model());
      if (model == nullptr) {
        return Status::Internal("repartition record for non-rlist CVD " +
                                cvd_name);
      }
      std::map<VersionId, std::vector<core::RecordId>> version_rids;
      for (const std::vector<VersionId>& group : partitioning.groups) {
        for (VersionId vid : group) {
          ORPHEUS_ASSIGN_OR_RETURN(version_rids[vid],
                                   model->VersionRecords(vid));
        }
      }
      // Mirror the live `optimize` sequence exactly: detach (dropping
      // any previous partition tables) so the rebuilt store reuses the
      // same physical table names.
      db_->DetachPartitionStore(cvd_name);
      auto store = std::make_unique<part::PartitionStore>(
          db_->db(), cvd_name, model->DataTable());
      ORPHEUS_RETURN_NOT_OK(
          store->Build(partitioning, std::move(version_rids)));
      return db_->AttachPartitionStore(cvd_name, std::move(store));
    }
  }
  return Status::Internal("unknown WAL record type " +
                          std::to_string(static_cast<int>(record.type)));
}

}  // namespace orpheus::storage
