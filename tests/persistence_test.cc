// Durable storage subsystem tests: snapshot round-trips for all five
// data models, WAL replay, checkpointing, and the recovery edge cases
// the contract promises to survive — torn WAL tails at every byte
// boundary of the last record, CRC-corrupted records, snapshot
// format-version mismatches, and empty-directory opens. The
// crash-prefix property test is the acceptance bar: recovery from any
// WAL-record prefix reproduces the corresponding engine state
// bit-identically, across --threads {1, 4}.

#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli/command_processor.h"
#include "core/engine_api.h"
#include "common/thread_pool.h"
#include "core/orpheus.h"
#include "storage/io_util.h"
#include "storage/manifest.h"
#include "storage/segment.h"
#include "storage/snapshot.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"

namespace orpheus {
namespace {

using core::Cvd;
using core::CvdOptions;
using core::DataModelKind;
using core::OrpheusDB;
using core::VersionId;

// RAII temp directory.
class TempDir {
 public:
  TempDir() { path_ = storage::MakeTempDir("orpheus_persist_").ValueOrDie(); }
  ~TempDir() { (void)storage::RemoveDirRecursive(path_); }
  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string SnapPath(const std::string& dir) {
  return storage::StorageManager::SnapshotPath(dir);
}
std::string ManifestPath(const std::string& dir) {
  return storage::StorageManager::ManifestPath(dir);
}
std::string SegmentsDir(const std::string& dir) {
  return storage::StorageManager::SegmentsDir(dir);
}
std::string WalPath(const std::string& dir) {
  return storage::StorageManager::WalPath(dir);
}

// Byte-exact column/chunk comparison (doubles compared as bits).
void ExpectChunksEqual(const rel::Chunk& want, const rel::Chunk& got,
                       const std::string& context) {
  ASSERT_EQ(want.num_columns(), got.num_columns()) << context;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (int c = 0; c < want.num_columns(); ++c) {
    const std::string ctx =
        context + " column " + want.schema().column(c).name;
    ASSERT_EQ(want.schema().column(c).name, got.schema().column(c).name) << ctx;
    ASSERT_EQ(want.schema().column(c).type, got.schema().column(c).type) << ctx;
    const rel::Column& a = want.column(c);
    const rel::Column& b = got.column(c);
    ASSERT_EQ(a.type(), b.type()) << ctx;
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << ctx << " row " << r;
    }
    switch (a.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        ASSERT_EQ(a.ints(), b.ints()) << ctx;
        break;
      case rel::DataType::kDouble:
        ASSERT_EQ(a.doubles().size(), b.doubles().size()) << ctx;
        ASSERT_EQ(0, std::memcmp(a.doubles().data(), b.doubles().data(),
                                 a.doubles().size() * sizeof(double)))
            << ctx;
        break;
      case rel::DataType::kString:
        ASSERT_EQ(a.strings(), b.strings()) << ctx;
        break;
      case rel::DataType::kIntArray:
        ASSERT_EQ(a.arrays(), b.arrays()) << ctx;
        break;
      case rel::DataType::kNull:
        break;
    }
  }
}

// Full engine state reference: every table's payload plus the
// versioning surface. Captured after each operation in the crash
// tests, compared bit-exactly against recovered engines.
struct EngineRef {
  std::map<std::string, rel::Chunk> tables;
  std::vector<std::string> cvds;
  std::map<std::string, VersionId> latest;
  std::map<std::string, int64_t> total_records;
  std::map<std::string, std::vector<std::string>> staged;
  std::map<std::string, std::map<VersionId, rel::Chunk>> version_rows;
};

EngineRef Capture(OrpheusDB* db) {
  EngineRef ref;
  for (const std::string& name : db->db()->ListTables()) {
    ref.tables[name] = db->db()->GetTable(name).value()->data();
  }
  ref.cvds = db->ListCvds();
  for (const std::string& name : ref.cvds) {
    Cvd* cvd = db->GetCvd(name).value();
    ref.latest[name] = cvd->latest_version();
    ref.total_records[name] = cvd->total_records();
    for (const auto& [table, info] : cvd->staged_tables()) {
      ref.staged[name].push_back(table);
    }
    for (VersionId vid : cvd->graph().versions()) {
      ref.version_rows[name].emplace(
          vid, cvd->model()->VersionRows(vid).ValueOrDie());
    }
  }
  return ref;
}

void ExpectEngineEquals(const EngineRef& want, OrpheusDB* db,
                        const std::string& context) {
  std::vector<std::string> got_tables = db->db()->ListTables();
  std::vector<std::string> want_tables;
  for (const auto& [name, chunk] : want.tables) want_tables.push_back(name);
  ASSERT_EQ(want_tables, got_tables) << context;
  for (const auto& [name, chunk] : want.tables) {
    ExpectChunksEqual(chunk, db->db()->GetTable(name).value()->data(),
                      context + " table " + name);
  }
  ASSERT_EQ(want.cvds, db->ListCvds()) << context;
  for (const std::string& name : want.cvds) {
    Cvd* cvd = db->GetCvd(name).value();
    EXPECT_EQ(want.latest.at(name), cvd->latest_version()) << context;
    EXPECT_EQ(want.total_records.at(name), cvd->total_records()) << context;
    std::vector<std::string> staged;
    for (const auto& [table, info] : cvd->staged_tables()) {
      staged.push_back(table);
    }
    auto want_staged = want.staged.find(name);
    EXPECT_EQ(want_staged == want.staged.end() ? std::vector<std::string>{}
                                               : want_staged->second,
              staged)
        << context;
    for (const auto& [vid, rows] : want.version_rows.at(name)) {
      ExpectChunksEqual(rows, cvd->model()->VersionRows(vid).ValueOrDie(),
                        context + " " + name + " v" + std::to_string(vid));
    }
  }
}

// k INT (pk), name STRING, score DOUBLE.
rel::Chunk SampleRows(int n, int offset = 0) {
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("name", rel::DataType::kString);
  schema.AddColumn("score", rel::DataType::kDouble);
  rel::Chunk rows(schema);
  for (int i = 0; i < n; ++i) {
    rows.mutable_column(0).AppendInt(offset + i);
    rows.mutable_column(1).AppendString("item_" + std::to_string(offset + i));
    rows.mutable_column(2).AppendDouble(0.1 * (offset + i) - 3.5);
  }
  return rows;
}

void CopyFileIfExists(const std::string& from, const std::string& to) {
  if (!storage::FileExists(from)) return;
  std::string bytes = storage::ReadFileToString(from).ValueOrDie();
  ASSERT_TRUE(storage::WriteFileAtomic(to, bytes).ok());
}

// Clones the durable state — legacy snapshot, MANIFEST + segments,
// WAL — into a fresh directory (simulated crash copy; LOCK excluded).
void CloneDbDir(const std::string& from, const std::string& to) {
  ASSERT_TRUE(storage::CreateDirectories(to).ok());
  CopyFileIfExists(SnapPath(from), SnapPath(to));
  CopyFileIfExists(ManifestPath(from), ManifestPath(to));
  auto segments = storage::ListDir(SegmentsDir(from));
  if (segments.ok()) {
    ASSERT_TRUE(storage::CreateDirectories(SegmentsDir(to)).ok());
    for (const std::string& name : segments.value()) {
      CopyFileIfExists(SegmentsDir(from) + "/" + name,
                       SegmentsDir(to) + "/" + name);
    }
  }
  CopyFileIfExists(WalPath(from), WalPath(to));
}

// Offsets of WAL frame boundaries (end of each complete record).
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> boundaries;
  size_t pos = 0;
  while (bytes.size() - pos >= 8) {
    uint32_t length;
    std::memcpy(&length, bytes.data() + pos, sizeof(length));
    if (length < 9 || length > bytes.size() - pos - 8) break;
    pos += 8 + length;
    boundaries.push_back(pos);
  }
  return boundaries;
}

// --- io_util unit tests -------------------------------------------------

TEST(IoUtil, Crc32MatchesReferenceVector) {
  // The standard CRC-32 check value.
  EXPECT_EQ(0xCBF43926u, storage::Crc32("123456789"));
  EXPECT_EQ(0u, storage::Crc32(std::string_view()));
  // Incremental == one-shot.
  EXPECT_EQ(storage::Crc32("123456789"),
            storage::Crc32(std::string_view("456789"),
                           storage::Crc32(std::string_view("123"))));
}

TEST(IoUtil, BinaryRoundTrip) {
  storage::BinaryWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(1ull << 60);
  w.PutI64(-42);
  w.PutDouble(0.1);
  w.PutString("hello\0world");  // embedded NUL truncated by literal: fine
  storage::BinaryReader r(w.data());
  EXPECT_EQ(7, r.GetU8());
  EXPECT_EQ(0xDEADBEEFu, r.GetU32());
  EXPECT_EQ(1ull << 60, r.GetU64());
  EXPECT_EQ(-42, r.GetI64());
  EXPECT_EQ(0.1, r.GetDouble());
  EXPECT_EQ("hello", r.GetString());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(0u, r.remaining());
  // Reading past the end latches the error instead of crashing.
  EXPECT_EQ(0u, r.GetU64());
  EXPECT_FALSE(r.ok());
}

TEST(IoUtil, AtomicWriteAndReadBack) {
  TempDir dir;
  std::string path = dir.Sub("blob");
  ASSERT_TRUE(storage::WriteFileAtomic(path, "version 1").ok());
  ASSERT_TRUE(storage::WriteFileAtomic(path, "version 2").ok());
  EXPECT_EQ("version 2", storage::ReadFileToString(path).ValueOrDie());
  EXPECT_FALSE(storage::FileExists(path + ".tmp"));
}

// --- WAL unit tests -----------------------------------------------------

TEST(Wal, AppendParseRoundTripAndWatermark) {
  TempDir dir;
  std::string path = dir.Sub("wal.log");
  {
    auto writer = storage::WalWriter::Open(path, 1).ValueOrDie();
    ASSERT_TRUE(writer->Append(storage::WalRecordType::kCreateUser, "alice").ok());
    ASSERT_TRUE(writer->Append(storage::WalRecordType::kDropCvd, "t").ok());
    EXPECT_EQ(3u, writer->next_lsn());
  }
  std::string bytes = storage::ReadFileToString(path).ValueOrDie();
  size_t valid = 0;
  auto records = storage::ParseWal(bytes, 0, &valid);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(valid, bytes.size());
  EXPECT_EQ(1u, records[0].lsn);
  EXPECT_EQ(storage::WalRecordType::kCreateUser, records[0].type);
  EXPECT_EQ("alice", records[0].payload);
  EXPECT_EQ(2u, records[1].lsn);
  // The watermark skips already-snapshotted records.
  EXPECT_EQ(1u, storage::ParseWal(bytes, 1, &valid).size());
  EXPECT_EQ(0u, storage::ParseWal(bytes, 2, &valid).size());
}

TEST(Wal, TornTailStopsCleanly) {
  TempDir dir;
  std::string path = dir.Sub("wal.log");
  {
    auto writer = storage::WalWriter::Open(path, 1).ValueOrDie();
    ASSERT_TRUE(writer->Append(storage::WalRecordType::kCreateUser, "a").ok());
    ASSERT_TRUE(writer->Append(storage::WalRecordType::kCreateUser, "b").ok());
  }
  std::string bytes = storage::ReadFileToString(path).ValueOrDie();
  std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(2u, boundaries.size());
  for (size_t cut = boundaries[0]; cut < bytes.size(); ++cut) {
    size_t valid = 0;
    auto records =
        storage::ParseWal(std::string_view(bytes).substr(0, cut), 0, &valid);
    EXPECT_EQ(1u, records.size()) << "cut at " << cut;
    EXPECT_EQ(boundaries[0], valid) << "cut at " << cut;
  }
}

// --- Snapshot round trips ----------------------------------------------

class SnapshotAllModels : public ::testing::TestWithParam<DataModelKind> {};

TEST_P(SnapshotAllModels, RoundTripIsBitIdentical) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    CvdOptions options;
    options.model = GetParam();
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(8), options, "init").ok());
    // v2: modify + extend through the real staged-commit path.
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 9.25 WHERE k < 3").ok());
    ASSERT_TRUE(db.Commit("t", "w", "v2").ValueOrDie() == 2);
    // v3: schema evolution for the models that support it (the split
    // models); elsewhere stay within the fixed schema.
    ASSERT_TRUE(db.Checkout("t", {2}, "w2").ok());
    if (GetParam() == DataModelKind::kSplitByVlist ||
        GetParam() == DataModelKind::kSplitByRlist) {
      rel::Table* staged = db.db()->GetTable("w2").ValueOrDie();
      ASSERT_TRUE(staged->AddColumn("flag", rel::DataType::kInt64).ok());
      staged->mutable_chunk().mutable_column(4).Set(0, rel::Value::Int(1));
    } else {
      ASSERT_TRUE(
          db.db()->Execute("UPDATE w2 SET name = 'renamed' WHERE k = 5").ok());
    }
    ASSERT_TRUE(db.Commit("t", "w2", "v3").ValueOrDie() == 3);
    // Leave a staged checkout behind: the snapshot must carry it.
    ASSERT_TRUE(db.Checkout("t", {3}, "pending").ok());
    ASSERT_TRUE(db.CreateUser("alice").ok());
    ASSERT_TRUE(db.Login("alice").ok());

    ref = Capture(&db);
    ASSERT_TRUE(db.SaveSnapshot(dir.path()).ok());
  }
  OrpheusDB restored;
  ASSERT_TRUE(restored.Open(dir.path()).ok());
  ExpectEngineEquals(ref, &restored, "restored");
  EXPECT_EQ("alice", restored.WhoAmI());
  // The restored engine is fully operational: commit the surviving
  // staged table and check out the result.
  VersionId v4 = restored.Commit("t", "pending", "v4").ValueOrDie();
  EXPECT_EQ(4, v4);
  EXPECT_EQ(8u, restored.GetCvd("t")
                    .ValueOrDie()
                    ->model()
                    ->VersionRows(v4)
                    .ValueOrDie()
                    .num_rows());
}

INSTANTIATE_TEST_SUITE_P(AllModels, SnapshotAllModels,
                         ::testing::Values(DataModelKind::kTablePerVersion,
                                           DataModelKind::kCombinedTable,
                                           DataModelKind::kSplitByVlist,
                                           DataModelKind::kSplitByRlist,
                                           DataModelKind::kDeltaBased));

// --- WAL recovery -------------------------------------------------------

TEST(Persistence, WalReplayRestoresCommitsExactly) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    // Edit the checkout before committing: the commit record must
    // carry the edited rows, not the checkout result.
    ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = -1.5 WHERE k = 2").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "edited").ValueOrDie());
    ref = Capture(&db);
  }
  ASSERT_FALSE(storage::FileExists(SnapPath(dir.path())));  // WAL only
  EngineRef ref2;
  {
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ExpectEngineEquals(ref, &recovered, "wal replay");
    // While this engine lives it holds the directory LOCK: a second
    // open must be refused cleanly, not corrupt the WAL.
    OrpheusDB contender;
    EXPECT_FALSE(contender.Open(dir.path()).ok());
    // And the recovered engine keeps logging: another commit survives
    // a second reopen (after this engine closes and drops the LOCK).
    ASSERT_TRUE(recovered.Checkout("t", {2}, "w2").ok());
    ASSERT_EQ(3, recovered.Commit("t", "w2", "post-recovery").ValueOrDie());
    ref2 = Capture(&recovered);
  }
  OrpheusDB recovered2;
  ASSERT_TRUE(recovered2.Open(dir.path()).ok());
  ExpectEngineEquals(ref2, &recovered2, "second recovery");
}

TEST(Persistence, MergingCheckoutAndDurableVerbsReplay) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    ASSERT_TRUE(db.CreateUser("bob").ok());
    ASSERT_TRUE(db.Login("bob").ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(5), options, "init").ok());
    ASSERT_TRUE(db.InitCvd("gone", SampleRows(3), options, "init2").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "a").ok());
    ASSERT_TRUE(
        db.db()->Execute("UPDATE a SET name = 'x' WHERE k = 0").ok());
    ASSERT_EQ(2, db.Commit("t", "a", "v2").ValueOrDie());
    // Merging checkout across both branches, then commit.
    ASSERT_TRUE(db.Checkout("t", {2, 1}, "m").ok());
    ASSERT_EQ(3, db.Commit("t", "m", "merge").ValueOrDie());
    // A discarded staging table and a dropped CVD must replay too.
    ASSERT_TRUE(db.Checkout("t", {3}, "scratch").ok());
    ASSERT_TRUE(db.DiscardStaged("t", "scratch").ok());
    ASSERT_TRUE(db.DropCvd("gone").ok());
    ref = Capture(&db);
  }
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(ref, &recovered, "verbs replay");
  EXPECT_EQ("bob", recovered.WhoAmI());
  EXPECT_FALSE(recovered.GetCvd("gone").ok());
}

TEST(Persistence, CheckpointTruncatesWalAndRecovers) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(0, storage::FileSize(WalPath(dir.path())).ValueOrDie());
    // Post-checkpoint activity lands in the (fresh) WAL.
    ASSERT_TRUE(db.Checkout("t", {2}, "w2").ok());
    ASSERT_EQ(3, db.Commit("t", "w2", "v3").ValueOrDie());
    ref = Capture(&db);
  }
  EXPECT_GT(storage::FileSize(WalPath(dir.path())).ValueOrDie(), 0);
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(ref, &recovered, "checkpoint + tail");
}

TEST(Persistence, PartitionStoreSurvivesWalAndSnapshot) {
  TempDir dir;
  std::vector<std::vector<VersionId>> groups;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    for (VersionId v = 1; v <= 2; ++v) {
      std::string w = "w" + std::to_string(v);
      ASSERT_TRUE(db.Checkout("t", {v}, w).ok());
      ASSERT_TRUE(db.db()
                      ->Execute("UPDATE " + w + " SET score = " +
                                std::to_string(v) + ".5 WHERE k = 1")
                      .ok());
      ASSERT_EQ(v + 1, db.Commit("t", w, "step").ValueOrDie());
    }
    Cvd* cvd = db.GetCvd("t").ValueOrDie();
    auto* model = dynamic_cast<core::SplitByRlistModel*>(cvd->model());
    ASSERT_NE(nullptr, model);
    part::Partitioning partitioning;
    partitioning.groups = {{1, 2}, {3}};
    std::map<VersionId, std::vector<core::RecordId>> version_rids;
    for (VersionId v : {1, 2, 3}) {
      version_rids[v] = model->VersionRecords(v).ValueOrDie();
    }
    auto store = std::make_unique<part::PartitionStore>(db.db(), "t",
                                                        model->DataTable());
    ASSERT_TRUE(store->Build(partitioning, std::move(version_rids)).ok());
    ASSERT_TRUE(db.AttachPartitionStore("t", std::move(store)).ok());
    groups = db.partition_store("t")->VersionGroups();
    ref = Capture(&db);
  }
  // Pass 1: recovery must rebuild the store from the WAL record.
  {
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ExpectEngineEquals(ref, &recovered, "wal partition recovery");
    part::PartitionStore* store = recovered.partition_store("t");
    ASSERT_NE(nullptr, store);
    EXPECT_EQ(groups, store->VersionGroups());
    // Routing goes through the partition tables.
    auto tables = store->TablesFor(3).ValueOrDie();
    EXPECT_EQ(tables.first, "t_p1_data");
    // Checkout override serves the restored partitions.
    Cvd* cvd = recovered.GetCvd("t").ValueOrDie();
    ASSERT_TRUE(cvd->Checkout({3}, "out").ok());
    ExpectChunksEqual(ref.version_rows.at("t").at(3),
                      recovered.db()->GetTable("out").ValueOrDie()->data(),
                      "partitioned checkout");
    // Versioned SQL resolves through the restored store.
    rel::Chunk q =
        recovered.Run("SELECT k FROM VERSION 2 OF CVD t").ValueOrDie();
    EXPECT_EQ(6u, q.num_rows());
    ASSERT_TRUE(recovered.Checkpoint().ok());
  }
  // Pass 2: after the checkpoint the store must come back from the
  // snapshot codec path instead.
  OrpheusDB again;
  ASSERT_TRUE(again.Open(dir.path()).ok());
  part::PartitionStore* store = again.partition_store("t");
  ASSERT_NE(nullptr, store);
  EXPECT_EQ(groups, store->VersionGroups());
  Cvd* cvd = again.GetCvd("t").ValueOrDie();
  ASSERT_TRUE(cvd->Checkout({2}, "out2").ok());
  ExpectChunksEqual(ref.version_rows.at("t").at(2),
                    again.db()->GetTable("out2").ValueOrDie()->data(),
                    "snapshot partition checkout");
}

// --- Recovery edge cases ------------------------------------------------

TEST(Persistence, TornWalTailAtEveryByteOfLastRecord) {
  TempDir dir;
  EngineRef after_first;
  EngineRef after_second;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
    after_first = Capture(&db);
    ASSERT_TRUE(db.Checkout("t", {2}, "w2").ok());
    ASSERT_TRUE(db.db()->Execute("UPDATE w2 SET score = 7.0 WHERE k = 3").ok());
    ASSERT_EQ(3, db.Commit("t", "w2", "v3").ValueOrDie());
    after_second = Capture(&db);
  }
  std::string bytes =
      storage::ReadFileToString(WalPath(dir.path())).ValueOrDie();
  std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_GE(boundaries.size(), 2u);
  size_t last_start = boundaries[boundaries.size() - 2];
  // The state a cut inside the last record must recover: everything up
  // to and including the penultimate record (the w2 checkout).
  EngineRef expect_torn = after_first;
  {
    TempDir probe;
    CloneDbDir(dir.path(), probe.Sub("db"));
    ASSERT_TRUE(
        storage::TruncateFile(WalPath(probe.Sub("db")), last_start).ok());
    OrpheusDB base;
    ASSERT_TRUE(base.Open(probe.Sub("db")).ok());
    expect_torn = Capture(&base);
  }
  for (size_t cut = last_start; cut < bytes.size(); ++cut) {
    TempDir probe;
    std::string clone = probe.Sub("db");
    CloneDbDir(dir.path(), clone);
    ASSERT_TRUE(storage::TruncateFile(WalPath(clone), cut).ok());
    {
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(clone).ok()) << "cut at " << cut;
      ExpectEngineEquals(expect_torn, &recovered,
                         "cut at " + std::to_string(cut));
      // The torn tail was discarded on open, so new appends land on a
      // clean boundary and a re-open still works.
      EXPECT_LE(storage::FileSize(WalPath(clone)).ValueOrDie(),
                static_cast<int64_t>(cut));
      ASSERT_TRUE(recovered.Checkout("t", {2}, "fresh").ok());
    }
    OrpheusDB reopened;
    ASSERT_TRUE(reopened.Open(clone).ok()) << "reopen after cut " << cut;
  }
  // A cut exactly at the end recovers the full state.
  OrpheusDB full;
  ASSERT_TRUE(full.Open(dir.path()).ok());
  ExpectEngineEquals(after_second, &full, "no cut");
}

TEST(Persistence, CrcCorruptedRecordStopsReplayCleanly) {
  TempDir dir;
  EngineRef after_first;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
  }
  std::string bytes =
      storage::ReadFileToString(WalPath(dir.path())).ValueOrDie();
  std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_GE(boundaries.size(), 3u);
  // Corrupt one payload byte of the final (commit) record.
  {
    std::string corrupt = bytes;
    corrupt[boundaries[boundaries.size() - 2] + 8 + 3] ^= 0x40;
    TempDir probe;
    std::string clone = probe.Sub("db");
    CloneDbDir(dir.path(), clone);
    ASSERT_TRUE(storage::WriteFileAtomic(WalPath(clone), corrupt).ok());
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(clone).ok());
    // Last durable state before the corrupt record: checkout staged,
    // commit lost.
    EXPECT_EQ(1, recovered.GetCvd("t").ValueOrDie()->latest_version());
    EXPECT_EQ(1u, recovered.GetCvd("t").ValueOrDie()->staged_tables().count("w"));
  }
  // Corrupt the first record: nothing replays, the engine opens empty.
  {
    std::string corrupt = bytes;
    corrupt[8 + 10] ^= 0x01;
    TempDir probe;
    std::string clone = probe.Sub("db");
    CloneDbDir(dir.path(), clone);
    ASSERT_TRUE(storage::WriteFileAtomic(WalPath(clone), corrupt).ok());
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(clone).ok());
    EXPECT_TRUE(recovered.ListCvds().empty());
  }
}

TEST(Persistence, SnapshotFormatVersionMismatchFailsClearly) {
  TempDir dir;
  {
    OrpheusDB db;
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
    ASSERT_TRUE(db.SaveSnapshot(dir.path()).ok());
  }
  std::string blob = storage::ReadFileToString(SnapPath(dir.path())).ValueOrDie();
  blob[storage::kSnapshotVersionOffset] = 99;
  ASSERT_TRUE(storage::WriteFileAtomic(SnapPath(dir.path()), blob).ok());
  OrpheusDB db;
  Status st = db.Open(dir.path());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.message().find("version"))
      << st.ToString();
}

TEST(Persistence, CorruptSnapshotBodyFailsWithoutCrashing) {
  TempDir dir;
  {
    OrpheusDB db;
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
    ASSERT_TRUE(db.SaveSnapshot(dir.path()).ok());
  }
  std::string blob = storage::ReadFileToString(SnapPath(dir.path())).ValueOrDie();
  blob[blob.size() / 2] ^= 0x10;
  ASSERT_TRUE(storage::WriteFileAtomic(SnapPath(dir.path()), blob).ok());
  OrpheusDB db;
  Status st = db.Open(dir.path());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.message().find("checksum")) << st.ToString();
}

TEST(Persistence, EmptyDirectoryOpensFresh) {
  TempDir dir;
  std::string nested = dir.Sub("a/b/dbdir");
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(nested).ok());
    EXPECT_TRUE(db.ListCvds().empty());
    EXPECT_TRUE(db.durable());
    EXPECT_EQ(nested, db.storage_dir());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
  }
  OrpheusDB again;
  ASSERT_TRUE(again.Open(nested).ok());
  EXPECT_EQ(std::vector<std::string>{"t"}, again.ListCvds());
}

TEST(Persistence, OpenRequiresFreshEngine) {
  TempDir dir;
  OrpheusDB db;
  CvdOptions options;
  ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
  Status st = db.Open(dir.path());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  // And a second Open on a durable engine is rejected too.
  OrpheusDB db2;
  ASSERT_TRUE(db2.Open(dir.Sub("x")).ok());
  EXPECT_FALSE(db2.Open(dir.Sub("y")).ok());
  // Users created before Open would never reach the log, so a later
  // logged Login could reference a user replay cannot rebuild — the
  // open must refuse up front.
  OrpheusDB db3;
  ASSERT_TRUE(db3.CreateUser("bob").ok());
  Status st3 = db3.Open(dir.Sub("z"));
  ASSERT_FALSE(st3.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st3.code());
}

TEST(Persistence, CsvStagingNamesSkipReplayedTables) {
  TempDir dir;
  // Session 1: a checkout staged under the CLI's generated csvstage
  // name, left uncommitted.
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "t_csvstage_0").ok());
  }
  // Session 2: replay recreates t_csvstage_0; a fresh CLI processor's
  // counter restarts at 0 and must skip over it.
  cli::CommandProcessor processor;
  ASSERT_TRUE(processor.Execute("open " + dir.path()).ok());
  std::string csv = dir.Sub("out.csv");
  auto result = processor.Execute("checkout t -v 1 -f " + csv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(processor.orpheus()->db()->HasTable("t_csvstage_1"));
}

// --- The acceptance property: crash at any WAL-record prefix -----------

TEST(Persistence, CrashAtAnyWalRecordPrefixRecoversExactly) {
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    TempDir dir;
    std::vector<EngineRef> refs;  // refs[j] = state after j WAL records
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir.path()).ok());
      refs.push_back(Capture(&db));  // 0 records: empty engine
      CvdOptions options;
      options.primary_key = {"k"};
      // Each verb below emits exactly one WAL record; capture after
      // every one so record boundary j maps to refs[j].
      ASSERT_TRUE(db.CreateUser("alice").ok());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.InitCvd("t", SampleRows(5), options, "init").ok());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(
          db.db()->Execute("UPDATE w SET name = 'edit' WHERE k = 1").ok());
      ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.Checkout("t", {2, 1}, "m").ok());
      refs.push_back(Capture(&db));
      ASSERT_EQ(3, db.Commit("t", "m", "merge").ValueOrDie());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.Checkout("t", {3}, "junk").ok());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.DiscardStaged("t", "junk").ok());
      refs.push_back(Capture(&db));
    }
    std::string bytes =
        storage::ReadFileToString(WalPath(dir.path())).ValueOrDie();
    std::vector<size_t> boundaries = FrameBoundaries(bytes);
    ASSERT_EQ(refs.size() - 1, boundaries.size());
    for (size_t j = 0; j <= boundaries.size(); ++j) {
      size_t cut = j == 0 ? 0 : boundaries[j - 1];
      TempDir probe;
      std::string clone = probe.Sub("db");
      CloneDbDir(dir.path(), clone);
      ASSERT_TRUE(storage::TruncateFile(WalPath(clone), cut).ok());
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(clone).ok())
          << "threads=" << threads << " prefix=" << j;
      ExpectEngineEquals(refs[j], &recovered,
                         "threads=" + std::to_string(threads) + " prefix=" +
                             std::to_string(j));
    }
  }
  SetExecThreads(1);
}

// SaveSnapshot into the open durable directory would desync snapshot
// and WAL; the API must refuse and point at Checkpoint.
TEST(Persistence, SaveIntoOpenDirectoryIsRejected) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  Status st = db.SaveSnapshot(dir.path());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.message().find("Checkpoint"));
  // Aliases of the same directory must be caught too — a watermark-0
  // snapshot inside the live dir would double-replay the WAL.
  size_t slash = dir.path().find_last_of('/');
  std::string alias = dir.path().substr(0, slash + 1) + "./" +
                      dir.path().substr(slash + 1);
  Status st2 = db.SaveSnapshot(alias);
  ASSERT_FALSE(st2.ok());
  EXPECT_NE(std::string::npos, st2.message().find("Checkpoint"));
  // A genuinely different directory still works.
  EXPECT_TRUE(db.SaveSnapshot(dir.Sub("elsewhere")).ok());
}

// --- Directory LOCK ------------------------------------------------------

TEST(Persistence, LockFileRefusesSecondOpenCleanly) {
  TempDir dir;
  OrpheusDB first;
  ASSERT_TRUE(first.Open(dir.path()).ok());
  EXPECT_TRUE(storage::FileExists(dir.path() + "/LOCK"));

  // Second engine on the same directory: clean Unavailable, no crash,
  // and the holder is named in the message.
  OrpheusDB second;
  Status st = second.Open(dir.path());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kUnavailable, st.code());
  EXPECT_NE(std::string::npos, st.message().find("locked"));
  // The refused engine stays fresh and can open elsewhere.
  ASSERT_TRUE(second.Open(dir.Sub("other")).ok());
}

TEST(Persistence, LockFileReleasedOnClose) {
  TempDir dir;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
  }
  // The LOCK file remains on disk (flock, not existence, is the
  // guard), but the lock itself died with the holder.
  EXPECT_TRUE(storage::FileExists(dir.path() + "/LOCK"));
  OrpheusDB next;
  EXPECT_TRUE(next.Open(dir.path()).ok());
}

TEST(Persistence, RawStorageManagerRespectsLock) {
  TempDir dir;
  OrpheusDB holder;
  ASSERT_TRUE(holder.Open(dir.path()).ok());
  OrpheusDB probe;
  auto second = storage::StorageManager::Open(dir.path(), &probe);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(StatusCode::kUnavailable, second.status().code());
}

// --- Automatic checkpointing ---------------------------------------------

TEST(Persistence, AutoCheckpointTriggersOnWalBytes) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    // Tiny byte bound: every logged verb beyond the first handful
    // folds the WAL into a snapshot.
    db.storage()->SetAutoCheckpointPolicy(/*max_wal_bytes=*/256,
                                          /*max_wal_records=*/0);
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    for (int i = 0; i < 4; ++i) {
      std::string w = "w" + std::to_string(i);
      ASSERT_TRUE(db.Checkout("t", {1}, w).ok());
      ASSERT_TRUE(db.Commit("t", w, "round").ok());
    }
    EXPECT_TRUE(storage::FileExists(ManifestPath(dir.path())));
    EXPECT_LE(db.storage()->wal_bytes(), 256u + 1024u);
    ref = Capture(&db);
  }
  // Snapshot + residual WAL recover the exact state.
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(ref, &recovered, "auto-checkpoint recovery");
}

TEST(Persistence, AutoCheckpointTriggersOnRecordCount) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  db.storage()->SetAutoCheckpointPolicy(/*max_wal_bytes=*/0,
                                        /*max_wal_records=*/3);
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());  // 1
  ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());                       // 2
  ASSERT_TRUE(db.Commit("t", "w", "c1").ok());                        // 3
  EXPECT_FALSE(storage::FileExists(ManifestPath(dir.path())));
  ASSERT_TRUE(db.Checkout("t", {1}, "w2").ok());  // 4th record: trips
  EXPECT_TRUE(storage::FileExists(ManifestPath(dir.path())));
  EXPECT_EQ(0u, db.storage()->wal_records());
}

TEST(Persistence, AutoCheckpointCountsSurviveReopen) {
  TempDir dir;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    EXPECT_EQ(2u, db.storage()->wal_records());
  }
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  // The reopened writer knows how much live WAL it sits on, so the
  // policy keeps working across restarts.
  EXPECT_EQ(2u, db.storage()->wal_records());
  EXPECT_GT(db.storage()->wal_bytes(), 0u);
  db.storage()->SetAutoCheckpointPolicy(0, 2);
  ASSERT_TRUE(db.Checkout("t", {1}, "w2").ok());
  EXPECT_EQ(0u, db.storage()->wal_records());  // tripped and reset
  EXPECT_TRUE(storage::FileExists(ManifestPath(dir.path())));
}

// --- Fault-injected commit-group crash matrix ----------------------------
//
// Group commit batches several records into ONE write() + ONE
// fdatasync, so a crash mid-batch can tear the WAL at any byte of the
// batch buffer. The deterministic fault hooks (io_util.h) let these
// tests fail the batch write at exact byte offsets — and the failed
// sync — instead of hoping a kill lands there. The contract: recovery
// keeps exactly the whole records below the tear, truncates the rest,
// and a poisoned writer refuses to append past the damage.

// Disarms fault injection even when an ASSERT unwinds the test early.
struct FaultGuard {
  ~FaultGuard() { storage::DisarmIoFaults(); }
};

// The 4-record schedule every crash-matrix run replays identically:
// checkout, commit, checkout, commit against CVD "t" (version 1 is
// seeded and synced before the batch). With group commit on, all four
// records stay queued. `refs[k]` = in-memory state after k records.
void ApplyGroupSchedule(OrpheusDB* db, std::vector<EngineRef>* refs) {
  refs->push_back(Capture(db));
  ASSERT_TRUE(db->Checkout("t", {1}, "a").ok());
  refs->push_back(Capture(db));
  ASSERT_EQ(2, db->Commit("t", "a", "c1").ValueOrDie());
  refs->push_back(Capture(db));
  ASSERT_TRUE(db->Checkout("t", {1}, "b").ok());
  refs->push_back(Capture(db));
  ASSERT_EQ(3, db->Commit("t", "b", "c2").ValueOrDie());
  refs->push_back(Capture(db));
}

void SeedForGroupSchedule(OrpheusDB* db) {
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(db->InitCvd("t", SampleRows(6), options, "init").ok());
  db->storage()->SetGroupCommit(true);
}

TEST(Persistence, CommitGroupTornWriteCrashMatrix) {
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    // Reference run: same schedule, no faults. Yields the per-record
    // state refs and — because the WAL encoding is deterministic — the
    // frame boundaries every matrix run below will reproduce.
    TempDir ref_dir;
    std::vector<EngineRef> refs;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(ref_dir.path()).ok());
      SeedForGroupSchedule(&db);
      ApplyGroupSchedule(&db, &refs);
      ASSERT_TRUE(db.storage()->FlushPending().ok());
    }
    ASSERT_EQ(5u, refs.size());
    std::string bytes =
        storage::ReadFileToString(WalPath(ref_dir.path())).ValueOrDie();
    std::vector<size_t> boundaries = FrameBoundaries(bytes);
    ASSERT_EQ(5u, boundaries.size());  // init + the 4 batched records
    // Byte offsets inside the batch buffer (the init frame precedes it
    // in the file but not in the AppendBatch write).
    const size_t batch_start = boundaries[0];
    const int64_t batch_len = static_cast<int64_t>(bytes.size() - batch_start);
    std::vector<int64_t> rel_bounds;
    for (size_t i = 1; i < boundaries.size(); ++i) {
      rel_bounds.push_back(static_cast<int64_t>(boundaries[i] - batch_start));
    }

    // Tear points: around every frame boundary, mid-frame, nothing
    // written, and the full buffer (crash between write and sync).
    std::set<int64_t> cuts = {-1, 0, 1, batch_len};
    int64_t prev = 0;
    for (int64_t b : rel_bounds) {
      cuts.insert(b - 1);
      cuts.insert(b);
      cuts.insert(b + 1);
      cuts.insert(prev + (b - prev) / 2);
      prev = b;
    }

    TempDir matrix_root;
    for (int64_t cut : cuts) {
      if (cut < -1 || cut > batch_len) continue;
      const std::string dir =
          matrix_root.Sub("cut_" + std::to_string(threads) + "_" +
                          std::to_string(cut + 1));
      {
        OrpheusDB db;
        ASSERT_TRUE(db.Open(dir).ok());
        SeedForGroupSchedule(&db);
        std::vector<EngineRef> ignored;
        ApplyGroupSchedule(&db, &ignored);
        FaultGuard guard;
        storage::IoFaultPlan plan;
        plan.fail_write_at = 1;  // the batch is the 1st write while armed
        plan.torn_bytes = cut;
        storage::ArmIoFaults(storage::IoFileClass::kWal, plan);
        Status st = db.storage()->FlushPending();
        EXPECT_FALSE(st.ok()) << "cut=" << cut;
        // The poisoned writer refuses to append past the torn tail —
        // records after the damage would be unreadable. (Group mode
        // would accept the enqueue and fail the wait; the synchronous
        // path surfaces the latched error directly.)
        db.storage()->SetGroupCommit(false);
        EXPECT_FALSE(db.CreateUser("late").ok()) << "cut=" << cut;
      }
      // "Crash": the process state is gone, only the torn file remains.
      size_t survivors = 0;
      for (int64_t b : rel_bounds) {
        if (b <= cut) ++survivors;
      }
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(dir).ok()) << "cut=" << cut;
      ExpectEngineEquals(refs[survivors], &recovered,
                         "threads=" + std::to_string(threads) + " cut=" +
                             std::to_string(cut));
      // The torn tail was truncated away: the WAL ends on the last
      // whole frame, so the next appender starts at a clean boundary.
      int64_t wal_size = storage::FileSize(WalPath(dir)).ValueOrDie();
      int64_t want_size = static_cast<int64_t>(batch_start) +
                          (survivors == 0 ? 0 : rel_bounds[survivors - 1]);
      EXPECT_EQ(want_size, wal_size) << "cut=" << cut;
    }
  }
  SetExecThreads(1);
}

TEST(Persistence, CommitGroupSyncFailurePoisonsWriter) {
  TempDir dir;
  std::vector<EngineRef> refs;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    SeedForGroupSchedule(&db);
    ApplyGroupSchedule(&db, &refs);
    FaultGuard guard;
    storage::IoFaultPlan plan;
    plan.fail_sync_at = 1;  // the batch write lands, its fdatasync fails
    storage::ArmIoFaults(storage::IoFileClass::kWal, plan);
    Status st = db.storage()->FlushPending();
    EXPECT_FALSE(st.ok());
    storage::DisarmIoFaults();
    // A failed sync poisons the writer: neither the synchronous path
    // nor a checkpoint may run on top of records of unknown durability.
    db.storage()->SetGroupCommit(false);
    EXPECT_FALSE(db.CreateUser("late").ok());
    EXPECT_FALSE(db.Checkpoint().ok());
  }
  // The write() itself completed before the sync failed, so the frames
  // are in the file (durability was never promised — WaitDurable
  // errored — but recovery of what survives must still be exact).
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(refs.back(), &recovered, "after failed sync");
}

// --- Segmented checkpoints (storage format v2) --------------------------
//
// The v2 layout splits the old monolithic snapshot into one immutable
// segment file per table plus a CRC-checked MANIFEST whose atomic
// replace is the only commit point. These suites pin down the three
// promises that buys: incrementality (clean tables are never
// rewritten), crash-atomicity (a kill anywhere inside Checkpoint()
// recovers to exactly the pre- or post-checkpoint state, never a
// hybrid), and fail-clean corruption handling (any flipped byte turns
// Open into a Status that names the damaged file).

std::pair<int64_t, int64_t> FileMtime(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(0, ::stat(path.c_str(), &st)) << path;
  return {static_cast<int64_t>(st.st_mtim.tv_sec),
          static_cast<int64_t>(st.st_mtim.tv_nsec)};
}

void FlipByteInFile(const std::string& path, size_t pos) {
  std::string bytes = storage::ReadFileToString(path).ValueOrDie();
  ASSERT_LT(pos, bytes.size()) << path;
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x01);
  ASSERT_TRUE(storage::WriteFileAtomic(path, bytes).ok());
}

std::string SegPath(const std::string& dir, const std::string& file) {
  return storage::StorageManager::SegmentPath(dir, file);
}

// The headline acceptance test: with eight tables and one of them
// dirty, a checkpoint rewrites exactly that table's segment plus the
// manifest. Verified three independent ways — the stats counters, the
// io_util write counter, and the on-disk identity (file name, CRC,
// mtime) of the seven untouched segments.
TEST(SegmentedCheckpoint, OneDirtyTableOfEightRewritesOneSegment) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.db()
                    ->AdoptTable("t" + std::to_string(i),
                                 SampleRows(4, i * 10), {"k"})
                    .ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(8u, db.storage()->last_checkpoint_stats().segments_written);
  EXPECT_EQ(0u, db.storage()->last_checkpoint_stats().segments_reused);
  const storage::Manifest full = db.storage()->manifest();
  ASSERT_EQ(8u, full.segments.size());

  std::map<std::string, storage::ManifestSegment> before;
  std::map<std::string, std::pair<int64_t, int64_t>> mtimes;
  for (const storage::ManifestSegment& seg : full.segments) {
    before[seg.table] = seg;
    mtimes[seg.table] = FileMtime(SegPath(dir.path(), seg.file));
  }

  ASSERT_TRUE(db.db()->Execute("UPDATE t3 SET score = 99.5 WHERE k = 31").ok());
  const uint64_t seg_writes =
      storage::IoWritesIssued(storage::IoFileClass::kSegment);
  ASSERT_TRUE(db.Checkpoint().ok());
  const storage::StorageManager::CheckpointStats& stats =
      db.storage()->last_checkpoint_stats();
  EXPECT_EQ(1u, stats.segments_written);  // only t3
  EXPECT_EQ(7u, stats.segments_reused);
  EXPECT_EQ(1u, stats.segments_deleted);  // t3's superseded segment
  EXPECT_EQ(1u, storage::IoWritesIssued(storage::IoFileClass::kSegment) -
                    seg_writes);

  const storage::Manifest after = db.storage()->manifest();
  ASSERT_EQ(8u, after.segments.size());
  for (const storage::ManifestSegment& seg : after.segments) {
    const storage::ManifestSegment& old = before.at(seg.table);
    if (seg.table == "t3") {
      EXPECT_NE(old.file, seg.file);  // fresh name — names are never reused
    } else {
      EXPECT_EQ(old.file, seg.file);
      EXPECT_EQ(old.crc, seg.crc);
      EXPECT_EQ(mtimes.at(seg.table), FileMtime(SegPath(dir.path(), seg.file)))
          << seg.table << " was rewritten despite being clean";
    }
  }
  EXPECT_FALSE(storage::FileExists(SegPath(dir.path(), before.at("t3").file)));

  // The full-rewrite reference mode really does rewrite everything.
  db.storage()->set_incremental_checkpoint(false);
  ASSERT_TRUE(db.db()->Execute("UPDATE t3 SET score = 1.0 WHERE k = 31").ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(8u, db.storage()->last_checkpoint_stats().segments_written);
  EXPECT_EQ(0u, db.storage()->last_checkpoint_stats().segments_reused);
}

struct CheckpointFaultPlan {
  storage::IoFileClass cls;
  storage::IoFaultPlan fault;
  std::string what;
};

// Every syscall the checkpoint protocol issues, as injectable kill
// points: each segment write()/fsync, the manifest tmp-write, its
// sync, the commit rename, and each post-commit orphan delete.
std::vector<CheckpointFaultPlan> CheckpointKillPoints(int max_segment_ops,
                                                      int max_deletes) {
  std::vector<CheckpointFaultPlan> plans;
  auto add = [&plans](storage::IoFileClass cls, storage::IoFaultPlan fault,
                      std::string what) {
    plans.push_back({cls, fault, std::move(what)});
  };
  for (int w = 1; w <= max_segment_ops; ++w) {
    for (int64_t torn : {int64_t{-1}, int64_t{0}, int64_t{64}}) {
      storage::IoFaultPlan p;
      p.fail_write_at = w;
      p.torn_bytes = torn;
      add(storage::IoFileClass::kSegment, p,
          "segment write #" + std::to_string(w) + " torn at " +
              std::to_string(torn));
    }
    storage::IoFaultPlan s;
    s.fail_sync_at = w;
    add(storage::IoFileClass::kSegment, s,
        "segment sync #" + std::to_string(w));
  }
  for (int64_t torn : {int64_t{-1}, int64_t{0}, int64_t{64}}) {
    storage::IoFaultPlan p;
    p.fail_write_at = 1;
    p.torn_bytes = torn;
    add(storage::IoFileClass::kManifest, p,
        "manifest write torn at " + std::to_string(torn));
  }
  {
    storage::IoFaultPlan p;
    p.fail_sync_at = 1;
    add(storage::IoFileClass::kManifest, p, "manifest sync");
  }
  {
    storage::IoFaultPlan p;
    p.fail_rename_at = 1;
    add(storage::IoFileClass::kManifest, p, "manifest rename (commit point)");
  }
  for (int d = 1; d <= max_deletes; ++d) {
    storage::IoFaultPlan p;
    p.fail_delete_at = d;
    add(storage::IoFileClass::kSegment, p,
        "post-commit orphan delete #" + std::to_string(d));
  }
  return plans;
}

// A table whose segment spans several 1 MiB streaming pieces: an int
// column larger than a piece (passed straight through), strings and
// arrays (buffered, spilled between rows), NULLs in two columns.
std::unique_ptr<rel::Table> LargeSegmentTable() {
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("name", rel::DataType::kString);
  schema.AddColumn("score", rel::DataType::kDouble);
  schema.AddColumn("tags", rel::DataType::kIntArray);
  auto table = std::make_unique<rel::Table>("big", schema,
                                            std::vector<std::string>{"k"});
  rel::Chunk& rows = table->mutable_chunk();
  constexpr int kRows = 150000;
  for (int i = 0; i < kRows; ++i) {
    rows.mutable_column(0).AppendInt(i);
    rows.mutable_column(1).AppendString("name_" + std::to_string(i * 7919 % 100003));
    rows.mutable_column(2).AppendDouble(0.25 * i - 11.0);
    rows.mutable_column(3).AppendArray(rel::IntArray(static_cast<size_t>(i % 7), i));
  }
  for (int i = 0; i < kRows; i += 97) rows.mutable_column(1).SetNull(static_cast<size_t>(i));
  for (int i = 5; i < kRows; i += 131) rows.mutable_column(3).SetNull(static_cast<size_t>(i));
  EXPECT_TRUE(table->DeclareIndex("k").ok());
  return table;
}

// The same bytes the buffered encoder produces: header + table section.
std::string BufferedSegmentImage(const rel::Table& table) {
  storage::BinaryWriter body;
  storage::SnapshotCodec::EncodeTableSection(table, &body);
  storage::BinaryWriter file;
  file.PutRaw(storage::kSegmentMagic, 8);
  file.PutU32(storage::kStorageFormatVersion);
  file.PutU64(body.data().size());
  file.PutU32(storage::Crc32(body.data()));
  file.PutRaw(body.data().data(), body.data().size());
  return file.Release();
}

TEST(SegmentedCheckpoint, StreamedSegmentMatchesBufferedImage) {
  TempDir dir;
  std::unique_ptr<rel::Table> table = LargeSegmentTable();
  const std::string want = BufferedSegmentImage(*table);
  ASSERT_GT(want.size(), size_t{4} << 20);

  const std::string path = dir.Sub("seg-1.orps");
  uint64_t size = 0;
  uint32_t crc = 0;
  ASSERT_TRUE(storage::WriteSegmentFile(*table, path, storage::IoFileClass::kNone,
                                        &size, &crc)
                  .ok());
  const std::string got = storage::ReadFileToString(path).ValueOrDie();
  ASSERT_EQ(want.size(), got.size());
  EXPECT_TRUE(want == got);
  EXPECT_EQ(got.size(), size);
  EXPECT_EQ(storage::Crc32(got), crc);

  auto decoded = storage::DecodeSegmentFile(got, path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectChunksEqual(table->data(), decoded.value()->data(), "streamed segment");
  EXPECT_EQ(table->DeclaredIndexColumns(), decoded.value()->DeclaredIndexColumns());
}

// An injected torn write keeps exactly the first `torn` bytes of the
// whole stream, wherever the piece boundaries fall, and an injected
// sync fault leaves the complete file behind; both fail the write.
TEST(SegmentedCheckpoint, StreamedSegmentTornAtAnyOffsetFailsCleanly) {
  TempDir dir;
  std::unique_ptr<rel::Table> table = LargeSegmentTable();
  const std::string image = BufferedSegmentImage(*table);
  const int64_t n = static_cast<int64_t>(image.size());
  const int64_t piece = int64_t{1} << 20;
  const std::vector<int64_t> torn_at = {-1, 0, 1, 23, 24, 25, piece - 1, piece,
                                        piece + 1, n / 2, n - 1, n, n + 5};
  int i = 0;
  for (int64_t torn : torn_at) {
    SCOPED_TRACE("torn_bytes " + std::to_string(torn));
    const std::string path = dir.Sub("torn-" + std::to_string(i++) + ".orps");
    storage::IoFaultPlan plan;
    plan.fail_write_at = 1;
    plan.torn_bytes = torn;
    storage::ArmIoFaults(storage::IoFileClass::kSegment, plan);
    uint64_t size = 0;
    uint32_t crc = 0;
    Status st = storage::WriteSegmentFile(*table, path, storage::IoFileClass::kSegment,
                                          &size, &crc);
    storage::DisarmIoFaults();
    EXPECT_FALSE(st.ok());
    const std::string left = storage::ReadFileToString(path).ValueOrDie();
    const int64_t keep = std::min(std::max<int64_t>(torn, 0), n);
    ASSERT_EQ(static_cast<size_t>(keep), left.size());
    EXPECT_TRUE(image.compare(0, left.size(), left) == 0);
    if (keep < n) {
      EXPECT_FALSE(storage::DecodeSegmentFile(left, path).ok());
    }
  }

  const std::string path = dir.Sub("sync.orps");
  storage::IoFaultPlan plan;
  plan.fail_sync_at = 1;
  storage::ArmIoFaults(storage::IoFileClass::kSegment, plan);
  uint64_t size = 0;
  uint32_t crc = 0;
  Status st = storage::WriteSegmentFile(*table, path, storage::IoFileClass::kSegment,
                                        &size, &crc);
  storage::DisarmIoFaults();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(storage::ReadFileToString(path).ValueOrDie() == image);
}

// Crash matrix over WAL-logged mutations: the checkout/commit pair
// being folded also lives in the WAL, so no matter where the
// checkpoint dies, recovery must reproduce the live pre-crash state —
// before the manifest rename via old manifest + WAL replay, after it
// via the new manifest + the LSN watermark skipping replayed records.
TEST(SegmentedCheckpoint, CheckpointCrashMatrixRecoversExactState) {
  const std::vector<CheckpointFaultPlan> plans = CheckpointKillPoints(4, 2);
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    for (const CheckpointFaultPlan& plan : plans) {
      SCOPED_TRACE(plan.what + " threads=" + std::to_string(threads));
      TempDir dir;
      EngineRef ref;
      {
        OrpheusDB db;
        ASSERT_TRUE(db.Open(dir.path()).ok());
        CvdOptions options;
        options.primary_key = {"k"};
        ASSERT_TRUE(db.InitCvd("t", SampleRows(5), options, "init").ok());
        ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
        ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
        ASSERT_TRUE(db.Checkpoint().ok());  // baseline: everything clean
        ASSERT_TRUE(db.Checkout("t", {2}, "x").ok());
        ASSERT_EQ(3, db.Commit("t", "x", "v3").ValueOrDie());
        ref = Capture(&db);
        FaultGuard guard;
        storage::ArmIoFaults(plan.cls, plan.fault);
        Status st = db.Checkpoint();
        storage::DisarmIoFaults();
        // A plan indexing past the syscalls actually issued never
        // fires and the checkpoint simply succeeds; recovery must
        // land on the same state either way. Manifest plans always
        // fire — the manifest is written exactly once.
        if (plan.cls == storage::IoFileClass::kManifest) {
          EXPECT_FALSE(st.ok());
        }
      }  // engine dropped mid-protocol: the crash
      {
        OrpheusDB recovered;
        ASSERT_TRUE(recovered.Open(dir.path()).ok());
        ExpectEngineEquals(ref, &recovered, "recovered: " + plan.what);
        // The survivor directory stays fully serviceable.
        ASSERT_TRUE(recovered.Checkpoint().ok());
      }
      OrpheusDB again;
      ASSERT_TRUE(again.Open(dir.path()).ok());
      ExpectEngineEquals(ref, &again, "re-recovered: " + plan.what);
    }
  }
  SetExecThreads(1);
}

// Crash matrix over raw catalog mutations, which are NOT WAL-logged
// (durable only at the next checkpoint). A kill before the manifest
// rename must recover the exact pre-checkpoint state; a kill after it
// (orphan deletes) the exact post-checkpoint state. Both dirty tables
// move together or not at all — never a hybrid.
TEST(SegmentedCheckpoint, CrashLandsOnPreOrPostStateNeverHybrid) {
  const std::vector<CheckpointFaultPlan> plans = CheckpointKillPoints(2, 2);
  for (const CheckpointFaultPlan& plan : plans) {
    SCOPED_TRACE(plan.what);
    const bool post_commit = plan.fault.fail_delete_at > 0;
    TempDir dir;
    EngineRef pre, post;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir.path()).ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(db.db()
                        ->AdoptTable("t" + std::to_string(i),
                                     SampleRows(3, i * 10), {"k"})
                        .ok());
      }
      ASSERT_TRUE(db.Checkpoint().ok());
      pre = Capture(&db);
      ASSERT_TRUE(
          db.db()->Execute("UPDATE t1 SET name = 'dirty' WHERE k = 10").ok());
      ASSERT_TRUE(
          db.db()->Execute("UPDATE t2 SET score = 0.5 WHERE k = 20").ok());
      post = Capture(&db);
      FaultGuard guard;
      storage::ArmIoFaults(plan.cls, plan.fault);
      Status st = db.Checkpoint();
      storage::DisarmIoFaults();
      // Two dirty tables → two segment writes/syncs and two orphan
      // deletes, so every plan in this matrix fires.
      ASSERT_FALSE(st.ok());
    }
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ExpectEngineEquals(post_commit ? post : pre, &recovered,
                       std::string("recovered (expected ") +
                           (post_commit ? "post" : "pre") + "): " + plan.what);
  }
}

// Corruption sweep: a single flipped byte anywhere in any segment or
// in the manifest — header, body, or stored CRC — must turn Open into
// a clean error that names the damaged file. A missing referenced
// segment likewise; an orphaned junk segment is swept silently.
TEST(SegmentedCheckpoint, CorruptionSweepFailsCleanNamingTheFile) {
  TempDir base;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(base.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("a", SampleRows(4), options, "init").ok());
    ASSERT_TRUE(db.InitCvd("b", SampleRows(3, 50), options, "init").ok());
    ASSERT_TRUE(db.Checkout("a", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("a", "w", "v2").ValueOrDie());
    ASSERT_TRUE(db.Checkpoint().ok());
    ref = Capture(&db);
  }
  const std::vector<std::string> names =
      storage::ListDir(SegmentsDir(base.path())).ValueOrDie();
  ASSERT_GE(names.size(), 2u);
  TempDir clones;
  int id = 0;

  for (const std::string& name : names) {
    const size_t size =
        storage::FileSize(SegmentsDir(base.path()) + "/" + name).ValueOrDie();
    for (size_t pos : {size_t{0}, size / 2, size - 1}) {
      SCOPED_TRACE(name + " byte " + std::to_string(pos));
      const std::string clone = clones.Sub("seg" + std::to_string(id++));
      CloneDbDir(base.path(), clone);
      FlipByteInFile(SegmentsDir(clone) + "/" + name, pos);
      OrpheusDB db;
      Status st = db.Open(clone);
      ASSERT_FALSE(st.ok());
      EXPECT_NE(std::string::npos, st.message().find(name))
          << "error does not name the corrupt file: " << st.message();
    }
  }

  // Manifest positions: magic (0), format version (8), body length
  // (12), stored CRC (20), body middle, last body byte.
  const size_t msize =
      storage::FileSize(ManifestPath(base.path())).ValueOrDie();
  for (size_t pos : {size_t{0}, size_t{8}, size_t{12}, size_t{20},
                     size_t{24} + (msize - 24) / 2, msize - 1}) {
    SCOPED_TRACE("MANIFEST byte " + std::to_string(pos));
    const std::string clone = clones.Sub("man" + std::to_string(id++));
    CloneDbDir(base.path(), clone);
    FlipByteInFile(ManifestPath(clone), pos);
    OrpheusDB db;
    Status st = db.Open(clone);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(std::string::npos, st.message().find("MANIFEST"))
        << "error does not name the manifest: " << st.message();
  }

  {
    SCOPED_TRACE("missing segment " + names[0]);
    const std::string clone = clones.Sub("missing");
    CloneDbDir(base.path(), clone);
    ASSERT_TRUE(
        storage::DeleteFileChecked(SegmentsDir(clone) + "/" + names[0]).ok());
    OrpheusDB db;
    Status st = db.Open(clone);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(std::string::npos, st.message().find(names[0]))
        << "error does not name the missing file: " << st.message();
  }

  {
    SCOPED_TRACE("orphaned junk segment");
    const std::string clone = clones.Sub("orphan");
    CloneDbDir(base.path(), clone);
    const std::string junk = SegmentsDir(clone) + "/seg-zzzzzzzz.orps";
    ASSERT_TRUE(storage::WriteFileAtomic(junk, "not a segment").ok());
    OrpheusDB db;
    ASSERT_TRUE(db.Open(clone).ok());
    ExpectEngineEquals(ref, &db, "after orphan sweep");
    EXPECT_FALSE(storage::FileExists(junk));  // swept at recovery
  }
}

// A v1 directory (monolithic snapshot.orph, possibly with a WAL tail)
// opens exactly once in legacy mode, migrates to segments on the
// spot, and retires the old snapshot. The migrated directory is
// stable across further reopens.
TEST(SegmentedCheckpoint, V1SnapshotMigratesToSegmentsOnOpen) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;  // never Open()ed: builds in memory, exports v1
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(5), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
    ASSERT_TRUE(db.CreateUser("alice").ok());
    ASSERT_TRUE(db.SaveSnapshot(dir.path()).ok());
    ref = Capture(&db);
  }
  // A WAL tail past the snapshot, exactly as a v1 crash leaves it.
  {
    auto writer = storage::WalWriter::Open(WalPath(dir.path()), 1).ValueOrDie();
    storage::BinaryWriter body;
    body.PutString("bob");
    ASSERT_TRUE(
        writer->Append(storage::WalRecordType::kCreateUser, body.data()).ok());
  }
  ASSERT_TRUE(storage::FileExists(SnapPath(dir.path())));
  ASSERT_FALSE(storage::FileExists(ManifestPath(dir.path())));
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    ExpectEngineEquals(ref, &db, "migrated");
    EXPECT_TRUE(storage::FileExists(ManifestPath(dir.path())));
    EXPECT_FALSE(storage::FileExists(SnapPath(dir.path())));  // retired
    EXPECT_GE(db.storage()->manifest().segments.size(), 1u);
    // The migration checkpoint folded the WAL tail.
    EXPECT_EQ(0, storage::FileSize(WalPath(dir.path())).ValueOrDie());
    EXPECT_FALSE(db.CreateUser("alice").ok());  // from the snapshot
    EXPECT_FALSE(db.CreateUser("bob").ok());    // from the WAL tail
  }
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    ExpectEngineEquals(ref, &db, "reopened after migration");
    EXPECT_FALSE(db.CreateUser("bob").ok());
  }
}

// Property test (the concurrency_test oracle idiom): two engines fed
// an identical randomized schedule of checkouts, staged edits,
// commits, discards, checkpoints, and crash/reopen rounds must encode
// bit-identically under the portable v1 codec. Engine A checkpoints
// incrementally, engine B is pinned to full rewrites — so any dirty
// table the epoch tracking misses shows up as a byte diff here.
TEST(SegmentedCheckpoint, PropertyIncrementalMatchesFullRewrite) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetExecThreads(threads);
    TempDir dir_a;
    TempDir dir_b;
    auto a = std::make_unique<OrpheusDB>();
    auto b = std::make_unique<OrpheusDB>();
    ASSERT_TRUE(a->Open(dir_a.path()).ok());
    ASSERT_TRUE(b->Open(dir_b.path()).ok());
    b->storage()->set_incremental_checkpoint(false);
    CvdOptions options;
    options.primary_key = {"k"};
    for (OrpheusDB* e : {a.get(), b.get()}) {
      ASSERT_TRUE(e->InitCvd("c0", SampleRows(6), options, "init").ok());
      ASSERT_TRUE(e->InitCvd("c1", SampleRows(4, 100), options, "init").ok());
    }
    std::mt19937 rng(20260808u + static_cast<unsigned>(threads));
    std::vector<std::pair<std::string, std::string>> staged;  // (cvd, table)
    int serial = 0;
    for (int round = 0; round < 60; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const int op = static_cast<int>(rng() % 10);
      if (op < 4) {  // checkout a random version into a fresh table
        const std::string cvd = (rng() % 2 == 0) ? "c0" : "c1";
        const VersionId latest = a->GetCvd(cvd).value()->latest_version();
        const VersionId v = 1 + static_cast<VersionId>(rng() % latest);
        const std::string t = "s" + std::to_string(serial++);
        Status sa = a->Checkout(cvd, {v}, t);
        Status sb = b->Checkout(cvd, {v}, t);
        ASSERT_EQ(sa.ok(), sb.ok());
        if (sa.ok()) staged.emplace_back(cvd, t);
      } else if (op < 7) {  // edit + commit a random staged table
        if (staged.empty()) continue;
        const size_t i = rng() % staged.size();
        const auto [cvd, t] = staged[i];
        const std::string sql = "UPDATE " + t + " SET score = " +
                                std::to_string(round) + ".5 WHERE k >= 0";
        ASSERT_TRUE(a->db()->Execute(sql).ok());
        ASSERT_TRUE(b->db()->Execute(sql).ok());
        auto ra = a->Commit(cvd, t, "m" + std::to_string(round));
        auto rb = b->Commit(cvd, t, "m" + std::to_string(round));
        ASSERT_EQ(ra.ok(), rb.ok());
        if (ra.ok()) {
          const VersionId va = ra.value();
          const VersionId vb = rb.value();
          ASSERT_EQ(va, vb);
        }
        staged.erase(staged.begin() + static_cast<ptrdiff_t>(i));
      } else if (op == 7) {  // discard a random staged table
        if (staged.empty()) continue;
        const size_t i = rng() % staged.size();
        const auto [cvd, t] = staged[i];
        ASSERT_EQ(a->DiscardStaged(cvd, t).ok(), b->DiscardStaged(cvd, t).ok());
        staged.erase(staged.begin() + static_cast<ptrdiff_t>(i));
      } else if (op == 8) {  // checkpoint both
        ASSERT_TRUE(a->Checkpoint().ok());
        ASSERT_TRUE(b->Checkpoint().ok());
      } else {  // crash both and recover
        a = std::make_unique<OrpheusDB>();
        b = std::make_unique<OrpheusDB>();
        ASSERT_TRUE(a->Open(dir_a.path()).ok());
        ASSERT_TRUE(b->Open(dir_b.path()).ok());
        b->storage()->set_incremental_checkpoint(false);
      }
      if (round % 10 == 9) {
        ASSERT_EQ(storage::SnapshotCodec::Encode(*a, 0),
                  storage::SnapshotCodec::Encode(*b, 0));
      }
    }
    EXPECT_EQ(storage::SnapshotCodec::Encode(*a, 0),
              storage::SnapshotCodec::Encode(*b, 0));
    EngineRef ref = Capture(a.get());
    ExpectEngineEquals(ref, b.get(), "final A vs B");
  }
  SetExecThreads(1);
}


// --- Commit delta records -----------------------------------------------
//
// A commit is logged as its resolved delta (new records + the rid list)
// and replayed through OrpheusDB::ApplyCommit alone. These extend the
// oracles above to that record: live vs replayed bit-identity across a
// merge and schema-evolving commits, torn tails and CRC corruption of a
// delta record, malformed bodies, and the retired full-chunk type.

// Rebuilds staged table `w` through raw SQL with `select` as its column
// list — how a user adds or retypes an attribute in a checkout.
void RebuildStaged(OrpheusDB* db, const std::string& w,
                   const std::string& select) {
  ASSERT_TRUE(
      db->db()->Execute("SELECT " + select + " INTO " + w + "_tmp FROM " + w).ok());
  ASSERT_TRUE(db->db()->DropTable(w).ok());
  ASSERT_TRUE(db->db()->Execute("SELECT * INTO " + w + " FROM " + w + "_tmp").ok());
  ASSERT_TRUE(db->db()->DropTable(w + "_tmp").ok());
}

// Runs the delta-record script on `db`, capturing the engine after
// every WAL record (refs[j] = state after j records).
void RunDeltaScript(OrpheusDB* db, std::vector<EngineRef>* refs) {
  CvdOptions options;
  options.primary_key = {"k"};
  refs->push_back(Capture(db));
  ASSERT_TRUE(db->InitCvd("t", SampleRows(6), options, "init").ok());
  refs->push_back(Capture(db));
  // Two branches insert the same row: equal content, different rids.
  for (const std::string w : {"a", "b"}) {
    ASSERT_TRUE(db->Checkout("t", {1}, w).ok());
    refs->push_back(Capture(db));
    ASSERT_TRUE(db->db()
                    ->Execute("INSERT INTO " + w +
                              " (k, name, score) VALUES (100, 'dup', 1.0)")
                    .ok());
    ASSERT_TRUE(
        db->db()->Execute("UPDATE " + w + " SET name = '" + w + "' WHERE k = 1")
            .ok());
    ASSERT_TRUE(db->Commit("t", w, "branch " + w).ok());
    refs->push_back(Capture(db));
  }
  // Merge commit.
  ASSERT_TRUE(db->Checkout("t", {3, 2}, "m").ok());
  refs->push_back(Capture(db));
  ASSERT_EQ(4, db->Commit("t", "m", "merge").ValueOrDie());
  refs->push_back(Capture(db));
  // Schema evolution: an added attribute, then a widened one.
  ASSERT_TRUE(db->Checkout("t", {4}, "e").ok());
  refs->push_back(Capture(db));
  RebuildStaged(db, "e", "rid, k, name, score, k * 3 AS extra");
  ASSERT_EQ(5, db->Commit("t", "e", "add extra").ValueOrDie());
  refs->push_back(Capture(db));
  ASSERT_TRUE(db->Checkout("t", {5}, "x").ok());
  refs->push_back(Capture(db));
  RebuildStaged(db, "x", "rid, k, name, score, extra * 0.5 AS extra");
  ASSERT_EQ(6, db->Commit("t", "x", "widen extra").ValueOrDie());
  refs->push_back(Capture(db));
}

TEST(CommitDelta, ReplayIsBitIdenticalAcrossMergeAndSchemaEvolution) {
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    TempDir dir;
    std::vector<EngineRef> refs;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir.path()).ok());
      RunDeltaScript(&db, &refs);
      // The merge resolved the shared row to the first parent's record.
      Cvd* cvd = db.GetCvd("t").ValueOrDie();
      EXPECT_EQ(cvd->graph().GetNode(4).ValueOrDie()->parents,
                (std::vector<VersionId>{3, 2}));
    }
    std::string bytes =
        storage::ReadFileToString(WalPath(dir.path())).ValueOrDie();
    std::vector<size_t> boundaries = FrameBoundaries(bytes);
    ASSERT_EQ(refs.size() - 1, boundaries.size());
    for (size_t j = 0; j <= boundaries.size(); ++j) {
      TempDir probe;
      std::string clone = probe.Sub("db");
      CloneDbDir(dir.path(), clone);
      ASSERT_TRUE(
          storage::TruncateFile(WalPath(clone), j == 0 ? 0 : boundaries[j - 1])
              .ok());
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(clone).ok())
          << "threads=" << threads << " prefix=" << j;
      ExpectEngineEquals(refs[j], &recovered,
                         "threads=" + std::to_string(threads) + " prefix=" +
                             std::to_string(j));
    }
  }
  SetExecThreads(1);
}

TEST(CommitDelta, RecordCarriesTheChangeNotTheTable) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(db.InitCvd("t", SampleRows(2000), options, "init").ok());
  ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
  ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 0.25 WHERE k < 10").ok());
  const uint64_t before = db.storage()->wal_bytes();
  ASSERT_EQ(2, db.Commit("t", "w", "ten rows").ValueOrDie());
  const uint64_t record = db.storage()->wal_bytes() - before;
  // 2000 rids (8 B each) + 10 new records + framing; the staged table
  // alone is ~2000 x 35 B.
  EXPECT_GT(record, 2000u * 8);
  EXPECT_LT(record, 2000u * 8 + 2048);
}

TEST(CommitDelta, TornTailAndCrcCorruptionOfDeltaRecord) {
  TempDir dir;
  std::vector<EngineRef> refs;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    RunDeltaScript(&db, &refs);
  }
  std::string bytes =
      storage::ReadFileToString(WalPath(dir.path())).ValueOrDie();
  std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(refs.size() - 1, boundaries.size());
  // The last record is the schema-widening commit delta; a cut or a
  // flipped byte anywhere in it recovers the state before it.
  const size_t last_start = boundaries[boundaries.size() - 2];
  const EngineRef& before = refs[refs.size() - 2];
  for (size_t cut = last_start; cut < bytes.size(); ++cut) {
    TempDir probe;
    std::string clone = probe.Sub("db");
    CloneDbDir(dir.path(), clone);
    ASSERT_TRUE(storage::TruncateFile(WalPath(clone), cut).ok());
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(clone).ok()) << "cut at " << cut;
    ExpectEngineEquals(before, &recovered, "cut at " + std::to_string(cut));
  }
  for (size_t pos = last_start; pos < bytes.size(); pos += 5) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x20;
    TempDir probe;
    std::string clone = probe.Sub("db");
    CloneDbDir(dir.path(), clone);
    ASSERT_TRUE(storage::WriteFileAtomic(WalPath(clone), corrupt).ok());
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(clone).ok()) << "flip at " << pos;
    ExpectEngineEquals(before, &recovered, "flip at " + std::to_string(pos));
  }
}

// A directory whose WAL holds init + checkout of "w", plus the resolved
// (but never applied) delta of committing "w" with one edited row.
struct PendingCommit {
  TempDir dir;
  core::CommitDelta delta;
};

void MakePendingCommit(PendingCommit* out) {
  OrpheusDB db;
  ASSERT_TRUE(db.Open(out->dir.path()).ok());
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(db.InitCvd("t", SampleRows(5), options, "init").ok());
  ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
  ASSERT_TRUE(db.db()->Execute("UPDATE w SET name = 'z' WHERE k = 3").ok());
  out->delta =
      db.GetCvd("t").ValueOrDie()->ResolveCommit("w", "pending").ValueOrDie();
  ASSERT_EQ(1u, out->delta.new_records.num_rows());
}

// Clones `base`, appends one record of `type` with `body`, and opens.
Status OpenWithAppended(const std::string& base, storage::WalRecordType type,
                        const std::string& body, OrpheusDB* db) {
  TempDir probe;
  std::string clone = probe.Sub("db");
  CloneDbDir(base, clone);
  {
    auto writer = storage::WalWriter::Open(WalPath(clone), 1000).ValueOrDie();
    Status st = writer->Append(type, body);
    if (!st.ok()) return st;
  }
  return db->Open(clone);
}

TEST(CommitDelta, MalformedBodiesFailWithStatus) {
  PendingCommit pending;
  MakePendingCommit(&pending);
  const std::string base = pending.dir.path();
  const std::string valid = storage::StorageManager::EncodeCommitBody("t", pending.delta);
  {
    // Control: the untouched delta replays.
    OrpheusDB db;
    ASSERT_TRUE(OpenWithAppended(base, storage::WalRecordType::kCommit, valid, &db).ok());
    EXPECT_EQ(2, db.GetCvd("t").ValueOrDie()->latest_version());
    EXPECT_EQ(6, db.GetCvd("t").ValueOrDie()->total_records());
  }
  auto expect_refused = [&](const std::string& body, const std::string& what) {
    OrpheusDB db;
    Status st = OpenWithAppended(base, storage::WalRecordType::kCommit, body, &db);
    EXPECT_FALSE(st.ok()) << what;
    EXPECT_NE(std::string::npos, st.ToString().find("commit")) << what << ": "
                                                               << st.ToString();
  };
  // Every truncation, and trailing garbage.
  for (size_t len = 0; len < valid.size(); ++len) {
    expect_refused(valid.substr(0, len), "truncated to " + std::to_string(len));
  }
  expect_refused(valid + std::string(1, '\0'), "trailing byte");

  auto mutated = [&](const std::function<void(core::CommitDelta*)>& edit) {
    core::CommitDelta d = pending.delta;
    edit(&d);
    return storage::StorageManager::EncodeCommitBody("t", d);
  };
  const size_t new_at = static_cast<size_t>(
      std::find(pending.delta.rids.begin(), pending.delta.rids.end(), 5) -
      pending.delta.rids.begin());
  ASSERT_LT(new_at, pending.delta.rids.size());
  expect_refused(mutated([&](core::CommitDelta* d) { d->rids[new_at] = 0; }),
                 "new record never referenced");
  expect_refused(mutated([](core::CommitDelta* d) { d->rids.push_back(5); }),
                 "new record referenced twice");
  expect_refused(mutated([](core::CommitDelta* d) { d->rids.push_back(6); }),
                 "reference past the new records");
  expect_refused(mutated([](core::CommitDelta* d) {
                   d->new_records.mutable_column(0).Set(0, rel::Value::Int(2));
                 }),
                 "new record rid not fresh");
  expect_refused(mutated([](core::CommitDelta* d) { d->vid = 7; }),
                 "wrong version id");
  expect_refused(mutated([](core::CommitDelta* d) { d->parents = {1, 1}; }),
                 "parents differ from the checkout");
  expect_refused(mutated([](core::CommitDelta* d) { d->parent_weights.clear(); }),
                 "weight count mismatch");
  expect_refused(mutated([](core::CommitDelta* d) { d->table_name = "nope"; }),
                 "unknown staged table");
  expect_refused(mutated([](core::CommitDelta* d) {
                   rel::Chunk narrowed(rel::Schema(
                       {{"rid", rel::DataType::kInt64}, {"k", rel::DataType::kInt64}}));
                   narrowed.AppendRow({rel::Value::Int(5), rel::Value::Int(3)});
                   d->new_records = std::move(narrowed);
                 }),
                 "new record schema mismatch");

  // Seeded byte flips anywhere in the body (CRC kept valid): replay
  // either applies something well-formed or refuses — never crashes.
  std::mt19937 rng(1234);
  for (int i = 0; i < 150; ++i) {
    std::string body = valid;
    body[rng() % body.size()] ^= static_cast<char>(1 + rng() % 255);
    OrpheusDB db;
    (void)OpenWithAppended(base, storage::WalRecordType::kCommit, body, &db);
  }
}

// A commit that fails after planning schema evolution (here on a
// duplicate primary key) is not logged, so it must leave the schema as
// it was: live and recovered state agree.
TEST(CommitDelta, FailedSchemaEvolvingCommitChangesNothing) {
  TempDir dir;
  EngineRef live;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "e").ok());
    RebuildStaged(&db, "e", "rid, k, name, score, k * 3 AS extra");
    ASSERT_TRUE(db.db()
                    ->Execute("INSERT INTO e (k, name, score, extra) "
                              "VALUES (1, 'dup', 2.0, 9)")
                    .ok());
    Status st = db.Commit("t", "e", "add extra, duplicate key").status();
    ASSERT_EQ(StatusCode::kConstraintViolation, st.code()) << st.ToString();
    Cvd* cvd = db.GetCvd("t").ValueOrDie();
    EXPECT_EQ(3, cvd->model()->data_schema().num_columns());
    EXPECT_EQ(3u, cvd->attributes().size());
    ASSERT_TRUE(db.DiscardStaged("t", "e").ok());
    live = Capture(&db);
  }
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(live, &recovered, "after reopen");
}

TEST(CommitDelta, RetiredFullChunkCommitFailsByTypeTag) {
  PendingCommit pending;
  MakePendingCommit(&pending);
  // The retired body: cvd, table, message, whole staged chunk.
  storage::BinaryWriter body;
  body.PutString("t");
  body.PutString("w");
  body.PutString("old");
  storage::EncodeChunk(SampleRows(5), &body);
  OrpheusDB db;
  Status st = OpenWithAppended(pending.dir.path(),
                               storage::WalRecordType::kCommitChunk, body.data(), &db);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.ToString().find("commit_chunk")) << st.ToString();
  EXPECT_NE(std::string::npos, st.ToString().find("retired")) << st.ToString();
}

// Versions committed after `optimize` join their primary parent's
// partition: checkout and versioned SQL of them work live, after WAL
// replay, and after a checkpoint.
TEST(CommitDelta, CommitAfterOptimizeIsPlacedAndServed) {
  TempDir dir;
  rel::Chunk want_rows;
  auto check = [&](OrpheusDB* db, const std::string& context) {
    SCOPED_TRACE(context);
    part::PartitionStore* store = db->partition_store("t");
    ASSERT_NE(nullptr, store);
    for (VersionId v : {4, 5}) {
      EXPECT_TRUE(store->PartitionOf(v).ok()) << "v" << v;
      std::string table = "co" + std::to_string(v) + "_" + context;
      ASSERT_TRUE(db->Checkout("t", {v}, table).ok()) << "v" << v;
      EXPECT_EQ(v == 4 ? 7u : 8u,
                db->db()->GetTable(table).ValueOrDie()->num_rows());
      ASSERT_TRUE(db->DiscardStaged("t", table).ok());
      auto q = db->Run("SELECT k, score FROM VERSION " + std::to_string(v) +
                       " OF CVD t WHERE k >= 100");
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      EXPECT_EQ(v == 4 ? 1u : 2u, q.value().num_rows());
    }
    ExpectChunksEqual(want_rows,
                      db->GetCvd("t").ValueOrDie()->model()->VersionRows(5).ValueOrDie(),
                      "v5 rows");
  };
  {
    core::EngineApi api;
    OrpheusDB* db = api.orpheus();
    ASSERT_TRUE(db->Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db->InitCvd("t", SampleRows(6), options, "init").ok());
    for (VersionId v = 1; v <= 2; ++v) {
      std::string w = "w" + std::to_string(v);
      ASSERT_TRUE(db->Checkout("t", {v}, w).ok());
      ASSERT_TRUE(db->db()
                      ->Execute("UPDATE " + w + " SET score = " +
                                std::to_string(v) + ".5 WHERE k = 1")
                      .ok());
      ASSERT_EQ(v + 1, db->Commit("t", w, "step").ValueOrDie());
    }
    auto session = api.NewSession();
    ASSERT_TRUE(api.Execute(session.get(), "optimize t").ok());
    ASSERT_NE(nullptr, db->partition_store("t"));
    // v4 from a preloaded version, v5 from v4 (itself placed by commit).
    ASSERT_TRUE(db->Checkout("t", {3}, "n1").ok());
    ASSERT_TRUE(db->db()
                    ->Execute("INSERT INTO n1 (k, name, score) VALUES (100, 'new', 9.0)")
                    .ok());
    ASSERT_EQ(4, db->Commit("t", "n1", "after optimize").ValueOrDie());
    ASSERT_TRUE(db->Checkout("t", {4}, "n2").ok());
    ASSERT_TRUE(db->db()
                    ->Execute("INSERT INTO n2 (k, name, score) VALUES (101, 'newer', 9.5)")
                    .ok());
    ASSERT_EQ(5, db->Commit("t", "n2", "after optimize, again").ValueOrDie());
    want_rows = db->GetCvd("t").ValueOrDie()->model()->VersionRows(5).ValueOrDie();
    check(db, "live");
  }
  {
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    check(&recovered, "replayed");
    ASSERT_TRUE(recovered.Checkpoint().ok());
  }
  OrpheusDB again;
  ASSERT_TRUE(again.Open(dir.path()).ok());
  check(&again, "checkpointed");
}

}  // namespace
}  // namespace orpheus
