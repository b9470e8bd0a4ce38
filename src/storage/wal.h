// Commit WAL: an append-only log of the version-control verbs that
// changed engine state since the last snapshot, in the style of the
// RocksDB write-ahead log.
//
// Frame format (all little-endian):
//
//   [u32 length][u32 crc32][payload]
//   payload = [u64 lsn][u8 record type][type-specific body]
//
// `length` counts the payload bytes; `crc32` covers the payload. LSNs
// increase monotonically across the lifetime of a directory and never
// reset — the snapshot stores the LSN it covers, so a crash between
// "snapshot renamed" and "WAL truncated" is harmless: replay skips
// records at or below the watermark.
//
// Recovery tolerates a torn tail (the reader stops at the first frame
// that is short or fails its checksum, and the opener truncates the
// file there). Corruption before the tail also stops replay — records
// past a corrupt frame cannot be trusted to apply in order.

#ifndef ORPHEUS_STORAGE_WAL_H_
#define ORPHEUS_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace orpheus::storage {

enum class WalRecordType : uint8_t {
  kCreateUser = 1,
  kLogin = 2,
  kInitCvd = 3,
  kCheckout = 4,      // checkout / merging checkout (stages a table)
  kCommitChunk = 5,   // retired: a whole staged table; replay refuses it
  kDiscardStaged = 6,
  kDropCvd = 7,
  kRepartition = 8,   // partition-store (re)build from `optimize`
  kCommit = 9,        // a resolved commit delta (core::CommitDelta)
};

struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kCreateUser;
  std::string payload;  // type-specific body (lsn/type already parsed)
};

// Parses a WAL byte buffer. Returns every well-formed record with
// lsn > `after_lsn`, in file order. `*valid_bytes` receives the length
// of the well-formed prefix — anything past it is a torn or corrupt
// tail that the caller should truncate away.
std::vector<WalRecord> ParseWal(std::string_view data, uint64_t after_lsn,
                                size_t* valid_bytes);

// One entry of a commit-group batch (see AppendBatch).
struct WalAppendEntry {
  WalRecordType type;
  std::string_view body;
};

// Appender. One writer per directory; the StorageManager serializes
// access (either under the engine's exclusive lock, or through the
// single group-commit leader at a time).
class WalWriter {
 public:
  // Opens `path` for appending (creating it if needed). `next_lsn` is
  // the LSN the next record gets (replayers pass last-seen + 1);
  // `initial_records` seeds the record counter with the live records
  // already in the file (replayers pass how many they applied).
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t next_lsn,
                                                 uint64_t initial_records = 0);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one record and (by default) fdatasyncs — the returned OK
  // is the durability point of the logged operation.
  Status Append(WalRecordType type, std::string_view body);

  // Group-commit append: all `n` records become consecutive frames
  // with consecutive LSNs (first one reported via `*first_lsn`),
  // written with ONE write() and made durable with ONE fdatasync —
  // this is what lets N concurrent commits cost ~1 sync. On failure
  // every record in the batch shares the error and the writer is
  // poisoned: the file tail past the last synced frame is untrusted,
  // so later appends refuse until the directory is recovered afresh
  // (recovery truncates the torn tail).
  Status AppendBatch(const WalAppendEntry* entries, size_t n,
                     uint64_t* first_lsn = nullptr);

  // Empties the log after a checkpoint. The LSN counter keeps running.
  Status Reset();

  // OK while the writer is usable; the first failed append/sync
  // latches its error here (checked by Append/AppendBatch/Reset).
  Status health() const;

  uint64_t next_lsn() const { return next_lsn_.load(); }

  // Log growth since the last Reset — the auto-checkpoint policy's
  // inputs (storage_manager.h). Atomic: the policy check (under the
  // engine lock) races with a group leader's append (outside it).
  uint64_t file_bytes() const { return file_bytes_.load(); }
  uint64_t records() const { return records_.load(); }

  // fdatasyncs this writer issued — the group-commit tests' oracle
  // that N concurrent commits incurred < N syncs.
  uint64_t syncs() const { return syncs_.load(); }

  // Benches may trade durability for throughput; records still reach
  // the OS page cache on every append.
  void set_fsync(bool on) { fsync_ = on; }

 private:
  WalWriter(std::string path, int fd, uint64_t next_lsn, uint64_t file_bytes,
            uint64_t records)
      : path_(std::move(path)),
        fd_(fd),
        next_lsn_(next_lsn),
        file_bytes_(file_bytes),
        records_(records) {}

  std::string path_;
  int fd_;
  std::atomic<uint64_t> next_lsn_;
  std::atomic<uint64_t> file_bytes_;
  std::atomic<uint64_t> records_;
  std::atomic<uint64_t> syncs_{0};
  bool fsync_ = true;
  Status broken_ = Status::OK();  // latched first append failure
};

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_WAL_H_
