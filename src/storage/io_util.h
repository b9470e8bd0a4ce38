// Low-level helpers for the durable storage subsystem: a CRC32
// implementation (the WAL/snapshot checksum), little-endian binary
// encode/decode buffers, and POSIX file utilities with the usual
// crash-safety idioms (write-temp + fsync + atomic rename + fsync of
// the containing directory).
//
// Everything here is value-level and engine-agnostic; the snapshot and
// WAL codecs build on it.

#ifndef ORPHEUS_STORAGE_IO_UTIL_H_
#define ORPHEUS_STORAGE_IO_UTIL_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace orpheus::storage {

// Standard CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the
// same checksum zlib's crc32() computes. `seed` allows incremental
// checksumming: Crc32(b, Crc32(a)) == Crc32(a+b).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);
inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

// --- Binary encoding ---------------------------------------------------
//
// All integers are little-endian fixed-width; strings and byte blobs
// are u64-length-prefixed. Doubles are bit-cast to u64, so values
// (incl. NaN payloads) round-trip exactly — the recovery contract
// requires bit-identical restores.
//
// A writer normally buffers everything it is given. With a sink set it
// streams instead: Spill() hands the buffered bytes to the sink once at
// least `spill_bytes` are buffered, PutRaw passes blocks of that size
// or more straight through, and Flush() hands over the rest. Encoders
// call Spill() at points where a pause is cheap, so encoding a large
// table holds about `spill_bytes` at a time rather than all of it.
class BinaryWriter {
 public:
  using Sink = std::function<void(std::string_view)>;

  BinaryWriter() = default;
  BinaryWriter(Sink sink, size_t spill_bytes)
      : sink_(std::move(sink)), spill_bytes_(spill_bytes) {}

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLE(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutLE(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutString(std::string_view s) {
    PutU64(s.size());
    buf_.append(s.data(), s.size());
  }
  void PutRaw(const void* data, size_t size) {
    if (sink_ && size >= spill_bytes_) {
      Flush();
      sink_(std::string_view(static_cast<const char*>(data), size));
      return;
    }
    buf_.append(static_cast<const char*>(data), size);
  }

  void Spill() {
    if (sink_ && buf_.size() >= spill_bytes_) Flush();
  }
  void Flush() {
    if (!sink_ || buf_.empty()) return;
    sink_(buf_);
    buf_.clear();
  }

  // The buffered bytes (all of them when no sink is set).
  const std::string& data() const { return buf_; }
  std::string Release() { return std::move(buf_); }

 private:
  void PutLE(const void* v, size_t n) {
    // Little-endian host assumed (x86-64/aarch64 Linux); a big-endian
    // port would byte-swap here.
    buf_.append(static_cast<const char*>(v), n);
  }
  std::string buf_;
  Sink sink_;
  size_t spill_bytes_ = 0;
};

// Bounds-checked reader over a byte view. The first out-of-bounds read
// latches an error; callers check ok()/status() once at the end of a
// decode section instead of after every field (reads after a failure
// return zero values and never touch memory out of range).
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  uint8_t GetU8() {
    if (!Ensure(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLE(4)); }
  uint64_t GetU64() { return GetLE(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble() {
    uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string GetString() {
    uint64_t n = GetU64();
    if (!Ensure(n)) return std::string();
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
  }
  // Zero-copy view variant (valid while the underlying buffer lives).
  std::string_view GetStringView() {
    uint64_t n = GetU64();
    if (!Ensure(n)) return {};
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  bool GetRaw(void* out, size_t n) {
    if (!Ensure(n)) return false;
    // An empty vector's data() may be null, and memcpy(nullptr, _, 0)
    // is undefined behaviour.
    if (n > 0) std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ok() const { return ok_; }
  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  Status status() const {
    return ok_ ? Status::OK()
               : Status::Internal("binary decode ran past end of buffer");
  }

 private:
  bool Ensure(uint64_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }
  uint64_t GetLE(size_t n) {
    if (!Ensure(n)) return 0;
    uint64_t v = 0;
    std::memcpy(&v, data_.data() + pos_, n);
    pos_ += n;
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Small composite codecs shared by the snapshot and WAL payloads.
void EncodeStringVec(const std::vector<std::string>& strings, BinaryWriter* w);
Result<std::vector<std::string>> DecodeStringVec(BinaryReader* r);
void EncodeI64Vec(const std::vector<int64_t>& values, BinaryWriter* w);
Result<std::vector<int64_t>> DecodeI64Vec(BinaryReader* r);

// --- File helpers -------------------------------------------------------

bool FileExists(const std::string& path);
Result<int64_t> FileSize(const std::string& path);

// realpath(): the canonical absolute path, or NotFound if the path
// does not resolve. Used to compare directory identities ("./d" vs
// "d") rather than spellings.
Result<std::string> CanonicalPath(const std::string& path);

// mkdir -p. OK if the directory already exists.
Status CreateDirectories(const std::string& path);

// Reads a whole file into a string.
Result<std::string> ReadFileToString(const std::string& path);

// Durable file classes, used to route fault-injection plans (below) to
// the right write path. kNone is the default for files that are not
// part of the crash-recovery protocol (exports, test scratch).
enum class IoFileClass : int { kNone = -1, kWal = 0, kSegment = 1, kManifest = 2 };
inline constexpr int kNumIoFileClasses = 3;

// Crash-safe whole-file replace: writes `<path>.tmp`, fsyncs it,
// renames over `path`, and fsyncs the parent directory so the rename
// itself is durable. Readers see either the old or the new content,
// never a prefix. When `cls` is not kNone the write/sync/rename steps
// consult the fault-injection hooks for that class; an injected fault
// models a crash, so the torn `<path>.tmp` is left behind exactly as a
// real kill would leave it.
Status WriteFileAtomic(const std::string& path, std::string_view data,
                       IoFileClass cls = IoFileClass::kNone);

// Durable write of a file at its final name (no rename), fed in
// pieces: Open, Append..., Finish (fsync + close). Only correct for
// *fresh* names that nothing references yet (checkpoint segments: the
// file is invisible until a manifest lists it). The fault-injection
// hooks see one write per file, as WriteFileAtomic's do: an injected
// torn write keeps the first `torn` bytes of the whole stream, fails
// the Append that crosses that offset, and leaves the file behind as
// a crash would. A writer destroyed before Finish closes and removes
// its file.
class DurableFileWriter {
 public:
  DurableFileWriter(std::string path, IoFileClass cls)
      : path_(std::move(path)), cls_(cls) {}
  ~DurableFileWriter();
  DurableFileWriter(const DurableFileWriter&) = delete;
  DurableFileWriter& operator=(const DurableFileWriter&) = delete;

  Status Open();
  Status Append(std::string_view data);
  Status Finish();

 private:
  Status Fail(Status st, bool remove);

  std::string path_;
  IoFileClass cls_;
  int fd_ = -1;
  int64_t torn_ = -1;  // >= 0: an injected write fault after this many bytes
  uint64_t written_ = 0;
};

// unlink() with fault injection (ENOENT is OK — deletes are replayed
// idempotently during recovery). An injected fault returns an error
// without unlinking, modeling a crash just before the delete.
Status DeleteFileChecked(const std::string& path,
                         IoFileClass cls = IoFileClass::kNone);

// fsyncs a directory so completed creates/renames inside it survive a
// crash (segment files must be durable before the manifest names them).
Status SyncDir(const std::string& path);

// Non-recursive directory listing (names only, "."/".." excluded),
// sorted. NotFound if the directory does not exist.
Result<std::vector<std::string>> ListDir(const std::string& path);

// Truncates a file to `size` bytes (used to discard a torn WAL tail).
Status TruncateFile(const std::string& path, int64_t size);

// Advisory single-writer lock over a database directory: opens
// (creating if needed) `path` and takes a non-blocking exclusive
// flock(2) on it, returning the holding fd. Status::Unavailable when
// another holder — another process, or another open in this one — has
// it. The lock lives with the fd: ReleaseLockFile (or process exit,
// even by crash) releases it, so no stale-lockfile cleanup is needed.
Result<int> AcquireLockFile(const std::string& path);
void ReleaseLockFile(int fd);

// --- Deterministic fault injection (durability tests) -------------------
//
// The crash-recovery tests must be able to kill a durable write path at
// exact syscall boundaries — the Nth write()/fdatasync() of a commit
// group, the Nth segment write of a checkpoint, the manifest rename —
// instead of hoping a real kill lands there. Each durable file class
// (WAL, checkpoint segments, manifest) has its own independently armed
// plan and counters; with no plan armed (the default, and the only
// production state) the hooks cost one relaxed atomic load each and
// change nothing.

struct IoFaultPlan {
  // 1-based index of the write() that fails (0 = never fail). When it
  // fires, `torn_bytes` of the buffer are genuinely written first
  // (clamped to the buffer; -1 = nothing reaches the file), modeling a
  // torn tail exactly at that byte.
  int fail_write_at = 0;
  int64_t torn_bytes = -1;
  // 1-based index of the fdatasync/fsync that fails (0 = never).
  int fail_sync_at = 0;
  // Sleep injected into every sync (0 = none). Lets tests force commit
  // groups to form deterministically: while the leader is stuck in
  // "sync", concurrent committers pile into the next group.
  int sync_delay_ms = 0;
  // 1-based index of the rename() that fails (0 = never) — the
  // manifest's atomic-replace commit point.
  int fail_rename_at = 0;
  // 1-based index of the unlink() that fails (0 = never) — the
  // orphaned-segment cleanup after a checkpoint commits.
  int fail_delete_at = 0;
};

// Arms `plan` for one file class (other classes keep their state) and
// zeroes that class's per-plan syscall counters. Faults fire once (the
// counters keep advancing past the trigger).
void ArmIoFaults(IoFileClass cls, const IoFaultPlan& plan);
// Disarms every class.
void DisarmIoFaults();

// Process-wide totals of write()/sync calls issued per class since
// startup, counted whether or not a plan is armed — the sync-counter
// assertions ("N concurrent commits cost < N syncs") and the
// incremental-checkpoint assertions ("1 dirty table = 1 segment
// write") diff these. The totals live in the metrics registry
// (orpheus_io_{writes,syncs}_total{class=...}); these accessors are
// thin reads of the same counters, kept for the tests.
uint64_t IoWritesIssued(IoFileClass cls);
uint64_t IoSyncsIssued(IoFileClass cls);

// Internal (WalWriter / checkpoint writers): advances the counters and
// reports whether the armed plan says this syscall must fail.
// `*torn_bytes` receives how many bytes to really write before failing
// (-1 = none). The sync hook also applies the injected delay.
bool NextIoWriteFails(IoFileClass cls, int64_t* torn_bytes);
bool NextIoSyncFails(IoFileClass cls);
bool NextIoRenameFails(IoFileClass cls);
bool NextIoDeleteFails(IoFileClass cls);

// Creates a fresh temporary directory (mkdtemp) — tests and benches.
Result<std::string> MakeTempDir(const std::string& prefix);

// Recursively deletes a directory tree (test/bench cleanup).
Status RemoveDirRecursive(const std::string& path);

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_IO_UTIL_H_
