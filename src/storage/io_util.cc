#include "storage/io_util.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace orpheus::storage {

namespace {

// CRC-32 lookup table, generated once (reflected 0xEDB88320).
const uint32_t* CrcTable() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " failed for " + path + ": " +
                          std::strerror(errno));
}

// fsyncs the directory containing `path` so a completed rename/create
// inside it survives a crash.
Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open(dir)", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync(dir)", dir);
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const uint32_t* table = CrcTable();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void EncodeStringVec(const std::vector<std::string>& strings, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) w->PutString(s);
}

Result<std::vector<std::string>> DecodeStringVec(BinaryReader* r) {
  uint32_t n = r->GetU32();
  std::vector<std::string> out;
  for (uint32_t i = 0; i < n && r->ok(); ++i) out.push_back(r->GetString());
  ORPHEUS_RETURN_NOT_OK(r->status());
  return out;
}

void EncodeI64Vec(const std::vector<int64_t>& values, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(values.size()));
  w->PutRaw(values.data(), values.size() * sizeof(int64_t));
}

Result<std::vector<int64_t>> DecodeI64Vec(BinaryReader* r) {
  uint32_t n = r->GetU32();
  if (!r->ok() || r->remaining() < static_cast<uint64_t>(n) * sizeof(int64_t)) {
    return Status::Internal("binary decode: truncated int64 vector");
  }
  std::vector<int64_t> out(n);
  r->GetRaw(out.data(), n * sizeof(int64_t));
  return out;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<int64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
  return static_cast<int64_t>(st.st_size);
}

Result<std::string> CanonicalPath(const std::string& path) {
  char* resolved = ::realpath(path.c_str(), nullptr);
  if (resolved == nullptr) {
    return Status::NotFound("cannot resolve path: " + path + ": " +
                            std::strerror(errno));
  }
  std::string out(resolved);
  ::free(resolved);
  return out;
}

Status CreateDirectories(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  std::string partial;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    partial = path.substr(0, slash);
    pos = slash + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
      return Errno("mkdir", partial);
    }
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("not a directory: " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Errno("open", path);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read", path);
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

namespace {

// Body of WriteFileAtomic: writes `data` to
// `target`, fsyncs, with the class's fault hooks applied. On an
// injected fault the (possibly torn) file is LEFT BEHIND — an injected
// fault models a crash, and a crash does not clean up.
Status WriteAndSync(const std::string& target, std::string_view data,
                    IoFileClass cls) {
  int fd = ::open(target.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return Errno("open", target);
  int64_t torn = -1;
  if (cls != IoFileClass::kNone && NextIoWriteFails(cls, &torn)) {
    if (torn > 0) {
      size_t keep = std::min(static_cast<size_t>(torn), data.size());
      ssize_t rc = ::write(fd, data.data(), keep);
      (void)rc;
    }
    ::close(fd);
    return Status::Internal("injected write fault for " + target);
  }
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(target.c_str());
      return Errno("write", target);
    }
    written += static_cast<size_t>(n);
  }
  if (cls != IoFileClass::kNone && NextIoSyncFails(cls)) {
    ::close(fd);
    return Status::Internal("injected sync fault for " + target);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(target.c_str());
    return Errno("fsync", target);
  }
  if (::close(fd) != 0) {
    ::unlink(target.c_str());
    return Errno("close", target);
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view data,
                       IoFileClass cls) {
  const std::string tmp = path + ".tmp";
  ORPHEUS_RETURN_NOT_OK(WriteAndSync(tmp, data, cls));
  if (cls != IoFileClass::kNone && NextIoRenameFails(cls)) {
    return Status::Internal("injected rename fault for " + path);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Errno("rename", path);
  }
  return SyncParentDir(path);
}

DurableFileWriter::~DurableFileWriter() {
  if (fd_ >= 0) (void)Fail(Status::OK(), /*remove=*/true);
}

Status DurableFileWriter::Fail(Status st, bool remove) {
  ::close(fd_);
  fd_ = -1;
  if (remove) ::unlink(path_.c_str());
  return st;
}

Status DurableFileWriter::Open() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd_ < 0) return Errno("open", path_);
  if (cls_ != IoFileClass::kNone && NextIoWriteFails(cls_, &torn_)) {
    torn_ = std::max<int64_t>(torn_, 0);
    if (torn_ == 0) {
      return Fail(Status::Internal("injected write fault for " + path_), false);
    }
  } else {
    torn_ = -1;
  }
  return Status::OK();
}

Status DurableFileWriter::Append(std::string_view data) {
  if (fd_ < 0) return Status::Internal("write to a closed file: " + path_);
  bool inject = false;
  if (torn_ >= 0 && written_ + data.size() >= static_cast<uint64_t>(torn_)) {
    data = data.substr(0, static_cast<size_t>(torn_) - written_);
    inject = true;
  }
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Errno("write", path_);
      return Fail(std::move(st), /*remove=*/true);
    }
    done += static_cast<size_t>(n);
  }
  written_ += done;
  if (inject) {
    return Fail(Status::Internal("injected write fault for " + path_), false);
  }
  return Status::OK();
}

Status DurableFileWriter::Finish() {
  if (fd_ < 0) return Status::Internal("finish of a closed file: " + path_);
  if (torn_ >= 0) {
    // The whole stream was shorter than the torn prefix: the file holds
    // all of it, and the write still fails.
    return Fail(Status::Internal("injected write fault for " + path_), false);
  }
  if (cls_ != IoFileClass::kNone && NextIoSyncFails(cls_)) {
    return Fail(Status::Internal("injected sync fault for " + path_), false);
  }
  if (::fsync(fd_) != 0) {
    Status st = Errno("fsync", path_);
    return Fail(std::move(st), /*remove=*/true);
  }
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    Status st = Errno("close", path_);
    ::unlink(path_.c_str());
    return st;
  }
  return Status::OK();
}

Status DeleteFileChecked(const std::string& path, IoFileClass cls) {
  if (cls != IoFileClass::kNone && NextIoDeleteFails(cls)) {
    return Status::Internal("injected delete fault for " + path);
  }
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Errno("unlink", path);
  }
  return Status::OK();
}

Status SyncDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open(dir)", path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync(dir)", path);
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such directory: " + path);
    return Errno("opendir", path);
  }
  std::vector<std::string> names;
  struct dirent* entry;
  while ((entry = ::readdir(dir)) != nullptr) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

Status TruncateFile(const std::string& path, int64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Errno("truncate", path);
  }
  return Status::OK();
}

Result<int> AcquireLockFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0666);
  if (fd < 0) return Errno("open", path);
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    int saved = errno;
    ::close(fd);
    if (saved == EWOULDBLOCK || saved == EAGAIN) {
      return Status::Unavailable("database directory is locked by another "
                                 "process (lock file " + path + ")");
    }
    errno = saved;
    return Errno("flock", path);
  }
  return fd;
}

void ReleaseLockFile(int fd) {
  // close() drops the flock held through this open file description.
  if (fd >= 0) ::close(fd);
}

namespace {

// Fault-injection state, one slot per durable file class. A class's
// plan is written only from test threads while that write path is
// quiescent (Arm/Disarm contract), but the counters race with
// concurrent writers, so everything the hot path touches is atomic.
struct FaultSlot {
  std::atomic<bool> armed{false};
  IoFaultPlan plan;                     // valid while armed
  std::atomic<uint64_t> plan_writes{0};   // since last Arm
  std::atomic<uint64_t> plan_syncs{0};
  std::atomic<uint64_t> plan_renames{0};
  std::atomic<uint64_t> plan_deletes{0};
};

std::mutex g_fault_mu;  // guards every slot's plan
FaultSlot g_fault_slots[kNumIoFileClasses];

FaultSlot& Slot(IoFileClass cls) {
  return g_fault_slots[static_cast<int>(cls)];
}

// The process-wide write()/sync totals per class live in the metrics
// registry (orpheus_io_{writes,syncs}_total{class=...}); these cached
// lookups keep the hot-path cost at one relaxed atomic add. They are
// bumped with IncAlways(): the totals double as test oracles for the
// sync-accounting assertions and must not pause when a bench flips
// SetMetricsEnabled(false).
obs::Counter* IoWriteCounter(IoFileClass cls) {
  static obs::Counter* counters[kNumIoFileClasses] = {
      obs::GlobalMetrics().GetCounter(
          "orpheus_io_writes_total",
          "write() calls issued per durable file class.", {{"class", "wal"}}),
      obs::GlobalMetrics().GetCounter(
          "orpheus_io_writes_total",
          "write() calls issued per durable file class.",
          {{"class", "segment"}}),
      obs::GlobalMetrics().GetCounter(
          "orpheus_io_writes_total",
          "write() calls issued per durable file class.",
          {{"class", "manifest"}})};
  return counters[static_cast<int>(cls)];
}

obs::Counter* IoSyncCounter(IoFileClass cls) {
  static obs::Counter* counters[kNumIoFileClasses] = {
      obs::GlobalMetrics().GetCounter(
          "orpheus_io_syncs_total",
          "fsync()/fdatasync() calls issued per durable file class.",
          {{"class", "wal"}}),
      obs::GlobalMetrics().GetCounter(
          "orpheus_io_syncs_total",
          "fsync()/fdatasync() calls issued per durable file class.",
          {{"class", "segment"}}),
      obs::GlobalMetrics().GetCounter(
          "orpheus_io_syncs_total",
          "fsync()/fdatasync() calls issued per durable file class.",
          {{"class", "manifest"}})};
  return counters[static_cast<int>(cls)];
}

}  // namespace

void ArmIoFaults(IoFileClass cls, const IoFaultPlan& plan) {
  FaultSlot& s = Slot(cls);
  std::lock_guard<std::mutex> lock(g_fault_mu);
  s.plan = plan;
  s.plan_writes.store(0);
  s.plan_syncs.store(0);
  s.plan_renames.store(0);
  s.plan_deletes.store(0);
  s.armed.store(true, std::memory_order_release);
}

void DisarmIoFaults() {
  for (FaultSlot& s : g_fault_slots) {
    s.armed.store(false, std::memory_order_release);
  }
}

uint64_t IoWritesIssued(IoFileClass cls) { return IoWriteCounter(cls)->Value(); }
uint64_t IoSyncsIssued(IoFileClass cls) { return IoSyncCounter(cls)->Value(); }

bool NextIoWriteFails(IoFileClass cls, int64_t* torn_bytes) {
  FaultSlot& s = Slot(cls);
  IoWriteCounter(cls)->IncAlways();
  *torn_bytes = -1;
  if (!s.armed.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(g_fault_mu);
  uint64_t n = s.plan_writes.fetch_add(1) + 1;
  if (s.plan.fail_write_at != 0 &&
      n == static_cast<uint64_t>(s.plan.fail_write_at)) {
    *torn_bytes = s.plan.torn_bytes;
    return true;
  }
  return false;
}

bool NextIoSyncFails(IoFileClass cls) {
  FaultSlot& s = Slot(cls);
  IoSyncCounter(cls)->IncAlways();
  if (!s.armed.load(std::memory_order_acquire)) return false;
  int delay_ms = 0;
  bool fail = false;
  {
    std::lock_guard<std::mutex> lock(g_fault_mu);
    delay_ms = s.plan.sync_delay_ms;
    uint64_t n = s.plan_syncs.fetch_add(1) + 1;
    fail = s.plan.fail_sync_at != 0 &&
           n == static_cast<uint64_t>(s.plan.fail_sync_at);
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return fail;
}

bool NextIoRenameFails(IoFileClass cls) {
  FaultSlot& s = Slot(cls);
  if (!s.armed.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(g_fault_mu);
  uint64_t n = s.plan_renames.fetch_add(1) + 1;
  return s.plan.fail_rename_at != 0 &&
         n == static_cast<uint64_t>(s.plan.fail_rename_at);
}

bool NextIoDeleteFails(IoFileClass cls) {
  FaultSlot& s = Slot(cls);
  if (!s.armed.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(g_fault_mu);
  uint64_t n = s.plan_deletes.fetch_add(1) + 1;
  return s.plan.fail_delete_at != 0 &&
         n == static_cast<uint64_t>(s.plan.fail_delete_at);
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  const char* base = ::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") + "/" +
                     prefix + "XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) return Errno("mkdtemp", tmpl);
  return std::string(buf.data());
}

Status RemoveDirRecursive(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Errno("opendir", path);
  }
  struct dirent* entry;
  while ((entry = ::readdir(dir)) != nullptr) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    std::string child = path + "/" + name;
    struct stat st;
    if (::lstat(child.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      Status sub = RemoveDirRecursive(child);
      if (!sub.ok()) {
        ::closedir(dir);
        return sub;
      }
    } else {
      ::unlink(child.c_str());
    }
  }
  ::closedir(dir);
  if (::rmdir(path.c_str()) != 0) return Errno("rmdir", path);
  return Status::OK();
}

}  // namespace orpheus::storage
