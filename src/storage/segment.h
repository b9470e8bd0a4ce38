// Checkpoint segment files: one table per file, self-checking.
//
// A segment holds exactly one relstore table — the same bytes a v1
// snapshot's table section used (SnapshotCodec::EncodeTableSection),
// wrapped in a magic/version/CRC header so a segment can be validated
// on its own. Segments are immutable once written: a checkpoint never
// rewrites a live segment, it writes a fresh file under a fresh name
// and retires the old one after the manifest commits (see manifest.h
// for the commit protocol and storage_manager.cc for the write path).
//
// File layout:
//
//   [8B magic "ORPHSEG1"][u32 format version][u64 body length]
//   [u32 body crc32][body = table section]

#ifndef ORPHEUS_STORAGE_SEGMENT_H_
#define ORPHEUS_STORAGE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "relstore/table.h"
#include "storage/io_util.h"

namespace orpheus::storage {

inline constexpr char kSegmentMagic[9] = "ORPHSEG1";  // 8 bytes on disk
// Shared by segments and the manifest: the v2 storage format.
inline constexpr uint32_t kStorageFormatVersion = 2;

// Writes one table as a segment file at the fresh name `path` and
// fsyncs it, streaming the encoding so that memory use does not grow
// with the table. Returns the file's size and whole-file CRC (what the
// manifest records). Fault injection as DurableFileWriter's.
Status WriteSegmentFile(const rel::Table& table, const std::string& path,
                        IoFileClass cls, uint64_t* size, uint32_t* crc);

// Validates `file` and decodes it into a standalone Table (not yet
// adopted by any Database). `path` is only used in error messages, so
// a failed Open can name the bad file. InvalidArgument on a foreign
// file or format-version mismatch, Internal on checksum/structure
// corruption — never a crash.
Result<std::unique_ptr<rel::Table>> DecodeSegmentFile(std::string_view file,
                                                      const std::string& path);

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_SEGMENT_H_
