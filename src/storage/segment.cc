#include "storage/segment.h"

#include <cstring>

#include "storage/snapshot.h"

namespace orpheus::storage {

namespace {

// Encoded bytes held at a time while a segment streams out.
constexpr size_t kSegmentSpillBytes = size_t{1} << 20;

void EncodeBody(const rel::Table& table, BinaryWriter::Sink sink) {
  BinaryWriter body(std::move(sink), kSegmentSpillBytes);
  SnapshotCodec::EncodeTableSection(table, &body);
  body.Flush();
}

}  // namespace

Status WriteSegmentFile(const rel::Table& table, const std::string& path,
                        IoFileClass cls, uint64_t* size, uint32_t* crc) {
  // The header carries the body's length and CRC, so a first pass
  // measures the body and a second one writes it.
  uint64_t body_len = 0;
  uint32_t body_crc = 0;
  EncodeBody(table, [&](std::string_view bytes) {
    body_len += bytes.size();
    body_crc = Crc32(bytes, body_crc);
  });
  BinaryWriter header;
  header.PutRaw(kSegmentMagic, 8);
  header.PutU32(kStorageFormatVersion);
  header.PutU64(body_len);
  header.PutU32(body_crc);

  DurableFileWriter file(path, cls);
  ORPHEUS_RETURN_NOT_OK(file.Open());
  Status st;
  uint64_t file_len = 0;
  uint32_t file_crc = 0;
  auto append = [&](std::string_view bytes) {
    if (!st.ok()) return;
    file_len += bytes.size();
    file_crc = Crc32(bytes, file_crc);
    st = file.Append(bytes);
  };
  append(header.data());
  EncodeBody(table, append);
  ORPHEUS_RETURN_NOT_OK(st);
  if (file_len != header.data().size() + body_len) {
    return Status::Internal("segment encoding changed between passes: " + path);
  }
  ORPHEUS_RETURN_NOT_OK(file.Finish());
  *size = file_len;
  *crc = file_crc;
  return Status::OK();
}

Result<std::unique_ptr<rel::Table>> DecodeSegmentFile(std::string_view file,
                                                      const std::string& path) {
  constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4;
  if (file.size() < kHeaderBytes ||
      std::memcmp(file.data(), kSegmentMagic, 8) != 0) {
    return Status::InvalidArgument("not an OrpheusDB segment file: " + path);
  }
  BinaryReader header(file.substr(8));
  uint32_t version = header.GetU32();
  if (version != kStorageFormatVersion) {
    return Status::InvalidArgument(
        "segment format version " + std::to_string(version) +
        " unsupported (this build reads version " +
        std::to_string(kStorageFormatVersion) + "): " + path);
  }
  uint64_t body_len = header.GetU64();
  uint32_t body_crc = header.GetU32();
  if (body_len != file.size() - kHeaderBytes) {
    return Status::Internal("segment body length mismatch (corrupt file " +
                            path + ")");
  }
  std::string_view body_bytes = file.substr(kHeaderBytes);
  if (Crc32(body_bytes) != body_crc) {
    return Status::Internal("segment checksum mismatch (corrupt file " + path +
                            ")");
  }
  BinaryReader r(body_bytes);
  ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<rel::Table> table,
                           SnapshotCodec::DecodeTableObject(&r));
  if (!r.ok() || r.remaining() != 0) {
    return Status::Internal("segment has trailing bytes (corrupt file " + path +
                            ")");
  }
  return table;
}

}  // namespace orpheus::storage
