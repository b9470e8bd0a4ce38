// Record identity helpers. Records in a CVD are immutable: any change
// to a record's attributes yields a new record (new rid). The record
// manager detects reuse by hashing a row's data-attribute values.

#ifndef ORPHEUS_CORE_RECORD_H_
#define ORPHEUS_CORE_RECORD_H_

#include <cstdint>
#include <vector>

#include "relstore/chunk.h"

namespace orpheus::core {

using RecordId = int64_t;

// A 64-bit hash of row `row` restricted to `cols`, one word-hash round
// per value (strings and arrays: length, then 8-byte words). Equal
// values of the same type hash equally (NULLs hash as a fixed tag);
// values are never persisted, so the function may change.
uint64_t HashRecord(const rel::Chunk& chunk, size_t row,
                    const std::vector<int>& cols);

// True if the two rows agree on all listed columns (paired by index:
// cols_a[i] compares against cols_b[i]).
bool RecordsEqual(const rel::Chunk& a, size_t row_a, const std::vector<int>& cols_a,
                  const rel::Chunk& b, size_t row_b, const std::vector<int>& cols_b);

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_RECORD_H_
