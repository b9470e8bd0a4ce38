#include "core/record.h"

#include <cstring>

namespace orpheus::core {

namespace {

// One multiply-xorshift round per 64-bit word (FNV-1a's structure, a
// word at a time instead of a byte at a time).
inline void HashWord(uint64_t word, uint64_t* h) {
  *h = (*h ^ word) * 0x9e3779b97f4a7c15ULL;
  *h ^= *h >> 29;
}

inline void HashBytes(const void* data, size_t len, uint64_t* h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  HashWord(len, h);
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    HashWord(word, h);
  }
  if (len > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, len);
    HashWord(word, h);
  }
}

constexpr uint64_t kNullTag = 0xa0761d6478bd642fULL;

}  // namespace

uint64_t HashRecord(const rel::Chunk& chunk, size_t row,
                    const std::vector<int>& cols) {
  uint64_t h = 1469598103934665603ULL;
  for (int c : cols) {
    const rel::Column& col = chunk.column(c);
    if (col.IsNull(row)) {
      HashWord(kNullTag, &h);
      continue;
    }
    switch (col.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        HashWord(static_cast<uint64_t>(col.ints()[row]), &h);
        break;
      case rel::DataType::kDouble: {
        uint64_t bits;
        std::memcpy(&bits, &col.doubles()[row], sizeof(bits));
        HashWord(bits, &h);
        break;
      }
      case rel::DataType::kString: {
        const std::string& s = col.strings()[row];
        HashBytes(s.data(), s.size(), &h);
        break;
      }
      case rel::DataType::kIntArray: {
        const rel::IntArray& a = col.arrays()[row];
        HashBytes(a.data(), a.size() * sizeof(int64_t), &h);
        break;
      }
      case rel::DataType::kNull:
        break;
    }
  }
  return h;
}

bool RecordsEqual(const rel::Chunk& a, size_t row_a, const std::vector<int>& cols_a,
                  const rel::Chunk& b, size_t row_b, const std::vector<int>& cols_b) {
  if (cols_a.size() != cols_b.size()) return false;
  for (size_t i = 0; i < cols_a.size(); ++i) {
    const rel::Column& ca = a.column(cols_a[i]);
    const rel::Column& cb = b.column(cols_b[i]);
    const bool null_a = ca.IsNull(row_a);
    const bool null_b = cb.IsNull(row_b);
    if (null_a || null_b) {
      if (null_a && null_b) continue;
      return false;
    }
    if (ca.type() != cb.type()) {
      // Mixed types (e.g. INT vs DOUBLE): Value's numeric rules.
      if (!ca.Get(row_a).Equals(cb.Get(row_b))) return false;
      continue;
    }
    // Same type: compare in place, with Value::Equals semantics.
    switch (ca.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        if (ca.ints()[row_a] != cb.ints()[row_b]) return false;
        break;
      case rel::DataType::kDouble:
        if (!(ca.doubles()[row_a] == cb.doubles()[row_b])) return false;
        break;
      case rel::DataType::kString:
        if (ca.strings()[row_a] != cb.strings()[row_b]) return false;
        break;
      case rel::DataType::kIntArray:
        if (ca.arrays()[row_a] != cb.arrays()[row_b]) return false;
        break;
      case rel::DataType::kNull:
        break;  // every value is NULL, and NULL matches NULL
    }
  }
  return true;
}

}  // namespace orpheus::core
