// Differential test for commit-time record resolution.
//
// Cvd::ResolveCommit matches staged rows against parent records through
// the data model's record cache (cached content hashes, rid -> stored
// row). The reference below is the resolver it replaced, kept here as
// the oracle: materialize every parent with VersionRows, hash all of
// its records, and give each staged row the rid of the first
// equal-content parent record in parent order (else a fresh rid).
// Both must agree on the rid list, the parent edge weights and the new
// records, for every data model, with and without a primary key, over
// a corpus of edits: duplicate-content rows, merges whose parents hold
// equal-content records, updates back to an older value, re-inserts of
// deleted rows, and schema evolution (added and widened attributes).

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "core/cvd.h"
#include "core/data_model.h"
#include "relstore/database.h"

namespace orpheus::core {
namespace {

struct Resolution {
  std::vector<RecordId> rids;
  std::vector<int64_t> weights;
  rel::Chunk new_data;  // data attributes of the new records, in order
};

// The data schema a commit of `staged` leaves (§3.3): current
// attributes keep their place and widen INT -> DOUBLE when either side
// is DOUBLE (the only widening the corpus makes); attributes only the
// staged table has are appended in staged order.
rel::Schema EvolvedSchema(const rel::Schema& current, const rel::Schema& staged) {
  rel::Schema evolved;
  for (const rel::ColumnDef& def : current.columns()) {
    const int s = staged.FindColumn(def.name);
    const bool wider = s >= 0 && staged.column(s).type == rel::DataType::kDouble;
    evolved.AddColumn(def.name, wider ? rel::DataType::kDouble : def.type);
  }
  for (const rel::ColumnDef& def : staged.columns()) {
    if (def.name != "rid" && current.FindColumn(def.name) < 0) {
      evolved.AddColumn(def.name, def.type);
    }
  }
  return evolved;
}

// `rows` copied into `schema` by column name: a missing column is NULL,
// a narrower one converted.
rel::Chunk Align(const rel::Chunk& rows, const rel::Schema& schema) {
  const size_t n = rows.num_rows();
  rel::Chunk aligned(schema);
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (int c = 0; c < schema.num_columns(); ++c) {
    const rel::ColumnDef& def = schema.column(c);
    const int src = rows.schema().FindColumn(def.name);
    rel::Column& dst = aligned.mutable_column(c);
    if (src < 0) {
      dst.AppendNulls(n);
    } else if (rows.column(src).type() == def.type) {
      dst.Gather(rows.column(src), all);
    } else {
      rel::Column tmp(rows.column(src).type());
      tmp.Gather(rows.column(src), all);
      EXPECT_TRUE(tmp.ConvertTo(def.type).ok());
      for (size_t r = 0; r < n; ++r) dst.AppendFrom(tmp, r);
    }
  }
  return aligned;
}

// The reference resolver (the rule before the record cache existed).
// Runs between ResolveCommit and ApplyCommit, so the pool still has
// the pre-commit schema; parent rows are evolved here the way the pool
// will be (new attributes NULL, widened ones converted).
Resolution ReferenceResolve(Cvd* cvd, rel::Database* db,
                            const std::string& table) {
  const std::vector<VersionId> parents =
      cvd->staged_tables().at(table).parents;
  const rel::Chunk& staged_rows = db->GetTable(table).value()->data();
  const rel::Schema data_schema =
      EvolvedSchema(cvd->model()->data_schema(), staged_rows.schema());

  rel::Schema record_schema;
  record_schema.AddColumn("rid", rel::DataType::kInt64);
  for (const rel::ColumnDef& def : data_schema.columns()) {
    record_schema.AddColumn(def.name, def.type);
  }
  const size_t n = staged_rows.num_rows();
  const rel::Chunk aligned = Align(staged_rows, record_schema);
  std::vector<int> data_cols(static_cast<size_t>(data_schema.num_columns()));
  std::iota(data_cols.begin(), data_cols.end(), 1);

  struct ParentRef {
    size_t parent_index;
    size_t row;
    RecordId rid;
  };
  std::unordered_map<uint64_t, std::vector<ParentRef>> parent_hash;
  std::vector<rel::Chunk> parent_rows;
  std::vector<std::unordered_set<RecordId>> parent_rid_sets;
  for (size_t p = 0; p < parents.size(); ++p) {
    rel::Chunk rows =
        Align(cvd->model()->VersionRows(parents[p]).ValueOrDie(), record_schema);
    int rid_col = rows.schema().FindColumn("rid");
    std::unordered_set<RecordId> rid_set;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      RecordId rid = rows.column(rid_col).ints()[r];
      rid_set.insert(rid);
      parent_hash[HashRecord(rows, r, data_cols)].push_back({p, r, rid});
    }
    parent_rid_sets.push_back(std::move(rid_set));
    parent_rows.push_back(std::move(rows));
  }

  Resolution out;
  RecordId next_rid = cvd->total_records();
  std::vector<uint32_t> new_rows;
  for (size_t r = 0; r < n; ++r) {
    RecordId found = -1;
    auto hit = parent_hash.find(HashRecord(aligned, r, data_cols));
    if (hit != parent_hash.end()) {
      for (const ParentRef& ref : hit->second) {
        if (RecordsEqual(aligned, r, data_cols, parent_rows[ref.parent_index],
                         ref.row, data_cols)) {
          found = ref.rid;
          break;
        }
      }
    }
    if (found < 0) {
      found = next_rid++;
      new_rows.push_back(static_cast<uint32_t>(r));
    }
    out.rids.push_back(found);
  }
  out.weights.assign(parents.size(), 0);
  for (size_t p = 0; p < parents.size(); ++p) {
    for (RecordId rid : out.rids) {
      if (parent_rid_sets[p].count(rid) > 0) ++out.weights[p];
    }
  }
  out.new_data = rel::Chunk(data_schema);
  for (int c = 0; c < data_schema.num_columns(); ++c) {
    out.new_data.mutable_column(c).Gather(aligned.column(c + 1), new_rows);
  }
  return out;
}

// Same values, same NULLs, same types.
void ExpectSameRows(const rel::Chunk& want, const rel::Chunk& got, int got_offset,
                    const std::string& context) {
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  ASSERT_EQ(want.num_columns() + got_offset, got.num_columns()) << context;
  std::vector<int> want_cols(static_cast<size_t>(want.num_columns()));
  std::iota(want_cols.begin(), want_cols.end(), 0);
  std::vector<int> got_cols(want_cols.size());
  std::iota(got_cols.begin(), got_cols.end(), got_offset);
  for (size_t r = 0; r < want.num_rows(); ++r) {
    EXPECT_TRUE(RecordsEqual(want, r, want_cols, got, r, got_cols))
        << context << " row " << r;
  }
}

rel::Schema CorpusSchema() {
  return rel::Schema({{"k", rel::DataType::kInt64},
                      {"v", rel::DataType::kInt64},
                      {"s", rel::DataType::kString}});
}

// A typed value for column `col` of `chunk` (ints widen to doubles
// once `v` has been widened).
rel::Value Typed(const rel::Chunk& chunk, int col, int64_t x) {
  return chunk.column(col).type() == rel::DataType::kDouble
             ? rel::Value::Double(static_cast<double>(x) + 0.5)
             : rel::Value::Int(x);
}

struct CorpusCase {
  DataModelKind model;
  bool primary_key;
};

class CommitResolveTest : public ::testing::TestWithParam<CorpusCase> {
 protected:
  void SetUp() override {
    CvdOptions options;
    options.model = GetParam().model;
    if (GetParam().primary_key) options.primary_key = {"k"};
    cvd_ = Cvd::Create(&db_, "c", CorpusSchema(), options).ValueOrDie();
    rel::Chunk rows(CorpusSchema());
    for (int64_t k = 0; k < 8; ++k) {
      rows.AppendRow({rel::Value::Int(k), rel::Value::Int(k % 3),
                      rel::Value::String(k % 2 == 0 ? "even" : "odd")});
    }
    if (!GetParam().primary_key) {
      // Duplicate-content rows from the start.
      rows.AppendRow({rel::Value::Int(0), rel::Value::Int(0),
                      rel::Value::String("even")});
      rows.AppendRow({rel::Value::Int(0), rel::Value::Int(0),
                      rel::Value::String("even")});
    }
    ASSERT_TRUE(cvd_->InitVersion(rows, "init").ok());
  }

  rel::Chunk& Staged() { return db_.GetTable("w").ValueOrDie()->mutable_chunk(); }
  int Col(const std::string& name) { return Staged().schema().FindColumn(name); }

  // Row index of the first staged row with key k, or -1.
  int FindKey(int64_t k) {
    const rel::Chunk& rows = Staged();
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      if (rows.Get(r, Col("k")).AsInt() == k) return static_cast<int>(r);
    }
    return -1;
  }

  void SetValue(int64_t k, int64_t v) {
    int row = FindKey(k);
    ASSERT_GE(row, 0) << "no key " << k;
    Staged().mutable_column(Col("v")).Set(static_cast<size_t>(row),
                                          Typed(Staged(), Col("v"), v));
  }

  void Delete(int64_t k) {
    std::vector<bool> keep(Staged().num_rows(), true);
    int row = FindKey(k);
    ASSERT_GE(row, 0) << "no key " << k;
    keep[static_cast<size_t>(row)] = false;
    Staged().FilterRows(keep);
  }

  void Insert(int64_t k, int64_t v, const std::string& s) {
    rel::Chunk& rows = Staged();
    std::vector<rel::Value> row(static_cast<size_t>(rows.num_columns()));
    row[static_cast<size_t>(Col("k"))] = rel::Value::Int(k);
    row[static_cast<size_t>(Col("v"))] = Typed(rows, Col("v"), v);
    row[static_cast<size_t>(Col("s"))] = rel::Value::String(s);
    rows.AppendRow(row);
  }

  // Checks out `parents` into "w" for editing.
  void Checkout(const std::vector<VersionId>& parents) {
    ASSERT_TRUE(cvd_->Checkout(parents, "w").ok());
  }

  // Resolves "w", compares with the reference, applies. Returns the vid.
  VersionId CommitChecked(const std::string& what) {
    SCOPED_TRACE(what);
    auto delta = cvd_->ResolveCommit("w", what);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    if (!delta.ok()) return -1;
    Resolution want = ReferenceResolve(cvd_.get(), &db_, "w");
    const CommitDelta& got = delta.value();
    EXPECT_EQ(want.rids, got.rids);
    EXPECT_EQ(want.weights, got.parent_weights);
    ExpectSameRows(want.new_data, got.new_records, 1, what + " new records");
    for (size_t i = 0; i < got.new_records.num_rows(); ++i) {
      EXPECT_EQ(got.new_records.Get(i, 0).AsInt(),
                cvd_->total_records() + static_cast<int64_t>(i));
    }
    ++commits_checked_;
    auto vid = cvd_->ApplyCommit(got);
    EXPECT_TRUE(vid.ok()) << vid.status().ToString();
    return vid.ok() ? vid.value() : -1;
  }

  bool SupportsSchemaEvolution() const {
    return GetParam().model == DataModelKind::kSplitByRlist ||
           GetParam().model == DataModelKind::kSplitByVlist;
  }

  rel::Database db_;
  std::unique_ptr<Cvd> cvd_;
  int commits_checked_ = 0;
};

TEST_P(CommitResolveTest, MatchesReferenceOnCorpus) {
  const bool pk = GetParam().primary_key;

  // v2: update, delete, insert.
  Checkout({1});
  SetValue(1, 99);
  Delete(2);
  Insert(100, 5, "new");
  const VersionId v2 = CommitChecked("update/delete/insert");

  // v3: k=1 updated back to its v1 value; v2 holds no such record, so
  // it gets a fresh rid (no cross-version diff). Also inserts k=200.
  Checkout({v2});
  SetValue(1, 1);
  Insert(200, 7, "shared");
  const VersionId v3 = CommitChecked("update back to an older value");

  // v4: re-insert the row v2 deleted, with its v1 content, plus the
  // same k=200 row v3 inserted: two records of equal content, v3's
  // and v4's.
  Checkout({v2});
  Insert(2, 2, "even");
  Insert(200, 7, "shared");
  const VersionId v4 = CommitChecked("insert of a deleted row");

  // Merges whose parents both hold an equal-content record, both
  // precedence orders. Without a primary key the merged checkout
  // keeps both copies; both resolve to the first parent's record.
  Checkout({v3, v4});
  const VersionId v5 = CommitChecked("merge v3,v4");
  Checkout({v4, v3});
  CommitChecked("merge v4,v3");

  // Duplicate-content rows: a row equal to an existing one (no
  // primary key only), and equal rows appended together.
  if (!pk) {
    Checkout({v5});
    Insert(0, 0, "even");
    Insert(300, 1, "dup");
    Insert(300, 1, "dup");
    CommitChecked("duplicate-content rows");
  }

  // A seeded random walk: checkouts of one or two versions, edits
  // drawn from a small value domain so that equal content recurs.
  Rng rng(pk ? 7 : 11);
  std::vector<VersionId> versions;
  for (VersionId v = 1; v <= cvd_->latest_version(); ++v) versions.push_back(v);
  for (int step = 0; step < 30; ++step) {
    std::vector<VersionId> parents = {versions[rng.Uniform(versions.size())]};
    if (rng.Bernoulli(0.3)) {
      VersionId other = versions[rng.Uniform(versions.size())];
      if (other != parents[0]) parents.push_back(other);
    }
    Checkout(parents);
    const int edits = 1 + static_cast<int>(rng.Uniform(5));
    for (int e = 0; e < edits; ++e) {
      const size_t num_rows = Staged().num_rows();
      const uint64_t op = rng.Uniform(4);
      if (op == 0 && num_rows > 0) {
        int64_t k = Staged().Get(rng.Uniform(num_rows), Col("k")).AsInt();
        SetValue(k, static_cast<int64_t>(rng.Uniform(4)));
      } else if (op == 1 && num_rows > 1) {
        Delete(Staged().Get(rng.Uniform(num_rows), Col("k")).AsInt());
      } else {
        int64_t k = static_cast<int64_t>(rng.Uniform(12));
        if (pk && FindKey(k) >= 0) continue;
        Insert(k, static_cast<int64_t>(rng.Uniform(3)),
               k % 2 == 0 ? "even" : "odd");
      }
    }
    versions.push_back(CommitChecked("random step " + std::to_string(step)));
  }

  if (SupportsSchemaEvolution()) {
    // An added attribute: NULL for old records, set on some rows.
    Checkout({versions.back()});
    ASSERT_TRUE(db_.GetTable("w").ValueOrDie()->AddColumn("extra",
                                                          rel::DataType::kInt64)
                    .ok());
    Staged().mutable_column(Col("extra")).Set(0, rel::Value::Int(42));
    const VersionId added = CommitChecked("added attribute");
    // Committing an older version (no `extra`) against the evolved pool.
    Checkout({v2});
    SetValue(0, 3);
    CommitChecked("old schema after evolution");
    // A widened attribute: v becomes DOUBLE in the pool.
    Checkout({added});
    ASSERT_TRUE(db_.GetTable("w").ValueOrDie()->AlterColumnType(
                    "v", rel::DataType::kDouble).ok());
    SetValue(Staged().Get(0, Col("k")).AsInt(), 2);
    const VersionId widened = CommitChecked("widened attribute");
    Checkout({widened, v3});
    CommitChecked("merge across the widening");
  }
  EXPECT_GE(commits_checked_, 35);
}

std::vector<CorpusCase> AllCases() {
  std::vector<CorpusCase> cases;
  for (DataModelKind model :
       {DataModelKind::kSplitByRlist, DataModelKind::kSplitByVlist,
        DataModelKind::kCombinedTable, DataModelKind::kDeltaBased,
        DataModelKind::kTablePerVersion}) {
    cases.push_back({model, true});
    cases.push_back({model, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CommitResolveTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      std::string name = DataModelKindName(info.param.model);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (info.param.primary_key ? "_pk" : "_nopk");
    });

}  // namespace
}  // namespace orpheus::core
