#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "common/csv.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/engine_api.h"
#include "storage/storage_manager.h"

namespace perfbench {

namespace {

using orpheus::Rng;
using orpheus::WallTimer;
using orpheus::core::EngineApi;
using orpheus::core::RecordId;
using orpheus::core::VersionId;
using orpheus::wl::Dataset;
using orpheus::wl::DatasetSpec;
using orpheus::wl::VersionSpec;
using orpheus::wl::WorkloadKind;

// sci_explore: Q1 thresholds a2 < (j+1)<<28 and Q2 residues a5 % 8 = j.
constexpr int kBuckets = 8;
constexpr int kBucketShift = 28;
constexpr int kSciCommitEvery = 10;   // every 10th loop commits an edit
constexpr int kSciEditModulus = 100;  // an edit touches k % 100 = r (~1%)
constexpr int kCurMergeEvery = 8;     // every 8th loop is a merge

std::vector<int64_t> KeyOfRecord(const Dataset& data) {
  orpheus::rel::Chunk all = data.AllRecordRows();
  return all.column(1).ints();
}

std::string AttrColumns(int num_attrs) {
  std::string cols = "k";
  for (int a = 1; a < num_attrs; ++a) cols += ", a" + std::to_string(a);
  return cols;
}

Result<VersionId> ParseCommittedVid(const std::string& reply) {
  long long vid = 0;
  if (std::sscanf(reply.c_str(), "committed version %lld", &vid) != 1) {
    return Status::Internal("unexpected commit reply: " + reply);
  }
  return static_cast<VersionId>(vid);
}

const VersionSpec& VersionOf(const Dataset& data, VersionId vid) {
  return data.versions()[static_cast<size_t>(vid - 1)];
}

// Records a merging checkout of `parents` yields: the first parent's
// records, then every record of a later parent whose key is unseen.
std::vector<RecordId> CheckoutRecords(const Dataset& data,
                                      const std::vector<int64_t>& key_of,
                                      const std::vector<VersionId>& parents) {
  if (parents.size() == 1) return VersionOf(data, parents[0]).rids;
  std::vector<RecordId> out;
  std::unordered_set<int64_t> seen;
  for (VersionId p : parents) {
    for (RecordId rid : VersionOf(data, p).rids) {
      if (seen.insert(key_of[static_cast<size_t>(rid)]).second) out.push_back(rid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t UnionSize(const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
  std::vector<int64_t> u;
  u.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(u));
  return u.size();
}

// Runs fn(i) for i in [0, n) on up to 4 threads.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  const size_t workers = std::min<size_t>(4, std::max<size_t>(1, n));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < n; i += workers) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

Status LoadHistory(EngineApi* api, const Dataset& data, const std::string& cvd,
                   const std::string& dir) {
  std::shared_ptr<orpheus::core::SessionContext> session = api->NewSession();
  auto exec = [&](const std::string& line) -> Result<std::string> {
    Result<std::string> r = api->Execute(session.get(), line);
    if (!r.ok()) {
      return Status::Internal("load: '" + line.substr(0, 80) +
                              "' failed: " + r.status().ToString());
    }
    return r;
  };
  const std::vector<VersionSpec>& versions = data.versions();
  const std::vector<int64_t> key_of = KeyOfRecord(data);
  const int attrs = data.spec().num_attrs;
  const std::string csv = dir + "/" + cvd + "_v1.csv";
  ORPHEUS_RETURN_NOT_OK(orpheus::WriteCsvFile(csv, data.RowsFor(versions[0].rids)));
  ORPHEUS_RETURN_NOT_OK(exec("init " + cvd + " -f " + csv + " -pk k").status());
  ORPHEUS_RETURN_NOT_OK(exec("sql CREATE TABLE perfbench_keys (k BIGINT)").status());
  const std::string stage = "perfbench_load";
  const std::string columns = AttrColumns(attrs);

  for (size_t i = 1; i < versions.size(); ++i) {
    const VersionSpec& v = versions[i];
    std::string parents;
    for (VersionId p : v.parents) {
      parents += (parents.empty() ? "" : ",") + std::to_string(p);
    }
    ORPHEUS_RETURN_NOT_OK(
        exec("checkout " + cvd + " -v " + parents + " -t " + stage).status());
    const std::vector<RecordId> base = CheckoutRecords(data, key_of, v.parents);
    std::vector<RecordId> removed, added;
    std::set_difference(base.begin(), base.end(), v.rids.begin(), v.rids.end(),
                        std::back_inserter(removed));
    std::set_difference(v.rids.begin(), v.rids.end(), base.begin(), base.end(),
                        std::back_inserter(added));
    if (!removed.empty()) {
      // Keys are unique within a version, so deleting by key removes
      // exactly the replaced and deleted records.
      std::string keys = "sql INSERT INTO perfbench_keys VALUES ";
      for (size_t r = 0; r < removed.size(); ++r) {
        keys += (r == 0 ? "(" : ", (") +
                std::to_string(key_of[static_cast<size_t>(removed[r])]) + ")";
      }
      ORPHEUS_RETURN_NOT_OK(exec(keys).status());
      ORPHEUS_RETURN_NOT_OK(exec("sql DELETE FROM " + stage +
                                 " WHERE k IN (SELECT k FROM perfbench_keys)")
                                .status());
      ORPHEUS_RETURN_NOT_OK(exec("sql DELETE FROM perfbench_keys").status());
    }
    if (!added.empty()) {
      std::string insert = "sql INSERT INTO " + stage + " (" + columns + ") VALUES ";
      for (size_t r = 0; r < added.size(); ++r) {
        const RecordId rid = added[r];
        insert += (r == 0 ? "(" : ", (") +
                  std::to_string(key_of[static_cast<size_t>(rid)]);
        for (int a = 1; a < attrs; ++a) {
          insert += ", " + std::to_string(Dataset::AttrValue(rid, a));
        }
        insert += ")";
      }
      ORPHEUS_RETURN_NOT_OK(exec(insert).status());
    }
    ORPHEUS_ASSIGN_OR_RETURN(std::string reply,
                             exec("commit -t " + stage + " -m load"));
    ORPHEUS_ASSIGN_OR_RETURN(VersionId vid, ParseCommittedVid(reply));
    if (vid != v.vid) {
      return Status::Internal("load: version " + std::to_string(v.vid) +
                              " was committed as " + std::to_string(vid));
    }
  }
  ORPHEUS_RETURN_NOT_OK(exec("sql DROP TABLE perfbench_keys").status());
  api->CloseSession(session.get(), /*discard_staged=*/false);
  return Status::OK();
}

namespace {

// Every run loads the same dataset; the run's seed drives only the op
// scripts. (Generator seeds change version sizes enough to move
// checkout latency and setup time by tens of percent.)
constexpr uint64_t kDatasetSeed = 7;

DatasetSpec SpecFor(WorkloadKind kind, int versions, int inserts) {
  DatasetSpec spec;
  spec.kind = kind;
  spec.num_versions = versions;
  spec.num_branches = versions / 10;
  spec.inserts_per_version = inserts;
  spec.num_attrs = 20;
  spec.seed = kDatasetSeed;
  return spec;
}

std::string SpecJson(const DatasetSpec& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"kind\": \"%s\", \"versions\": %d, \"branches\": %d, "
                "\"inserts_per_version\": %d, \"attrs\": %d, \"update_fraction\": "
                "%g, \"delete_fraction\": %g, \"merge_probability\": %g, "
                "\"seed\": %llu}",
                s.kind == WorkloadKind::kSci ? "SCI" : "CUR", s.num_versions,
                s.num_branches, s.inserts_per_version, s.num_attrs,
                s.update_fraction, s.delete_fraction, s.merge_probability,
                static_cast<unsigned long long>(s.seed));
  return buf;
}

// ---------------------------------------------------------------------------
// sci_explore
// ---------------------------------------------------------------------------
//
// Loop: checkout a version drawn uniformly from the preloaded history,
// two versioned aggregates on it, a count of the checked-out table,
// then discard. Every 10th loop instead UPDATEs ~1% of the checkout
// and commits.
//
// Known defect: after `optimize`, a version committed later cannot be
// checked out or queried (`NotFound: version not in any partition`):
// PartitionStore::PartitionOf knows only the versions present at
// `optimize` time, and the engine never calls the online maintainer
// (src/partition/online.h). The measured loop therefore reads only
// preloaded versions, and Check() probes the defect once the window
// has ended: it checks out and queries the first version each session
// committed, reports every failure by verb and status code, and
// verifies the answers of the probe ops that succeed.
class SciExplore : public Workload {
 public:
  explicit SciExplore(uint64_t seed)
      : seed_(seed), spec_(SpecFor(WorkloadKind::kSci, 600, 225)) {
    facts_.cvd = "sci";
    facts_.preloaded_versions = spec_.num_versions;
    facts_.partitioned = true;
    facts_.dataset = spec_.Name();
    facts_.spec_json = SpecJson(spec_);
    facts_.num_attrs = spec_.num_attrs;
  }

  const WorkloadFacts& facts() const override { return facts_; }

  Status Load(EngineApi* api, const std::string& dir) override {
    data_ = std::make_unique<Dataset>(orpheus::wl::Generate(spec_));
    facts_.distinct_records = data_->num_records();
    ORPHEUS_RETURN_NOT_OK(LoadHistory(api, *data_, facts_.cvd, dir));
    std::shared_ptr<orpheus::core::SessionContext> session = api->NewSession();
    WallTimer timer;
    Result<std::string> r = api->Execute(session.get(), "optimize " + facts_.cvd);
    facts_.optimize_ms = timer.ElapsedMillis();
    api->CloseSession(session.get(), false);
    return r.status();
  }

  Status Prepare(int sessions) override {
    const std::vector<int64_t> key_of = KeyOfRecord(*data_);
    const std::vector<VersionSpec>& versions = data_->versions();
    num_versions_ = static_cast<int64_t>(versions.size());
    expect_.assign(versions.size(), Expect{});
    ParallelFor(versions.size(), [&](size_t i) {
      Expect& e = expect_[i];
      int64_t q1_count[kBuckets] = {}, q1_sum[kBuckets] = {};
      e.rows = static_cast<int64_t>(versions[i].rids.size());
      for (int j = 0; j < kBuckets; ++j) {
        e.q2_min[j] = INT64_MAX;
        e.q2_max[j] = INT64_MIN;
      }
      for (RecordId rid : versions[i].rids) {
        const int64_t a2 = Dataset::AttrValue(rid, 2);
        const int b = static_cast<int>(a2 >> kBucketShift);
        ++q1_count[b];
        q1_sum[b] += Dataset::AttrValue(rid, 1);
        const int m = static_cast<int>(Dataset::AttrValue(rid, 5) % kBuckets);
        ++e.q2_count[m];
        e.q2_min[m] = std::min(e.q2_min[m], Dataset::AttrValue(rid, 3));
        e.q2_max[m] = std::max(e.q2_max[m], Dataset::AttrValue(rid, 4));
        ++e.bump[key_of[static_cast<size_t>(rid)] % kSciEditModulus][b];
      }
      for (int j = 0; j < kBuckets; ++j) {
        e.q1_count[j] = q1_count[j] + (j > 0 ? e.q1_count[j - 1] : 0);
        e.q1_sum[j] = q1_sum[j] + (j > 0 ? e.q1_sum[j - 1] : 0);
      }
      for (auto& per_residue : e.bump) {
        for (int j = 1; j < kBuckets; ++j) per_residue[j] += per_residue[j - 1];
      }
    });
    data_.reset();  // the expectations are all the check needs
    sessions_.clear();
    for (int s = 0; s < sessions; ++s) {
      sessions_.emplace_back(Mix64(seed_ * 7919 + static_cast<uint64_t>(s)));
    }
    return Status::OK();
  }

  std::vector<Op> NextLoop(int s, int64_t loop) override {
    Session& st = sessions_[static_cast<size_t>(s)];
    st.target = 1 + static_cast<VersionId>(st.rng.Uniform(num_versions_));
    st.j1 = static_cast<int>(st.rng.Uniform(kBuckets));
    st.j2 = static_cast<int>(st.rng.Uniform(kBuckets));
    st.commit = loop % kSciCommitEvery == kSciCommitEvery - 1;
    st.residue = static_cast<int>(st.rng.Uniform(kSciEditModulus));
    const std::string v = std::to_string(st.target);
    const std::string table = "w" + std::to_string(s) + "_" + std::to_string(loop);
    std::vector<Op> ops = {
        {kCheckout, "checkout sci -v " + v + " -t " + table},
        {kRun, "run SELECT count(*), sum(a1) FROM VERSION " + v +
                   " OF CVD sci WHERE a2 < " +
                   std::to_string(static_cast<int64_t>(st.j1 + 1) << kBucketShift)},
        {kRun, "run SELECT count(*), min(a3), max(a4) FROM VERSION " + v +
                   " OF CVD sci WHERE a5 % " + std::to_string(kBuckets) + " = " +
                   std::to_string(st.j2)},
        {kSql, "sql SELECT count(*) FROM " + table}};
    if (st.commit) {
      ops.push_back({kSql, "sql UPDATE " + table + " SET a1 = a1 + 1 WHERE k % " +
                               std::to_string(kSciEditModulus) + " = " +
                               std::to_string(st.residue)});
      ops.push_back({kCommit, "commit -t " + table + " -m explore"});
    } else {
      ops.push_back({kDiscard, "discard -t " + table});
    }
    return ops;
  }

  void AfterLoop(int s, int64_t, const std::vector<Op>&,
                 const std::vector<OpResult>& results) override {
    Session& st = sessions_[static_cast<size_t>(s)];
    auto record = [&](size_t i, int kind, int bucket) {
      if (i >= results.size() || !results[i].ok) return;
      Answer a{st.target, kind, bucket, results[i].text};
      st.answers.push_back(std::move(a));
    };
    record(1, 1, st.j1);
    record(2, 2, st.j2);
    record(3, 0, 0);
    if (st.commit && results.size() == 6 && results[5].ok) {
      Result<VersionId> vid = ParseCommittedVid(results[5].text);
      if (vid.ok()) {
        st.derived[vid.value()] = {st.target, st.residue};
      } else {
        st.parse_error = vid.status();
      }
    }
  }

  Status Check(EngineApi* api) override {
    std::map<VersionId, std::pair<VersionId, int>> derived;
    for (Session& st : sessions_) {
      ORPHEUS_RETURN_NOT_OK(st.parse_error);
      derived.insert(st.derived.begin(), st.derived.end());
    }
    // A committed edit keeps its base version's row count.
    ORPHEUS_ASSIGN_OR_RETURN(orpheus::core::Cvd * cvd, api->orpheus()->GetCvd(facts_.cvd));
    for (const auto& [vid, edit] : derived) {
      Result<const orpheus::core::VersionNode*> node = cvd->graph().GetNode(vid);
      const int64_t want = expect_[static_cast<size_t>(edit.first - 1)].rows;
      if (!node.ok() || node.value()->num_records != want) {
        return Status::Internal("committed version " + std::to_string(vid) +
                                " is missing or does not have " + std::to_string(want) +
                                " records");
      }
      ++facts_.checked;
    }
    std::vector<Answer> answers = ProbeCommitted(api);
    for (const Session& st : sessions_) {
      answers.insert(answers.end(), st.answers.begin(), st.answers.end());
    }
    for (const Answer& a : answers) {
      VersionId base = a.vid;
      int residue = -1;  // >= 0: a committed edit of `base`
      auto it = derived.find(a.vid);
      if (it != derived.end()) std::tie(base, residue) = it->second;
      if (base < 1 || base > num_versions_) {
        return Status::Internal("answer for unknown version " +
                                std::to_string(a.vid));
      }
      const Expect& e = expect_[static_cast<size_t>(base - 1)];
      std::vector<int64_t> want;
      if (a.kind == 0) {
        want = {e.rows};
      } else if (a.kind == 1) {
        int64_t sum = e.q1_sum[a.bucket];
        if (residue >= 0) sum += e.bump[residue][a.bucket];
        want = {e.q1_count[a.bucket], sum};
      } else {
        want = {e.q2_count[a.bucket], e.q2_min[a.bucket], e.q2_max[a.bucket]};
      }
      ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> got, ParseSingleRow(a.reply));
      if (want[0] == 0) {  // an empty selection leaves the value aggregates NULL
        want.resize(1);
        got.resize(std::min<size_t>(got.size(), 1));
      }
      if (got != want) {
        return Status::Internal("wrong answer on version " + std::to_string(a.vid) +
                                " (query kind " + std::to_string(a.kind) +
                                ", bucket " + std::to_string(a.bucket) +
                                "): got '" + a.reply + "'");
      }
      ++facts_.checked;
    }
    return Status::OK();
  }

 private:
  struct Answer {
    VersionId vid;
    int kind;  // 0: checked-out row count, 1: Q1, 2: Q2
    int bucket;
    std::string reply;
  };

  // The known-defect probe (see the class comment): checkout, a row
  // count of the checkout and Q1 over every row, on the first version
  // each session committed. Runs once the server has stopped; its ops
  // are counted in the facts, apart from the measured window's.
  std::vector<Answer> ProbeCommitted(EngineApi* api) {
    std::vector<Answer> answers;
    std::shared_ptr<orpheus::core::SessionContext> session = api->NewSession();
    auto send = [&](Verb verb, const std::string& line, std::string* reply) {
      ++facts_.probe_attempted;
      Result<std::string> r = api->Execute(session.get(), line);
      if (r.ok()) {
        *reply = r.value();
        return true;
      }
      const std::string key = std::string(VerbName(verb)) + " " + CodeOf(r.status());
      if (facts_.probe_failures[key]++ == 0) facts_.probe_examples[key] = r.status().message();
      return false;
    };
    for (const Session& st : sessions_) {
      if (st.derived.empty()) continue;
      const VersionId vid = st.derived.begin()->first;
      const std::string v = std::to_string(vid);
      const std::string table = "probe_" + v;
      std::string reply;
      if (send(kCheckout, "checkout sci -v " + v + " -t " + table, &reply)) {
        if (send(kSql, "sql SELECT count(*) FROM " + table, &reply)) {
          answers.push_back({vid, 0, 0, reply});
        }
        send(kDiscard, "discard -t " + table, &reply);
      }
      if (send(kRun, "run SELECT count(*), sum(a1) FROM VERSION " + v +
                         " OF CVD sci WHERE a2 < " +
                         std::to_string(static_cast<int64_t>(kBuckets) << kBucketShift),
               &reply)) {
        answers.push_back({vid, 1, kBuckets - 1, reply});
      }
    }
    api->CloseSession(session.get(), /*discard_staged=*/true);
    return answers;
  }

  struct Expect {
    int64_t rows = 0;
    int64_t q1_count[kBuckets] = {}, q1_sum[kBuckets] = {};
    int64_t q2_count[kBuckets] = {}, q2_min[kBuckets] = {}, q2_max[kBuckets] = {};
    // Rows with k % 100 = r and a2 below threshold j (cumulative in j):
    // what an `a1 = a1 + 1` edit of residue r adds to Q1's sum.
    int32_t bump[kSciEditModulus][kBuckets] = {};
  };
  struct Session {
    explicit Session(uint64_t seed) : rng(seed) {}
    Rng rng;
    VersionId target = 0;
    int j1 = 0, j2 = 0, residue = 0;
    bool commit = false;
    std::vector<Answer> answers;
    std::map<VersionId, std::pair<VersionId, int>> derived;
    Status parse_error;
  };

  uint64_t seed_;
  DatasetSpec spec_;
  WorkloadFacts facts_;
  std::unique_ptr<Dataset> data_;
  int64_t num_versions_ = 0;
  std::vector<Expect> expect_;
  std::vector<Session> sessions_;
};

// ---------------------------------------------------------------------------
// cur_commit
// ---------------------------------------------------------------------------
//
// Loop: check out the session's own branch head, count on the head
// (a versioned `run`) the rows the DELETE will remove, UPDATE ~2% of
// the checkout, DELETE ~1%, INSERT ~1% fresh keys, commit; the commit
// becomes the new head. Every 8th loop is instead a merging checkout
// of two preloaded versions, an UPDATE of ~2%, and a commit.
class CurCommit : public Workload {
 public:
  explicit CurCommit(uint64_t seed)
      : seed_(seed), spec_(SpecFor(WorkloadKind::kCur, 250, 100)) {
    facts_.cvd = "cur";
    facts_.preloaded_versions = spec_.num_versions;
    facts_.dataset = spec_.Name();
    facts_.spec_json = SpecJson(spec_);
    facts_.durable = true;
    facts_.num_attrs = spec_.num_attrs;
  }

  const WorkloadFacts& facts() const override { return facts_; }

  Status Load(EngineApi* api, const std::string& dir) override {
    data_ = std::make_unique<Dataset>(orpheus::wl::Generate(spec_));
    facts_.distinct_records = data_->num_records();
    ORPHEUS_RETURN_NOT_OK(api->orpheus()->Open(dir + "/db"));
    api->orpheus()->storage()->SetAutoCheckpointPolicy(kCurCheckpointBytes, 0);
    return LoadHistory(api, *data_, facts_.cvd, dir);
  }

  Status Prepare(int sessions) override {
    const std::vector<int64_t> key_of = KeyOfRecord(*data_);
    const std::vector<VersionSpec>& versions = data_->versions();
    version_keys_.assign(versions.size(), {});
    ParallelFor(versions.size(), [&](size_t i) {
      std::vector<int64_t>& keys = version_keys_[i];
      for (RecordId rid : versions[i].rids) {
        keys.push_back(key_of[static_cast<size_t>(rid)]);
      }
      std::sort(keys.begin(), keys.end());
    });
    data_.reset();
    // Every session branches off the preloaded version of median size,
    // so the branches start alike whatever the seed.
    std::vector<std::pair<size_t, VersionId>> by_size;
    for (size_t i = 0; i < version_keys_.size(); ++i) {
      by_size.push_back({version_keys_[i].size(), static_cast<VersionId>(i + 1)});
    }
    std::nth_element(by_size.begin(), by_size.begin() + by_size.size() / 2, by_size.end());
    const VersionId start = by_size[by_size.size() / 2].second;
    sessions_.clear();
    for (int s = 0; s < sessions; ++s) {
      sessions_.emplace_back(Mix64(seed_ * 7919 + static_cast<uint64_t>(s)));
      Session& st = sessions_.back();
      st.head = start;
      st.keys = version_keys_[static_cast<size_t>(start - 1)];
      st.next_key = 1000000000LL + 100000000LL * s;
    }
    return Status::OK();
  }

  std::vector<Op> NextLoop(int s, int64_t loop) override {
    Session& st = sessions_[static_cast<size_t>(s)];
    const auto n = static_cast<uint64_t>(version_keys_.size());
    const std::string table = "c" + std::to_string(s) + "_" + std::to_string(loop);
    st.merge = loop % kCurMergeEvery == kCurMergeEvery - 1;
    std::vector<Op> ops;
    if (st.merge) {
      st.merge_a = 1 + static_cast<VersionId>(st.rng.Uniform(n));
      do {
        st.merge_b = 1 + static_cast<VersionId>(st.rng.Uniform(n));
      } while (st.merge_b == st.merge_a);
      ops.push_back({kCheckout, "checkout cur -v " + std::to_string(st.merge_a) +
                                    "," + std::to_string(st.merge_b) + " -t " + table});
      ops.push_back({kSql, "sql UPDATE " + table + " SET a2 = a2 + 1 WHERE k % 50 = " +
                               std::to_string(st.rng.Uniform(50))});
    } else {
      st.delete_residue = static_cast<int>(st.rng.Uniform(100));
      const size_t inserts = std::max<size_t>(1, st.keys.size() / 100);
      st.inserted.clear();
      std::string insert = "sql INSERT INTO " + table + " (" +
                           AttrColumns(spec_.num_attrs) + ") VALUES ";
      for (size_t r = 0; r < inserts; ++r) {
        const int64_t key = st.next_key++;
        st.inserted.push_back(key);
        insert += (r == 0 ? "(" : ", (") + std::to_string(key);
        for (int a = 1; a < spec_.num_attrs; ++a) {
          insert += ", " + std::to_string(static_cast<int64_t>(
                               Mix64(static_cast<uint64_t>(key) * 31 + a) & 0x7fffffff));
        }
        insert += ")";
      }
      ops.push_back({kCheckout, "checkout cur -v " + std::to_string(st.head) +
                                    " -t " + table});
      ops.push_back({kRun, "run SELECT count(*) FROM VERSION " + std::to_string(st.head) +
                               " OF CVD cur WHERE k % 100 = " +
                               std::to_string(st.delete_residue)});
      ops.push_back({kSql, "sql UPDATE " + table + " SET a1 = a1 + 1 WHERE k % 50 = " +
                               std::to_string(st.rng.Uniform(50))});
      ops.push_back({kSql, "sql DELETE FROM " + table + " WHERE k % 100 = " +
                               std::to_string(st.delete_residue)});
      ops.push_back({kSql, std::move(insert)});
    }
    ops.push_back({kCommit, "commit -t " + table + " -m curate"});
    return ops;
  }

  void AfterLoop(int s, int64_t, const std::vector<Op>& ops,
                 const std::vector<OpResult>& results) override {
    Session& st = sessions_[static_cast<size_t>(s)];
    if (!st.merge && results.size() > 1 && results[1].ok) {
      // The rows the loop's DELETE is about to remove, counted on the head.
      int64_t want = 0;
      for (int64_t k : st.keys) want += k % 100 == st.delete_residue ? 1 : 0;
      st.counts.push_back({st.head, want, results[1].text});
    }
    if (results.size() != ops.size() || !results.back().ok) return;
    Result<VersionId> vid = ParseCommittedVid(results.back().text);
    if (!vid.ok()) {
      st.parse_error = vid.status();
      return;
    }
    if (st.merge) {
      st.acks.push_back({vid.value(), -1, st.merge_a, st.merge_b});
      return;
    }
    std::vector<int64_t> keys;
    keys.reserve(st.keys.size() + st.inserted.size());
    for (int64_t k : st.keys) {
      if (k % 100 != st.delete_residue) keys.push_back(k);
    }
    keys.insert(keys.end(), st.inserted.begin(), st.inserted.end());
    st.keys = std::move(keys);
    st.head = vid.value();
    st.acks.push_back({st.head, static_cast<int64_t>(st.keys.size()), 0, 0});
  }

  Status Check(EngineApi* api) override {
    ORPHEUS_ASSIGN_OR_RETURN(orpheus::core::Cvd * cvd, api->orpheus()->GetCvd(facts_.cvd));
    auto expect_count = [&](VersionId vid, int64_t want) -> Status {
      Result<const orpheus::core::VersionNode*> node = cvd->graph().GetNode(vid);
      if (!node.ok()) {
        return Status::Internal("acknowledged version " + std::to_string(vid) +
                                " is missing after reopen");
      }
      if (node.value()->num_records != want) {
        return Status::Internal(
            "version " + std::to_string(vid) + " has " +
            std::to_string(node.value()->num_records) + " records after reopen; " +
            std::to_string(want) + " were acknowledged");
      }
      ++facts_.checked;
      return Status::OK();
    };
    for (size_t i = 0; i < version_keys_.size(); ++i) {
      ORPHEUS_RETURN_NOT_OK(expect_count(static_cast<VersionId>(i + 1),
                                         static_cast<int64_t>(version_keys_[i].size())));
    }
    for (Session& st : sessions_) {
      ORPHEUS_RETURN_NOT_OK(st.parse_error);
      for (const Count& c : st.counts) {
        ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> got, ParseSingleRow(c.reply));
        if (got != std::vector<int64_t>{c.want}) {
          return Status::Internal("wrong count on version " + std::to_string(c.vid) +
                                  ": got '" + c.reply + "', want " +
                                  std::to_string(c.want));
        }
        ++facts_.checked;
      }
      for (const Ack& ack : st.acks) {
        int64_t want = ack.records;
        if (want < 0) {
          want = static_cast<int64_t>(
              UnionSize(version_keys_[static_cast<size_t>(ack.merge_a - 1)],
                        version_keys_[static_cast<size_t>(ack.merge_b - 1)]));
        }
        ORPHEUS_RETURN_NOT_OK(expect_count(ack.vid, want));
      }
    }
    return Status::OK();
  }

 private:
  struct Ack {
    VersionId vid;
    int64_t records;  // -1: a merge; counted from its parents at check time
    VersionId merge_a, merge_b;
  };
  struct Count {
    VersionId vid;
    int64_t want;
    std::string reply;
  };
  struct Session {
    explicit Session(uint64_t seed) : rng(seed) {}
    Rng rng;
    VersionId head = 0;
    std::vector<int64_t> keys;  // the head's keys, sorted
    int64_t next_key = 0;
    bool merge = false;
    VersionId merge_a = 0, merge_b = 0;
    int delete_residue = 0;
    std::vector<int64_t> inserted;
    std::vector<Ack> acks;
    std::vector<Count> counts;
    Status parse_error;
  };

  uint64_t seed_;
  DatasetSpec spec_;
  WorkloadFacts facts_;
  std::unique_ptr<Dataset> data_;
  std::vector<std::vector<int64_t>> version_keys_;
  std::vector<Session> sessions_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                            uint64_t seed) {
  if (name == "sci_explore") return std::make_unique<SciExplore>(seed);
  if (name == "cur_commit") return std::make_unique<CurCommit>(seed);
  return nullptr;
}

}  // namespace perfbench
