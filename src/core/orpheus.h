// OrpheusDB: the top-level middleware facade (Figure 2 of the paper).
//
// Owns the backing relstore Database, the registered CVDs, the user
// registry (access controller), any partition stores installed by the
// optimizer, and — when a durable directory is open — the storage
// manager that makes the version-control verbs crash-safe. The CLI and
// the examples talk to this class; tests may also reach into Cvd
// directly (such direct mutations bypass the commit WAL and are only
// persisted by the next snapshot).
//
// Durability contract: with Open() active, every version-control verb
// (CreateUser/Login/InitCvd/Checkout/Commit/DiscardStaged/DropCvd and
// partition-store attachment) is appended to the commit WAL after its
// in-memory apply succeeds; reopening the directory replays the log on
// top of the latest snapshot. Raw SQL against db() is NOT logged — it
// becomes durable at the next Checkpoint()/SaveSnapshot(). See
// docs/PERSISTENCE.md for the recovery contract.

#ifndef ORPHEUS_CORE_ORPHEUS_H_
#define ORPHEUS_CORE_ORPHEUS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cvd.h"
#include "core/query_translator.h"
#include "partition/partition_store.h"
#include "relstore/database.h"

namespace orpheus::storage {
class SnapshotCodec;
class StorageManager;
}

namespace orpheus::core {

class OrpheusDB {
 public:
  OrpheusDB();
  ~OrpheusDB();  // out of line: StorageManager is incomplete here

  rel::Database* db() { return &db_; }

  // --- Access controller ------------------------------------------------
  Status CreateUser(const std::string& name);
  Status Login(const std::string& name);  // the paper's `config`
  const std::string& WhoAmI() const { return current_user_; }

  // --- CVD lifecycle -----------------------------------------------------
  // `init`: registers a dataset as a new CVD and creates version 1.
  Result<Cvd*> InitCvd(const std::string& name, const rel::Chunk& rows,
                       CvdOptions options, const std::string& message);
  Result<Cvd*> GetCvd(const std::string& name);
  std::vector<std::string> ListCvds() const;  // `ls`
  Status DropCvd(const std::string& name);    // `drop`

  // --- Version-control verbs ---------------------------------------------
  // Durable wrappers over Cvd::Checkout / Commit / DiscardStaged: the
  // same semantics, plus a WAL record when storage is open. Prefer
  // these over the Cvd methods anywhere durability matters.
  Status Checkout(const std::string& cvd_name, const std::vector<VersionId>& vids,
                  const std::string& table_name);
  // Commit resolves the staged table (Cvd::ResolveCommit), installs the
  // result through ApplyCommit, and logs the resolved delta.
  Result<VersionId> Commit(const std::string& cvd_name,
                           const std::string& table_name,
                           const std::string& message);
  // Installs a resolved commit: Cvd::ApplyCommit, then — if the CVD is
  // partitioned — places the version in its primary parent's
  // partition. WAL replay of a commit record calls only this.
  Result<VersionId> ApplyCommit(const std::string& cvd_name,
                                const CommitDelta& delta);
  Status DiscardStaged(const std::string& cvd_name,
                       const std::string& table_name);

  // --- Versioned SQL (`run`) ---------------------------------------------
  // Translates VERSION/OF/CVD constructs, then executes.
  Result<rel::Chunk> Run(const std::string& sql);

  // The translator's view of which tables back a CVD version; the
  // partition optimizer installs overrides through Cvd.
  Result<std::pair<std::string, std::string>> ResolveTables(
      const std::string& cvd_name, VersionId vid);

  // Per-CVD table resolver overrides (installed by the partition
  // optimizer alongside the checkout override).
  void SetTableResolver(const std::string& cvd_name, TableResolver resolver);
  void ClearTableResolver(const std::string& cvd_name);

  // --- Partition optimizer integration -------------------------------
  // Takes ownership of a built partition store for `cvd_name` and
  // installs the checkout override + query-translator resolver (and
  // logs the repartitioning when durable). Replaces any prior store.
  Status AttachPartitionStore(const std::string& cvd_name,
                              std::unique_ptr<part::PartitionStore> store);
  // nullptr if the CVD has no partition store.
  part::PartitionStore* partition_store(const std::string& cvd_name);
  // Destroys the CVD's store (dropping its partition tables) and
  // removes the overrides. No-op without a store.
  void DetachPartitionStore(const std::string& cvd_name);

  // --- Durable storage ----------------------------------------------------
  // Opens (creating if needed) a durable database directory: restores
  // the latest snapshot, replays the commit WAL tail, and arms
  // auto-logging. Requires a fresh engine (no CVDs, no tables).
  Status Open(const std::string& dir);
  // Writes a fresh snapshot (temp file + atomic rename) and truncates
  // the WAL. Requires Open().
  Status Checkpoint();
  // One-shot snapshot export to `dir` (works without Open; does not
  // arm logging).
  Status SaveSnapshot(const std::string& dir);

  bool durable() const { return storage_ != nullptr; }
  // Empty when not durable.
  std::string storage_dir() const;
  storage::StorageManager* storage() { return storage_.get(); }

 private:
  friend class storage::SnapshotCodec;
  friend class storage::StorageManager;

  rel::Database db_;
  std::map<std::string, std::unique_ptr<Cvd>> cvds_;
  std::map<std::string, TableResolver> resolver_overrides_;
  // One store per optimized CVD; destroyed before db_ (reverse member
  // order) since dropping a store drops its tables.
  std::map<std::string, std::unique_ptr<part::PartitionStore>> partition_stores_;
  std::set<std::string> users_;
  std::string current_user_;
  std::unique_ptr<storage::StorageManager> storage_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_ORPHEUS_H_
