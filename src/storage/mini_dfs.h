#ifndef GTHINKER_STORAGE_MINI_DFS_H_
#define GTHINKER_STORAGE_MINI_DFS_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace gthinker {

/// Local-directory file substrate standing in for HDFS (DESIGN.md §1).
/// G-thinker uses HDFS for two things only: loading line-oriented graph
/// partitions at job start and committing checkpoints. Both map to blob
/// put/get over a rooted namespace of relative keys.
///
/// Thread-safe for distinct keys (the filesystem provides that); callers
/// serialize same-key writes.
class MiniDfs {
 public:
  /// Creates (or reuses) the root directory.
  explicit MiniDfs(std::string root);

  const std::string& root() const { return root_; }

  /// Writes a blob under `key` (subdirectories created as needed).
  Status Put(const std::string& key, const std::string& data);

  Status Get(const std::string& key, std::string* data) const;

  bool Exists(const std::string& key) const;

  Status Delete(const std::string& key);

  /// Lists keys under a directory prefix (non-recursive), sorted.
  Status List(const std::string& dir, std::vector<std::string>* keys) const;

  /// Deletes everything under the root.
  Status Clear();

  /// Full local path for a key (for APIs that need a real file path).
  std::string PathFor(const std::string& key) const;

 private:
  std::string root_;
};

/// A unique temporary directory path under the system temp root, named
/// with the given tag, not yet created: for a directory that may never be
/// needed (a job's spill root is created by its first spill).
std::string TempDirPath(const std::string& tag);

/// Creates a unique fresh temporary directory under the system temp root,
/// named with the given tag. Used by tests and baselines.
std::string MakeTempDir(const std::string& tag);

/// Recursively removes a directory tree (best-effort).
void RemoveTree(const std::string& path);

}  // namespace gthinker

#endif  // GTHINKER_STORAGE_MINI_DFS_H_
