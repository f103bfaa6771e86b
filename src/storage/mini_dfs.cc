#include "storage/mini_dfs.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/logging.h"

namespace fs = std::filesystem;

namespace gthinker {

MiniDfs::MiniDfs(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  GT_CHECK(!ec) << "cannot create dfs root " << root_ << ": " << ec.message();
}

std::string MiniDfs::PathFor(const std::string& key) const {
  return root_ + "/" + key;
}

Status MiniDfs::Put(const std::string& key, const std::string& data) {
  const fs::path path = PathFor(key);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) return Status::IoError("mkdir " + path.string() + ": " + ec.message());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("open " + path.string() + ": " +
                           std::strerror(errno));
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::IoError("write " + path.string());
  return Status::Ok();
}

Status MiniDfs::Get(const std::string& key, std::string* data) const {
  const std::string path = PathFor(key);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("no such key: " + key);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  data->resize(static_cast<size_t>(size));
  in.read(data->data(), size);
  if (!in) return Status::IoError("read " + path);
  return Status::Ok();
}

bool MiniDfs::Exists(const std::string& key) const {
  std::error_code ec;
  return fs::exists(PathFor(key), ec);
}

Status MiniDfs::Delete(const std::string& key) {
  std::error_code ec;
  if (!fs::remove(PathFor(key), ec) || ec) {
    return Status::NotFound("no such key: " + key);
  }
  return Status::Ok();
}

Status MiniDfs::List(const std::string& dir,
                     std::vector<std::string>* keys) const {
  keys->clear();
  const fs::path path = PathFor(dir);
  std::error_code ec;
  if (!fs::exists(path, ec)) return Status::Ok();  // empty listing
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    if (entry.is_regular_file()) {
      keys->push_back(dir + "/" + entry.path().filename().string());
    }
  }
  if (ec) return Status::IoError("list " + path.string() + ": " + ec.message());
  std::sort(keys->begin(), keys->end());
  return Status::Ok();
}

Status MiniDfs::Clear() {
  std::error_code ec;
  fs::remove_all(root_, ec);
  fs::create_directories(root_, ec);
  if (ec) return Status::IoError("clear " + root_ + ": " + ec.message());
  return Status::Ok();
}

std::string TempDirPath(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1);
  const fs::path base = fs::temp_directory_path() / "gthinker";
  return (base / (tag + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(id)))
      .string();
}

std::string MakeTempDir(const std::string& tag) {
  const std::string dir = TempDirPath(tag);
  std::error_code ec;
  fs::create_directories(dir, ec);
  GT_CHECK(!ec) << "cannot create temp dir " << dir;
  return dir;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

}  // namespace gthinker
