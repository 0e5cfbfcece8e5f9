#include "util/file_io.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace ps::util {
namespace {

/// Whether `path` is a regular file holding exactly `bytes`.
bool holds_bytes(const std::string& path, std::string_view bytes) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) ||
      std::filesystem::file_size(path, ec) != bytes.size()) {
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  char chunk[16384];
  while (!bytes.empty()) {
    const std::size_t n = std::min(sizeof(chunk), bytes.size());
    if (!in.read(chunk, static_cast<std::streamsize>(n)) ||
        std::memcmp(chunk, bytes.data(), n) != 0) {
      return false;
    }
    bytes.remove_prefix(n);
  }
  return true;
}

/// Opens `target` for writing, runs `fill` and closes it; errors name
/// `path`, the file the caller asked for.
Status write_with(const std::string& target, const std::string& path,
                  const FileFiller& fill) {
  std::FILE* file = std::fopen(target.c_str(), "wb");
  int error = file == nullptr ? errno : 0;
  if (file != nullptr) {
    errno = 0;
    if (!fill(file) || std::ferror(file) != 0) {
      error = errno != 0 ? errno : EIO;
    }
    if (std::fclose(file) != 0 && error == 0) error = errno;
  }
  if (error == 0) return Status();
  return Status::runtime("cannot write '" + path +
                         "': " + std::strerror(error));
}

}  // namespace

Status replace_file(const std::string& path, const FileFiller& fill) {
  static std::atomic<unsigned> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  Status status = write_with(tmp, path, fill);
  // The replacement keeps the permission bits of the file it replaces.
  struct stat st;
  if (status.ok() && ::stat(path.c_str(), &st) == 0 &&
      ::chmod(tmp.c_str(), st.st_mode & 07777) != 0) {
    status = Status::runtime("cannot replace '" + path +
                             "': " + std::strerror(errno));
  }
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::runtime("cannot replace '" + path +
                             "': " + std::strerror(errno));
  }
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
}

Status write_file_if_changed(const std::string& path, std::string_view bytes) {
  if (holds_bytes(path, bytes)) return Status();
  const FileFiller put = [bytes](std::FILE* file) {
    return std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  };
  // A symlink, device or FIFO at the path is written through, as a plain
  // open would (`--csv /dev/stdout`): a rename would replace the link or
  // node itself. A directory fails at the open.
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return write_with(path, path, put);
  }
  return replace_file(path, put);
}

}  // namespace ps::util
