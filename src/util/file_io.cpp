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

constexpr std::size_t kChunk = 16384;

/// Whether `path` is a regular file of `size` bytes that equal, chunk by
/// chunk, what `next(n)` returns: a pointer to the next n bytes of the
/// other side, or null when it cannot give them.
template <typename Next>
bool holds(const std::string& path, std::uintmax_t size, Next next) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) ||
      std::filesystem::file_size(path, ec) != size) {
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  char chunk[kChunk];
  while (size > 0) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uintmax_t>(sizeof(chunk), size));
    const char* other = next(n);
    if (other == nullptr || !in.read(chunk, static_cast<std::streamsize>(n)) ||
        std::memcmp(chunk, other, n) != 0) {
      return false;
    }
    size -= n;
  }
  return true;
}

/// Whether `path` is a regular file holding exactly `bytes`.
bool holds_bytes(const std::string& path, std::string_view bytes) {
  return holds(path, bytes.size(), [&bytes](std::size_t n) {
    const char* data = bytes.data();
    bytes.remove_prefix(n);
    return data;
  });
}

/// Whether `path` is a regular file holding the same bytes as the regular
/// file `other`.
bool holds_file(const std::string& path, const std::string& other) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(other, ec);
  if (ec) return false;
  std::ifstream in(other, std::ios::binary);
  char chunk[kChunk];
  return holds(path, size, [&](std::size_t n) -> const char* {
    return in.read(chunk, static_cast<std::streamsize>(n)) ? chunk : nullptr;
  });
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

/// Writes `path` through a same-directory temp file renamed into place.
/// With `keep_identical`, a temp file equal to `path` is removed instead,
/// so `path` keeps its inode and mtime.
Status replace_file(const std::string& path, const FileFiller& fill,
                    bool keep_identical) {
  static std::atomic<unsigned> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  Status status = write_with(tmp, path, fill);
  if (status.ok() && keep_identical && holds_file(path, tmp)) {
    std::remove(tmp.c_str());
    return status;
  }
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

/// A symlink, device or FIFO at the path is written through, as a plain
/// open would (`--csv /dev/stdout`): a rename would replace the link or
/// node itself. A directory fails at the open.
bool write_through(const std::string& path) {
  struct stat st;
  return ::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
}

}  // namespace

Status write_file_if_changed(const std::string& path, std::string_view bytes) {
  if (holds_bytes(path, bytes)) return Status();
  const FileFiller put = [bytes](std::FILE* file) {
    return std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  };
  if (write_through(path)) return write_with(path, path, put);
  return replace_file(path, put, /*keep_identical=*/false);
}

Status write_file_if_changed(const std::string& path, const FileFiller& fill) {
  if (write_through(path)) return write_with(path, path, fill);
  return replace_file(path, fill, /*keep_identical=*/true);
}

}  // namespace ps::util
