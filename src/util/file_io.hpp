// The writers for the program's output files (results CSVs, figure
// reports, the dispatch manifest, cache files, traces and metrics).
//
// Reruns mostly reproduce the files already on disk byte for byte. On
// filesystems with delayed allocation (ext4's default), truncating,
// unlinking or renaming over a file whose last write is still in writeback
// waits for that IO, tens of milliseconds per file, so rewriting identical
// bytes is the slowest part of a warm rerun. write_file_if_changed compares
// first and leaves an identical file alone: its inode and mtime stay, which
// also keeps make-style consumers from rebuilding on a no-op rerun.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace ps::util {

/// Writes a file's contents to an open stream; false when it gave up.
using FileFiller = std::function<bool(std::FILE*)>;

/// Replaces the file at `path` atomically: `fill` writes a temp file in the
/// same directory, which is renamed into place, so a reader never sees a
/// torn file. This needs write permission on the directory; the new file
/// keeps the old one's permission bits but is owned by the writer, and
/// hard links to the old file keep the old contents. A failed open, a false `fill`, a write error or a failed
/// rename is a runtime Status naming `path` and the system error, and the
/// temp file is removed.
Status replace_file(const std::string& path, const FileFiller& fill);

/// Makes the file at `path` hold exactly `bytes`. When it already does
/// (same size, then equal in fixed-size chunks, so no whole-file buffer),
/// nothing is written. Otherwise the file is replaced with replace_file; a
/// symlink, device or FIFO at `path` is written through in place instead.
/// A directory at `path` fails like any other write error.
Status write_file_if_changed(const std::string& path, std::string_view bytes);

}  // namespace ps::util
