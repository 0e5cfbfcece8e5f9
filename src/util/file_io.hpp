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

/// Makes the file at `path` hold exactly `bytes`. When it already does
/// (same size, then equal in fixed-size chunks, so no whole-file buffer),
/// nothing is written. Otherwise the file is replaced atomically: the bytes
/// go to a temp file in the same directory, which is renamed into place, so
/// a reader never sees a torn file. This needs write permission on the
/// directory; the new file keeps the old one's permission bits but is owned
/// by the writer, and hard links to the old file keep the old contents. A
/// symlink, device or FIFO at `path` is written through in place instead.
/// A failed open, write or rename is a runtime Status naming `path` and the
/// system error, and the temp file is removed; a directory at `path` fails
/// like any other write error.
Status write_file_if_changed(const std::string& path, std::string_view bytes);

/// The same for a file produced by a stream writer: `fill` streams into the
/// temp file, which is then compared with `path` in fixed-size chunks (no
/// whole-file buffer) and removed when they are equal, leaving `path`
/// untouched; otherwise it is renamed into place as above. A symlink,
/// device or FIFO at `path` is written through without a comparison. A
/// false `fill` or a write error is a runtime Status naming `path`, and a
/// file that would have been replaced is left untouched.
Status write_file_if_changed(const std::string& path, const FileFiller& fill);

}  // namespace ps::util
