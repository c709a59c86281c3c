// File helpers shared by everything in src/db that writes to disk: database
// images (storage.cc), checkpoint snapshots and journal images (durable.cc)
// and the write-ahead log (wal.cc).
#ifndef SRC_DB_FILE_IO_H_
#define SRC_DB_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace edna::db {

// write(2) until all `len` bytes are out, retrying on EINTR and short writes.
Status WriteFully(int fd, const uint8_t* data, size_t len);

// fsyncs a directory so a just-renamed entry survives a crash.
Status SyncDirectory(const std::string& dir);

// Atomic file install: write <dir>/<final_name>.tmp, fsync it, rename it over
// <dir>/<final_name>, fsync the directory. A failed write or fsync removes the
// temp file and leaves any existing <final_name> untouched. `rename_failpoint`
// (optional) is evaluated between the temp write and the rename — the crash
// window where the new file is complete but invisible; when it fires the
// temp file stays behind, as it would after a real crash there.
Status WriteFileDurably(const std::string& dir, const std::string& final_name,
                        const std::vector<uint8_t>& bytes, const char* rename_failpoint);

// Reads a whole file. kNotFound if it does not exist, kInternal on any other
// open or read failure.
StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace edna::db

#endif  // SRC_DB_FILE_IO_H_
