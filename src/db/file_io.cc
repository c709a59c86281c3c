#include "src/db/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/failpoint.h"

namespace edna::db {

Status WriteFully(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Internal(std::string("write failed: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return OkStatus();
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Internal("cannot open directory \"" + dir + "\" for fsync");
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Internal("fsync of directory \"" + dir + "\" failed");
  }
  return OkStatus();
}

Status WriteFileDurably(const std::string& dir, const std::string& final_name,
                        const std::vector<uint8_t>& bytes,
                        const char* rename_failpoint) {
  const std::string tmp = dir + "/" + final_name + ".tmp";
  const std::string final_path = dir + "/" + final_name;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Internal("cannot create \"" + tmp + "\": " + std::strerror(errno));
  }
  Status written = WriteFully(fd, bytes.data(), bytes.size());
  if (written.ok() && ::fsync(fd) != 0) {
    written = Internal("fsync of \"" + tmp + "\" failed");
  }
  ::close(fd);
  if (!written.ok()) {
    ::unlink(tmp.c_str());
    return written;
  }
  if (rename_failpoint != nullptr) {
    EDNA_FAIL_POINT(rename_failpoint);
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Internal("cannot install \"" + final_path + "\": " + std::strerror(errno));
  }
  return SyncDirectory(dir);
}

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return NotFound("no file at \"" + path + "\"");
    }
    return Internal("cannot open \"" + path + "\": " + std::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return Internal("read of \"" + path + "\" failed: " + std::strerror(errno));
    }
    if (n == 0) {
      break;
    }
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

}  // namespace edna::db
