#include "store/durable.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace qs::store {

namespace {

int open_retry(const char* path, int flags, mode_t mode = 0) {
  int fd;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

bool fsync_retry(int fd) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc < 0 && errno == EINTR);
  return rc == 0;
}

bool write_full(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

void close_retry(int fd) {
  // POSIX leaves the fd state unspecified after EINTR; Linux closes it, so
  // a retry loop would double-close a potentially-reused descriptor.
  ::close(fd);
}

}  // namespace

bool sync_file(const std::string& path) {
  const int fd = open_retry(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = fsync_retry(fd);
  close_retry(fd);
  return ok;
}

bool sync_parent_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = open_retry(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = fsync_retry(fd);
  close_retry(fd);
  return ok;
}

bool write_file(const std::string& path, const void* data, std::size_t size,
                bool sync) {
  const int fd =
      open_retry(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = write_full(fd, data, size);
  if (ok && sync) ok = fsync_retry(fd);
  close_retry(fd);
  return ok;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

bool AppendFile::open(const std::string& path, bool sync_dir) {
  close();
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  fd_ = open_retry(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return false;
  if (sync_dir && !existed && !sync_parent_dir(path)) {
    close();
    return false;
  }
  return true;
}

bool AppendFile::append(const void* data, std::size_t size) {
  if (fd_ < 0) return false;
  return write_full(fd_, data, size);
}

bool AppendFile::sync() {
  if (fd_ < 0) return false;
  return fsync_retry(fd_);
}

void AppendFile::close() {
  if (fd_ >= 0) {
    close_retry(fd_);
    fd_ = -1;
  }
}

}  // namespace qs::store
