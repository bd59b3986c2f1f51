#include "exp/record_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/log.hpp"
#include "exp/spec_digest.hpp"

namespace cuttlefish::exp {

/// Frame overhead: the magic before the body, the checksum after it.
constexpr size_t kFrameBytes = 4 + 8;

uint64_t checksum64(const void* data, size_t size) {
  return digest_bytes(data, size).lo;
}

FdCloser::~FdCloser() {
  if (fd >= 0) ::close(fd);
}

bool read_file(const std::string& path, std::string* out) {
  const FdCloser file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.fd < 0) return false;
  // One byte past the hinted size, so a file that did not change since
  // the fstat is read whole and its end seen in two read() calls.
  struct stat st;
  const size_t hint = ::fstat(file.fd, &st) == 0 && S_ISREG(st.st_mode)
                          ? static_cast<size_t>(st.st_size)
                          : 0;
  std::string data(hint + 1, '\0');
  size_t used = 0;
  while (true) {
    if (used == data.size()) data.resize(2 * data.size());
    const ssize_t n = ::read(file.fd, data.data() + used, data.size() - used);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;  // a directory fails here with EISDIR
    if (n == 0) break;
    used += static_cast<size_t>(n);
  }
  data.resize(used);
  *out = std::move(data);
  return true;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

size_t read_at(int fd, uint64_t offset, char* dst, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, dst + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  return done;
}

bool write_file_atomic(const std::string& path, std::string_view body) {
  // The rename would put a regular file where a FIFO, socket or device
  // node stood; refuse instead of destroying it.
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    CF_LOG_ERROR("record file: not replacing %s: not a regular file",
                 path.c_str());
    return false;
  }
  static std::atomic<uint64_t> next_temp{0};
  const std::string tmp =
      path + ".tmp-" + std::to_string(static_cast<long>(::getpid())) + "-" +
      std::to_string(next_temp.fetch_add(1, std::memory_order_relaxed));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  bool ok = fd >= 0 && write_all(fd, body);
  // close() can report a deferred write error, so it decides too.
  if (fd >= 0) ok = ::close(fd) == 0 && ok;
  ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    CF_LOG_ERROR("record file: cannot replace %s via %s: %s", path.c_str(),
                 tmp.c_str(), std::strerror(errno));
    ::unlink(tmp.c_str());
  }
  return ok;
}

std::string encode_frame(uint32_t magic, std::string_view body) {
  const uint64_t sum = checksum64(body.data(), body.size());
  std::string frame(reinterpret_cast<const char*>(&magic), sizeof(magic));
  frame.append(body);
  frame.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return frame;
}

size_t scan_frames(std::string_view data, size_t offset,
                   const FrameLayout& layout,
                   const std::function<void(std::string_view body)>& visit) {
  size_t pos = offset;
  while (pos < data.size()) {
    const size_t left = data.size() - pos;
    if (left < kFrameBytes + layout.head_bytes) break;
    uint32_t magic = 0;
    std::memcpy(&magic, data.data() + pos, 4);
    if (magic != layout.magic) break;
    const char* body = data.data() + pos + 4;
    uint64_t body_len = layout.head_bytes;
    for (int i = 1; i <= layout.lengths; ++i) {
      uint32_t len = 0;
      std::memcpy(&len, body + layout.head_bytes - 4 * i, 4);
      body_len += len;
    }
    if (body_len > left - kFrameBytes) break;
    uint64_t stored = 0;
    std::memcpy(&stored, body + body_len, 8);
    if (checksum64(body, body_len) != stored) break;
    visit(std::string_view(body, body_len));
    pos += kFrameBytes + body_len;
  }
  return pos;
}

bool whole_frame(std::string_view data, uint32_t magic,
                 std::string_view* body, std::string* error) {
  if (data.size() < kFrameBytes) {
    *error = "is truncated";
    return false;
  }
  uint32_t stored_magic = 0;
  uint64_t stored_sum = 0;
  std::memcpy(&stored_magic, data.data(), 4);
  std::memcpy(&stored_sum, data.data() + data.size() - 8, 8);
  const std::string_view payload = data.substr(4, data.size() - kFrameBytes);
  if (stored_magic != magic) {
    *error = "has a bad magic";
  } else if (checksum64(payload.data(), payload.size()) != stored_sum) {
    *error = "failed its checksum (torn or corrupt)";
  } else {
    *body = payload;
    return true;
  }
  return false;
}

}  // namespace cuttlefish::exp
