#include "support/run_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "support/strings.hpp"

namespace ccref {

namespace {
// Distinguishes files of concurrent sets sharing one directory during the
// pre-unlink window (and keeps O_EXCL collisions impossible).
std::atomic<std::uint64_t> g_run_seq{0};
}  // namespace

bool ensure_run_dir(const std::string& dir) {
  if (dir.empty()) return false;
  if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST) return false;
  std::string probe = strf("%s/.ccref-run-probe-%d", dir.c_str(),
                           static_cast<int>(::getpid()));
  int fd = ::open(probe.c_str(), O_CREAT | O_RDWR, 0600);
  if (fd < 0) return false;
  ::close(fd);
  ::unlink(probe.c_str());
  return true;
}

RunFile& RunFile::operator=(RunFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    dead_ = std::exchange(other.dead_, false);
    size_ = std::exchange(other.size_, 0);
    flushed_ = std::exchange(other.flushed_, 0);
    high_water_ = std::exchange(other.high_water_, 0);
    buf_ = std::move(other.buf_);
    buf_used_ = std::exchange(other.buf_used_, 0);
  }
  return *this;
}

bool RunFile::open(const std::string& dir, const char* tag,
                   std::size_t buffer_bytes) {
  close();
  std::string path = strf(
      "%s/run-%d-%llu-%s.tmp", dir.c_str(), static_cast<int>(::getpid()),
      static_cast<unsigned long long>(
          g_run_seq.fetch_add(1, std::memory_order_relaxed)),
      tag);
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_EXCL, 0600);
  if (fd_ < 0) return false;
  // The fd owns the blocks from here: a crashed run leaves no files.
  ::unlink(path.c_str());
  dead_ = false;
  size_ = flushed_ = high_water_ = 0;
  buf_.resize(buffer_bytes);
  buf_used_ = 0;
  return true;
}

bool RunFile::append(const void* data, std::size_t n) {
  if (!ok()) return false;
  const auto* p = static_cast<const std::byte*>(data);
  while (n > 0) {
    if (buf_used_ == buf_.size() && !flush()) return false;
    if (buf_used_ == 0 && n >= buf_.size()) {
      // Oversized writes bypass the buffer entirely.
      ssize_t w = ::pwrite(fd_, p, n, static_cast<off_t>(flushed_));
      if (w < 0 || static_cast<std::size_t>(w) != n) {
        dead_ = true;
        return false;
      }
      flushed_ += n;
      size_ += n;
      return true;
    }
    const std::size_t take = std::min(n, buf_.size() - buf_used_);
    std::memcpy(buf_.data() + buf_used_, p, take);
    buf_used_ += take;
    size_ += take;
    p += take;
    n -= take;
  }
  return true;
}

bool RunFile::append(const void* head, std::size_t head_n, const void* body,
                     std::size_t body_n) {
  if (!ok()) return false;
  if (head_n + body_n == 0) return true;
  if (head_n + body_n > buf_.size() - buf_used_)
    return append(head, head_n) && append(body, body_n);
  std::memcpy(buf_.data() + buf_used_, head, head_n);
  if (body_n != 0) std::memcpy(buf_.data() + buf_used_ + head_n, body, body_n);
  buf_used_ += head_n + body_n;
  size_ += head_n + body_n;
  return true;
}

bool RunFile::flush() {
  if (!ok()) return false;
  if (buf_used_ == 0) return true;
  ssize_t w = ::pwrite(fd_, buf_.data(), buf_used_,
                       static_cast<off_t>(flushed_));
  if (w < 0 || static_cast<std::size_t>(w) != buf_used_) {
    dead_ = true;
    return false;
  }
  flushed_ += buf_used_;
  buf_used_ = 0;
  return true;
}

bool RunFile::pread_at(std::uint64_t offset, void* out, std::size_t n) const {
  if (fd_ < 0 || dead_ || offset + n > flushed_) return false;
  auto* p = static_cast<std::byte*>(out);
  while (n > 0) {
    ssize_t r = ::pread(fd_, p, n, static_cast<off_t>(offset));
    if (r <= 0) return false;
    offset += static_cast<std::uint64_t>(r);
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool RunFile::reset() {
  if (!ok()) return false;
  if (::ftruncate(fd_, 0) != 0) {
    dead_ = true;
    return false;
  }
  size_ = flushed_ = high_water_ = 0;
  buf_used_ = 0;
  return true;
}

bool RunFile::rewind() {
  if (!ok()) return false;
  high_water_ = std::max(high_water_, flushed_);
  size_ = flushed_ = 0;
  buf_used_ = 0;
  return true;
}

void RunFile::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  dead_ = false;
  size_ = flushed_ = high_water_ = 0;
  buf_.clear();
  buf_used_ = 0;
}

const std::byte* RunFile::Reader::take(std::size_t n) {
  if (buf_len_ - buf_off_ < n || buf_.empty()) {
    if (!refill(n)) return nullptr;
  }
  const std::byte* p = buf_.data() + buf_off_;
  buf_off_ += n;
  pos_ += n;
  return p;
}

void RunFile::Reader::restart(const RunFile& file) {
  file_ = &file;
  pos_ = 0;
  buf_off_ = buf_len_ = 0;
  if (buf_.size() > base_) {
    buf_.resize(base_);
    buf_.shrink_to_fit();
  }
}

bool RunFile::Reader::refill(std::size_t want) {
  const std::size_t keep = buf_len_ - buf_off_;
  const std::size_t cap = std::max(base_, want);
  if (buf_.size() < cap) {
    std::vector<std::byte> grown(cap);
    if (keep != 0)
      std::memcpy(grown.data(), buf_.data() + buf_off_, keep);
    buf_.swap(grown);
  } else if (keep != 0 && buf_off_ != 0) {
    std::memmove(buf_.data(), buf_.data() + buf_off_, keep);
  }
  buf_off_ = 0;
  buf_len_ = keep;
  // Only flushed bytes are on disk; a rewound file's stale tail lies past
  // flushed_ and is never read.
  const std::uint64_t from = pos_ + keep;
  const std::uint64_t avail =
      file_->flushed_ > from ? file_->flushed_ - from : 0;
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(avail, buf_.size() - keep));
  if (n != 0 && !file_->pread_at(from, buf_.data() + keep, n)) return false;
  buf_len_ += n;
  return buf_len_ >= want;
}

}  // namespace ccref
