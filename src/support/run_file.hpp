// Append-only run files for external-memory algorithms (the disk side of
// the delayed-duplicate-detection visited set, external_set.hpp).
//
// A RunFile is a plain POSIX file created O_EXCL in a caller-chosen
// directory and unlinked immediately — the fd (not the directory entry)
// owns the blocks, so a crashed or killed run leaves nothing behind. Run
// files are never mapped: access is strictly sequential append (buffered
// through a small RAM window, flushed with pwrite) plus sequential or
// positioned pread — the access pattern sorted-run merging wants, with
// no page-cache aliasing of a mapping to reason about.
//
// A file rewritten every merge generation is rewound, not truncated: the
// next generation overwrites the previous one from offset zero, so pages
// already in the page cache are reused in place. Reads never reach past
// the logical size, so the stale tail of a longer earlier generation is
// never seen.
//
// All I/O is checked: any short write/read or syscall failure marks the
// file dead and every later operation reports failure, so a full disk
// surfaces as an honest verdict upstream (Unfinished), never silent
// truncation of the visited set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ccref {

/// Create `dir` (one level) if missing and probe it for writability.
/// False when the directory cannot be created or written.
[[nodiscard]] bool ensure_run_dir(const std::string& dir);

class RunFile {
 public:
  RunFile() = default;
  ~RunFile() { close(); }

  RunFile(RunFile&& other) noexcept { *this = std::move(other); }
  RunFile& operator=(RunFile&& other) noexcept;

  RunFile(const RunFile&) = delete;
  RunFile& operator=(const RunFile&) = delete;

  /// Create a fresh unlinked file under `dir`. `tag` names the file for
  /// the brief window before unlink (debuggability only). `buffer_bytes`
  /// sizes the append buffer; 0 makes every append one pwrite (for
  /// callers that only ever append whole blocks). False on any failure.
  [[nodiscard]] bool open(const std::string& dir, const char* tag,
                          std::size_t buffer_bytes = 4096);

  [[nodiscard]] bool ok() const { return fd_ >= 0 && !dead_; }

  /// Buffered append; false on I/O failure (file is dead afterwards).
  [[nodiscard]] bool append(const void* data, std::size_t n);

  /// Append `head` then `body` as one record: a single buffer check when
  /// both fit, so a framed record costs one call, not one per field.
  [[nodiscard]] bool append(const void* head, std::size_t head_n,
                            const void* body, std::size_t body_n);

  /// Flush the append buffer to disk. Required before read/pread_at see
  /// the buffered tail. False on I/O failure.
  [[nodiscard]] bool flush();

  /// Logical bytes appended so far (buffered or flushed).
  [[nodiscard]] std::uint64_t bytes() const { return size_; }

  /// Positioned read of flushed content; false on failure or short read.
  [[nodiscard]] bool pread_at(std::uint64_t offset, void* out,
                              std::size_t n) const;

  /// Bytes the file has held at most: its size on disk. Above bytes()
  /// after a rewind() to a shorter generation.
  [[nodiscard]] std::uint64_t high_water() const {
    return std::max(high_water_, size_);
  }

  /// Truncate back to empty and restart appends at offset zero (pending
  /// buffers are reused across merge generations). False on failure.
  [[nodiscard]] bool reset();

  /// Restart appends at offset zero WITHOUT truncating: the next
  /// generation overwrites the old one in place. Buffered, unflushed bytes
  /// are discarded. False when the file is dead.
  [[nodiscard]] bool rewind();

  void close();

  /// Buffered sequential reader over a RunFile's flushed content: one
  /// pread refills a whole window. The caller flushes before reading what
  /// it appended; appends after the reader's position become readable
  /// once flushed.
  class Reader {
   public:
    /// The window is allocated at the first refill. A reader made without
    /// a file reads nothing until restart() names one.
    explicit Reader(std::size_t buffer_bytes = 65536)
        : base_(std::max<std::size_t>(buffer_bytes, 1)) {}
    explicit Reader(const RunFile& file, std::size_t buffer_bytes = 65536)
        : Reader(buffer_bytes) {
      file_ = &file;
    }

    /// The next `n` bytes, contiguous in the window and consumed; valid
    /// until the next take/restart. A record larger than the window
    /// grows it. nullptr when fewer than `n` bytes remain or I/O fails.
    [[nodiscard]] const std::byte* take(std::size_t n);

    /// Read `file` from offset zero, dropping the window's contents and
    /// shrinking a window that take() grew back to its initial size.
    void restart(const RunFile& file);

    [[nodiscard]] std::uint64_t remaining() const {
      return file_->bytes() - pos_;
    }

    /// Bytes the window may hold now: its initial size, or more after a
    /// take() larger than that.
    [[nodiscard]] std::size_t window_bytes() const {
      return std::max(base_, buf_.size());
    }

   private:
    /// Keep the unconsumed bytes, move them to the front, and fill the
    /// rest of a window of at least `want` bytes with one pread.
    [[nodiscard]] bool refill(std::size_t want);

    const RunFile* file_ = nullptr;
    std::size_t base_;  // initial window size
    std::vector<std::byte> buf_;
    std::uint64_t pos_ = 0;    // logical read position in the file
    std::size_t buf_off_ = 0;  // consumed bytes of the current window
    std::size_t buf_len_ = 0;  // valid bytes in the current window
  };

 private:
  int fd_ = -1;
  bool dead_ = false;
  std::uint64_t size_ = 0;     // logical size incl. buffered tail
  std::uint64_t flushed_ = 0;  // bytes actually written to the fd
  std::uint64_t high_water_ = 0;  // largest size before the last rewind()
  std::vector<std::byte> buf_;
  std::size_t buf_used_ = 0;
};

}  // namespace ccref
