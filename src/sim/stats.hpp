// Simulator statistics: a mergeable latency histogram, structured stall
// diagnostics, and the discrete-event simulator's counter block.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ccref::sim {

/// Fixed-footprint latency histogram: 64 power-of-two decades × 8 linear
/// sub-buckets, covering [0, 2^63] cycles with <= 12.5% relative error per
/// bucket. Mergeable across lanes (plain counter addition), so percentile
/// extraction after a parallel run needs no per-sample storage.
class LatencyHistogram {
 public:
  void record(std::uint64_t cycles);
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// Upper edge of the bucket holding the p-th percentile (p in [0,1]);
  /// 0 when empty. percentile(0.5) is p50, percentile(0.99) is p99.
  [[nodiscard]] std::uint64_t percentile(double p) const;

 private:
  static constexpr int kSub = 8;  // linear sub-buckets per decade
  [[nodiscard]] static int bucket_of(std::uint64_t v);
  [[nodiscard]] static std::uint64_t bucket_hi(int b);

  std::vector<std::uint64_t> buckets_;  // grown on demand, decade-major
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Structured stall diagnostics: when a run wedges or exhausts its budget
/// before the workload completes, this names the first blocked operation,
/// the remote/node executing it, and the queue occupancies around it — not
/// just a prose reason.
struct Stall {
  std::string reason;     // "" = no stall; else a short slug + context
  std::string op;         // blocked operation name ("acquire", "w", ...)
  int remote = -1;        // blocked remote slot / node id; -1 unknown
  std::size_t up_occupancy = 0;    // up-channel depth at the blocked remote
  std::size_t down_occupancy = 0;  // down-channel depth at it
  std::size_t home_buffer = 0;     // home request-buffer depth

  [[nodiscard]] bool stalled() const { return !reason.empty(); }
  /// One-line rendering for logs: reason plus the blocked-op context.
  [[nodiscard]] std::string to_string() const;
};

/// Streams Stall::to_string() (so gtest failure messages stay one-liners).
std::ostream& operator<<(std::ostream& os, const Stall& s);

/// Per-node operation counters.
struct NodeOps {
  std::uint64_t completed = 0;
};

/// Counters of one discrete-event run; merged across lanes.
struct DesStats {
  std::uint64_t events = 0;       // applied state transitions
  std::uint64_t cycles = 0;       // simulated time at completion
  std::uint64_t req = 0, ack = 0, nack = 0, repl = 0;
  std::uint64_t completions = 0;  // rendezvous completed
  std::uint64_t ops_total = 0;
  std::uint64_t retries = 0;           // nacks delivered back to remotes
  std::uint64_t memory_accesses = 0;   // data messages sourced by the home
  std::uint64_t c2c_transfers = 0;     // data messages sourced by a cache
  std::uint64_t write_backs = 0;       // data pushed remote -> home
  std::uint64_t home_busy_cycles = 0;  // directory occupancy, summed
  std::uint64_t wbuf_hits = 0;         // stores retired into the write buffer
  std::uint64_t wbuf_drains = 0;       // buffer flushes on coherence events
  std::uint64_t instances = 0;         // address instances materialized
  std::uint64_t windows = 0;  // cross-lane barriers (0 for a single lane)
  LatencyHistogram latency;            // per-op issue -> completion cycles
  std::vector<NodeOps> nodes;
  bool finished = false;
  Stall stall;

  [[nodiscard]] std::uint64_t messages() const {
    return req + ack + nack + repl;
  }
  [[nodiscard]] double msgs_per_op() const {
    return ops_total ? static_cast<double>(messages()) /
                           static_cast<double>(ops_total)
                     : 0.0;
  }
  /// Fraction of simulated time the home directory was busy (averaged over
  /// address instances when there are several).
  [[nodiscard]] double home_occupancy() const {
    if (!cycles || !instances) return 0.0;
    return static_cast<double>(home_busy_cycles) /
           (static_cast<double>(cycles) * static_cast<double>(instances));
  }
  /// Jain's fairness index over per-node completed ops.
  [[nodiscard]] double fairness_index() const;

  void merge(const DesStats& other);
};

}  // namespace ccref::sim
