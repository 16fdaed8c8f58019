// Congestion & latency telemetry for the cycle-level simulator: the
// exact measured-latency distribution (counts per value, with exact
// percentiles), a hop-count histogram, per-link
// utilization and per-VC-class occupancy time series over fixed-width
// windows (bounded memory: windows coalesce pairwise when the cap is
// reached), per-router peak backlog, and a seeded-sampling packet event
// trace streamed as JSONL.
//
// Everything here is off the hot path unless TelemetryConfig::enabled is
// set — the Network keeps a null collector otherwise — and nothing in
// this file draws from the simulation RNG streams, so enabling telemetry
// (or tracing) never perturbs the simulated statistics: a telemetry-on
// run is bit-identical to a telemetry-off run in every measured field.
//
// Merge discipline: per-point telemetry is extracted from one Network
// (deterministic), and the record-level aggregate keeps only integer
// counters (histograms, maxima) whose merge is commutative and
// associative — so sharded suite schedulers produce bit-identical
// records in any merge order.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pf::sim {

class TraceSink;

/// Telemetry knobs, carried inside SimConfig. Default-off: the zero
/// state leaves the simulator untouched.
struct TelemetryConfig {
  bool enabled = false;
  /// Initial time-series window width (cycles). Windows double in width
  /// (coalescing pairwise) whenever the window count hits max_windows.
  int window_cycles = 256;
  /// Memory bound on the per-run series length.
  int max_windows = 64;
  /// How many of the busiest links keep a full utilization series.
  int top_links = 8;
  /// Packet-trace sampling probability in [0, 1]; 0 disables tracing.
  /// The decision is a hash of (trace_seed, terminal, birth cycle) —
  /// independent of the simulation RNGs, reproducible by seed.
  double trace_sample = 0.0;
  std::uint64_t trace_seed = 0;
  /// Hard cap on emitted trace events (runaway protection).
  std::int64_t trace_max_events = std::int64_t{1} << 20;
  /// Where trace lines go; non-owning, may be shared. Null disables
  /// tracing regardless of trace_sample.
  TraceSink* trace = nullptr;
};

/// Thread-safe JSONL sink for packet event traces: file-backed for
/// `--trace PATH`, in-memory for tests and determinism checks.
class TraceSink {
 public:
  TraceSink() = default;  ///< in-memory sink
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Opens a file-backed sink; null on failure (caller reports).
  static std::unique_ptr<TraceSink> open_file(const std::string& path);

  void append(const char* data, std::size_t size);
  /// Contents of an in-memory sink (file-backed sinks buffer nothing).
  const std::string& memory() const { return memory_; }

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::string memory_;
};

/// Log2-bucketed counter histogram: bucket 0 counts value 0, bucket
/// b >= 1 counts values in [2^(b-1), 2^b). Buckets grow on demand.
class LogHistogram {
 public:
  /// Counts `value` (negative values count as 0) `count` times.
  void add(std::int64_t value, std::int64_t count = 1);
  const std::vector<std::int64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::int64_t> buckets_;
};

/// The exact distribution of measured packet latencies, kept as a count
/// per value rather than one entry per packet. Values below kDenseLimit
/// are counted in a dense array grown to the largest one seen; larger
/// values go to a spill list that a percentile query searches a copy of.
/// Memory is one word per latency value up to the largest seen below the
/// limit, plus one per spilled delivery, rather than one per packet.
///
/// Every query equals the same query over the sorted sample: percentile
/// q is the value at rank floor(q * (n - 1)), max() the largest value,
/// log2_buckets() the LogHistogram of the sample. mean() divides a double
/// sum accumulated in add() order, so it is bit-equal to summing the
/// values in delivery order. order_hash() fingerprints that order, which
/// the counts themselves forget.
class LatencyCounts {
 public:
  static constexpr std::int64_t kDenseLimit = std::int64_t{1} << 16;

  /// Counts one delivery. A latency is never negative (a packet takes at
  /// least its own serialization time): negative values throw
  /// std::invalid_argument.
  void add(std::int64_t latency) {
    if (static_cast<std::uint64_t>(latency) < dense_.size()) {
      ++dense_[static_cast<std::size_t>(latency)];
    } else {
      add_outside_dense(latency);
    }
    sum_ += static_cast<double>(latency);
    ++count_;
    const auto bits = static_cast<std::uint64_t>(latency);
    for (int byte = 0; byte < 8; ++byte) {
      order_hash_ ^= (bits >> (8 * byte)) & 0xffU;
      order_hash_ *= kFnvPrime;
    }
  }
  /// Forgets every delivery (keeps the dense array's capacity).
  void clear();

  std::int64_t count() const { return count_; }
  /// Mean latency; 0 on an empty sample.
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// The value at rank floor(q * (n - 1)) of the sorted sample, q in
  /// [0, 1]; 0 on an empty sample.
  std::int64_t percentile(double q) const;
  /// Largest value; 0 on an empty sample.
  std::int64_t max() const;
  /// Log2 buckets of the sample, as LogHistogram::buckets() reports them.
  std::vector<std::int64_t> log2_buckets() const;
  /// FNV-1a over each value's eight little-endian bytes, in add() order,
  /// from the FNV offset basis.
  std::uint64_t order_hash() const { return order_hash_; }

 private:
  static constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

  void add_outside_dense(std::int64_t latency);

  std::vector<std::int64_t> dense_;  ///< dense_[v] = deliveries of latency v
  std::vector<std::int64_t> spill_;  ///< latencies >= kDenseLimit, add order
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t order_hash_ = kFnvBasis;
};

/// SplitMix64 finalizer — the trace-sampling hash.
std::uint64_t telemetry_mix64(std::uint64_t x);

/// Utilization series of one (directed) hot link.
struct LinkTelemetry {
  std::int32_t u = 0;  ///< upstream router
  std::int32_t v = 0;  ///< downstream router
  double util = 0.0;   ///< busy flit-cycles / simulated cycles, whole run
  std::vector<double> series;  ///< per-window utilization

  bool operator==(const LinkTelemetry&) const = default;
};

/// Telemetry extracted from one simulated sweep point.
struct PointTelemetry {
  bool present = false;
  int window = 0;  ///< final window width (cycles); earlier windows may
                   ///< be narrower pre-coalescing, the last one partial
  std::int64_t latency_p50 = 0;
  std::int64_t latency_p99 = 0;
  std::int64_t latency_p999 = 0;
  std::int64_t latency_max = 0;
  std::vector<std::int64_t> latency_hist;  ///< log2 buckets (cycles)
  std::vector<std::int64_t> hops_hist;     ///< hops_hist[h] = packets with h hops
  double link_util_mean = 0.0;  ///< mean over all directed links
  double link_util_max = 0.0;   ///< busiest directed link
  std::vector<LinkTelemetry> hot_links;  ///< top-k by total busy flit-cycles
  /// vc_occupancy[class][window] = mean buffered flits of that VC class
  /// during the window (summed over all links).
  std::vector<std::vector<double>> vc_occupancy;
  int peak_backlog = 0;         ///< deepest single-router queue (packets)
  int peak_backlog_router = -1;

  bool operator==(const PointTelemetry&) const = default;
};

/// Record-level telemetry aggregate: integer counters only, so merging
/// shards in any order is bit-identical (double sums are not).
struct RecordTelemetry {
  bool present = false;
  std::vector<std::int64_t> latency_hist;
  std::vector<std::int64_t> hops_hist;
  std::int64_t latency_max = 0;
  int peak_backlog = 0;
  int peak_backlog_router = -1;

  void merge(const PointTelemetry& point);
  void merge(const RecordTelemetry& other);
  bool operator==(const RecordTelemetry&) const = default;
};

/// Owned by a Network when telemetry is enabled. Hot-path hooks are
/// O(1) increments; end_cycle() integrates buffer occupancy and rolls
/// the series windows.
class TelemetryCollector {
 public:
  TelemetryCollector(const TelemetryConfig& config, std::size_t channels,
                     int routers, int classes, int packet_size);

  void reset();

  // --- hot-path hooks ---
  /// A packet departed onto `channel` (one packet = packet_size flits).
  void on_forward(std::size_t channel) {
    cur_busy_[channel] += packet_size_;
    busy_total_[channel] += packet_size_;
  }
  void on_class_enqueue(int cls) {
    class_flits_[static_cast<std::size_t>(cls)] += packet_size_;
  }
  void on_class_dequeue(int cls) {
    class_flits_[static_cast<std::size_t>(cls)] -= packet_size_;
  }
  void on_backlog(int router, int backlog) {
    const auto r = static_cast<std::size_t>(router);
    if (backlog > router_peak_[r]) router_peak_[r] = backlog;
  }
  /// A measured packet was delivered after `hops` links.
  void on_delivery(int hops);
  /// Called once per simulated cycle, after all movement.
  void end_cycle();
  /// Bulk equivalent of `cycles` consecutive end_cycle() calls over an
  /// idle span (no movement, so buffered occupancy is constant): the
  /// Event engine accounts skipped cycles with this instead of stepping.
  /// Exact — windows roll (and coalesce) at the same cycle boundaries.
  void advance_idle(std::int64_t cycles);

  // --- tracing ---
  bool tracing() const { return trace_on_; }
  /// Deterministic sampling decision for the packet a terminal injects
  /// at cycle `birth` (a terminal injects at most one packet per cycle,
  /// so the pair names the packet uniquely).
  bool sample(int terminal, std::int64_t birth) const;
  int assign_trace_id() { return next_trace_id_++; }
  /// Appends one pre-formatted JSON object line (no trailing newline).
  void trace_line(const char* data, std::size_t size);
  void flush_trace();

  /// Extracts the per-point block. `latencies` is the measured latency
  /// distribution; `endpoints` maps a directed channel id to its
  /// (upstream, downstream) routers (called O(top_links) times).
  PointTelemetry finish(
      const LatencyCounts& latencies,
      const std::function<std::pair<int, int>(std::size_t)>& endpoints)
      const;

 private:
  void roll_window();

  TelemetryConfig config_;
  std::size_t channels_ = 0;
  int routers_ = 0;
  int classes_ = 1;
  int packet_size_ = 1;
  bool trace_on_ = false;

  std::int64_t cycles_seen_ = 0;   ///< cycles integrated so far
  std::int64_t window_width_ = 1;  ///< doubles on coalesce
  std::int64_t window_fill_ = 0;   ///< cycles in the open window

  std::vector<std::int64_t> cur_busy_;    ///< per channel, open window
  std::vector<std::int64_t> busy_total_;  ///< per channel, whole run
  std::vector<std::int64_t> class_flits_; ///< buffered flits per class, now
  std::vector<std::int64_t> cur_class_;   ///< flit-cycles per class, open window
  std::vector<std::vector<std::int64_t>> win_busy_;   ///< closed windows
  std::vector<std::vector<std::int64_t>> win_class_;  ///< closed windows
  std::vector<std::int64_t> win_cycles_;  ///< actual span of each window

  std::vector<int> router_peak_;
  std::vector<std::int64_t> hops_hist_;

  int next_trace_id_ = 0;
  std::int64_t trace_events_ = 0;
  std::string trace_buf_;
};

}  // namespace pf::sim
