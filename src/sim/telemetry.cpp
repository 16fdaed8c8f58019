#include "sim/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pf::sim {

TraceSink::~TraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

std::unique_ptr<TraceSink> TraceSink::open_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return nullptr;
  auto sink = std::unique_ptr<TraceSink>(new TraceSink());
  sink->file_ = f;
  return sink;
}

void TraceSink::append(const char* data, std::size_t size) {
  if (size == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fwrite(data, 1, size, file_);
  } else {
    memory_.append(data, size);
  }
}

void LogHistogram::add(std::int64_t value, std::int64_t count) {
  if (value < 0) value = 0;
  // bucket = bit_width(value): 0 for 0, b for [2^(b-1), 2^b).
  int bucket = 0;
  for (std::uint64_t v = static_cast<std::uint64_t>(value); v != 0; v >>= 1) {
    ++bucket;
  }
  if (bucket >= static_cast<int>(buckets_.size())) {
    buckets_.resize(static_cast<std::size_t>(bucket) + 1, 0);
  }
  buckets_[static_cast<std::size_t>(bucket)] += count;
}

void LatencyCounts::add_outside_dense(std::int64_t latency) {
  if (latency < 0) {
    throw std::invalid_argument("LatencyCounts: negative latency");
  }
  if (latency < kDenseLimit) {
    dense_.resize(static_cast<std::size_t>(latency) + 1, 0);
    ++dense_[static_cast<std::size_t>(latency)];
  } else {
    spill_.push_back(latency);
  }
}

void LatencyCounts::clear() {
  dense_.clear();
  spill_.clear();
  count_ = 0;
  sum_ = 0.0;
  order_hash_ = kFnvBasis;
}

std::int64_t LatencyCounts::percentile(double q) const {
  if (count_ == 0) return 0;
  const auto last = static_cast<std::uint64_t>(count_ - 1);
  const std::uint64_t rank = std::min(
      static_cast<std::uint64_t>(q * static_cast<double>(last)), last);
  // Every dense value is below every spilled one: walk the dense counts,
  // then select within a copy of the (rarely non-empty) spill.
  std::uint64_t seen = 0;
  for (std::size_t v = 0; v < dense_.size(); ++v) {
    seen += static_cast<std::uint64_t>(dense_[v]);
    if (seen > rank) return static_cast<std::int64_t>(v);
  }
  std::vector<std::int64_t> spill = spill_;
  const auto nth = spill.begin() + static_cast<std::ptrdiff_t>(rank - seen);
  std::nth_element(spill.begin(), nth, spill.end());
  return *nth;
}

std::int64_t LatencyCounts::max() const {
  if (!spill_.empty()) return *std::max_element(spill_.begin(), spill_.end());
  for (std::size_t v = dense_.size(); v > 0; --v) {
    if (dense_[v - 1] != 0) return static_cast<std::int64_t>(v - 1);
  }
  return 0;
}

std::vector<std::int64_t> LatencyCounts::log2_buckets() const {
  LogHistogram hist;
  for (std::size_t v = 0; v < dense_.size(); ++v) {
    if (dense_[v] != 0) hist.add(static_cast<std::int64_t>(v), dense_[v]);
  }
  for (const std::int64_t v : spill_) hist.add(v);
  return hist.buckets();
}

std::uint64_t telemetry_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

/// Elementwise sum of two integer histograms (sizes may differ).
void add_into(std::vector<std::int64_t>& into,
              const std::vector<std::int64_t>& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

/// Commutative peak merge: deeper backlog wins, ties pick the lower
/// router id so the merge order cannot matter.
void merge_peak(int& peak, int& router, int other_peak, int other_router) {
  if (other_peak > peak ||
      (other_peak == peak && other_router >= 0 &&
       (router < 0 || other_router < router))) {
    peak = other_peak;
    router = other_router;
  }
}

}  // namespace

void RecordTelemetry::merge(const PointTelemetry& point) {
  if (!point.present) return;
  present = true;
  add_into(latency_hist, point.latency_hist);
  add_into(hops_hist, point.hops_hist);
  latency_max = std::max(latency_max, point.latency_max);
  merge_peak(peak_backlog, peak_backlog_router, point.peak_backlog,
             point.peak_backlog_router);
}

void RecordTelemetry::merge(const RecordTelemetry& other) {
  if (!other.present) return;
  present = true;
  add_into(latency_hist, other.latency_hist);
  add_into(hops_hist, other.hops_hist);
  latency_max = std::max(latency_max, other.latency_max);
  merge_peak(peak_backlog, peak_backlog_router, other.peak_backlog,
             other.peak_backlog_router);
}

TelemetryCollector::TelemetryCollector(const TelemetryConfig& config,
                                       std::size_t channels, int routers,
                                       int classes, int packet_size)
    : config_(config),
      channels_(channels),
      routers_(routers),
      classes_(std::max(1, classes)),
      packet_size_(std::max(1, packet_size)) {
  if (config_.window_cycles < 1) config_.window_cycles = 1;
  if (config_.max_windows < 2) config_.max_windows = 2;
  if (config_.top_links < 0) config_.top_links = 0;
  trace_on_ = config_.trace != nullptr && config_.trace_sample > 0.0;
  cur_busy_.assign(channels_, 0);
  busy_total_.assign(channels_, 0);
  class_flits_.assign(static_cast<std::size_t>(classes_), 0);
  cur_class_.assign(static_cast<std::size_t>(classes_), 0);
  router_peak_.assign(static_cast<std::size_t>(routers_), 0);
  reset();
}

void TelemetryCollector::reset() {
  cycles_seen_ = 0;
  window_width_ = config_.window_cycles;
  window_fill_ = 0;
  std::fill(cur_busy_.begin(), cur_busy_.end(), 0);
  std::fill(busy_total_.begin(), busy_total_.end(), 0);
  std::fill(class_flits_.begin(), class_flits_.end(), 0);
  std::fill(cur_class_.begin(), cur_class_.end(), 0);
  win_busy_.clear();
  win_class_.clear();
  win_cycles_.clear();
  std::fill(router_peak_.begin(), router_peak_.end(), 0);
  hops_hist_.clear();
  // The trace stream deliberately survives reset: a sweep traces every
  // point into one file, with trace ids monotone across points.
  flush_trace();
}

void TelemetryCollector::on_delivery(int hops) {
  if (hops < 0) hops = 0;
  if (hops >= static_cast<int>(hops_hist_.size())) {
    hops_hist_.resize(static_cast<std::size_t>(hops) + 1, 0);
  }
  ++hops_hist_[static_cast<std::size_t>(hops)];
}

void TelemetryCollector::end_cycle() {
  for (std::size_t c = 0; c < cur_class_.size(); ++c) {
    cur_class_[c] += class_flits_[c];
  }
  ++window_fill_;
  ++cycles_seen_;
  if (window_fill_ >= window_width_) roll_window();
}

void TelemetryCollector::advance_idle(std::int64_t cycles) {
  while (cycles > 0) {
    // Chunk to the open window's remaining span; class_flits_ cannot
    // change mid-span, so the occupancy integral is a single multiply.
    // roll_window may double window_width_, hence the recomputation.
    const std::int64_t chunk =
        std::min(cycles, window_width_ - window_fill_);
    for (std::size_t c = 0; c < cur_class_.size(); ++c) {
      cur_class_[c] += class_flits_[c] * chunk;
    }
    window_fill_ += chunk;
    cycles_seen_ += chunk;
    cycles -= chunk;
    if (window_fill_ >= window_width_) roll_window();
  }
}

void TelemetryCollector::roll_window() {
  win_busy_.push_back(cur_busy_);
  win_class_.push_back(cur_class_);
  win_cycles_.push_back(window_fill_);
  std::fill(cur_busy_.begin(), cur_busy_.end(), 0);
  std::fill(cur_class_.begin(), cur_class_.end(), 0);
  window_fill_ = 0;
  if (static_cast<int>(win_busy_.size()) < config_.max_windows) return;
  // Bounded memory: coalesce adjacent window pairs and double the
  // width. win_cycles_ keeps each window's true span, so series stay
  // exact through coalescing (and across a trailing odd window).
  const std::size_t pairs = win_busy_.size() / 2;
  for (std::size_t i = 0; i < pairs; ++i) {
    add_into(win_busy_[i * 2], win_busy_[i * 2 + 1]);
    add_into(win_class_[i * 2], win_class_[i * 2 + 1]);
    win_cycles_[i * 2] += win_cycles_[i * 2 + 1];
    if (i != i * 2) {
      win_busy_[i] = std::move(win_busy_[i * 2]);
      win_class_[i] = std::move(win_class_[i * 2]);
      win_cycles_[i] = win_cycles_[i * 2];
    }
  }
  std::size_t kept = pairs;
  if (win_busy_.size() % 2 != 0) {  // odd trailing window carries over
    if (kept != win_busy_.size() - 1) {
      win_busy_[kept] = std::move(win_busy_.back());
      win_class_[kept] = std::move(win_class_.back());
      win_cycles_[kept] = win_cycles_.back();
    }
    ++kept;
  }
  win_busy_.resize(kept);
  win_class_.resize(kept);
  win_cycles_.resize(kept);
  window_width_ *= 2;
}

bool TelemetryCollector::sample(int terminal, std::int64_t birth) const {
  if (config_.trace_sample >= 1.0) return true;
  const std::uint64_t h = telemetry_mix64(
      config_.trace_seed ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(terminal)) << 32) ^
      static_cast<std::uint64_t>(birth));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < config_.trace_sample;
}

void TelemetryCollector::trace_line(const char* data, std::size_t size) {
  if (!trace_on_ || trace_events_ >= config_.trace_max_events) return;
  ++trace_events_;
  trace_buf_.append(data, size);
  trace_buf_.push_back('\n');
  if (trace_buf_.size() >= 64 * 1024) flush_trace();
}

void TelemetryCollector::flush_trace() {
  if (config_.trace != nullptr && !trace_buf_.empty()) {
    config_.trace->append(trace_buf_.data(), trace_buf_.size());
  }
  trace_buf_.clear();
}

PointTelemetry TelemetryCollector::finish(
    const LatencyCounts& latencies,
    const std::function<std::pair<int, int>(std::size_t)>& endpoints) const {
  PointTelemetry out;
  out.present = true;
  out.window = static_cast<int>(window_width_);
  out.latency_p50 = latencies.percentile(0.50);
  out.latency_p99 = latencies.percentile(0.99);
  out.latency_p999 = latencies.percentile(0.999);
  out.latency_max = latencies.max();
  out.latency_hist = latencies.log2_buckets();
  out.hops_hist = hops_hist_;

  // Effective window list: closed windows plus the open partial one.
  std::vector<std::int64_t> spans = win_cycles_;
  if (window_fill_ > 0) spans.push_back(window_fill_);
  const std::size_t windows = spans.size();

  if (channels_ > 0 && cycles_seen_ > 0) {
    std::int64_t sum = 0;
    std::int64_t best = 0;
    for (const std::int64_t b : busy_total_) {
      sum += b;
      best = std::max(best, b);
    }
    const double cycles = static_cast<double>(cycles_seen_);
    out.link_util_mean =
        static_cast<double>(sum) / (cycles * static_cast<double>(channels_));
    out.link_util_max = static_cast<double>(best) / cycles;

    // Top-k hot links by total busy flit-cycles; ties break toward the
    // lower channel id so the selection is deterministic.
    std::vector<std::size_t> order(channels_);
    for (std::size_t c = 0; c < channels_; ++c) order[c] = c;
    const auto k = std::min<std::size_t>(
        static_cast<std::size_t>(config_.top_links), channels_);
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(k),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        if (busy_total_[a] != busy_total_[b]) {
                          return busy_total_[a] > busy_total_[b];
                        }
                        return a < b;
                      });
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t c = order[i];
      if (busy_total_[c] == 0) break;  // nothing hot beyond here
      LinkTelemetry link;
      const auto [u, v] = endpoints(c);
      link.u = u;
      link.v = v;
      link.util = static_cast<double>(busy_total_[c]) / cycles;
      link.series.reserve(windows);
      for (std::size_t w = 0; w < windows; ++w) {
        const std::int64_t busy =
            w < win_busy_.size() ? win_busy_[w][c] : cur_busy_[c];
        link.series.push_back(static_cast<double>(busy) /
                              static_cast<double>(spans[w]));
      }
      out.hot_links.push_back(std::move(link));
    }
  }

  out.vc_occupancy.assign(static_cast<std::size_t>(classes_), {});
  for (std::size_t cls = 0; cls < out.vc_occupancy.size(); ++cls) {
    auto& series = out.vc_occupancy[cls];
    series.reserve(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      const std::int64_t flit_cycles =
          w < win_class_.size() ? win_class_[w][cls] : cur_class_[cls];
      series.push_back(static_cast<double>(flit_cycles) /
                       static_cast<double>(spans[w]));
    }
  }

  for (std::size_t r = 0; r < router_peak_.size(); ++r) {
    if (router_peak_[r] > out.peak_backlog) {
      out.peak_backlog = router_peak_[r];
      out.peak_backlog_router = static_cast<int>(r);
    }
  }
  return out;
}

}  // namespace pf::sim
