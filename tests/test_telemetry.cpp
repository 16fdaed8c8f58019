// The telemetry layer: the exact latency distribution vs a sorted
// reference, log-histogram bucketing and merge algebra, the
// no-perturbation guarantee (telemetry on == telemetry off in every
// measured field), serial-vs-sharded bit-identity of merged telemetry,
// JSON round-trips through the diff gate, and trace sampling
// reproducibility by seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/diff.hpp"
#include "exp/engine.hpp"
#include "exp/results.hpp"
#include "exp/scenario.hpp"
#include "exp/suite.hpp"
#include "sim/network.hpp"
#include "sim/telemetry.hpp"
#include "util/rng.hpp"

namespace {

/// Bytes this thread has requested from operator new, so a test can
/// bound what a piece of code allocates without a hook in the code.
thread_local std::size_t t_new_bytes = 0;

}  // namespace

void* operator new(std::size_t size) {
  t_new_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, free() next to that caller's new
// reads to GCC as a mismatched pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace pf;

// ---- latency distribution -----------------------------------------------

/// A LatencyCounts holding `values`, added in order.
sim::LatencyCounts counts_of(const std::vector<std::int64_t>& values) {
  sim::LatencyCounts counts;
  for (const std::int64_t v : values) counts.add(v);
  return counts;
}

TEST(Percentile, MatchesTheSortedReferenceConvention) {
  // The element at floor(q * (n - 1)) — the Network::p99_latency
  // convention, checked against hand-computed ranks.
  const sim::LatencyCounts sorted = counts_of({10, 20, 30, 40});
  EXPECT_EQ(sorted.percentile(0.0), 10);
  EXPECT_EQ(sorted.percentile(0.5), 20);   // floor(1.5)
  EXPECT_EQ(sorted.percentile(0.99), 30);  // floor(2.97)
  EXPECT_EQ(sorted.percentile(1.0), 40);
  EXPECT_EQ(counts_of({}).percentile(0.5), 0);
  EXPECT_EQ(counts_of({7}).percentile(0.999), 7);

  // Against a brute-force reference on a larger sample.
  std::vector<std::int64_t> big;
  for (int i = 0; i < 1000; ++i) big.push_back(i * 3);
  const sim::LatencyCounts counts = counts_of(big);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(big.size() - 1));
    EXPECT_EQ(counts.percentile(q), big[rank]) << q;
  }
}

/// The old per-packet storage, queried the old way: the sample in
/// delivery order, sorted for ranks, summed in order for the mean.
struct SortedReference {
  explicit SortedReference(std::vector<std::int64_t> values)
      : in_order(std::move(values)), sorted(in_order) {
    std::sort(sorted.begin(), sorted.end());
  }
  std::int64_t percentile(double q) const {
    if (sorted.empty()) return 0;
    const auto index = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[std::min(index, sorted.size() - 1)];
  }
  double mean() const {
    if (in_order.empty()) return 0.0;
    double sum = 0.0;
    for (const std::int64_t v : in_order) sum += static_cast<double>(v);
    return sum / static_cast<double>(in_order.size());
  }
  std::vector<std::int64_t> buckets() const {
    sim::LogHistogram hist;
    for (const std::int64_t v : in_order) hist.add(v);
    return hist.buckets();
  }
  std::uint64_t order_hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::int64_t v : in_order) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (static_cast<std::uint64_t>(v) >> (8 * byte)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  }

  std::vector<std::int64_t> in_order;
  std::vector<std::int64_t> sorted;
};

void expect_matches_reference(const sim::LatencyCounts& counts,
                              const std::vector<std::int64_t>& values,
                              const std::string& name) {
  const SortedReference ref(values);
  EXPECT_EQ(counts.count(), static_cast<std::int64_t>(values.size())) << name;
  for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(counts.percentile(q), ref.percentile(q)) << name << " q=" << q;
  }
  EXPECT_EQ(counts.max(), ref.sorted.empty() ? 0 : ref.sorted.back()) << name;
  EXPECT_EQ(counts.log2_buckets(), ref.buckets()) << name;
  // Bit-equal, not merely close: the running sum adds in the same order.
  EXPECT_EQ(counts.mean(), ref.mean()) << name;
  EXPECT_EQ(counts.order_hash(), ref.order_hash()) << name;
}

TEST(LatencyCounts, MatchesTheSortedReference) {
  constexpr std::int64_t kLimit = sim::LatencyCounts::kDenseLimit;
  util::Rng rng(0x1a7e9c5ULL);
  std::vector<std::int64_t> random;
  for (int i = 0; i < 20000; ++i) {
    // Mostly short latencies with a long tail, like a loaded network.
    const std::uint64_t r = rng.below(100);
    random.push_back(static_cast<std::int64_t>(
        r < 90 ? 4 + rng.below(60) : r < 99 ? 64 + rng.below(4000)
                                            : rng.below(3 * kLimit)));
  }
  std::vector<std::int64_t> above;  // straddles the dense bound
  for (int i = 0; i < 500; ++i) {
    above.push_back(static_cast<std::int64_t>(rng.below(2 * kLimit)));
  }
  above.insert(above.end(), {kLimit - 1, kLimit, kLimit + 1,
                             std::int64_t{1000000000000}, 0, kLimit});
  std::vector<std::int64_t> only_above;
  for (int i = 0; i < 300; ++i) {
    only_above.push_back(kLimit + static_cast<std::int64_t>(rng.below(50)));
  }
  const std::vector<std::pair<std::string, std::vector<std::int64_t>>> cases =
      {
          {"random", random},
          {"empty", {}},
          {"one", {17}},
          {"zero", {0}},
          {"all-equal", std::vector<std::int64_t>(1000, 42)},
          {"above-bound", above},
          {"only-above-bound", only_above},
      };
  for (const auto& [name, values] : cases) {
    expect_matches_reference(counts_of(values), values, name);
  }

  // A query leaves the counts as they were; later deliveries still count.
  sim::LatencyCounts counts = counts_of(above);
  ASSERT_EQ(counts.percentile(1.0), 1000000000000);
  std::vector<std::int64_t> more = above;
  for (const std::int64_t v : {3 * kLimit, std::int64_t{5}, kLimit + 7}) {
    counts.add(v);
    more.push_back(v);
  }
  expect_matches_reference(counts, more, "added-after-query");
}

TEST(LatencyCounts, ClearForgetsEverything) {
  sim::LatencyCounts counts = counts_of({5, 9, 1 << 20, 12});
  counts.clear();
  expect_matches_reference(counts, {}, "cleared");
  counts.add(3);
  counts.add(1 << 20);
  expect_matches_reference(counts, {3, 1 << 20}, "reused");
}

TEST(LatencyCounts, StaysSmallForLongRuns) {
  // A million deliveries over a few hundred distinct latencies, plus one
  // enormous outlier: a word per distinct value, not per delivery (the
  // per-packet vector held 8 MB). Every allocation counts, including
  // the ones the dense array's growth later frees.
  util::Rng rng(7);
  const std::size_t before = t_new_bytes;
  sim::LatencyCounts counts;
  for (int i = 0; i < 1000000; ++i) {
    counts.add(static_cast<std::int64_t>(8 + rng.below(300)));
  }
  counts.add(1000000000000);
  const std::size_t allocated = t_new_bytes - before;
  EXPECT_EQ(counts.count(), 1000001);
  EXPECT_EQ(counts.max(), 1000000000000);
  EXPECT_GT(allocated, 0U);
  EXPECT_LT(allocated, std::size_t{16} << 10);
}

TEST(LatencyCounts, RejectsNegativeLatencies) {
  sim::LatencyCounts counts;
  EXPECT_THROW(counts.add(-1), std::invalid_argument);
}

TEST(LogHistogram, BucketsByLog2) {
  sim::LogHistogram h;
  EXPECT_TRUE(h.buckets().empty());
  h.add(0);  // bucket 0: exactly zero
  h.add(1);  // bucket 1: [1, 2)
  h.add(2);  // bucket 2: [2, 4)
  h.add(3);
  h.add(4);  // bucket 3: [4, 8)
  h.add(7);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1);
  EXPECT_EQ(h.buckets()[1], 1);
  EXPECT_EQ(h.buckets()[2], 2);
  EXPECT_EQ(h.buckets()[3], 2);

  h.add(100, 3);  // bucket 7: [64, 128), three times
  ASSERT_EQ(h.buckets().size(), 8u);
  EXPECT_EQ(h.buckets()[7], 3);
  EXPECT_EQ(h.buckets()[4], 0);
}

TEST(RecordTelemetry, MergeIsOrderIndependent) {
  sim::PointTelemetry p1;
  p1.present = true;
  p1.latency_hist = {1, 2, 3};
  p1.hops_hist = {0, 4};
  p1.latency_max = 40;
  p1.peak_backlog = 9;
  p1.peak_backlog_router = 3;
  sim::PointTelemetry p2;
  p2.present = true;
  p2.latency_hist = {5, 5};
  p2.hops_hist = {1, 1, 1};
  p2.latency_max = 80;
  p2.peak_backlog = 9;
  p2.peak_backlog_router = 1;  // same depth, lower router id wins

  sim::RecordTelemetry ab, ba;
  ab.merge(p1);
  ab.merge(p2);
  ba.merge(p2);
  ba.merge(p1);
  EXPECT_EQ(ab.latency_hist, ba.latency_hist);
  EXPECT_EQ(ab.hops_hist, ba.hops_hist);
  EXPECT_EQ(ab.latency_max, 80);
  EXPECT_EQ(ab.latency_max, ba.latency_max);
  EXPECT_EQ(ab.peak_backlog, 9);
  EXPECT_EQ(ab.peak_backlog_router, 1);
  EXPECT_EQ(ab.peak_backlog_router, ba.peak_backlog_router);
  EXPECT_EQ(ab.latency_hist, (std::vector<std::int64_t>{6, 7, 3}));
  EXPECT_EQ(ab.hops_hist, (std::vector<std::int64_t>{1, 5, 1}));
}

// ---- telemetry through the engine ----------------------------------------

sim::SimConfig quick_config() {
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 400;
  config.drain_cycles = 1200;
  config.seed = 0xbe5c0ULL;
  return config;
}

exp::ScenarioSpec quick_spec(bool telemetry) {
  exp::ScenarioSpec spec;
  spec.topology = "pf:q=5,p=3";
  spec.routing = "MIN";
  spec.pattern = "uniform";
  spec.config = quick_config();
  spec.config.telemetry.enabled = telemetry;
  spec.config.telemetry.window_cycles = 64;
  spec.config.telemetry.top_links = 4;
  return spec;
}

TEST(Telemetry, NeverPerturbsTheSimulation) {
  // The core discipline: telemetry draws nothing from the simulation
  // RNGs, so every measured field is bit-identical with it on or off.
  auto& registry = exp::ScenarioRegistry::shared();
  const std::vector<double> loads{0.3, 0.6};
  const exp::RunRecord off =
      exp::run_sweep(registry.make(quick_spec(false)), loads);
  const exp::RunRecord on =
      exp::run_sweep(registry.make(quick_spec(true)), loads);
  ASSERT_EQ(on.points.size(), off.points.size());
  for (std::size_t i = 0; i < off.points.size(); ++i) {
    EXPECT_EQ(on.points[i].accepted, off.points[i].accepted);
    EXPECT_EQ(on.points[i].avg_latency, off.points[i].avg_latency);
    EXPECT_EQ(on.points[i].p99_latency, off.points[i].p99_latency);
    EXPECT_EQ(on.points[i].mean_hops, off.points[i].mean_hops);
    EXPECT_EQ(on.points[i].cycles, off.points[i].cycles);
    EXPECT_FALSE(off.points[i].telemetry.present);
    EXPECT_TRUE(on.points[i].telemetry.present);
  }
  EXPECT_EQ(on.perf.sim_cycles, off.perf.sim_cycles);
  EXPECT_EQ(on.perf.peak_vc_occupancy, off.perf.peak_vc_occupancy);
  EXPECT_FALSE(off.telemetry.present);
  EXPECT_TRUE(on.telemetry.present);
}

TEST(Telemetry, PointBlocksAreInternallyConsistent) {
  auto& registry = exp::ScenarioRegistry::shared();
  const exp::RunRecord record =
      exp::run_sweep(registry.make(quick_spec(true)), {0.4});
  ASSERT_EQ(record.points.size(), 1u);
  const sim::PointTelemetry& t = record.points[0].telemetry;
  ASSERT_TRUE(t.present);

  // Percentiles are monotone and p99 agrees with the point's own p99
  // (same sample, same rank convention).
  EXPECT_LE(t.latency_p50, t.latency_p99);
  EXPECT_LE(t.latency_p99, t.latency_p999);
  EXPECT_LE(t.latency_p999, t.latency_max);
  EXPECT_GT(t.latency_p50, 0);
  EXPECT_EQ(static_cast<double>(t.latency_p99),
            record.points[0].p99_latency);

  // Both histograms count exactly the measured deliveries.
  std::int64_t latency_total = 0;
  for (const std::int64_t c : t.latency_hist) latency_total += c;
  std::int64_t hops_total = 0;
  for (const std::int64_t c : t.hops_hist) hops_total += c;
  EXPECT_GT(latency_total, 0);
  EXPECT_EQ(latency_total, hops_total);

  // Utilization is a rate; hot links are sorted by utilization and carry
  // per-window series; VC occupancy covers every class.
  EXPECT_GT(t.link_util_mean, 0.0);
  EXPECT_GE(t.link_util_max, t.link_util_mean);
  EXPECT_LE(t.link_util_max, 1.0);
  ASSERT_FALSE(t.hot_links.empty());
  EXPECT_LE(t.hot_links.size(), 4u);
  for (std::size_t i = 1; i < t.hot_links.size(); ++i) {
    EXPECT_GE(t.hot_links[i - 1].util, t.hot_links[i].util);
  }
  for (const sim::LinkTelemetry& link : t.hot_links) {
    EXPECT_FALSE(link.series.empty());
    EXPECT_NE(link.u, link.v);
  }
  ASSERT_FALSE(t.vc_occupancy.empty());
  EXPECT_GT(t.window, 0);
  EXPECT_GT(t.peak_backlog, 0);
  EXPECT_GE(t.peak_backlog_router, 0);

  // The record-level aggregate of a one-point sweep IS the point.
  EXPECT_EQ(record.telemetry.latency_hist, t.latency_hist);
  EXPECT_EQ(record.telemetry.hops_hist, t.hops_hist);
  EXPECT_EQ(record.telemetry.latency_max, t.latency_max);
  EXPECT_EQ(record.telemetry.peak_backlog, t.peak_backlog);
}

const char* kTelemetrySuiteDoc = R"({
  "schema": "polarfly-suite/1",
  "name": "telemetry-test",
  "defaults": {
    "topology": "pf:q=5,p=3",
    "loads": {"lo": 0.2, "hi": 0.6, "count": 3},
    "config": {"warmup": 100, "measure": 200, "drain": 600, "seed": 99,
               "telemetry": {"window": 64, "top_links": 3}}
  },
  "scenarios": [
    {"name": "t", "routing": ["MIN", "UGALPF"]},
    {"name": "plain", "routing": "MIN", "loads": [0.3],
     "config": {"telemetry": {"enabled": false}}}
  ]
})";

TEST(Telemetry, SerialAndShardedSuitesMergeBitIdentically) {
  // Per-point blocks come from one Network each and the record-level
  // aggregate is integer-only, so any sharding/claim interleaving must
  // produce the same document — zero-tolerance diff, which compares
  // every telemetry field when present.
  const exp::Suite suite = exp::parse_suite(kTelemetrySuiteDoc);
  ASSERT_EQ(suite.cases.size(), 3u);
  EXPECT_TRUE(suite.cases[0].spec.config.telemetry.enabled);
  EXPECT_EQ(suite.cases[0].spec.config.telemetry.window_cycles, 64);
  EXPECT_FALSE(suite.cases[2].spec.config.telemetry.enabled);

  exp::ScheduleOptions serial;
  serial.parallel = false;
  exp::ResultLog serial_log;
  exp::SuiteRunner(exp::ScenarioRegistry::shared(), serial)
      .run(suite, serial_log);
  ASSERT_EQ(serial_log.records().size(), 3u);
  EXPECT_TRUE(serial_log.records()[0].telemetry.present);
  EXPECT_FALSE(serial_log.records()[2].telemetry.present);

  exp::DiffOptions exact;
  exact.rtol = 0.0;
  exact.atol = 0.0;
  exp::ScheduleOptions parallel;
  std::vector<exp::CaseSchedule> schedule;
  parallel.schedule_out = &schedule;
  exp::ResultLog log;
  exp::SuiteRunner(exp::ScenarioRegistry::shared(), parallel)
      .run(suite, log);

  exp::RunDocument serial_doc, parallel_doc;
  serial_doc.records = serial_log.records();
  parallel_doc.records = log.records();
  const exp::DiffReport report =
      exp::diff_documents(serial_doc, parallel_doc, exact);
  EXPECT_TRUE(report.clean())
      << (report.drifts.empty() ? "record set mismatch"
                                : report.drifts[0].field);

  // The realized schedule covers every case in document order.
  ASSERT_EQ(schedule.size(), 3u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].label, log.records()[i].label);
    EXPECT_GE(schedule[i].shards, 1);
    EXPECT_EQ(schedule[i].points, log.records()[i].points.size());
  }
}

TEST(Telemetry, SurvivesTheJsonRoundTrip) {
  auto& registry = exp::ScenarioRegistry::shared();
  exp::ResultLog log;
  log.add(exp::run_sweep(registry.make(quick_spec(true)), {0.3, 0.5}));

  const std::string json = exp::to_json(log.records(), "test_telemetry");
  const exp::RunDocument doc = exp::parse_records_document(json);
  ASSERT_EQ(doc.records.size(), 1u);
  ASSERT_EQ(doc.records[0].points.size(), 2u);
  EXPECT_TRUE(doc.records[0].points[0].telemetry.present);
  EXPECT_TRUE(doc.records[0].telemetry.present);

  exp::DiffOptions exact;
  exact.rtol = 0.0;
  exact.atol = 0.0;
  exp::RunDocument original;
  original.records = log.records();
  const exp::DiffReport report = exp::diff_documents(original, doc, exact);
  EXPECT_TRUE(report.clean())
      << (report.drifts.empty() ? "record set mismatch"
                                : report.drifts[0].field);
  EXPECT_GT(report.values_compared, 50u);  // telemetry fields included
}

TEST(Telemetry, DiffCatchesTelemetryDrift) {
  auto& registry = exp::ScenarioRegistry::shared();
  exp::RunDocument baseline;
  baseline.records.push_back(
      exp::run_sweep(registry.make(quick_spec(true)), {0.3}));
  exp::RunDocument perturbed = baseline;
  perturbed.records[0].points[0].telemetry.latency_p99 += 1;
  perturbed.records[0].telemetry.peak_backlog += 1;

  const exp::DiffReport report =
      exp::diff_documents(baseline, perturbed, exp::DiffOptions{});
  ASSERT_EQ(report.drifts.size(), 2u);
  EXPECT_EQ(report.drifts[0].field, "points[0].telemetry.latency_p99");
  EXPECT_EQ(report.drifts[1].field, "telemetry.peak_backlog");
}

// ---- trace sampling ------------------------------------------------------

std::string run_trace(double sample, std::uint64_t seed) {
  auto& registry = exp::ScenarioRegistry::shared();
  const exp::Scenario scenario = registry.make(quick_spec(true));
  sim::TraceSink sink;
  sim::SimConfig config = scenario.config;
  config.telemetry.trace = &sink;
  config.telemetry.trace_sample = sample;
  config.telemetry.trace_seed = seed;
  sim::Network net(scenario.setup->graph, scenario.setup->endpoints,
                   *scenario.routing, *scenario.pattern, config, 0.3);
  net.run_phases();
  return sink.memory();
}

TEST(Trace, ReproducibleBySeedAndSampled) {
  const std::string a = run_trace(0.25, 7);
  EXPECT_FALSE(a.empty());
  // Same seed: byte-identical. Different seed: a different sample set.
  EXPECT_EQ(a, run_trace(0.25, 7));
  EXPECT_NE(a, run_trace(0.25, 8));

  // Every line is a complete JSON object with the expected events.
  EXPECT_NE(a.find("\"event\":\"inject\""), std::string::npos);
  EXPECT_NE(a.find("\"event\":\"deliver\""), std::string::npos);
  EXPECT_NE(a.find("\"event\":\"hop\""), std::string::npos);
  EXPECT_EQ(a.back(), '\n');

  // Full sampling traces strictly more events than a 25% sample, and
  // sampling off traces nothing.
  const std::string full = run_trace(1.0, 7);
  EXPECT_GT(full.size(), a.size());
  EXPECT_TRUE(run_trace(0.0, 7).empty());
}

}  // namespace
