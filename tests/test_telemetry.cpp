// The telemetry layer: exact percentile extraction vs a sorted
// reference, log-histogram bucketing and merge algebra, the
// no-perturbation guarantee (telemetry on == telemetry off in every
// measured field), serial-vs-sharded bit-identity of merged telemetry,
// JSON round-trips through the diff gate, and trace sampling
// reproducibility by seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/diff.hpp"
#include "exp/engine.hpp"
#include "exp/results.hpp"
#include "exp/scenario.hpp"
#include "exp/suite.hpp"
#include "sim/network.hpp"
#include "sim/telemetry.hpp"

namespace {

using namespace pf;

// ---- exact_percentile ----------------------------------------------------

TEST(Percentile, MatchesTheSortedReferenceConvention) {
  // The element at floor(q * (n - 1)) — the Network::p99_latency
  // convention, checked against hand-computed ranks.
  const std::vector<std::int64_t> sorted{10, 20, 30, 40};
  EXPECT_EQ(sim::exact_percentile(sorted, 0.0), 10);
  EXPECT_EQ(sim::exact_percentile(sorted, 0.5), 20);   // floor(1.5)
  EXPECT_EQ(sim::exact_percentile(sorted, 0.99), 30);  // floor(2.97)
  EXPECT_EQ(sim::exact_percentile(sorted, 1.0), 40);
  EXPECT_EQ(sim::exact_percentile({}, 0.5), 0);
  EXPECT_EQ(sim::exact_percentile({7}, 0.999), 7);

  // Against a brute-force reference on a larger sample.
  std::vector<std::int64_t> big;
  for (int i = 0; i < 1000; ++i) big.push_back(i * 3);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(big.size() - 1));
    EXPECT_EQ(sim::exact_percentile(big, q), big[rank]) << q;
  }
}

TEST(LogHistogram, BucketsByLog2AndMergesElementwise) {
  sim::LogHistogram h;
  EXPECT_TRUE(h.empty());
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
  EXPECT_EQ(h.total(), 6);

  sim::LogHistogram other;
  other.add(100);  // bucket 7: [64, 128)
  other.merge(h);
  EXPECT_EQ(other.total(), 7);
  ASSERT_EQ(other.buckets().size(), 8u);
  EXPECT_EQ(other.buckets()[7], 1);
  EXPECT_EQ(other.buckets()[2], 2);
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
  for (const int workers_per_case : {0, 2}) {
    exp::ScheduleOptions parallel;
    parallel.workers_per_case = workers_per_case;
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
        << "workers_per_case=" << workers_per_case << ": "
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
