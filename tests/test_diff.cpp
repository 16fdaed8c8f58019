// The trajectory comparator behind `pf_sim diff`: record matching by
// key, tolerance semantics (boundary inclusive), NaN and missing-field
// handling, mismatched load axes, machine-dependent fields excluded, and
// a deliberately perturbed record failing the diff.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "exp/diff.hpp"
#include "exp/results.hpp"

namespace {

using namespace pf;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

exp::RunRecord make_record(const std::string& label, double base = 10.0) {
  exp::RunRecord record;
  record.label = label;
  record.topology = "PolarFly ER_7";
  record.routing = "MIN";
  record.pattern = "uniform";
  record.routers = 57;
  record.terminals = 228;
  record.seed = 42;
  for (int i = 0; i < 3; ++i) {
    exp::RunPoint point;
    point.offered = 0.2 + 0.3 * i;
    point.accepted = point.offered - 0.01;
    point.avg_latency = base + 2.0 * i;
    point.p99_latency = 2.0 * base + 3.0 * i;
    point.converged = true;
    point.mean_hops = 1.9;
    point.cycles = 1600;
    record.points.push_back(point);
  }
  record.perf.sim_cycles = 4800;
  record.perf.wall_seconds = 1.5;
  record.perf.cycles_per_sec = 3200.0;
  record.perf.mean_hop_count = 1.9;
  record.perf.peak_vc_occupancy = 4;
  return record;
}

exp::RunDocument make_document(std::vector<exp::RunRecord> records) {
  exp::RunDocument doc;
  doc.schema = "polarfly-run/1";
  doc.tool = "test_diff";
  doc.records = std::move(records);
  return doc;
}

TEST(ValuesMatch, ToleranceBoundaryIsInclusive) {
  exp::DiffOptions options;
  options.rtol = 0.0;
  options.atol = 0.5;
  // Exactly at the tolerance boundary passes; one ulp beyond fails.
  EXPECT_TRUE(exp::values_match(1.0, 1.5, options));
  EXPECT_FALSE(exp::values_match(
      1.0, std::nextafter(1.5, 2.0), options));

  options.atol = 0.0;
  options.rtol = 0.1;
  // |a-b| = 0.1 <= 0.1 * max(1.0, 1.1) = 0.11.
  EXPECT_TRUE(exp::values_match(1.0, 1.1, options));
  EXPECT_FALSE(exp::values_match(1.0, 1.12, options));

  // Zero tolerance means exact equality.
  options.rtol = 0.0;
  EXPECT_TRUE(exp::values_match(1.0, 1.0, options));
  EXPECT_FALSE(exp::values_match(1.0, std::nextafter(1.0, 2.0), options));
}

TEST(ValuesMatch, NanAndInfinity) {
  const exp::DiffOptions options;  // defaults
  // NaN on both sides is "the same missing measurement", not drift.
  EXPECT_TRUE(exp::values_match(kNan, kNan, options));
  EXPECT_FALSE(exp::values_match(kNan, 2.0, options));
  EXPECT_FALSE(exp::values_match(2.0, kNan, options));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(exp::values_match(inf, inf, options));
  EXPECT_FALSE(exp::values_match(inf, -inf, options));
  EXPECT_FALSE(exp::values_match(inf, 1e300, options));
}

TEST(DiffDocuments, IdenticalDocumentsAreClean) {
  const auto doc =
      make_document({make_record("a"), make_record("b", 20.0)});
  exp::DiffOptions exact;
  exact.rtol = 0.0;
  exact.atol = 0.0;
  const exp::DiffReport report = exp::diff_documents(doc, doc, exact);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records_matched, 2u);
  EXPECT_GT(report.values_compared, 0u);
}

TEST(DiffDocuments, MachineDependentPerfFieldsAreIgnored) {
  auto baseline = make_document({make_record("a")});
  auto candidate = baseline;
  candidate.records[0].perf.wall_seconds = 99.0;
  candidate.records[0].perf.cycles_per_sec = 1.0;
  exp::DiffOptions exact;
  exact.rtol = 0.0;
  exact.atol = 0.0;
  EXPECT_TRUE(exp::diff_documents(baseline, candidate, exact).clean());
}

TEST(DiffDocuments, PerturbedRecordFails) {
  auto baseline = make_document({make_record("a"), make_record("b")});
  auto candidate = baseline;
  candidate.records[1].points[2].accepted *= 1.01;  // 1% drift
  const exp::DiffReport report =
      exp::diff_documents(baseline, candidate, exp::DiffOptions{});
  ASSERT_EQ(report.drifts.size(), 1u);
  EXPECT_EQ(report.drifts[0].field, "points[2].accepted");
  EXPECT_NE(report.drifts[0].key.find("b |"), std::string::npos)
      << report.drifts[0].key;
  EXPECT_NEAR(report.drifts[0].rel_err, 0.0099, 1e-3);
  EXPECT_FALSE(report.clean());

  // A loose tolerance absorbs the same perturbation.
  exp::DiffOptions loose;
  loose.rtol = 0.05;
  EXPECT_TRUE(exp::diff_documents(baseline, candidate, loose).clean());
}

TEST(DiffDocuments, RecordsPresentInOnlyOneDocument) {
  const auto baseline =
      make_document({make_record("a"), make_record("gone")});
  const auto candidate =
      make_document({make_record("a"), make_record("new")});
  const exp::DiffReport report =
      exp::diff_documents(baseline, candidate, exp::DiffOptions{});
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.records_matched, 1u);
  ASSERT_EQ(report.only_in_baseline.size(), 1u);
  ASSERT_EQ(report.only_in_candidate.size(), 1u);
  EXPECT_NE(report.only_in_baseline[0].find("gone"), std::string::npos);
  EXPECT_NE(report.only_in_candidate[0].find("new"), std::string::npos);
}

TEST(DiffDocuments, DuplicateKeysMatchByOccurrence) {
  // Raw bench output may legally repeat a key; occurrences pair up in
  // order and the unpaired tail is reported missing.
  const auto baseline =
      make_document({make_record("a"), make_record("a")});
  const auto candidate = make_document({make_record("a")});
  const exp::DiffReport report =
      exp::diff_documents(baseline, candidate, exp::DiffOptions{});
  EXPECT_EQ(report.records_matched, 1u);
  EXPECT_EQ(report.only_in_baseline.size(), 1u);
  EXPECT_TRUE(report.only_in_candidate.empty());
}

TEST(DiffDocuments, MismatchedLoadAxes) {
  // Same grid endpoints and count (so the record keys match), but a
  // different interior load point: the axis mismatch must surface as
  // points[1].offered drift, not pass silently.
  auto baseline = make_document({make_record("a")});
  auto candidate = baseline;
  candidate.records[0].points[1].offered += 0.05;
  const exp::DiffReport report =
      exp::diff_documents(baseline, candidate, exp::DiffOptions{});
  ASSERT_FALSE(report.drifts.empty());
  EXPECT_EQ(report.drifts[0].field, "points[1].offered");

  // Saturation-search records carry no grid in their key, so two runs
  // with different probe counts match by key and must drift on
  // points.count (then compare the common prefix).
  auto sat_base = make_record("sat");
  sat_base.saturation_estimate = 0.8;
  auto sat_cand = sat_base;
  sat_cand.points.pop_back();
  const exp::DiffReport sat_report = exp::diff_documents(
      make_document({sat_base}), make_document({sat_cand}),
      exp::DiffOptions{});
  ASSERT_FALSE(sat_report.drifts.empty());
  EXPECT_EQ(sat_report.drifts[0].field, "points.count");
  EXPECT_EQ(sat_report.drifts[0].baseline, 3.0);
  EXPECT_EQ(sat_report.drifts[0].candidate, 2.0);
}

TEST(DiffDocuments, NanRoundTripsThroughJsonAndCompares) {
  // A NaN measurement serializes as null, reads back as NaN, and two
  // documents agreeing on the NaN are clean — NaN vs number is drift.
  auto record = make_record("nan-case");
  record.points[1].avg_latency = kNan;
  const std::string json = exp::to_json({record}, "test_diff");
  const exp::RunDocument parsed = exp::parse_records_document(json);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_TRUE(std::isnan(parsed.records[0].points[1].avg_latency));

  EXPECT_TRUE(
      exp::diff_documents(parsed, parsed, exp::DiffOptions{}).clean());

  const exp::RunDocument healthy =
      make_document({make_record("nan-case")});
  const exp::DiffReport report =
      exp::diff_documents(parsed, healthy, exp::DiffOptions{});
  ASSERT_FALSE(report.drifts.empty());
  EXPECT_EQ(report.drifts[0].field, "points[1].avg_latency");
}

TEST(DiffDocuments, MissingOptionalFieldsUseDefaults) {
  // A hand-written baseline may omit optional fields (saturation_estimate,
  // pattern_seed, perf) — the reader defaults them, and a candidate that
  // also has the defaults compares clean.
  const char* minimal = R"({
    "schema": "polarfly-run/1", "tool": "t",
    "records": [{
      "label": "m", "topology": "T", "routing": "MIN",
      "pattern": "uniform", "routers": 5, "terminals": 10, "seed": 1,
      "saturation": 0.5,
      "points": [{"offered": 0.5, "accepted": 0.5, "avg_latency": 9,
                  "p99_latency": 15, "converged": true, "mean_hops": 2,
                  "cycles": 800}],
      "perf": {"sim_cycles": 800, "wall_seconds": 0.1,
               "cycles_per_sec": 8000, "mean_hop_count": 2,
               "peak_vc_occupancy": 3}}]})";
  const exp::RunDocument doc = exp::parse_records_document(minimal);
  EXPECT_EQ(doc.records[0].saturation_estimate, 0.0);
  EXPECT_EQ(doc.records[0].pattern_seed, 0u);
  EXPECT_TRUE(exp::diff_documents(doc, doc, exp::DiffOptions{}).clean());
}

}  // namespace
