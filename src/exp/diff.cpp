#include "exp/diff.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace pf::exp {
namespace {

/// Accumulates one record pair's comparisons into the report.
class RecordComparator {
 public:
  RecordComparator(DiffReport& report, const DiffOptions& options,
                   const std::string& key)
      : report_(report), options_(options), key_(key) {}

  /// Tolerance-aware double comparison.
  void metric(const std::string& field, double baseline, double candidate) {
    ++report_.values_compared;
    if (values_match(baseline, candidate, options_)) return;
    FieldDrift drift;
    drift.key = key_;
    drift.field = field;
    drift.baseline = baseline;
    drift.candidate = candidate;
    drift.abs_err = std::abs(baseline - candidate);
    const double scale = std::max(std::abs(baseline), std::abs(candidate));
    drift.rel_err = scale > 0.0 ? drift.abs_err / scale : 0.0;
    report_.drifts.push_back(std::move(drift));
  }

  /// Exact comparison for text fields (record status and the like).
  void text(const std::string& field, const std::string& baseline,
            const std::string& candidate) {
    ++report_.values_compared;
    if (baseline == candidate) return;
    FieldDrift drift;
    drift.key = key_;
    drift.field = field;
    drift.baseline_text = baseline;
    drift.candidate_text = candidate;
    drift.is_text = true;
    report_.drifts.push_back(std::move(drift));
  }

  /// Exact comparison for counts, cycles and booleans-as-integers —
  /// tolerance never applies to discrete fields.
  void exact(const std::string& field, std::int64_t baseline,
             std::int64_t candidate) {
    ++report_.values_compared;
    if (baseline == candidate) return;
    FieldDrift drift;
    drift.key = key_;
    drift.field = field;
    drift.baseline = static_cast<double>(baseline);
    drift.candidate = static_cast<double>(candidate);
    drift.abs_err = std::abs(drift.baseline - drift.candidate);
    const double scale =
        std::max(std::abs(drift.baseline), std::abs(drift.candidate));
    drift.rel_err = scale > 0.0 ? drift.abs_err / scale : 0.0;
    report_.drifts.push_back(std::move(drift));
  }

 private:
  DiffReport& report_;
  const DiffOptions& options_;
  const std::string& key_;
};

/// Telemetry histograms and series follow the degradation rule: compared
/// only when at least one side carries the block, so legacy documents
/// keep their historical values_compared counts. Counters, percentiles
/// and histogram buckets are integers (exact); utilizations and
/// occupancy series are rates (tolerance-aware).
void compare_point_telemetry(RecordComparator& cmp, const std::string& at,
                             const sim::PointTelemetry& b,
                             const sim::PointTelemetry& c) {
  cmp.exact(at + "present", b.present ? 1 : 0, c.present ? 1 : 0);
  cmp.exact(at + "window", b.window, c.window);
  cmp.exact(at + "latency_p50", b.latency_p50, c.latency_p50);
  cmp.exact(at + "latency_p99", b.latency_p99, c.latency_p99);
  cmp.exact(at + "latency_p999", b.latency_p999, c.latency_p999);
  cmp.exact(at + "latency_max", b.latency_max, c.latency_max);
  const auto int_array = [&](const std::string& field,
                             const std::vector<std::int64_t>& lhs,
                             const std::vector<std::int64_t>& rhs) {
    if (lhs.size() != rhs.size()) {
      cmp.exact(field + ".count", static_cast<std::int64_t>(lhs.size()),
                static_cast<std::int64_t>(rhs.size()));
    }
    const std::size_t n = std::min(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < n; ++i) {
      cmp.exact(field + "[" + std::to_string(i) + "]", lhs[i], rhs[i]);
    }
  };
  int_array(at + "latency_hist", b.latency_hist, c.latency_hist);
  int_array(at + "hops_hist", b.hops_hist, c.hops_hist);
  cmp.metric(at + "link_util_mean", b.link_util_mean, c.link_util_mean);
  cmp.metric(at + "link_util_max", b.link_util_max, c.link_util_max);
  if (b.hot_links.size() != c.hot_links.size()) {
    cmp.exact(at + "hot_links.count",
              static_cast<std::int64_t>(b.hot_links.size()),
              static_cast<std::int64_t>(c.hot_links.size()));
  }
  const std::size_t links = std::min(b.hot_links.size(), c.hot_links.size());
  for (std::size_t i = 0; i < links; ++i) {
    const std::string link = at + "hot_links[" + std::to_string(i) + "].";
    cmp.exact(link + "u", b.hot_links[i].u, c.hot_links[i].u);
    cmp.exact(link + "v", b.hot_links[i].v, c.hot_links[i].v);
    cmp.metric(link + "util", b.hot_links[i].util, c.hot_links[i].util);
    const auto& bs = b.hot_links[i].series;
    const auto& cs = c.hot_links[i].series;
    if (bs.size() != cs.size()) {
      cmp.exact(link + "series.count", static_cast<std::int64_t>(bs.size()),
                static_cast<std::int64_t>(cs.size()));
    }
    const std::size_t windows = std::min(bs.size(), cs.size());
    for (std::size_t w = 0; w < windows; ++w) {
      cmp.metric(link + "series[" + std::to_string(w) + "]", bs[w], cs[w]);
    }
  }
  if (b.vc_occupancy.size() != c.vc_occupancy.size()) {
    cmp.exact(at + "vc_occupancy.count",
              static_cast<std::int64_t>(b.vc_occupancy.size()),
              static_cast<std::int64_t>(c.vc_occupancy.size()));
  }
  const std::size_t classes =
      std::min(b.vc_occupancy.size(), c.vc_occupancy.size());
  for (std::size_t cls = 0; cls < classes; ++cls) {
    const std::string vc = at + "vc_occupancy[" + std::to_string(cls) + "]";
    const auto& bv = b.vc_occupancy[cls];
    const auto& cv = c.vc_occupancy[cls];
    if (bv.size() != cv.size()) {
      cmp.exact(vc + ".count", static_cast<std::int64_t>(bv.size()),
                static_cast<std::int64_t>(cv.size()));
    }
    const std::size_t windows = std::min(bv.size(), cv.size());
    for (std::size_t w = 0; w < windows; ++w) {
      cmp.metric(vc + "[" + std::to_string(w) + "]", bv[w], cv[w]);
    }
  }
  cmp.exact(at + "peak_backlog", b.peak_backlog, c.peak_backlog);
  cmp.exact(at + "peak_backlog_router", b.peak_backlog_router,
            c.peak_backlog_router);
}

void compare_records(const RunRecord& baseline, const RunRecord& candidate,
                     const std::string& key, const DiffOptions& options,
                     DiffReport& report) {
  RecordComparator cmp(report, options, key);
  cmp.exact("routers", baseline.routers, candidate.routers);
  cmp.exact("terminals", baseline.terminals, candidate.terminals);

  // Status is compared only when at least one side carries one, so legacy
  // documents keep their historical values_compared counts.
  if (!baseline.status.empty() || !candidate.status.empty()) {
    cmp.text("status", baseline.status, candidate.status);
  }

  // Trajectory: the per-load-point measurements. A point-count mismatch
  // (possible for saturation searches, whose keys carry no grid) is one
  // drift plus a comparison of the common prefix; a mismatched load axis
  // surfaces as points[i].offered drift.
  if (baseline.points.size() != candidate.points.size()) {
    cmp.exact("points.count",
              static_cast<std::int64_t>(baseline.points.size()),
              static_cast<std::int64_t>(candidate.points.size()));
  }
  const std::size_t common =
      std::min(baseline.points.size(), candidate.points.size());
  for (std::size_t i = 0; i < common; ++i) {
    const RunPoint& b = baseline.points[i];
    const RunPoint& c = candidate.points[i];
    const std::string at = "points[" + std::to_string(i) + "].";
    cmp.metric(at + "offered", b.offered, c.offered);
    cmp.metric(at + "accepted", b.accepted, c.accepted);
    cmp.metric(at + "avg_latency", b.avg_latency, c.avg_latency);
    cmp.metric(at + "p99_latency", b.p99_latency, c.p99_latency);
    cmp.metric(at + "mean_hops", b.mean_hops, c.mean_hops);
    cmp.exact(at + "cycles", b.cycles, c.cycles);
    cmp.exact(at + "converged", b.converged ? 1 : 0, c.converged ? 1 : 0);
    // Robustness fields follow the same only-when-present rule as status.
    if (b.stalled || c.stalled) {
      cmp.exact(at + "stalled", b.stalled ? 1 : 0, c.stalled ? 1 : 0);
    }
    if (b.has_degradation || c.has_degradation) {
      cmp.exact(at + "degradation.present", b.has_degradation ? 1 : 0,
                c.has_degradation ? 1 : 0);
      cmp.exact(at + "degradation.dropped", b.dropped, c.dropped);
      cmp.exact(at + "degradation.reinjected", b.reinjected, c.reinjected);
      cmp.exact(at + "degradation.rerouted", b.rerouted, c.rerouted);
      cmp.exact(at + "degradation.unreachable_dropped",
                b.unreachable_dropped, c.unreachable_dropped);
      cmp.exact(at + "degradation.unreachable_pairs", b.unreachable_pairs,
                c.unreachable_pairs);
      if (b.reconvergence.size() != c.reconvergence.size()) {
        cmp.exact(at + "degradation.reconvergence.count",
                  static_cast<std::int64_t>(b.reconvergence.size()),
                  static_cast<std::int64_t>(c.reconvergence.size()));
      }
      const std::size_t events =
          std::min(b.reconvergence.size(), c.reconvergence.size());
      for (std::size_t e = 0; e < events; ++e) {
        cmp.exact(at + "degradation.reconvergence[" + std::to_string(e) +
                      "]",
                  b.reconvergence[e], c.reconvergence[e]);
      }
    }
    // Workload completion accounting is integer-exact by construction
    // (both engines and every scheduler produce bit-identical runs), so
    // every field is compared exactly — tolerance never applies.
    if (b.has_workload || c.has_workload) {
      cmp.exact(at + "workload.present", b.has_workload ? 1 : 0,
                c.has_workload ? 1 : 0);
      cmp.exact(at + "workload.done", b.workload_done ? 1 : 0,
                c.workload_done ? 1 : 0);
      cmp.exact(at + "workload.completion_cycles", b.workload_completion,
                c.workload_completion);
      cmp.exact(at + "workload.lost", b.workload_lost, c.workload_lost);
      if (b.workload_phase_cycles.size() != c.workload_phase_cycles.size()) {
        cmp.exact(at + "workload.phase_cycles.count",
                  static_cast<std::int64_t>(b.workload_phase_cycles.size()),
                  static_cast<std::int64_t>(c.workload_phase_cycles.size()));
      }
      const std::size_t phases = std::min(b.workload_phase_cycles.size(),
                                          c.workload_phase_cycles.size());
      for (std::size_t p = 0; p < phases; ++p) {
        cmp.exact(at + "workload.phase_cycles[" + std::to_string(p) + "]",
                  b.workload_phase_cycles[p], c.workload_phase_cycles[p]);
      }
    }
    if (b.telemetry.present || c.telemetry.present) {
      compare_point_telemetry(cmp, at + "telemetry.", b.telemetry,
                              c.telemetry);
    }
  }

  cmp.metric("saturation_estimate", baseline.saturation_estimate,
             candidate.saturation_estimate);

  // Record-level telemetry aggregate: integer counters only, so it is
  // exact whenever present on either side.
  if (baseline.telemetry.present || candidate.telemetry.present) {
    const sim::RecordTelemetry& bt = baseline.telemetry;
    const sim::RecordTelemetry& ct = candidate.telemetry;
    cmp.exact("telemetry.present", bt.present ? 1 : 0, ct.present ? 1 : 0);
    const auto int_array = [&](const std::string& field,
                               const std::vector<std::int64_t>& lhs,
                               const std::vector<std::int64_t>& rhs) {
      if (lhs.size() != rhs.size()) {
        cmp.exact(field + ".count", static_cast<std::int64_t>(lhs.size()),
                  static_cast<std::int64_t>(rhs.size()));
      }
      const std::size_t n = std::min(lhs.size(), rhs.size());
      for (std::size_t i = 0; i < n; ++i) {
        cmp.exact(field + "[" + std::to_string(i) + "]", lhs[i], rhs[i]);
      }
    };
    int_array("telemetry.latency_hist", bt.latency_hist, ct.latency_hist);
    int_array("telemetry.hops_hist", bt.hops_hist, ct.hops_hist);
    cmp.exact("telemetry.latency_max", bt.latency_max, ct.latency_max);
    cmp.exact("telemetry.peak_backlog", bt.peak_backlog, ct.peak_backlog);
    cmp.exact("telemetry.peak_backlog_router", bt.peak_backlog_router,
              ct.peak_backlog_router);
  }

  // Deterministic perf counters only: wall_seconds, cycles_per_sec and
  // the phase seconds measure the machine, not the simulation, and are
  // skipped.
  cmp.exact("perf.sim_cycles", baseline.perf.sim_cycles,
            candidate.perf.sim_cycles);
  cmp.metric("perf.mean_hop_count", baseline.perf.mean_hop_count,
             candidate.perf.mean_hop_count);
  cmp.exact("perf.peak_vc_occupancy", baseline.perf.peak_vc_occupancy,
            candidate.perf.peak_vc_occupancy);
}

}  // namespace

bool values_match(double baseline, double candidate,
                  const DiffOptions& options) {
  if (std::isnan(baseline) && std::isnan(candidate)) return true;
  if (std::isnan(baseline) || std::isnan(candidate)) return false;
  if (baseline == candidate) return true;  // covers equal infinities
  if (std::isinf(baseline) || std::isinf(candidate)) return false;
  return std::abs(baseline - candidate) <=
         options.atol + options.rtol *
                            std::max(std::abs(baseline),
                                     std::abs(candidate));
}

DiffReport diff_documents(const RunDocument& baseline,
                          const RunDocument& candidate,
                          const DiffOptions& options) {
  DiffReport report;

  // Index candidate records by key; duplicates queue up in document
  // order and match baseline occurrences one for one.
  std::map<std::string, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < candidate.records.size(); ++i) {
    by_key[record_key(candidate.records[i])].push_back(i);
  }
  std::map<std::string, std::size_t> consumed;
  std::vector<char> matched(candidate.records.size(), 0);

  for (const RunRecord& record : baseline.records) {
    const std::string key = record_key(record);
    const auto it = by_key.find(key);
    std::size_t& used = consumed[key];
    if (it == by_key.end() || used >= it->second.size()) {
      report.only_in_baseline.push_back(key);
      continue;
    }
    const std::size_t index = it->second[used++];
    matched[index] = 1;
    ++report.records_matched;
    report.matched_keys.push_back(key);
    compare_records(record, candidate.records[index], key, options, report);
  }
  for (std::size_t i = 0; i < candidate.records.size(); ++i) {
    if (!matched[i]) {
      report.only_in_candidate.push_back(record_key(candidate.records[i]));
    }
  }
  return report;
}

bool print_diff_report(const DiffReport& report, std::FILE* out) {
  for (const auto& key : report.only_in_baseline) {
    std::fprintf(out, "only in baseline:  %s\n", key.c_str());
  }
  for (const auto& key : report.only_in_candidate) {
    std::fprintf(out, "only in candidate: %s\n", key.c_str());
  }
  for (const auto& drift : report.drifts) {
    if (drift.is_text) {
      std::fprintf(out,
                   "drift: %s\n"
                   "       %s: baseline '%s' vs candidate '%s'\n",
                   drift.key.c_str(), drift.field.c_str(),
                   drift.baseline_text.c_str(),
                   drift.candidate_text.c_str());
      continue;
    }
    std::fprintf(out,
                 "drift: %s\n"
                 "       %s: baseline %.17g vs candidate %.17g "
                 "(abs %.3g, rel %.3g)\n",
                 drift.key.c_str(), drift.field.c_str(), drift.baseline,
                 drift.candidate, drift.abs_err, drift.rel_err);
  }
  if (report.clean()) {
    std::fprintf(out,
                 "OK: %zu record(s), %zu value(s) compared, all within "
                 "tolerance\n",
                 report.records_matched, report.values_compared);
  } else {
    std::fprintf(out,
                 "FAIL: %zu drifted value(s), %zu baseline-only, %zu "
                 "candidate-only record(s) (%zu matched, %zu value(s) "
                 "compared)\n",
                 report.drifts.size(), report.only_in_baseline.size(),
                 report.only_in_candidate.size(), report.records_matched,
                 report.values_compared);
  }
  return report.clean();
}

namespace {

/// The five XML metacharacters, escaped for both text and attributes.
std::string xml_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string describe_drift(const FieldDrift& drift) {
  if (drift.is_text) {
    return drift.field + ": baseline '" + drift.baseline_text +
           "' vs candidate '" + drift.candidate_text + "'";
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "%s: baseline %.17g vs candidate %.17g (abs %.3g, rel "
                "%.3g)",
                drift.field.c_str(), drift.baseline, drift.candidate,
                drift.abs_err, drift.rel_err);
  return line;
}

}  // namespace

std::string junit_report(const DiffReport& report) {
  // Drifts grouped by record key so each matched record is one testcase
  // with all of its drifted fields in one <failure> body.
  std::map<std::string, std::vector<const FieldDrift*>> by_key;
  for (const FieldDrift& drift : report.drifts) {
    by_key[drift.key].push_back(&drift);
  }

  const std::size_t tests = report.matched_keys.size() +
                            report.only_in_baseline.size() +
                            report.only_in_candidate.size();
  std::size_t failures =
      report.only_in_baseline.size() + report.only_in_candidate.size();
  for (const std::string& key : report.matched_keys) {
    if (by_key.count(key) != 0) ++failures;
  }

  std::string xml = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  xml += "<testsuite name=\"pf_sim diff\" tests=\"" +
         std::to_string(tests) + "\" failures=\"" +
         std::to_string(failures) + "\">\n";
  const auto open_case = [&](const std::string& key) {
    xml += "  <testcase classname=\"pf_sim.diff\" name=\"" +
           xml_escape(key) + "\"";
  };
  for (const std::string& key : report.matched_keys) {
    open_case(key);
    const auto it = by_key.find(key);
    if (it == by_key.end()) {
      xml += "/>\n";
      continue;
    }
    xml += ">\n    <failure message=\"" +
           std::to_string(it->second.size()) +
           " value(s) beyond tolerance\">";
    for (const FieldDrift* drift : it->second) {
      xml += '\n';
      xml += xml_escape(describe_drift(*drift));
    }
    xml += "\n    </failure>\n  </testcase>\n";
  }
  for (const std::string& key : report.only_in_baseline) {
    open_case(key);
    xml += ">\n    <failure message=\"record only in baseline\"/>\n"
           "  </testcase>\n";
  }
  for (const std::string& key : report.only_in_candidate) {
    open_case(key);
    xml += ">\n    <failure message=\"record only in candidate\"/>\n"
           "  </testcase>\n";
  }
  xml += "</testsuite>\n";
  return xml;
}

}  // namespace pf::exp
