// Tolerance-aware trajectory comparison of polarfly-run/1 documents —
// the regression gate behind `pf_sim diff <baseline> <candidate>`.
// Records are matched by record_key() (identity only: label, axes,
// seeds, load grid), then walked through the field table
// (exp/record_fields.hpp) value by value: every measurement, count and
// telemetry block, each by its field's kind. Identity, derived and
// machine-dependent perf fields (wall_seconds, cycles_per_sec, phase
// seconds) are deliberately NOT compared. See docs/schemas.md for the
// conventions.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/results.hpp"

namespace pf::exp {

struct DiffOptions {
  /// Two values match when |a - b| <= atol + rtol * max(|a|, |b|)
  /// (boundary inclusive), both are NaN, or they compare equal (which
  /// covers equal infinities). Integer and boolean fields are always
  /// compared exactly.
  double rtol = 1e-9;
  double atol = 1e-12;
};

/// One value that moved beyond tolerance between two matched records.
struct FieldDrift {
  std::string key;    ///< record_key() of the matched pair
  std::string field;  ///< e.g. "points[3].avg_latency"
  double baseline = 0.0;
  double candidate = 0.0;
  double abs_err = 0.0;  ///< |baseline - candidate| (NaN-vs-number: NaN)
  double rel_err = 0.0;  ///< abs_err / max(|baseline|, |candidate|)
  /// Set for text fields (e.g. "status"); the numeric fields above stay
  /// zero and reports print the texts instead.
  std::string baseline_text;
  std::string candidate_text;
  bool is_text = false;
};

struct DiffReport {
  std::vector<std::string> only_in_baseline;   ///< unmatched record keys
  std::vector<std::string> only_in_candidate;  ///< in candidate order
  std::vector<FieldDrift> drifts;              ///< in baseline order
  std::vector<std::string> matched_keys;       ///< in baseline order
  std::size_t records_matched = 0;
  std::size_t values_compared = 0;

  bool clean() const {
    return only_in_baseline.empty() && only_in_candidate.empty() &&
           drifts.empty();
  }
};

/// The scalar comparison rule of DiffOptions, exposed for tests.
bool values_match(double baseline, double candidate,
                  const DiffOptions& options);

/// Record-by-record comparison keyed by record_key(). Duplicate keys
/// match by occurrence order; unmatched occurrences land in only_in_*.
DiffReport diff_documents(const RunDocument& baseline,
                          const RunDocument& candidate,
                          const DiffOptions& options = {});

/// Human-readable report — one line per missing record and per drifted
/// value, plus a summary line. Returns report.clean().
bool print_diff_report(const DiffReport& report, std::FILE* out);

/// The report as a JUnit XML document (one <testcase> per matched record
/// key, a failing one per missing record; drifts become <failure>
/// elements) so CI dashboards can surface pf_sim diff results natively.
std::string junit_report(const DiffReport& report);

}  // namespace pf::exp
