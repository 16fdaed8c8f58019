#include "exp/diff.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <type_traits>

#include "exp/record_fields.hpp"

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
    add_numeric(field, baseline, candidate);
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
    add_numeric(field, static_cast<double>(baseline),
                static_cast<double>(candidate));
  }

 private:
  void add_numeric(const std::string& field, double baseline,
                   double candidate) {
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

  DiffReport& report_;
  const DiffOptions& options_;
  const std::string& key_;
};

template <class T>
void compare_object(RecordComparator& cmp, const std::string& prefix,
                    const T& baseline, const T& candidate);

/// One value pair by its type. Arrays of different lengths drift once
/// on "<path>.count", then their common prefix is compared, so a
/// mismatched load axis surfaces as points[i].offered drift.
template <class M>
void compare_value(RecordComparator& cmp, const std::string& path,
                   const M& baseline, const M& candidate) {
  if constexpr (fields::is_vector<M>) {
    if (baseline.size() != candidate.size()) {
      cmp.exact(path + ".count", static_cast<std::int64_t>(baseline.size()),
                static_cast<std::int64_t>(candidate.size()));
    }
    const std::size_t common = std::min(baseline.size(), candidate.size());
    for (std::size_t i = 0; i < common; ++i) {
      compare_value(cmp, path + "[" + std::to_string(i) + "]", baseline[i],
                    candidate[i]);
    }
  } else if constexpr (std::is_same_v<M, std::string>) {
    cmp.text(path, baseline, candidate);
  } else if constexpr (std::is_floating_point_v<M>) {
    cmp.metric(path, baseline, candidate);
  } else if constexpr (std::is_arithmetic_v<M>) {
    cmp.exact(path, static_cast<std::int64_t>(baseline),
              static_cast<std::int64_t>(candidate));
  } else {
    compare_object(cmp, path + ".", baseline, candidate);
  }
}

/// The comparator: walks a baseline and a candidate object through the
/// field table in lockstep. Identity, perf and derived fields are never
/// compared; optional fields and blocks are compared only when at least
/// one side carries them, so documents without them keep their
/// historical values_compared counts.
template <class T>
class FieldComparator {
 public:
  FieldComparator(RecordComparator& cmp, std::string prefix,
                  const T& baseline, const T& candidate)
      : cmp_(cmp), prefix_(std::move(prefix)), b_(baseline), c_(candidate) {}

  template <class M>
  void field(const char* key, M T::*member, fields::Spec spec) {
    if (spec.kind == fields::Kind::Identity ||
        spec.kind == fields::Kind::Perf) {
      return;
    }
    const bool in_b = fields::is_written(b_.*member, spec.presence);
    const bool in_c = fields::is_written(c_.*member, spec.presence);
    if (!in_b && !in_c) return;
    const std::string path = prefix_ + key;
    if (spec.presence == fields::Presence::Flagged) {
      cmp_.exact(path + ".present", in_b, in_c);
    }
    compare_value(cmp_, path, b_.*member, c_.*member);
  }
  template <class R>
  void derived(const char*, R (T::*)() const) {}
  template <class Table>
  void block(const char* key, bool T::*gate, Table table) {
    if (!(b_.*gate) && !(c_.*gate)) return;
    const std::string path = prefix_ + key;
    cmp_.exact(path + ".present", b_.*gate, c_.*gate);
    FieldComparator inner(cmp_, path + ".", b_, c_);
    table(inner);
  }
  template <class Table>
  void group(bool (T::*)() const, Table table) {
    table(*this);
  }

 private:
  RecordComparator& cmp_;
  std::string prefix_;
  const T& b_;
  const T& c_;
};

template <class T>
void compare_object(RecordComparator& cmp, const std::string& prefix,
                    const T& baseline, const T& candidate) {
  FieldComparator<T> comparator(cmp, prefix, baseline, candidate);
  fields::visit_fields(comparator, fields::Of<T>{});
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
    RecordComparator cmp(report, options, key);
    compare_object(cmp, "", record, candidate.records[index]);
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
