// The polarfly-run/1 field table and its writer and checked reader:
// every committed record document round-trips byte for byte, a record
// with every field set survives write -> read unchanged, out-of-range or
// mistyped values are refused naming their key path, and every table key
// is documented in docs/schemas.md and states a kind its member can hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "exp/record_fields.hpp"
#include "exp/results.hpp"
#include "util/json.hpp"

namespace {

using namespace pf;

std::string read_file(const std::filesystem::path& path) {
  std::string text;
  EXPECT_TRUE(util::read_text_file(path.string(), text)) << path;
  return text;
}

/// Every polarfly-run/1 document in `dir` whose name ends in `suffix`.
std::vector<std::filesystem::path> run_documents(const char* dir,
                                                 const std::string& suffix) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const util::JsonValue root = util::json_parse(read_file(entry.path()));
    const util::JsonValue* schema = root.find("schema");
    if (schema != nullptr && schema->as_string() == "polarfly-run/1") {
      out.push_back(entry.path());
    }
  }
  return out;
}

TEST(RunRecordTable, CommittedDocumentsRoundTripByteForByte) {
  std::vector<std::filesystem::path> files =
      run_documents(PF_SUITE_DIR, ".baseline.json");
  const auto refs = run_documents(PF_BENCH_REF_DIR, ".json");
  files.insert(files.end(), refs.begin(), refs.end());
  ASSERT_GE(files.size(), 8u);  // 4 suite baselines + 4 bench references
  for (const auto& path : files) {
    const std::string text = read_file(path);
    const exp::RunDocument doc = exp::parse_records_document(text);
    EXPECT_FALSE(doc.records.empty()) << path;
    EXPECT_EQ(exp::to_json(doc.records, doc.tool) + "\n", text) << path;
  }
}

/// A record with every field of every table away from its default, so
/// dropping any entry from a table loses a value on the way back.
exp::RunRecord full_record() {
  exp::RunRecord r;
  r.label = "full";
  r.topology = "PolarFly ER_7";
  r.routing = "UGAL-PF";
  r.pattern = "randperm";
  r.routers = 57;
  r.terminals = 228;
  r.seed = 18446744073709551615ull;
  r.pattern_seed = 7;
  r.status = "timeout";
  r.saturation_estimate = 0.75;
  exp::RunPoint p;
  p.offered = 0.5;
  p.accepted = 0.25;
  p.avg_latency = 31.5;
  p.p99_latency = 88.0;
  p.converged = true;
  p.mean_hops = 1.875;
  p.cycles = 4000;
  p.stalled = true;
  p.has_degradation = true;
  p.dropped = 1;
  p.reinjected = 2;
  p.rerouted = 3;
  p.unreachable_dropped = 4;
  p.unreachable_pairs = 5;
  p.reconvergence = {120, -1};
  p.has_workload = true;
  p.workload_done = true;
  p.workload_completion = 900;
  p.workload_lost = 6;
  p.workload_phase_cycles = {300, 600, 900};
  sim::PointTelemetry& t = p.telemetry;
  t.present = true;
  t.window = 64;
  t.latency_p50 = 20;
  t.latency_p99 = 80;
  t.latency_p999 = 95;
  t.latency_max = 101;
  t.latency_hist = {0, 3, 9};
  t.hops_hist = {0, 4, 8};
  t.link_util_mean = 0.125;
  t.link_util_max = 0.5;
  t.hot_links.push_back({3, 9, 0.5, {0.25, 0.75}});
  t.vc_occupancy = {{1.5, 2.5}, {0.5}};
  t.peak_backlog = 12;
  t.peak_backlog_router = 4;
  r.points = {p, p};
  r.points[1].offered = 0.75;
  r.telemetry.present = true;
  r.telemetry.latency_hist = {0, 6, 18};
  r.telemetry.hops_hist = {0, 8, 16};
  r.telemetry.latency_max = 101;
  r.telemetry.peak_backlog = 12;
  r.telemetry.peak_backlog_router = 4;
  r.perf = {8000, 1.5, 5333.25, 1.875, 9, 0.25, 0.125, 0.5, 0.5, 0.25};
  return r;
}

TEST(RunRecordTable, EveryFieldSurvivesWriteThenRead) {
  const exp::RunRecord record = full_record();
  const exp::RunDocument doc =
      exp::parse_records_document(exp::to_json({record}, "test_results"));
  ASSERT_EQ(doc.records.size(), 1u);
  EXPECT_TRUE(doc.records[0] == record) << exp::to_json(doc.records, "back");
  EXPECT_TRUE(exp::parse_run_record(util::json_parse(
                  exp::record_json_line(record))) == record);
}

/// The error `parse` throws on `text` with `from` replaced by `to`.
std::string refusal(const std::string& from, const std::string& to) {
  std::string text = exp::to_json({full_record()}, "test_results");
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  try {
    exp::parse_records_document(text);
  } catch (const std::exception& error) {
    return error.what();
  }
  return "(accepted)";
}

TEST(RunRecordTable, ReaderRefusesWhatItCannotRepresent) {
  EXPECT_EQ(refusal("\"routers\": 57", "\"routers\": 4294967296"),
            "records[0].routers = 4294967296 out of range [0, 2147483647]");
  EXPECT_EQ(refusal("\"u\": 3", "\"u\": -5"),
            "records[0].points[0].telemetry.hot_links[0].u = -5 out of "
            "range [0, 2147483647]");
  EXPECT_EQ(refusal("\"peak_vc_occupancy\": 9", "\"peak_vc_occupancy\": 2.5"),
            "records[0].perf.peak_vc_occupancy: expected integer, got "
            "non-integral number");
  EXPECT_EQ(refusal("\"reconvergence\": [", "\"reconvergence\": [-2, "),
            "records[0].points[0].degradation.reconvergence[0] = -2 out of "
            "range [-1, 9223372036854775807]");
  EXPECT_EQ(refusal("\"lost\": 6", "\"lsot\": 6"),
            "unknown key 'records[0].points[0].workload.lsot'");
  EXPECT_EQ(refusal("\"schema\": \"polarfly-run/1\"",
                    "\"schema\": \"polarfly-run/2\""),
            "document schema 'polarfly-run/2' is not polarfly-run/1");
}

template <class M>
struct Element {
  using type = M;
};
template <class M>
struct Element<std::vector<M>> : Element<M> {};

/// Whether a member of type M (or its array elements) can hold `kind`.
template <class M>
bool kind_fits(exp::fields::Kind kind) {
  using E = typename Element<M>::type;
  using K = exp::fields::Kind;
  constexpr bool text = std::is_same_v<E, std::string>;
  switch (kind) {
    case K::Identity: return text || std::is_same_v<E, std::uint64_t>;
    case K::Exact: return std::is_integral_v<E> && std::is_signed_v<E>;
    case K::Flag: return std::is_same_v<E, bool>;
    case K::Metric:
    case K::Perf: return std::is_floating_point_v<E>;
    case K::Text: return text;
    case K::Nested: return std::is_class_v<E> && !text;
  }
  return false;
}

/// Collects every key of a table, nested tables included, and the keys
/// whose stated kind does not fit their member's type.
template <class T>
struct KeyCollector {
  std::set<std::string>& keys;
  std::set<std::string>& misfits;

  template <class M>
  void field(const char* key, M T::*, exp::fields::Spec spec) {
    keys.insert(key);
    if (!kind_fits<M>(spec.kind)) misfits.insert(key);
    using E = typename Element<M>::type;
    if constexpr (std::is_class_v<E> && !std::is_same_v<E, std::string>) {
      KeyCollector<E> inner{keys, misfits};
      visit_fields(inner, exp::fields::Of<E>{});
    }
  }
  template <class F>
  void derived(const char* key, F) {
    keys.insert(key);
  }
  template <class G, class Table>
  void block(const char* key, G, Table table) {
    keys.insert(key);
    table(*this);
  }
  template <class G, class Table>
  void group(G, Table table) {
    table(*this);
  }
};

TEST(RunRecordTable, EveryKeyIsDocumentedWithAFittingKind) {
  std::set<std::string> keys, misfits;
  KeyCollector<exp::RunDocument> collector{keys, misfits};
  visit_fields(collector, exp::fields::Of<exp::RunDocument>{});
  EXPECT_GE(keys.size(), 60u);
  EXPECT_TRUE(misfits.empty()) << *misfits.begin();
  const std::string docs = read_file(PF_DOCS_DIR "/schemas.md");
  for (const std::string& key : keys) {
    EXPECT_NE(docs.find("`" + key + "`"), std::string::npos)
        << "docs/schemas.md does not document `" << key << "`";
  }
}

}  // namespace
