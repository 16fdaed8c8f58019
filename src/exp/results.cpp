#include "exp/results.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "exp/record_fields.hpp"
#include "util/json.hpp"

namespace pf::exp {
namespace {

using fields::Of;

constexpr const char* kRunSchema = "polarfly-run/1";

/// The document's schema string ("" when it names none), checked before
/// anything else is read so a wrong document fails on its schema.
std::string schema_of(const util::JsonValue& root) {
  const util::JsonValue* schema = root.find("schema");
  return schema != nullptr ? schema->as_string() : "";
}

template <class T>
void write_object(util::JsonWriter& json, const T& object);

/// The writer: emits an object's fields in table order.
template <class T>
class FieldWriter {
 public:
  FieldWriter(util::JsonWriter& json, const T& object)
      : json_(json), object_(object) {}

  template <class M>
  void field(const char* key, M T::*member, fields::Spec spec) {
    const M& value = object_.*member;
    if (!fields::is_written(value, spec.presence)) return;
    json_.key(key);
    put(value);
  }
  template <class R>
  void derived(const char* key, R (T::*fn)() const) {
    json_.key(key).value((object_.*fn)());
  }
  template <class Table>
  void block(const char* key, bool T::*gate, Table table) {
    if (!(object_.*gate)) return;
    json_.key(key).begin_object();
    table(*this);
    json_.end_object();
  }
  template <class Table>
  void group(bool (T::*gate)() const, Table table) {
    if ((object_.*gate)()) table(*this);
  }

 private:
  template <class M>
  void put(const M& value) {
    if constexpr (fields::is_vector<M>) {
      json_.begin_array();
      for (const auto& item : value) put(item);
      json_.end_array();
    } else if constexpr (std::is_class_v<M> &&
                         !std::is_same_v<M, std::string>) {
      write_object(json_, value);
    } else {
      json_.value(value);
    }
  }

  util::JsonWriter& json_;
  const T& object_;
};

template <class T>
void write_object(util::JsonWriter& json, const T& object) {
  json.begin_object();
  FieldWriter<T> writer(json, object);
  fields::visit_fields(writer, Of<T>{});
  json.end_object();
}

template <class T, class Table>
void read_object(const util::JsonValue& json, const std::string& prefix,
                 T& object, Table table);

template <class T>
constexpr auto table_of = [](auto& v) { fields::visit_fields(v, Of<T>{}); };

/// One JSON value into `out`, checked against the field's spec. `path`
/// names the value in errors, e.g. "points[2].telemetry.window".
template <class M>
void read_value(const util::JsonValue& json, const std::string& path,
                M& out, const fields::Spec& spec) {
  if constexpr (fields::is_vector<M>) {
    out.clear();
    const auto& items = json.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
      read_value(items[i], path + "[" + std::to_string(i) + "]",
                 out.emplace_back(), spec);
    }
  } else if constexpr (std::is_same_v<M, std::string>) {
    out = json.as_string();
  } else if constexpr (std::is_same_v<M, bool>) {
    out = json.as_bool();
  } else if constexpr (std::is_floating_point_v<M>) {
    // Non-finite measurements are written as null; read them back as
    // NaN so diff tooling can compare them.
    out = json.is_null() ? std::numeric_limits<M>::quiet_NaN()
                         : json.as_double();
  } else if constexpr (std::is_unsigned_v<M>) {
    out = json.as_uint();
  } else if constexpr (std::is_integral_v<M>) {
    using Limits = std::numeric_limits<M>;
    out = static_cast<M>(json.as_int_in(
        path, std::max<std::int64_t>(spec.lo, Limits::min()),
        std::min<std::int64_t>(spec.hi, Limits::max())));
  } else {
    read_object(json, path + ".", out, table_of<M>);
  }
}

/// The checked reader: applies one JSON member to the table entry with
/// the same key; `found` stays false for a key the table lacks.
template <class T>
class FieldReader {
 public:
  FieldReader(T& object, const std::string& key,
              const util::JsonValue& value, const std::string& prefix)
      : object_(object), key_(key), value_(value), prefix_(prefix) {}

  template <class M>
  void field(const char* key, M T::*member, fields::Spec spec) {
    if (found || key_ != key) return;
    found = true;
    M& out = object_.*member;
    if constexpr (requires { out.present; }) out.present = true;
    read_value(value_, prefix_ + key, out, spec);
  }
  template <class R>
  void derived(const char* key, R (T::*)() const) {
    found = found || key_ == key;
  }
  template <class Table>
  void block(const char* key, bool T::*gate, Table table) {
    if (found || key_ != key) return;
    found = true;
    object_.*gate = true;
    read_object(value_, prefix_ + key + ".", object_, table);
  }
  template <class Table>
  void group(bool (T::*)() const, Table table) {
    table(*this);
  }

  bool found = false;

 private:
  T& object_;
  const std::string& key_;
  const util::JsonValue& value_;
  const std::string& prefix_;
};

template <class T, class Table>
void read_object(const util::JsonValue& json, const std::string& prefix,
                 T& object, Table table) {
  for (const auto& [key, value] : json.members()) {
    FieldReader<T> reader(object, key, value, prefix);
    table(reader);
    if (!reader.found) {
      throw std::invalid_argument("unknown key '" + prefix + key + "'");
    }
  }
}

template <class T>
T read_tabled(const util::JsonValue& json) {
  T object;
  read_object(json, "", object, table_of<T>);
  return object;
}

}  // namespace

util::Table sweep_table(const RunRecord& record) {
  util::Table table(
      {"offered", "accepted", "avg_latency", "p99_latency", "stable"});
  for (const auto& point : record.points) {
    table.row(point.offered, point.accepted, point.avg_latency,
              point.p99_latency, point.converged ? "yes" : "no");
  }
  return table;
}

namespace {

/// Completion-time rows for workload-mode records; no-op otherwise.
void print_workload_completion(const RunRecord& record) {
  bool any_workload = false;
  for (const auto& point : record.points) {
    any_workload = any_workload || point.has_workload;
  }
  if (!any_workload) return;
  std::printf("workload completion (pattern %s):\n", record.pattern.c_str());
  util::Table wl({"offered", "done", "completion_cycles", "lost", "phases"});
  for (const auto& point : record.points) {
    if (!point.has_workload) continue;
    wl.row(point.offered, point.workload_done ? "yes" : "no",
           static_cast<double>(point.workload_completion),
           static_cast<double>(point.workload_lost),
           static_cast<double>(point.workload_phase_cycles.size()));
  }
  wl.print();
  for (const auto& point : record.points) {
    if (!point.has_workload || point.workload_phase_cycles.empty()) {
      continue;
    }
    constexpr std::size_t kMaxShown = 12;
    std::printf("  offered %g phase completion:", point.offered);
    const std::size_t shown =
        std::min(kMaxShown, point.workload_phase_cycles.size());
    for (std::size_t i = 0; i < shown; ++i) {
      std::printf(" %lld",
                  static_cast<long long>(point.workload_phase_cycles[i]));
    }
    if (point.workload_phase_cycles.size() > kMaxShown) {
      std::printf(" ... (%zu phases)", point.workload_phase_cycles.size());
    }
    std::printf("\n");
  }
}

}  // namespace

void print_run(const RunRecord& record) {
  util::print_banner(record.label);
  sweep_table(record).print();
  print_workload_completion(record);
  if (record.saturation_estimate > 0.0) {
    std::printf("saturation plateau (bisected, %zu probes): %.3f "
                "flits/cycle/endpoint\n",
                record.points.size(), record.saturation_estimate);
  } else {
    std::printf("saturation throughput: %.3f flits/cycle/endpoint\n",
                record.saturation());
  }
}

void print_report(const RunRecord& record, int top_links) {
  util::print_banner(record.label);
  std::printf("%s | %s | %s | seed=%llu\n", record.topology.c_str(),
              record.routing.c_str(), record.pattern.c_str(),
              static_cast<unsigned long long>(record.seed));
  if (!record.status.empty()) {
    std::printf("status: %s\n", record.status.c_str());
  }

  print_workload_completion(record);

  bool any_telemetry = false;
  for (const auto& point : record.points) {
    any_telemetry = any_telemetry || point.telemetry.present;
  }
  if (!any_telemetry) {
    sweep_table(record).print();
    std::printf("(no telemetry in this record; re-run with telemetry "
                "enabled for percentiles and hot links)\n");
  } else {
    util::Table table({"offered", "accepted", "p50", "p99", "p999", "max",
                       "link_util", "backlog"});
    for (const auto& point : record.points) {
      const sim::PointTelemetry& t = point.telemetry;
      if (!t.present) continue;
      table.row(point.offered, point.accepted,
                static_cast<double>(t.latency_p50),
                static_cast<double>(t.latency_p99),
                static_cast<double>(t.latency_p999),
                static_cast<double>(t.latency_max), t.link_util_max,
                static_cast<double>(t.peak_backlog));
    }
    table.print();

    // Hot links aggregated across points: peak utilization per link.
    std::vector<std::pair<std::pair<int, int>, double>> links;
    for (const auto& point : record.points) {
      for (const sim::LinkTelemetry& link : point.telemetry.hot_links) {
        const std::pair<int, int> id{link.u, link.v};
        bool found = false;
        for (auto& entry : links) {
          if (entry.first == id) {
            entry.second = std::max(entry.second, link.util);
            found = true;
            break;
          }
        }
        if (!found) links.emplace_back(id, link.util);
      }
    }
    std::sort(links.begin(), links.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (static_cast<int>(links.size()) > top_links) {
      links.resize(static_cast<std::size_t>(top_links));
    }
    if (!links.empty()) {
      std::printf("hot links (peak utilization over the sweep):\n");
      util::Table hot({"link", "peak_util"});
      for (const auto& [id, util_value] : links) {
        char name[32];
        std::snprintf(name, sizeof name, "%d->%d", id.first, id.second);
        hot.row(name, util_value);
      }
      hot.print();
    }
    if (record.telemetry.present) {
      std::printf("latency max: %lld cycles | peak backlog: %d packets "
                  "(router %d)\n",
                  static_cast<long long>(record.telemetry.latency_max),
                  record.telemetry.peak_backlog,
                  record.telemetry.peak_backlog_router);
    }
  }

  const PerfCounters& perf = record.perf;
  if (perf.phase_timed()) {
    std::printf(
        "phases: setup %.3fs | reset %.3fs | warmup %.3fs | measure %.3fs "
        "| drain %.3fs\n",
        perf.setup_seconds, perf.reset_seconds, perf.warmup_seconds,
        perf.measure_seconds, perf.drain_seconds);
  }
}

std::string to_json(const std::vector<RunRecord>& records,
                    const std::string& tool) {
  util::JsonWriter json;
  write_object(json, RunDocument{kRunSchema, tool, records});
  return json.str();
}

bool write_json(const std::string& path,
                const std::vector<RunRecord>& records,
                const std::string& tool) {
  const std::string document = to_json(records, tool) + "\n";
  if (path == "-") {
    std::fputs(document.c_str(), stdout);
    return true;
  }
  return util::write_text_file(path, document);
}

RunDocument parse_records_document(const std::string& json_text) {
  const util::JsonValue root = util::json_parse(json_text);
  const std::string schema = schema_of(root);
  if (schema != kRunSchema) {
    throw std::invalid_argument("document schema '" + schema + "' is not " +
                                kRunSchema);
  }
  return read_tabled<RunDocument>(root);
}

RunRecord parse_run_record(const util::JsonValue& value) {
  return read_tabled<RunRecord>(value);
}

std::string record_json_line(const RunRecord& record) {
  util::JsonWriter json(0);
  write_object(json, record);
  return json.str();
}

bool append_checkpoint(const std::string& path, const RunRecord& record) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return false;
  const std::string line = record_json_line(record) + "\n";
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), file) == line.size() &&
      std::fflush(file) == 0;
  std::fclose(file);
  return ok;
}

std::vector<RunRecord> load_checkpoint(const std::string& path) {
  std::string text;
  if (!util::read_text_file(path, text)) {
    throw std::invalid_argument("cannot read checkpoint '" + path + "'");
  }
  std::vector<RunRecord> records;
  std::size_t line_no = 0, pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    const bool final_line = end >= text.size() ||
                            text.find_first_not_of(" \t\r\n", end) ==
                                std::string::npos;
    pos = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      records.push_back(parse_run_record(util::json_parse(line)));
    } catch (const std::exception& error) {
      // A truncated FINAL line is the expected artifact of a killed run:
      // drop it and resume from the last intact record. Anything earlier
      // is corruption, not interruption.
      if (final_line) {
        std::fprintf(stderr,
                     "checkpoint %s: dropping malformed final line %zu "
                     "(interrupted write)\n",
                     path.c_str(), line_no);
        break;
      }
      throw std::invalid_argument("checkpoint " + path + " line " +
                                  std::to_string(line_no) + ": " +
                                  error.what());
    }
  }
  return records;
}

std::string record_key(const RunRecord& record) {
  std::string key = record.label + " | " + record.topology + " | " +
                    record.routing + " | " + record.pattern +
                    " | seed=" + std::to_string(record.seed);
  if (record.pattern_seed != 0) {
    key += " pattern_seed=" + std::to_string(record.pattern_seed);
  }
  // The load axis is part of the experiment's identity: without it, two
  // same-named cases over different grids collapse to one key and the
  // aggregator drops one as a duplicate. Fixed grids are spec-stable
  // (first..last/count); saturation searches get a marker only — their
  // probe sequence is a measurement, and keys must not drift when
  // simulator values legitimately move.
  if (record.saturation_estimate > 0.0) {
    key += " | sat-search";
  } else if (!record.points.empty()) {
    char grid[64];
    std::snprintf(grid, sizeof(grid), " | loads=%g..%g/%zu",
                  record.points.front().offered,
                  record.points.back().offered, record.points.size());
    key += grid;
  }
  return key;
}

}  // namespace pf::exp
