// The results layer: writes RunRecords as polarfly-run/1 JSON
// (docs/schemas.md) for every --json <path> and checkpoint journal, and
// reads them back range-checked. Both directions, like pf_sim diff, walk
// the one field table in exp/record_fields.hpp.
#pragma once

#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace pf::exp {

/// The record's points as the standard sweep table (offered, accepted,
/// latencies, stability) — shared by every sweep-printing binary.
util::Table sweep_table(const RunRecord& record);

/// Banner + sweep table + saturation footer (the bisected plateau when
/// the record came from saturation_search, peak accepted otherwise).
void print_run(const RunRecord& record);

/// The `pf_sim report` rendering of one record: a per-point percentile
/// table (p50/p99/p999/max from the telemetry block; falls back to the
/// plain sweep table when the record carries no telemetry), the top-k
/// hot links aggregated across points, peak router backlog, and phase
/// timings when present.
void print_report(const RunRecord& record, int top_links);

/// The whole document: {"tool", "schema", "records": [...]}.
std::string to_json(const std::vector<RunRecord>& records,
                    const std::string& tool);

/// Writes to_json(records, tool) to `path` ("-" = stdout); false on I/O
/// failure.
bool write_json(const std::string& path,
                const std::vector<RunRecord>& records,
                const std::string& tool);

/// A parsed polarfly-run/1 document.
struct RunDocument {
  std::string schema;
  std::string tool;
  std::vector<RunRecord> records;
};

/// Parses a polarfly-run/1 document back into RunRecords — the exact
/// inverse of to_json. Throws util::JsonError on malformed JSON, on a
/// value of the wrong type and on an integer outside its field's range,
/// and std::invalid_argument on a wrong schema string or a key the field
/// table lacks; range and key errors name the key path (e.g.
/// "records[0].points[2].cycles"), so trajectory tooling fails on drift
/// instead of silently dropping or wrapping values.
RunDocument parse_records_document(const std::string& json_text);

/// One record (the element shape of "records") parsed back — the
/// building block of checkpoint loading. Throws like
/// parse_records_document, with key paths relative to the record.
RunRecord parse_run_record(const util::JsonValue& value);

// ---- checkpoint journal --------------------------------------------------
//
// Resumable suites stream completed records to a journal: one compact
// JSON record per line, appended (and flushed) as each case finishes.
// Doubles round-trip via %.17g, so a journal replayed into a document is
// bit-identical to the uninterrupted run.

/// One record as compact single-line JSON — a checkpoint journal line.
std::string record_json_line(const RunRecord& record);

/// Appends one record line to the journal at `path` (created on first
/// use) and flushes it; false on I/O failure.
bool append_checkpoint(const std::string& path, const RunRecord& record);

/// Loads a checkpoint journal. A malformed FINAL line (the crash
/// artifact of a killed run) is dropped with a stderr note; a malformed
/// interior line throws std::invalid_argument naming the line number.
std::vector<RunRecord> load_checkpoint(const std::string& path);

/// The identity of a record across reruns: label, scenario axes and
/// seeds — everything that names the experiment, nothing that measures
/// it. Two runs of the same suite produce the same key sequence even
/// when every number moved.
std::string record_key(const RunRecord& record);

/// Collects the records a run produces, in order.
class ResultLog {
 public:
  void add(RunRecord record) { records_.push_back(std::move(record)); }
  const std::vector<RunRecord>& records() const { return records_; }

 private:
  std::vector<RunRecord> records_;
};

}  // namespace pf::exp
