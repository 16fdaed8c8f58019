// Declarative scenario suites (schema "polarfly-suite/1"): one JSON
// document describes a whole {topology x routing x pattern-or-workload x
// failure x schedule} experiment matrix, and one runner executes it
// through the sweep engine. Every paper figure/table that sweeps is a
// suite entry; the committed suites/*.json files make the full
// evaluation reproducible from `pf_sim suite <file> --json <out>`.
//
// docs/suite-format.md is the schema reference. Each entry expands to
// the cross product of its axes in document order (topology-major,
// schedules innermost); its scalar keys are the rows of
// exp/settings.hpp's table. Unknown keys anywhere are hard errors, so
// schema drift fails loudly instead of silently ignoring a misspelled
// axis.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "exp/results.hpp"
#include "exp/scenario.hpp"

namespace pf::exp {

/// One expanded, runnable experiment: a resolved ScenarioSpec plus the
/// load axis (fixed grid or adaptive saturation search).
struct SuiteCase {
  ScenarioSpec spec;
  std::vector<double> loads;  ///< fixed-grid loads (ignored if saturation)
  bool saturation = false;    ///< bisect the plateau instead of a grid
  double sat_lo = 0.05;
  double sat_hi = 1.0;
  double sat_tol = 0.02;
  int sat_iters = 10;
  /// Per-case wall-clock budget; 0 = unlimited. An expired case keeps the
  /// points it finished and lands with record.status = "timeout".
  double timeout_seconds = 0.0;
};

struct Suite {
  std::string name;
  std::vector<SuiteCase> cases;  ///< fully cross-product-expanded
};

/// Parses and expands a polarfly-suite/1 document. Throws
/// util::JsonError on malformed JSON and std::invalid_argument on schema
/// violations; both name the offending scenarios[i] entry and key.
Suite parse_suite(const std::string& json_text);

/// The realized schedule of one case: how the scheduler actually ran
/// it. Under the parallel scheduler `shards` counts the workers that
/// ever attached to the case's claim cursor (rebalancing means late
/// workers pile onto the stragglers); under the serial scheduler it is
/// the case's internal sharding width.
struct CaseSchedule {
  std::string label;
  int shards = 0;          ///< workers that ever ran part of this case
  std::size_t points = 0;  ///< load points (saturation: probes recorded)
  double wall_seconds = 0.0;
};

/// How SuiteRunner schedules a suite's cases over the shared thread pool.
///
/// The default (parallel) scheduler runs independent cases concurrently:
/// every grid case exposes a claim cursor over its load points, workers
/// attach to a case and draw points one at a time, and the per-case
/// attachment cap is recomputed live from the number of cases that still
/// have unclaimed work — as cases drain, freed workers rebalance onto
/// whatever remains instead of idling behind a fixed up-front split.
/// Saturation searches are single-attachment (their probes are
/// sequential by construction). Records stream into the ResultLog in
/// document order regardless of completion order, with values
/// bit-identical to a serial run (only the wall-clock perf fields differ
/// — see docs/schemas.md).
struct ScheduleOptions {
  /// false restores the pre-scheduler behavior: cases run one after
  /// another, each parallelizing internally across the whole pool.
  bool parallel = true;
  /// Checkpoint records from an interrupted run (load_checkpoint order).
  /// Cases whose predicted record_key() matches a journal record (FIFO
  /// per key) are not re-simulated: the stored record is emitted in its
  /// document-order slot, so the final document is bit-identical to an
  /// uninterrupted run. Not owned; must outlive run().
  const std::vector<RunRecord>* resume = nullptr;
  /// > 0 enables the progress heartbeat: a `progress: done/total cases,
  /// elapsed, ETA` line on stderr every this-many seconds, plus the
  /// realized per-case schedule when the run completes.
  double progress_seconds = 0.0;
  /// When set, receives one CaseSchedule per case (document order) after
  /// run() completes. Not owned; must outlive run().
  std::vector<CaseSchedule>* schedule_out = nullptr;
};

/// Executes a suite through run_sweep / saturation_search, streaming
/// records into `log`. `on_record` (optional) fires after each case with
/// (record, case index, total cases) — the hook print/emit frontends use;
/// it always fires in case order (the parallel scheduler emits the
/// completed prefix as it grows). Cases whose damaged graph no longer
/// connects all terminals are not simulated (their oracle has no route to
/// offer): they emit a status = "skipped-disconnected" record in their
/// document-order slot — with a stderr note — so key/diff gates still see
/// every case; returns the number of cases skipped.
/// Damaged-graph cache entries are shared across the run's cases and
/// evicted from the registry when the run finishes.
class SuiteRunner {
 public:
  using Callback =
      std::function<void(const RunRecord&, std::size_t, std::size_t)>;

  explicit SuiteRunner(ScenarioRegistry& registry = ScenarioRegistry::shared())
      : registry_(registry) {}
  SuiteRunner(ScenarioRegistry& registry, const ScheduleOptions& schedule)
      : registry_(registry), schedule_(schedule) {}

  std::size_t run(const Suite& suite, ResultLog& log,
                  const Callback& on_record = {});

 private:
  ScenarioRegistry& registry_;
  ScheduleOptions schedule_;
};

/// True when every endpoint-hosting router can reach every other one —
/// the runnability condition for (possibly damaged) setups.
bool serves_all_terminals(const NetSetup& setup);

}  // namespace pf::exp
