// pf_sim — run the flit-level network simulator from the command line:
// one topology, one routing algorithm, one traffic pattern, one load, a
// whole latency-vs-load sweep, an adaptive saturation search — or a whole
// declarative scenario suite. A single run is a one-case suite: it goes
// through the same SuiteRunner and writes the same record.
//
//   pf_sim --topology pf --q 13 --routing UGALPF --pattern uniform
//          --loads 0.1:1.0:8 [settings] [--json PATH] [--csv PATH]
//   pf_sim ... --saturation-search | --workload SPEC | --trace PATH
//   pf_sim suite <file.json> | diff <a.json> <b.json> | report <r.json>
//
// `pf_sim` alone prints every option. The settings (--warmup, --seed,
// --engine, ...) are the rows of exp/settings.hpp's table, which also
// reads their suite keys.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/diff.hpp"
#include "exp/engine.hpp"
#include "exp/results.hpp"
#include "exp/scenario.hpp"
#include "exp/settings.hpp"
#include "exp/suite.hpp"
#include "sim/deadlock.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"
#include "topo/registry.hpp"
#include "topo_args.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace pf::apps {
namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();

/// The single run's starting case: SuiteCase{}, except that a traced run
/// samples every packet unless told otherwise.
exp::SuiteCase single_run_defaults() {
  exp::SuiteCase cs;
  cs.spec.config.telemetry.trace_sample = 1.0;
  return cs;
}

void usage_suite(std::FILE* f) {
  std::fputs(
      "usage: pf_sim suite <file.json> [--json PATH|-] [--quiet]\n"
      "       [--serial] [--checkpoint PATH [--resume]]\n"
      "  run a polarfly-suite/1 scenario suite end-to-end\n"
      "  (docs/suite-format.md documents the file format)\n"
      "  --json PATH|-    emit the runs as one polarfly-run/1 document\n"
      "  --quiet          progress lines on stderr instead of tables\n"
      "  --serial         run cases one at a time (default: the case\n"
      "                   scheduler runs independent cases concurrently)\n"
      "  --checkpoint PATH  stream each finished record to a journal\n"
      "                   (one JSON record per line) as the run progresses\n"
      "  --resume         skip cases already present in the --checkpoint\n"
      "                   journal; the final document is bit-identical to\n"
      "                   an uninterrupted run\n"
      "  --progress [SECS] heartbeat on stderr every SECS (default 2)\n"
      "                   seconds: finished/total cases, elapsed, ETA —\n"
      "                   plus the realized per-case schedule at the end\n"
      "  --telemetry, --engine E  force that setting onto every case, over\n"
      "                   the suite's config (see `pf_sim` for both)\n",
      f);
}

void usage_report(std::FILE* f) {
  std::fputs(
      "usage: pf_sim report <records.json> [--top N]\n"
      "       pf_sim report --compare <baseline.json> <candidate.json>\n"
      "  render a polarfly-run/1 document for humans:\n"
      "  per-point latency percentiles (p50/p99/p999/max), link "
      "utilization\n"
      "  and peak backlog from each record's telemetry block, plus the\n"
      "  top-N hottest links (default 8). Records without telemetry fall\n"
      "  back to the plain sweep table.\n"
      "  --compare BASELINE  side-by-side rendering of two documents:\n"
      "  records pair up by key (diff's matching), each pair printing\n"
      "  throughput/latency (and, with telemetry, percentile) tables\n"
      "  with per-metric delta columns plus a perf summary. Rendering\n"
      "  only — the pass/fail regression gate stays `pf_sim diff`.\n",
      f);
}

void usage_diff(std::FILE* f) {
  std::fputs(
      "usage: pf_sim diff <baseline.json> <candidate.json> "
      "[--rtol R] [--atol A] [--junit PATH]\n"
      "  compare two polarfly-run/1 documents record by record with\n"
      "  tolerance-aware trajectory comparison (see docs/schemas.md);\n"
      "  values match when |a-b| <= atol + rtol*max(|a|,|b|)\n"
      "  (defaults: rtol 1e-9, atol 1e-12)\n"
      "  --junit PATH     also write the report as JUnit XML for CI\n"
      "  exit 0: match, 1: drift/missing records, 2: bad invocation\n",
      f);
}

void usage_trace_stats(std::FILE* f) {
  std::fputs(
      "usage: pf_sim trace-stats <trace.jsonl> [--top N]\n"
      "  summarize a --trace packet event log: per-event-type counts,\n"
      "  the inter-event cycle-gap distribution (how much of the run was\n"
      "  idle — the spans the event engine skips wholesale), and the\n"
      "  top-N hottest routers by trace events (default 8)\n",
      f);
}

int usage() {
  std::printf(
      "pf_sim --topology F [family params] --routing R --pattern P\n"
      "       (--load X | --loads lo:hi:count | --saturation-search)\n"
      "pf_sim suite <file.json> [--json PATH|-] [--quiet] [--serial]\n"
      "       run a polarfly-suite/1 scenario suite end-to-end\n"
      "pf_sim diff <baseline.json> <candidate.json> [--rtol R] [--atol A]\n"
      "       tolerance-aware trajectory comparison of two documents\n"
      "pf_sim report <records.json> [--top N]\n"
      "       render percentile tables and hot links from telemetry\n"
      "pf_sim trace-stats <trace.jsonl> [--top N]\n"
      "       summarize a --trace packet event log: event counts,\n"
      "       inter-event cycle gaps, hottest routers\n"
      "\n"
      "options (docs/suite-format.md gives the settings' suite keys):\n"
      "  --endpoints N          endpoints per router, the spec's p=\n"
      "                         (default: radix/2 balanced)\n");
  exp::settings::print_help(stdout, single_run_defaults());
  std::printf(
      "  --json PATH            write the run as a polarfly-run/1 record\n"
      "  --csv PATH             also write the sweep as CSV\n"
      "  --saturation-search    bisect the accepted-load plateau instead\n"
      "                         of a fixed grid (--sat-lo/hi/tol/iters)\n"
      "  --trace PATH           sampled packet event trace as JSONL\n"
      "                         (implies --telemetry)\n"
      "  --workload SPEC        run an application workload instead of\n"
      "                         Bernoulli traffic: alltoall,\n"
      "                         ring_allreduce, rd_allreduce, stencil2d,\n"
      "                         stencil3d, bursty, hotspot, incast, or\n"
      "                         trace:file=PATH (replay a captured\n"
      "                         trace); params attach as key=value,\n"
      "                         e.g. \"alltoall:packets=2\"\n"
      "  --workload-out PATH    capture the compiled workload as a\n"
      "                         polarfly-trace/1 JSONL file for replay\n"
      "  --check-deadlock       verify the routing's channel-dependency\n"
      "                         graph is acyclic instead of simulating\n"
      "                         [--classes N] [--samples S]\n"
      "\n"
      "routing: MIN VAL CVAL UGAL UGALPF NCA(fattree) ALG(polarfly)\n"
      "patterns: uniform tornado randperm perm1hop perm2hop bitcomp\n"
      "\ntopologies (--topology also accepts a spec string like\n"
      "\"pf:q=13,p=7\" — the suite-file syntax; --seed is the simulation\n"
      "seed, so a jellyfish graph seed goes in the spec, jf:...,seed=S):\n%s",
      topo::topology_usage().c_str());
  return 2;
}

/// The required operand of a subcommand, or a usage-bearing exit: the
/// message names the missing operand and the relevant usage follows.
std::string operand_or_usage(const util::CliArgs& args, std::size_t index,
                             const char* what, const char* subcommand,
                             void (*usage_fn)(std::FILE*)) {
  try {
    return args.positional(index, what);
  } catch (const util::CliError& e) {
    std::fprintf(stderr, "pf_sim %s: %s\n", subcommand, e.what());
    usage_fn(stderr);
    std::exit(2);
  }
}

/// Strict invocation check for the record-tooling subcommands: stray
/// operands or unknown options are bad invocations (exit 2), not
/// warnings — a typo'd --rtol must not silently loosen the CI gate.
/// Call after every legitimate operand/option has been queried.
bool reject_stray_arguments(const util::CliArgs& args, const char* tool) {
  bool stray = false;
  for (const auto& key : args.unused_keys()) {
    std::fprintf(stderr, "%s: unknown option --%s\n", tool, key.c_str());
    stray = true;
  }
  for (const auto& operand : args.unused_positionals()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", tool,
                 operand.c_str());
    stray = true;
  }
  return stray;
}

/// Reads and parses one polarfly-run/1 document, or exits with a clear
/// message plus the subcommand's usage (missing files name the operand
/// they were meant to satisfy).
exp::RunDocument load_run_document(const std::string& path,
                                   const char* subcommand,
                                   void (*usage_fn)(std::FILE*)) {
  std::string text;
  if (!util::read_text_file(path, text)) {
    std::fprintf(stderr,
                 "pf_sim %s: cannot read records file '%s'\n",
                 subcommand, path.c_str());
    usage_fn(stderr);
    std::exit(2);
  }
  try {
    return exp::parse_records_document(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pf_sim %s: %s: %s\n", subcommand, path.c_str(),
                 e.what());
    std::exit(2);
  }
}

/// Writes the records as one polarfly-run/1 document to `path` ("-" =
/// stdout) unless it is empty; 1 when that fails.
int write_document(const std::string& path, const exp::ResultLog& log,
                   const char* tool) {
  if (path.empty() || exp::write_json(path, log.records(), tool)) return 0;
  std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
  return 1;
}

/// `pf_sim suite <file.json>`: load, expand, run, print — and emit the
/// whole suite as one polarfly-run/1 document via --json (PATH or "-").
int run_suite(const util::CliArgs& args) {
  const std::string path =
      operand_or_usage(args, 0, "suite file", "suite", usage_suite);
  // Mirror load_run_document: an unreadable file is an operand problem
  // and earns the usage; a schema error inside the file does not.
  std::string text;
  if (!util::read_text_file(path, text)) {
    std::fprintf(stderr, "pf_sim suite: cannot read suite file '%s'\n",
                 path.c_str());
    usage_suite(stderr);
    return 2;
  }
  exp::Suite suite;
  try {
    suite = exp::parse_suite(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pf_sim suite: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  // Tables go to stdout — unless the JSON document does ("--json -"), in
  // which case stdout must stay a single well-formed document and the
  // progress falls back to the --quiet stderr lines. Query both flags
  // unconditionally (no short-circuit) so the stray-argument check below
  // sees them as consumed.
  const std::string json_path = args.str_or("json", "");
  const bool quiet = args.has("quiet") || json_path == "-";
  std::fprintf(stderr, "suite %s: %zu case(s)\n",
               suite.name.empty() ? path.c_str() : suite.name.c_str(),
               suite.cases.size());

  exp::ScheduleOptions schedule;
  schedule.parallel = !args.has("serial");
  // Bare --progress takes the default cadence; --progress SECS tunes it.
  if (args.has("progress")) {
    schedule.progress_seconds =
        args.bare("progress") ? 2.0 : args.real("progress");
    if (schedule.progress_seconds <= 0.0) schedule.progress_seconds = 2.0;
  }
  // --telemetry and --engine override every case's config, on top of
  // what the suite says (a telemetry block's window/top-k knobs are
  // kept). The engines give identical results, so --engine only selects
  // the visit policy.
  for (exp::SuiteCase& cs : suite.cases) {
    exp::settings::read_cli(args, cs, {"telemetry", "engine"});
  }

  const std::string checkpoint = args.str_or("checkpoint", "");
  const bool resume = args.has("resume");
  if (resume && checkpoint.empty()) {
    std::fprintf(stderr,
                 "pf_sim suite: --resume requires --checkpoint PATH\n");
    usage_suite(stderr);
    return 2;
  }
  // Every legitimate option is queried by now; reject typos BEFORE the
  // run — a silently dropped --json on a multi-hour suite is wasted work.
  if (reject_stray_arguments(args, "pf_sim suite")) return 2;

  // Resume loads the journal BEFORE the truncation below; a missing
  // journal just means nothing completed yet.
  std::vector<exp::RunRecord> journal;
  if (resume) {
    std::string probe;
    if (!util::read_text_file(checkpoint, probe)) {
      std::fprintf(stderr,
                   "pf_sim suite: checkpoint '%s' not found — starting "
                   "fresh\n",
                   checkpoint.c_str());
    } else {
      try {
        journal = exp::load_checkpoint(checkpoint);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pf_sim suite: %s\n", e.what());
        return 2;
      }
      std::fprintf(stderr, "pf_sim suite: checkpoint holds %zu record(s)\n",
                   journal.size());
    }
    schedule.resume = &journal;
  }
  if (!checkpoint.empty()) {
    // The journal restarts from scratch every run: resumed records are
    // re-appended in document order as they are emitted, so the file is
    // always a valid prefix of the final document's records — even if
    // THIS run is killed too.
    std::FILE* truncate = std::fopen(checkpoint.c_str(), "w");
    if (truncate == nullptr) {
      std::fprintf(stderr, "pf_sim suite: cannot write checkpoint '%s'\n",
                   checkpoint.c_str());
      return 2;
    }
    std::fclose(truncate);
  }

  exp::ResultLog log;
  exp::SuiteRunner runner(exp::ScenarioRegistry::shared(), schedule);
  std::size_t skipped = 0;
  try {
    skipped = runner.run(
        suite, log,
        [quiet, &checkpoint](const exp::RunRecord& record,
                             std::size_t index, std::size_t total) {
          if (!checkpoint.empty() &&
              !exp::append_checkpoint(checkpoint, record)) {
            std::fprintf(stderr,
                         "pf_sim suite: cannot append to checkpoint "
                         "'%s'\n",
                         checkpoint.c_str());
          }
          const std::string note =
              record.status.empty() ? "" : " [" + record.status + "]";
          if (quiet) {
            std::fprintf(stderr, "  [%zu/%zu] %s%s\n", index + 1, total,
                         record.label.c_str(), note.c_str());
          } else {
            exp::print_run(record);
            if (!note.empty()) {
              std::printf("status:%s\n", note.c_str());
            }
          }
        });
  } catch (const std::invalid_argument& e) {
    // Content errors surfaced at scenario resolution (unknown routing/
    // pattern/topology, infeasible parameters) are bad input like any
    // schema error: name the file, exit 2.
    std::fprintf(stderr, "pf_sim suite: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  if (skipped > 0) {
    std::fprintf(stderr, "suite: %zu case(s) skipped\n", skipped);
  }
  return write_document(json_path, log, "pf_sim suite");
}

/// `pf_sim diff <baseline> <candidate>`: the trajectory regression gate.
/// Exit 0 on a clean match, 1 on drift or missing records, 2 on bad
/// invocation/unreadable input.
int run_diff(const util::CliArgs& args) {
  const std::string baseline_path = operand_or_usage(
      args, 0, "baseline records file", "diff", usage_diff);
  const std::string candidate_path = operand_or_usage(
      args, 1, "candidate records file", "diff", usage_diff);
  exp::DiffOptions options;
  options.rtol = args.real_or("rtol", options.rtol);
  options.atol = args.real_or("atol", options.atol);
  const std::string junit_path = args.str_or("junit", "");
  if (reject_stray_arguments(args, "pf_sim diff")) return 2;

  const exp::RunDocument baseline =
      load_run_document(baseline_path, "diff", usage_diff);
  const exp::RunDocument candidate =
      load_run_document(candidate_path, "diff", usage_diff);
  const exp::DiffReport report =
      exp::diff_documents(baseline, candidate, options);
  if (!junit_path.empty() &&
      !util::write_text_file(junit_path, exp::junit_report(report))) {
    std::fprintf(stderr, "pf_sim diff: cannot write '%s'\n",
                 junit_path.c_str());
    return 2;
  }
  return exp::print_diff_report(report, stdout) ? 0 : 1;
}

/// One matched record pair of `report --compare`: throughput/latency
/// tables with baseline, candidate and delta columns, percentile tables
/// when both sides carry telemetry, and a perf summary line.
void print_compare_pair(const exp::RunRecord& base,
                        const exp::RunRecord& cand) {
  util::print_banner(base.label);
  std::printf("%s | %s | %s | seed=%llu\n", base.topology.c_str(),
              base.routing.c_str(), base.pattern.c_str(),
              static_cast<unsigned long long>(base.seed));
  if (!base.status.empty() || !cand.status.empty()) {
    std::printf("status: baseline %s | candidate %s\n",
                base.status.empty() ? "ok" : base.status.c_str(),
                cand.status.empty() ? "ok" : cand.status.c_str());
  }
  const std::size_t points =
      std::min(base.points.size(), cand.points.size());
  if (base.points.size() != cand.points.size()) {
    std::printf("point count differs: baseline %zu, candidate %zu "
                "(comparing the first %zu)\n",
                base.points.size(), cand.points.size(), points);
  }

  if (points != 0) {
    util::Table thr({"offered", "acc(base)", "acc(cand)", "delta",
                     "avg_lat(base)", "avg_lat(cand)", "delta",
                     "p99(base)", "p99(cand)", "delta"});
    for (std::size_t i = 0; i < points; ++i) {
      const exp::RunPoint& b = base.points[i];
      const exp::RunPoint& c = cand.points[i];
      thr.row(b.offered, b.accepted, c.accepted, c.accepted - b.accepted,
              b.avg_latency, c.avg_latency, c.avg_latency - b.avg_latency,
              b.p99_latency, c.p99_latency, c.p99_latency - b.p99_latency);
    }
    thr.print();

    bool both_telemetry = false;
    for (std::size_t i = 0; i < points; ++i) {
      both_telemetry = both_telemetry ||
                       (base.points[i].telemetry.present &&
                        cand.points[i].telemetry.present);
    }
    if (both_telemetry) {
      util::Table pct({"offered", "p50(base)", "p50(cand)", "delta",
                       "p999(base)", "p999(cand)", "delta", "max(base)",
                       "max(cand)", "delta"});
      for (std::size_t i = 0; i < points; ++i) {
        const sim::PointTelemetry& b = base.points[i].telemetry;
        const sim::PointTelemetry& c = cand.points[i].telemetry;
        if (!b.present || !c.present) continue;
        pct.row(base.points[i].offered,
                static_cast<double>(b.latency_p50),
                static_cast<double>(c.latency_p50),
                static_cast<double>(c.latency_p50 - b.latency_p50),
                static_cast<double>(b.latency_p999),
                static_cast<double>(c.latency_p999),
                static_cast<double>(c.latency_p999 - b.latency_p999),
                static_cast<double>(b.latency_max),
                static_cast<double>(c.latency_max),
                static_cast<double>(c.latency_max - b.latency_max));
      }
      pct.print();
    }
  }

  if (base.saturation_estimate > 0.0 || cand.saturation_estimate > 0.0) {
    std::printf("saturation plateau: baseline %.3f | candidate %.3f | "
                "delta %+.3f\n",
                base.saturation_estimate, cand.saturation_estimate,
                cand.saturation_estimate - base.saturation_estimate);
  }
  if (base.perf.cycles_per_sec > 0.0 && cand.perf.cycles_per_sec > 0.0) {
    std::printf("throughput: baseline %.3g cycles/s | candidate %.3g "
                "cycles/s | speedup %.2fx\n",
                base.perf.cycles_per_sec, cand.perf.cycles_per_sec,
                cand.perf.cycles_per_sec / base.perf.cycles_per_sec);
  }
}

/// `pf_sim report <records.json>`: human-readable rendering of a
/// document's telemetry — percentile tables, hot links, phase timings.
/// With --compare BASELINE, a side-by-side delta rendering of two
/// documents instead (records paired exactly like `pf_sim diff`).
int run_report(const util::CliArgs& args) {
  if (args.has("compare")) {
    const std::string baseline_path = args.str("compare");
    const std::string candidate_path = operand_or_usage(
        args, 0, "candidate records file", "report", usage_report);
    if (reject_stray_arguments(args, "pf_sim report")) return 2;
    const exp::RunDocument baseline =
        load_run_document(baseline_path, "report", usage_report);
    const exp::RunDocument candidate =
        load_run_document(candidate_path, "report", usage_report);
    // Reuse diff's record matching (key identity, duplicate keys by
    // occurrence order); only the rendering differs from `diff`.
    const exp::DiffReport matching =
        exp::diff_documents(baseline, candidate);
    std::map<std::string, std::vector<const exp::RunRecord*>> base_by_key,
        cand_by_key;
    for (const auto& record : baseline.records) {
      base_by_key[exp::record_key(record)].push_back(&record);
    }
    for (const auto& record : candidate.records) {
      cand_by_key[exp::record_key(record)].push_back(&record);
    }
    std::map<std::string, std::size_t> occurrence;
    for (const std::string& key : matching.matched_keys) {
      const std::size_t i = occurrence[key]++;
      print_compare_pair(*base_by_key[key][i], *cand_by_key[key][i]);
    }
    for (const std::string& key : matching.only_in_baseline) {
      std::printf("only in baseline: %s\n", key.c_str());
    }
    for (const std::string& key : matching.only_in_candidate) {
      std::printf("only in candidate: %s\n", key.c_str());
    }
    std::printf("%zu record pair(s) compared\n",
                matching.matched_keys.size());
    return 0;
  }
  const std::string path =
      operand_or_usage(args, 0, "records file", "report", usage_report);
  const int top = args.integer_in("top", 8, 0, kIntMax);
  if (reject_stray_arguments(args, "pf_sim report")) return 2;
  const exp::RunDocument doc =
      load_run_document(path, "report", usage_report);
  for (const auto& record : doc.records) {
    exp::print_report(record, top);
  }
  std::printf("%zu record(s)\n", doc.records.size());
  return 0;
}

/// `pf_sim trace-stats <trace.jsonl>`: summarize a sampled packet event
/// trace. Lines are JSON objects with at least {"cycle", "event"}; the
/// simulator emits them in nondecreasing cycle order, which is what
/// makes single-pass gap accounting exact. Unparseable lines are
/// counted and reported, not fatal — a truncated trace (killed run,
/// trace_max_events cap) should still summarize.
int run_trace_stats(const util::CliArgs& args) {
  const std::string path = operand_or_usage(args, 0, "trace file",
                                            "trace-stats", usage_trace_stats);
  const int top = args.integer_in("top", 8, 0, kIntMax);
  if (reject_stray_arguments(args, "pf_sim trace-stats")) return 2;
  std::string text;
  if (!util::read_text_file(path, text)) {
    std::fprintf(stderr, "pf_sim trace-stats: cannot read trace file '%s'\n",
                 path.c_str());
    usage_trace_stats(stderr);
    return 2;
  }

  std::map<std::string, std::int64_t> counts;
  // router id -> {injected, forwarded, arrived}
  std::map<int, std::array<std::int64_t, 3>> router_events;
  sim::LogHistogram gap_hist;
  std::int64_t lines = 0, bad = 0;
  std::int64_t first_cycle = 0, last_cycle = 0, prev_cycle = -1;
  std::int64_t active_cycles = 0, max_gap = 0;

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos) {
      ++lines;
      try {
        const util::JsonValue line =
            util::json_parse(text.substr(pos, eol - pos));
        const std::int64_t cycle = line.at("cycle").as_int();
        const std::string& event = line.at("event").as_string();
        // Router ids are read before anything is counted, and one beyond
        // int32 (which would alias another router) makes the whole line
        // unparseable.
        const auto router = [&line](const char* key) {
          return line.at(key).as_int_in(
              key, 0, std::numeric_limits<std::int32_t>::max());
        };
        const bool inject = event == "inject", hop = event == "hop";
        const int from = inject ? router("src") : hop ? router("from") : -1;
        const int to = hop ? router("to") : -1;
        ++counts[event];
        if (prev_cycle < 0) {
          first_cycle = cycle;
        } else if (cycle != prev_cycle) {
          const std::int64_t gap = cycle - prev_cycle;
          gap_hist.add(gap);
          if (gap > max_gap) max_gap = gap;
        }
        if (cycle != prev_cycle) ++active_cycles;
        prev_cycle = cycle;
        last_cycle = cycle;
        if (inject) ++router_events[from][0];
        if (hop) {
          ++router_events[from][1];
          ++router_events[to][2];
        }
      } catch (const std::exception&) {
        ++bad;
      }
    }
    pos = eol + 1;
  }
  if (lines == 0 || lines == bad) {
    std::fprintf(stderr, "pf_sim trace-stats: %s: no trace events\n",
                 path.c_str());
    return 1;
  }

  const std::int64_t span = last_cycle - first_cycle + 1;
  std::printf("trace %s: %lld event line(s)", path.c_str(),
              static_cast<long long>(lines - bad));
  if (bad != 0) {
    std::printf(" (+%lld unparseable, skipped)",
                static_cast<long long>(bad));
  }
  std::printf("\ncycles %lld..%lld: %lld of %lld active (%.1f%%), "
              "largest idle gap %lld\n",
              static_cast<long long>(first_cycle),
              static_cast<long long>(last_cycle),
              static_cast<long long>(active_cycles),
              static_cast<long long>(span),
              100.0 * static_cast<double>(active_cycles) /
                  static_cast<double>(span),
              static_cast<long long>(max_gap));

  std::printf("event counts:\n");
  for (const auto& [event, count] : counts) {
    std::printf("  %-18s %lld\n", event.c_str(),
                static_cast<long long>(count));
  }

  // Gaps between consecutive distinct active cycles: bucket b >= 1
  // counts gaps in [2^(b-1), 2^b) — bucket 1 is back-to-back cycles,
  // everything above it is span the event engine would skip.
  std::printf("inter-event cycle gaps (log2 buckets):\n");
  const auto& buckets = gap_hist.buckets();
  for (std::size_t b = 1; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const std::int64_t lo = std::int64_t{1} << (b - 1);
    const std::int64_t hi = (std::int64_t{1} << b) - 1;
    if (lo == hi) {
      std::printf("  %11lld  %lld\n", static_cast<long long>(lo),
                  static_cast<long long>(buckets[b]));
    } else {
      std::printf("  %4lld..%-5lld  %lld\n", static_cast<long long>(lo),
                  static_cast<long long>(hi),
                  static_cast<long long>(buckets[b]));
    }
  }

  std::vector<std::pair<int, std::array<std::int64_t, 3>>> hottest(
      router_events.begin(), router_events.end());
  std::sort(hottest.begin(), hottest.end(), [](const auto& a, const auto& b) {
    const std::int64_t ta = a.second[0] + a.second[1] + a.second[2];
    const std::int64_t tb = b.second[0] + b.second[1] + b.second[2];
    return ta != tb ? ta > tb : a.first < b.first;
  });
  if (hottest.size() > static_cast<std::size_t>(std::max(top, 0))) {
    hottest.resize(static_cast<std::size_t>(std::max(top, 0)));
  }
  std::printf("hottest routers (inject/forward/arrive):\n");
  for (const auto& [router, ev] : hottest) {
    std::printf("  router %-6d %lld = %lld/%lld/%lld\n", router,
                static_cast<long long>(ev[0] + ev[1] + ev[2]),
                static_cast<long long>(ev[0]),
                static_cast<long long>(ev[1]),
                static_cast<long long>(ev[2]));
  }
  return 0;
}

/// The single run: the flags become one exp::SuiteCase, which the serial
/// SuiteRunner resolves and runs exactly like a one-entry suite, so both
/// write the same record. --check-deadlock and --workload-out resolve the
/// same Scenario for the CLI-only work they add.
int run_single(const util::CliArgs& args) {
  exp::SuiteCase cs = single_run_defaults();
  topo::TopologySpec topology = topology_from_args(args);
  // --endpoints is the spec's p= (and wins over it when both are given).
  if (args.has("endpoints")) {
    topology.params["p"] = args.integer_in("endpoints", 1, kIntMax);
  }
  cs.spec.topology = topo::canonical_spec(topology);
  exp::settings::read_cli(args, cs);

  sim::SimConfig& config = cs.spec.config;
  // Telemetry is strictly additive: the simulated trajectory with it on
  // is bit-identical to a plain run. --trace implies --telemetry (the
  // sampler lives in the collector).
  const std::string trace_path = args.str_or("trace", "");
  if (!trace_path.empty()) config.telemetry.enabled = true;

  cs.spec.routing = args.str_or("routing", cs.spec.routing);
  cs.spec.pattern = args.str_or("pattern", cs.spec.pattern);
  // --workload switches the run into workload mode: the pattern then only
  // provides the terminal -> router map (leave it at the default uniform).
  cs.spec.workload = args.str_or("workload", "");
  if (cs.spec.routing_options.ugal_threshold >= 0.0 &&
      cs.spec.routing != "UGAL" && cs.spec.routing != "UGALPF") {
    std::fprintf(stderr,
                 "warning: --ugal-threshold has no effect on routing %s\n",
                 cs.spec.routing.c_str());
  }
  cs.saturation = args.has("saturation-search");
  const double load = args.real_or("load", 0.5);
  const bool grid = args.has("loads");
  cs.loads = grid ? util::parse_range(args.str("loads"))
                  : std::vector<double>{load};
  for (const double offered : cs.loads) {
    const std::string why =
        exp::settings::refusal(exp::settings::kLoad, offered);
    if (!why.empty()) {
      throw util::CliError(std::string("option --") +
                           (grid ? "loads" : "load") + why);
    }
  }

  const bool check_deadlock = args.has("check-deadlock");
  const int classes =
      args.has("classes") ? args.integer_in("classes", 1, kIntMax) : 0;
  const int samples = args.integer_in("samples", 2, 1, kIntMax);
  // --workload-out captures the compiled workload as a polarfly-trace/1
  // JSONL file; replay it with --workload trace:file=PATH.
  const std::string workload_out = args.str_or("workload-out", "");
  const std::string csv = args.str_or("csv", "");
  const std::string json_path = args.str_or("json", "");
  // Every legitimate option is queried by now: refuse typos before
  // anything is simulated or written.
  if (reject_stray_arguments(args, "pf_sim")) return 2;
  if (!workload_out.empty() && cs.spec.workload.empty()) {
    std::fprintf(stderr, "pf_sim: --workload-out requires --workload SPEC\n");
    return 2;
  }

  // The sink must outlive the run.
  std::unique_ptr<sim::TraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = sim::TraceSink::open_file(trace_path);
    if (trace_sink == nullptr) {
      std::fprintf(stderr, "pf_sim: cannot write trace file '%s'\n",
                   trace_path.c_str());
      return 1;
    }
    config.telemetry.trace = trace_sink.get();
  }

  // Held across the run so the registry hands the runner the same
  // compiled workload.
  exp::Scenario scenario;
  if (check_deadlock || !workload_out.empty()) {
    scenario = exp::ScenarioRegistry::shared().make(cs.spec);
  }
  if (!workload_out.empty()) {
    const sim::Workload& workload = *scenario.workload;
    if (!util::write_text_file(workload_out, workload.to_trace())) {
      std::fprintf(stderr, "pf_sim: cannot write workload trace '%s'\n",
                   workload_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "workload trace: %s (%s, %d ranks, %d phases)\n",
                 workload_out.c_str(), workload.name().c_str(),
                 workload.num_ranks(), workload.num_phases());
  }

  if (check_deadlock) {
    // Dally-Seitz check instead of a simulation: build the channel
    // dependency graph of the chosen scheme under its (or --classes')
    // VC-class budget and report acyclicity. Adaptive schemes are checked
    // on an idle network, which exercises their minimal branch; their
    // detour branches are the VAL/CVAL schemes, checkable directly.
    const exp::NetSetup& setup = *scenario.setup;
    const sim::RoutingAlgorithm& routing = *scenario.routing;
    const int budget = classes > 0 ? classes : routing.max_hops();
    const sim::Network idle(setup.graph,
                            std::vector<int>(setup.graph.num_vertices(), 1),
                            routing, *scenario.pattern, sim::SimConfig{},
                            0.0);
    const auto check = sim::check_channel_dependencies(
        setup.graph,
        [&](int s, int d, util::Rng& rng, sim::Route& out) {
          out.clear();
          // Only terminal pairs carry traffic (fat-tree transit switches
          // never source or sink packets).
          if (setup.endpoints[static_cast<std::size_t>(s)] == 0 ||
              setup.endpoints[static_cast<std::size_t>(d)] == 0) {
            return;
          }
          routing.route(idle, s, d, rng, out);
        },
        samples, budget, config.seed);
    const std::string cycle_note =
        check.acyclic ? ""
                      : ", " + std::to_string(check.cycle_length) +
                            " nodes in cycles";
    std::printf(
        "%s / %s with %d VC class(es): %s (%d dependency nodes, %lld "
        "edges%s)\n",
        setup.name.c_str(), routing.name().c_str(), budget,
        check.acyclic ? "deadlock-free (acyclic CDG)" : "CYCLIC - unsafe",
        check.nodes, static_cast<long long>(check.edges),
        cycle_note.c_str());
    return check.acyclic ? 0 : 1;
  }

  exp::ScheduleOptions serial;
  serial.parallel = false;
  exp::ResultLog log;
  exp::SuiteRunner(exp::ScenarioRegistry::shared(), serial)
      .run(exp::Suite{"", {cs}}, log);
  const exp::RunRecord& run = log.records().front();

  if (config.telemetry.enabled) {
    exp::print_report(run, config.telemetry.top_links);
  } else {
    exp::print_run(run);
  }
  std::printf(
      "perf: %.0f sim cycles/s, mean hops %.3f, peak VC occupancy %d\n",
      run.perf.cycles_per_sec, run.perf.mean_hop_count,
      run.perf.peak_vc_occupancy);

  if (!csv.empty() && !exp::sweep_table(run).write_csv(csv)) {
    std::fprintf(stderr, "cannot write %s\n", csv.c_str());
    return 1;
  }
  return write_document(json_path, log, "pf_sim");
}

int run(int argc, char** argv) {
  const util::CliArgs args = util::CliArgs::parse(argc, argv);
  if (args.command() == "suite" || args.command() == "diff" ||
      args.command() == "report" || args.command() == "trace-stats") {
    // A malformed option value (e.g. --rtol bogus) is a bad invocation
    // (exit 2), not a drift/failure result (exit 1).
    try {
      if (args.command() == "suite") return run_suite(args);
      if (args.command() == "report") return run_report(args);
      if (args.command() == "trace-stats") return run_trace_stats(args);
      return run_diff(args);
    } catch (const util::CliError& e) {
      std::fprintf(stderr, "pf_sim %s: %s\n", args.command().c_str(),
                   e.what());
      return 2;
    }
  }
  if (!args.command().empty()) {
    std::fprintf(stderr,
                 "pf_sim: unknown subcommand '%s' (known: suite, diff, "
                 "report, trace-stats)\n",
                 args.command().c_str());
    usage_suite(stderr);
    usage_diff(stderr);
    usage_report(stderr);
    usage_trace_stats(stderr);
    return 2;
  }
  if (!args.positionals().empty()) {
    std::fprintf(stderr, "pf_sim: unexpected argument '%s'\n",
                 args.positionals().front().c_str());
    return usage();
  }
  if (!args.has("topology")) return usage();
  // Bad flags and content errors surfaced at resolution or by the engine
  // (unknown routing, infeasible parameters, a workload under
  // --saturation-search) are bad input, as in `pf_sim suite`: exit 2.
  try {
    return run_single(args);
  } catch (const util::CliError& e) {
    std::fprintf(stderr, "pf_sim: %s\n", e.what());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pf_sim: %s\n", e.what());
  }
  return 2;
}

}  // namespace
}  // namespace pf::apps

int main(int argc, char** argv) {
  try {
    return pf::apps::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pf_sim: %s\n", e.what());
    return 1;
  }
}
