#include "exp/suite.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exp/settings.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace pf::exp {
namespace {

using util::JsonValue;

constexpr const char* kSuiteSchema = "polarfly-suite/1";
constexpr int kIntMax = std::numeric_limits<int>::max();

[[noreturn]] void bad(const std::string& context, const std::string& what) {
  throw std::invalid_argument("suite " + context + ": " + what);
}

/// One entry's (or the defaults block's) merged state: the six axes, and
/// one case holding every other key, which each expanded case copies.
struct EntryState {
  SuiteCase base;
  std::vector<std::string> topologies;
  std::vector<std::string> routings = {"MIN"};
  std::vector<std::string> patterns = {"uniform"};
  bool patterns_set = false;  ///< an entry (or defaults) wrote 'pattern'
  /// Workload axis: "" = pattern mode (the default single combination).
  /// Non-empty specs select workload mode — see sim::Workload::make.
  std::vector<std::string> workloads = {""};
  std::vector<FailureSpec> failures = {FailureSpec{}};
  std::vector<FailureSchedule> schedules = {FailureSchedule{}};
};

std::vector<std::string> parse_string_axis(const JsonValue& value,
                                           const std::string& context) {
  std::vector<std::string> out;
  if (value.is_string()) {
    out.push_back(value.as_string());
  } else if (value.is_array()) {
    for (const auto& item : value.items()) {
      if (!item.is_string()) bad(context, "expected a string or string array");
      out.push_back(item.as_string());
    }
  } else {
    bad(context, "expected a string or string array");
  }
  if (out.empty()) bad(context, "axis must not be empty");
  return out;
}

FailureSpec parse_failure(const JsonValue& value, const std::string& context) {
  if (!value.is_object()) bad(context, "expected a failure object");
  FailureSpec spec;
  for (const auto& [key, v] : value.members()) {
    const std::string path = context + "." + key;
    if (key == "link_rate") {
      spec.link_rate = v.as_double(path);
      if (spec.link_rate < 0.0 || spec.link_rate > 1.0) {
        bad(path, "must be in [0, 1]");
      }
    } else if (key == "seed") {
      spec.seed = v.as_uint(path);
    } else if (key == "links") {
      for (const auto& link : v.items()) {
        if (!link.is_array() || link.size() != 2) {
          bad(path, "each link must be a [u, v] pair");
        }
        spec.links.emplace_back(link.items()[0].as_int_in(path, 0, kIntMax),
                                link.items()[1].as_int_in(path, 0, kIntMax));
      }
    } else if (key == "routers") {
      for (const auto& router : v.items()) {
        spec.routers.push_back(router.as_int_in(path, 0, kIntMax));
      }
    } else {
      bad(context, "unknown failure key '" + key + "'");
    }
  }
  return spec;
}

FailureSchedule::Event parse_schedule_event(const JsonValue& value,
                                            const std::string& context) {
  if (!value.is_object()) bad(context, "expected an event object");
  FailureSchedule::Event event;
  bool has_action = false;
  for (const auto& [key, v] : value.members()) {
    if (key == "at") {
      event.at = v.as_int(context + ".at");
      if (event.at < 0) bad(context + ".at", "must be >= 0");
    } else if (key == "link_down" || key == "link_up") {
      if (has_action) bad(context, "event has more than one action");
      has_action = true;
      event.kind = key;
      if (!v.is_array() || v.size() != 2) {
        bad(context + "." + key, "expected a [u, v] pair");
      }
      event.link = {v.items()[0].as_int_in(context + "." + key, 0, kIntMax),
                    v.items()[1].as_int_in(context + "." + key, 0, kIntMax)};
    } else if (key == "router_down") {
      if (has_action) bad(context, "event has more than one action");
      has_action = true;
      event.kind = key;
      event.router = v.as_int_in(context + "." + key, 0, kIntMax);
    } else {
      bad(context, "unknown event key '" + key +
                       "' (at / link_down / link_up / router_down)");
    }
  }
  if (!has_action) {
    bad(context, "event needs link_down, link_up or router_down");
  }
  return event;
}

FailureSchedule::Flap parse_schedule_flap(const JsonValue& value,
                                          const std::string& context) {
  if (!value.is_object()) bad(context, "expected a flap object");
  FailureSchedule::Flap flap;
  for (const auto& [key, v] : value.members()) {
    const std::string path = context + "." + key;
    if (key == "rate") flap.rate = v.as_double(path);
    else if (key == "count") flap.count = v.as_int_in(path, 0, kIntMax);
    else if (key == "seed") flap.seed = v.as_uint(path);
    else if (key == "down_at") flap.down_at = v.as_int(path);
    else if (key == "up_after") flap.up_after = v.as_int(path);
    else if (key == "period") flap.period = v.as_int(path);
    else if (key == "repeats") flap.repeats = v.as_int_in(path, 0, kIntMax);
    else bad(context, "unknown flap key '" + key + "'");
  }
  return flap;
}

/// Schedule objects: {} is the no-faults schedule; full validation
/// (graph-dependent checks included) happens in FailureSchedule::compile.
FailureSchedule parse_schedule(const JsonValue& value,
                               const std::string& context) {
  if (!value.is_object()) bad(context, "expected a schedule object");
  FailureSchedule schedule;
  for (const auto& [key, v] : value.members()) {
    if (key == "name") {
      schedule.name = v.as_string();
    } else if (key == "policy") {
      schedule.policy = v.as_string();
      if (schedule.policy != "drop" && schedule.policy != "reinject") {
        bad(context + ".policy", "must be 'drop' or 'reinject'");
      }
    } else if (key == "events") {
      if (!v.is_array()) bad(context + ".events", "expected an array");
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        schedule.events.push_back(parse_schedule_event(
            v.items()[i], context + ".events[" + std::to_string(i) + "]"));
      }
    } else if (key == "flaps") {
      if (!v.is_array()) bad(context + ".flaps", "expected an array");
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        schedule.flaps.push_back(parse_schedule_flap(
            v.items()[i], context + ".flaps[" + std::to_string(i) + "]"));
      }
    } else {
      bad(context, "unknown schedule key '" + key + "'");
    }
  }
  return schedule;
}

double parse_load(const JsonValue& value, const std::string& path) {
  const double load = value.as_double(path);
  const std::string why = settings::refusal(settings::kLoad, load);
  if (!why.empty()) throw util::JsonError(path + why);
  return load;
}

std::vector<double> parse_loads(const JsonValue& value,
                                const std::string& context) {
  if (value.is_array()) {
    std::vector<double> loads;
    for (const auto& item : value.items()) {
      loads.push_back(parse_load(
          item, context + "[" + std::to_string(loads.size()) + "]"));
    }
    if (loads.empty()) bad(context, "loads array must not be empty");
    return loads;
  }
  if (value.is_object()) {
    for (const auto& [key, v] : value.members()) {
      (void)v;
      if (key != "lo" && key != "hi" && key != "count") {
        bad(context, "unknown loads key '" + key + "' (lo/hi/count)");
      }
    }
    const int count =
        value.at("count").as_int_in(context + ".count", 1, kIntMax);
    return util::load_steps(parse_load(value.at("lo"), context + ".lo"),
                            parse_load(value.at("hi"), context + ".hi"),
                            count);
  }
  bad(context, "expected a number array or {lo, hi, count}");
}

/// A block of table settings under `key` (config, config.telemetry or
/// saturation_search).
void read_settings(const JsonValue& block, const std::string& key,
                   const std::string& context, SuiteCase& c) {
  if (!block.is_object()) bad(context, "expected an object");
  for (const auto& [name, value] : block.members()) {
    const std::string path = context + "." + name;
    if (key + "." + name == "config.telemetry") {
      // Writing the block turns telemetry on (unlike the C++ default)
      // unless it says "enabled": false, so one line in a suite lights
      // up the whole run.
      c.spec.config.telemetry.enabled = true;
      read_settings(value, "config.telemetry", path, c);
    } else if (name.find('.') != std::string::npos ||
               !settings::read_json(key + "." + name, value, path, c)) {
      bad(context, "unknown key '" + name + "'");
    }
  }
}

void apply_entry_key(const std::string& key, const JsonValue& value,
                     const std::string& context, const std::string& ctx,
                     EntryState& state, std::string* name) {
  if (key == "name") {
    if (name == nullptr) bad(ctx, "defaults cannot set a name");
    *name = value.as_string();
  } else if (key == "topology") {
    state.topologies = parse_string_axis(value, ctx);
  } else if (key == "routing") {
    state.routings = parse_string_axis(value, ctx);
  } else if (key == "pattern") {
    state.patterns = parse_string_axis(value, ctx);
    state.patterns_set = true;
  } else if (key == "workloads") {
    state.workloads = parse_string_axis(value, ctx);
    for (const std::string& w : state.workloads) {
      if (w.empty()) bad(ctx, "workload specs must not be empty");
    }
  } else if (key == "failures") {
    if (!value.is_array() || value.size() == 0) {
      bad(ctx, "expected a non-empty array of failure objects");
    }
    state.failures.clear();
    for (std::size_t i = 0; i < value.items().size(); ++i) {
      state.failures.push_back(parse_failure(
          value.items()[i], ctx + "[" + std::to_string(i) + "]"));
    }
  } else if (key == "schedules") {
    if (!value.is_array() || value.size() == 0) {
      bad(ctx, "expected a non-empty array of schedule objects");
    }
    state.schedules.clear();
    for (std::size_t i = 0; i < value.items().size(); ++i) {
      state.schedules.push_back(parse_schedule(
          value.items()[i], ctx + "[" + std::to_string(i) + "]"));
    }
  } else if (key == "loads") {
    state.base.loads = parse_loads(value, ctx);
  } else if (key == "saturation_search") {
    if (value.is_bool()) {
      state.base.saturation = value.as_bool();
    } else {
      state.base.saturation = true;
      read_settings(value, key, ctx, state.base);
    }
  } else if (key == "config") {
    read_settings(value, key, ctx, state.base);
  } else if (key.find('.') != std::string::npos ||
             !settings::read_json(key, value, ctx, state.base)) {
    bad(context, "unknown key '" + key + "'");
  }
}

/// Applies one scenarios[] entry onto `state`. The defaults block parses
/// through the same function (name == nullptr): it may set every axis and
/// knob, including a default topology, but not a name.
void apply_entry(const JsonValue& entry, const std::string& context,
                 EntryState& state, std::string* name) {
  if (!entry.is_object()) bad(context, "expected an object");
  for (const auto& [key, value] : entry.members()) {
    const std::string ctx = context + "." + key;
    // Accessor type mismatches (JsonError) must keep the scenarios[i].key
    // context — a suite of hundreds of cases is undebuggable otherwise.
    // Range errors already lead with their full key path: name it once.
    try {
      apply_entry_key(key, value, context, ctx, state, name);
    } catch (const util::JsonError& e) {
      const std::string what = e.what();
      if (what.rfind(ctx, 0) == 0) throw std::invalid_argument("suite " + what);
      bad(ctx, what);
    }
  }
}

void expand_entry(const EntryState& state, const std::string& name,
                  const std::string& context, Suite& suite) {
  if (state.topologies.empty()) {
    bad(context, "no topology (set it on the entry or in defaults)");
  }
  const SuiteCase& base = state.base;
  if (!base.saturation && base.loads.empty()) {
    bad(context, "needs 'loads' or 'saturation_search'");
  }
  if (base.sat_lo > base.sat_hi) {
    bad(context + ".saturation_search",
        "lo " + settings::value_text(base.sat_lo) + " exceeds hi " +
            settings::value_text(base.sat_hi));
  }
  const bool has_workloads =
      state.workloads.size() > 1 || !state.workloads.front().empty();
  if (has_workloads) {
    // In workload mode the workload IS the traffic — a pattern axis on
    // the same entry would silently lose, so it is a hard error.
    if (state.patterns_set) {
      bad(context,
          "'pattern' and 'workloads' are mutually exclusive (the workload "
          "defines the traffic; terminals still map through the default "
          "uniform pattern)");
    }
    if (base.saturation) {
      bad(context,
          "'saturation_search' cannot run workloads (a workload completes "
          "at any load — sweep fixed loads instead)");
    }
  }
  // Cross product, topology-major, schedules innermost — document order.
  for (const auto& topology : state.topologies) {
    for (const auto& routing : state.routings) {
      for (const auto& pattern : state.patterns) {
        for (const auto& workload : state.workloads) {
          for (const auto& failure : state.failures) {
            for (const auto& schedule : state.schedules) {
              SuiteCase cs = base;
              cs.spec.topology = topology;
              cs.spec.routing = routing;
              cs.spec.pattern = pattern;
              cs.spec.workload = workload;
              cs.spec.failure = failure;
              cs.spec.schedule = schedule;
              if (!name.empty()) {
                // Discriminate only the axes that actually vary, so a
                // single-combination entry keeps its bare name.
                std::string suffix;
                const auto add = [&suffix](const std::string& part) {
                  suffix += suffix.empty() ? " [" : " ";
                  suffix += part;
                };
                if (state.topologies.size() > 1) add(topology);
                if (state.routings.size() > 1) add(routing);
                if (state.patterns.size() > 1) add(pattern);
                if (state.workloads.size() > 1) add(workload);
                if (state.failures.size() > 1) {
                  add(failure.empty() ? "intact" : failure.canonical());
                }
                if (state.schedules.size() > 1) {
                  add(schedule.empty() ? "static" : schedule.canonical());
                }
                if (!suffix.empty()) suffix += "]";
                cs.spec.name = name + suffix;
              }
              suite.cases.push_back(std::move(cs));
            }
          }
        }
      }
    }
  }
}

Suite parse_suite_value(const JsonValue& root) {
  if (!root.is_object()) bad("document", "top level must be an object");
  for (const auto& [key, value] : root.members()) {
    (void)value;
    if (key != "schema" && key != "name" && key != "defaults" &&
        key != "scenarios") {
      bad("document", "unknown key '" + key + "'");
    }
  }
  const std::string schema = root.at("schema").as_string();
  if (schema != kSuiteSchema) {
    bad("document", "schema '" + schema + "' is not " + kSuiteSchema);
  }

  Suite suite;
  if (const JsonValue* name = root.find("name")) {
    suite.name = name->as_string();
  }

  EntryState defaults;
  if (const JsonValue* block = root.find("defaults")) {
    apply_entry(*block, "defaults", defaults, nullptr);
  }

  const JsonValue& scenarios = root.at("scenarios");
  if (!scenarios.is_array() || scenarios.size() == 0) {
    bad("document", "'scenarios' must be a non-empty array");
  }
  for (std::size_t i = 0; i < scenarios.items().size(); ++i) {
    const std::string context = "scenarios[" + std::to_string(i) + "]";
    EntryState state = defaults;
    std::string name;
    apply_entry(scenarios.items()[i], context, state, &name);
    expand_entry(state, name, context, suite);
  }
  return suite;
}

}  // namespace

Suite parse_suite(const std::string& json_text) {
  // Malformed text throws JsonError from json_parse; anything after that
  // is a schema violation and reports as std::invalid_argument (missing
  // keys and type mismatches from JsonValue accessors included).
  const JsonValue root = util::json_parse(json_text);
  try {
    return parse_suite_value(root);
  } catch (const util::JsonError& e) {
    throw std::invalid_argument(std::string("suite schema: ") + e.what());
  }
}

bool serves_all_terminals(const NetSetup& setup) {
  if (setup.oracle == nullptr) return false;
  int first = -1;
  for (int v = 0; v < setup.graph.num_vertices(); ++v) {
    if (setup.endpoints[static_cast<std::size_t>(v)] <= 0) continue;
    if (first < 0) {
      first = v;
    } else if (setup.oracle->distance(first, v) < 0) {
      return false;
    }
  }
  return first >= 0;
}

namespace {

/// The per-case state the parallel scheduler threads share. `record` is
/// written by this case's attached workers only; everything except the
/// claim cursor is touched under the scheduler mutex, and `done` is
/// flipped there so the emitting thread can wait on it.
struct CaseState {
  bool skip = false;
  bool resumed = false;  ///< record restored from a checkpoint journal
  Scenario scenario;
  RunRecord record;
  /// Claim cursor: workers draw point indices from here. A saturation
  /// search has num_points == 1 — whichever attached worker claims index
  /// 0 owns the whole search.
  std::atomic<std::size_t> next_point{0};
  std::size_t num_points = 0;
  int active = 0;          ///< workers attached right now
  int shards_spawned = 0;  ///< workers that ever attached
  SweepCounters merged;    ///< folded as workers detach
  double setup_seconds = 0.0;  ///< phase-1 scenario resolution time
  double wall_seconds = 0.0;   ///< first attach -> last detach
  std::atomic<bool> started{false};
  std::chrono::steady_clock::time_point start;
  bool done = false;
};

void stamp_pattern_seed(const ScenarioSpec& spec, RunRecord& record) {
  // Workload mode: the workload is the traffic, so ITS seed usage decides
  // (bursty/hotspot draw destinations from the seed; collectives do not).
  // Decide off the record's pattern — the workload's canonical name, which
  // a trace replay keeps from its header — so a captured seeded workload
  // and its replay stamp the same identity.
  const bool seeded = spec.workload.empty()
                          ? pattern_uses_seed(spec.pattern)
                          : sim::workload_uses_seed(record.pattern);
  if (seeded) {
    record.pattern_seed =
        spec.pattern_seed != 0 ? spec.pattern_seed : spec.config.seed;
  }
}

/// The record shell a case WOULD produce, carrying its full identity
/// (axes, seeds, load grid) but nothing measured. Skipped cases emit it
/// (with a status) as their document-order placeholder; resume prediction
/// keys off it.
RunRecord skeleton_record(const SuiteCase& cs, const Scenario& scenario) {
  RunRecord record = prepare_sweep_record(
      *scenario.setup, *scenario.routing, *scenario.pattern, scenario.config,
      cs.saturation ? 0 : cs.loads.size(), scenario.label,
      scenario.workload.get());
  for (std::size_t i = 0; i < record.points.size(); ++i) {
    record.points[i].offered = cs.loads[i];
  }
  stamp_pattern_seed(cs.spec, record);
  return record;
}

/// The record_key() this case's real record will carry. Grid keys embed
/// the load axis (offered_load() echoes the configured load exactly);
/// saturation records carry the " | sat-search" marker, forced here via a
/// placeholder estimate.
std::string predicted_key(const SuiteCase& cs, const Scenario& scenario) {
  RunRecord record = skeleton_record(cs, scenario);
  if (cs.saturation) record.saturation_estimate = 1.0;
  return record_key(record);
}

}  // namespace

std::size_t SuiteRunner::run(const Suite& suite, ResultLog& log,
                             const Callback& on_record) {
  const std::size_t total = suite.cases.size();
  std::size_t skipped = 0;

  // The realized schedule, one row per emitted case in document order —
  // filled by both schedulers, reported when --progress asked for it.
  std::vector<CaseSchedule> schedule_rows;
  schedule_rows.reserve(total);

  // Progress heartbeat: a detached ticker on its own clock, woken early
  // on shutdown. It only reads the emitted-cases counter, so it never
  // contends with the scheduler mutex.
  std::atomic<std::size_t> cases_emitted{0};
  std::thread heartbeat;
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  const auto hb_join = [&] {
    if (!heartbeat.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(hb_mutex);
      hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  };
  if (schedule_.progress_seconds > 0.0) {
    const auto t0 = std::chrono::steady_clock::now();
    heartbeat = std::thread([&, t0, total] {
      std::unique_lock<std::mutex> lock(hb_mutex);
      while (!hb_cv.wait_for(
          lock, std::chrono::duration<double>(schedule_.progress_seconds),
          [&] { return hb_stop; })) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        const std::size_t done = cases_emitted.load();
        if (done > 0 && done < total) {
          std::fprintf(stderr,
                       "progress: %zu/%zu cases, %.1fs elapsed, ETA %.1fs\n",
                       done, total, elapsed,
                       elapsed * static_cast<double>(total - done) /
                           static_cast<double>(done));
        } else {
          std::fprintf(stderr, "progress: %zu/%zu cases, %.1fs elapsed\n",
                       done, total, elapsed);
        }
      }
    });
  }

  try {
    // Phase 1 — resolve every case up front on the calling thread, so
    // topology + oracle construction keeps its internal parallelism (a
    // pool worker would run those parallel_fors inline) and cached
    // setups are shared instead of raced into existence.
    std::vector<CaseState> states(total);

    // Checkpoint records indexed by key; duplicates (legal when a suite
    // repeats a case verbatim) queue up and resume occurrences FIFO.
    std::map<std::string, std::deque<const RunRecord*>> journal;
    if (schedule_.resume != nullptr) {
      for (const RunRecord& record : *schedule_.resume) {
        journal[record_key(record)].push_back(&record);
      }
    }

    std::size_t runnable = 0;
    for (std::size_t i = 0; i < total; ++i) {
      const SuiteCase& cs = suite.cases[i];
      const auto setup_start = std::chrono::steady_clock::now();
      states[i].scenario = registry_.make(cs.spec);
      states[i].setup_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        setup_start)
              .count();
      if (!serves_all_terminals(*states[i].scenario.setup)) {
        std::fprintf(stderr,
                     "suite %s: skipping '%s' — damaged graph no longer "
                     "connects all terminals\n",
                     suite.name.c_str(), states[i].scenario.label.c_str());
        states[i].skip = true;
        states[i].done = true;
        // The placeholder keeps the case visible to key/diff gates; it is
        // rebuilt (identically) on resume, so its journal entry — if any —
        // is simply left unconsumed.
        states[i].record = skeleton_record(cs, states[i].scenario);
        states[i].record.status = "skipped-disconnected";
        ++skipped;
        continue;
      }
      if (schedule_.resume != nullptr) {
        const auto it = journal.find(predicted_key(cs, states[i].scenario));
        if (it != journal.end() && !it->second.empty()) {
          states[i].resumed = true;
          states[i].done = true;
          states[i].record = *it->second.front();
          it->second.pop_front();
          std::fprintf(stderr,
                       "suite %s: resuming '%s' from checkpoint\n",
                       suite.name.c_str(),
                       states[i].scenario.label.c_str());
          continue;
        }
      }
      ++runnable;
    }

    // The parallel scheduler also runs on a single-thread pool (one
    // dispatcher drains the unit queue) — same machinery everywhere, so
    // single-core boxes still execute the code multi-core runners rely
    // on. Only --serial and trivial suites take the serial loop.
    util::ThreadPool& pool = util::ThreadPool::shared();

    // Shared emit tail: the schedule row and the progress counter are
    // maintained by both schedulers, then the caller's hook fires.
    const auto emit = [&](const RunRecord& record, std::size_t i,
                          int shards) {
      schedule_rows.push_back(
          {record.label, shards, record.points.size(),
           record.perf.wall_seconds});
      cases_emitted.fetch_add(1);
      if (on_record) on_record(record, i, total);
    };

    if (!schedule_.parallel || runnable <= 1) {
      // Serial scheduler: one case at a time, each case parallelizing
      // internally across the whole pool (run_sweep's own claim cursor).
      // Skipped/resumed cases emit their phase-1 records in place.
      for (std::size_t i = 0; i < total; ++i) {
        if (states[i].skip || states[i].resumed) {
          log.add(std::move(states[i].record));
          emit(log.records().back(), i, 0);
          continue;
        }
        const SuiteCase& cs = suite.cases[i];
        const Scenario& scenario = states[i].scenario;
        RunRecord record =
            cs.saturation ? saturation_search(scenario, cs.sat_lo, cs.sat_hi,
                                              cs.sat_tol, cs.sat_iters,
                                              cs.timeout_seconds)
                          : run_sweep(scenario, cs.loads,
                                      cs.timeout_seconds);
        stamp_pattern_seed(cs.spec, record);
        record.perf.setup_seconds = states[i].setup_seconds;
        const int shards =
            cs.saturation
                ? 1
                : static_cast<int>(std::min(cs.loads.size(),
                                            pool.num_threads()));
        log.add(std::move(record));
        emit(log.records().back(), i, shards);
      }
    } else {
      // Phase 2 — open each runnable case's claim cursor. Points are
      // not pre-sliced into fixed shards: workers attach to a case and
      // draw points one at a time, so when a case drains its workers
      // immediately rebalance onto whatever still has unclaimed work.
      std::size_t claimable = 0;
      for (std::size_t i = 0; i < total; ++i) {
        if (states[i].skip || states[i].resumed) continue;
        const SuiteCase& cs = suite.cases[i];
        const Scenario& scenario = states[i].scenario;
        states[i].num_points = cs.saturation ? 1 : cs.loads.size();
        claimable += states[i].num_points;
        if (!cs.saturation) {
          states[i].record = prepare_sweep_record(
              *scenario.setup, *scenario.routing, *scenario.pattern,
              scenario.config, cs.loads.size(), scenario.label,
              scenario.workload.get());
        }
      }

      // Phase 3 — run the attachment loop on the pool.
      std::atomic<bool> abort{false};
      std::mutex mutex;
      std::condition_variable cv;
      std::size_t workers_done = 0;
      std::exception_ptr first_error;

      // A case a worker can still make progress on: unclaimed points
      // remain. Fully-claimed-but-running cases are excluded — they
      // no longer count toward the live per-case cap either.
      const auto has_work = [](const CaseState& st) {
        return !st.skip && !st.resumed && !st.done &&
               st.next_point.load(std::memory_order_relaxed) <
                   st.num_points;
      };

      const auto worker = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
          if (abort.load(std::memory_order_relaxed)) break;
          // Pick the attachable case with the fewest active workers
          // (document order breaks ties). The cap, pool threads per
          // open case and at least 1, is recomputed from the LIVE number
          // of open cases, so the last cases standing are allowed to
          // widen beyond the initial even split.
          std::size_t open = 0;
          for (const CaseState& st : states) open += has_work(st) ? 1 : 0;
          if (open == 0) break;
          const std::size_t cap =
              std::max<std::size_t>(1, pool.num_threads() / open);
          std::size_t pick = total;
          for (std::size_t i = 0; i < total; ++i) {
            if (!has_work(states[i])) continue;
            if (static_cast<std::size_t>(states[i].active) >= cap) continue;
            if (pick == total || states[i].active < states[pick].active) {
              pick = i;
            }
          }
          if (pick == total) {
            // Every open case is at its cap; a detach or a drain will
            // change the picture and notify.
            cv.wait(lock);
            continue;
          }
          CaseState& st = states[pick];
          const SuiteCase& cs = suite.cases[pick];
          ++st.active;
          ++st.shards_spawned;
          if (!st.started.exchange(true)) {
            st.start = std::chrono::steady_clock::now();
          }
          lock.unlock();

          SweepCounters local;
          try {
            if (cs.saturation) {
              // Whoever claims index 0 owns the whole search; a second
              // attacher's claim overshoots and it detaches idle.
              if (st.next_point.fetch_add(1) == 0) {
                st.record = saturation_search(st.scenario, cs.sat_lo,
                                              cs.sat_hi, cs.sat_tol,
                                              cs.sat_iters,
                                              cs.timeout_seconds);
              }
            } else {
              run_sweep_claimed(
                  *st.scenario.setup, *st.scenario.routing,
                  *st.scenario.pattern, st.scenario.config, cs.loads,
                  [&st] { return st.next_point.fetch_add(1); },
                  st.record.points, local, cs.timeout_seconds,
                  st.scenario.workload.get());
            }
          } catch (...) {
            lock.lock();
            if (!first_error) first_error = std::current_exception();
            abort.store(true);
            --st.active;
            cv.notify_all();
            continue;  // the loop head sees abort and exits
          }

          lock.lock();
          st.merged += local;
          --st.active;
          if (!st.done && st.active == 0 &&
              st.next_point.load(std::memory_order_relaxed) >=
                  st.num_points) {
            // Last worker off a drained case finalizes it. A
            // saturation record is already finished by the search
            // itself; a grid case folds the detached counters over the
            // case's own wall-clock span (first attach -> now).
            st.wall_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - st.start)
                    .count();
            if (!cs.saturation) {
              finish_sweep_record(st.record, st.merged, st.wall_seconds);
            }
            st.record.perf.setup_seconds = st.setup_seconds;
            st.done = true;
          }
          cv.notify_all();
        }
        // Last action before exit, under the mutex: after the final
        // worker bumps this, no thread touches the locals above again —
        // the emitting thread may safely unwind them.
        ++workers_done;
        cv.notify_all();
        // lock releases on scope exit
      };

      const std::size_t dispatchers =
          std::min(claimable, pool.num_threads());
      for (std::size_t t = 0; t < dispatchers; ++t) pool.submit(worker);

      // Emit the completed prefix in case (document) order as it grows:
      // ResultLog ordering and callback order are identical to the
      // serial scheduler no matter how completion interleaves.
      std::exception_ptr emit_error;
      std::unique_lock<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < total; ++i) {
        // Skipped/resumed cases hold their records already (done at
        // phase 1), so the wait falls straight through for them.
        cv.wait(lock, [&] {
          return states[i].done || abort.load(std::memory_order_relaxed);
        });
        // On abort a case's `done` may come from skipped units, so its
        // record would be partial: stop emitting altogether and report
        // the error (serial semantics: the failing run yields no tail).
        if (abort.load(std::memory_order_relaxed)) break;
        RunRecord record = std::move(states[i].record);
        const int shards = states[i].shards_spawned;
        lock.unlock();
        try {
          stamp_pattern_seed(suite.cases[i].spec, record);
          log.add(std::move(record));
          emit(log.records().back(), i, shards);
        } catch (...) {
          // A throwing sink/callback must not skip the drain barrier
          // below — workers still reference this frame's locals.
          emit_error = std::current_exception();
          abort.store(true);
          lock.lock();
          break;
        }
        lock.lock();
      }
      // Every dispatcher must have exited before the locals above die
      // (or an exception propagates) — in-flight workers reference them.
      cv.wait(lock, [&] { return workers_done == dispatchers; });
      if (emit_error) std::rethrow_exception(emit_error);
      if (first_error) std::rethrow_exception(first_error);
    }
  } catch (...) {
    hb_join();
    registry_.evict_damaged();
    throw;
  }
  hb_join();
  // The final schedule: what the rebalancing actually did, case by case.
  if (schedule_.progress_seconds > 0.0) {
    for (const CaseSchedule& row : schedule_rows) {
      std::fprintf(stderr, "schedule: '%s' %d worker(s), %zu point(s), %.2fs\n",
                   row.label.c_str(), row.shards, row.points,
                   row.wall_seconds);
    }
  }
  if (schedule_.schedule_out != nullptr) {
    *schedule_.schedule_out = std::move(schedule_rows);
  }
  // Damaged graphs are one-suite artifacts: cases within this run shared
  // them through the cache, but a long-lived process must not accumulate
  // one O(N^2) oracle per failure case. Intact topologies stay cached.
  registry_.evict_damaged();
  return skipped;
}

}  // namespace pf::exp
