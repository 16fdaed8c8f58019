// The run settings table. visit_settings() names every scalar setting of
// a suite case once: its key path under a polarfly-suite/1 scenarios[]
// entry, its pf_sim flag, the SuiteCase member it sets, its accepted
// range and a help line. The suite reader (read_json), the CLI reader
// (read_cli) and pf_sim's help (print_help) all walk it, and a test holds
// docs/suite-format.md's defaults and ranges to it. Defaults are whatever
// SuiteCase{} holds.
//
// Shapes rather than settings, read by hand where they are parsed: the
// axes, `loads` / --load / --loads, `saturation_search`'s on/off,
// --endpoints, and "writing a config.telemetry block turns it on".
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/suite.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace pf::exp::settings {

/// Accepted values: finite and in [lo, hi]; an int must also fit its int.
struct Range {
  double lo;
  double hi;
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr Range kAny = {-kInf, kInf};
constexpr Range at_least(double lo) { return {lo, kInf}; }
/// Every offered load, whichever shape gives it.
inline constexpr Range kLoad = at_least(0.0);

struct Setting {
  const char* key;   ///< key path under an entry; nullptr = CLI only
  const char* flag;  ///< pf_sim flag without "--"; nullptr = suite only
  Range range;       ///< used by int and double members only
  const char* help;
};

/// The SuiteCase member behind a setting, as a chain of member pointers.
template <auto... Path>
inline constexpr auto member = [](SuiteCase& c) -> auto& {
  return (c .* ... .* Path);
};
template <auto M>
inline constexpr auto config =
    member<&SuiteCase::spec, &ScenarioSpec::config, M>;
template <auto M>
inline constexpr auto telemetry =
    member<&SuiteCase::spec, &ScenarioSpec::config,
           &sim::SimConfig::telemetry, M>;

template <class V>
void visit_settings(V& v) {
  using C = sim::SimConfig;
  using T = sim::TelemetryConfig;
  v({"config.packet_size", "packet-size", at_least(1), "flits per packet"},
    config<&C::packet_size>);
  v({"config.vcs", "vcs", at_least(1), "virtual channels per input port"},
    config<&C::vcs>);
  v({"config.buf_per_port", "buf", at_least(1), "flit buffer per port"},
    config<&C::buf_per_port>);
  v({"config.warmup", "warmup", at_least(0), "warm-up cycles, not measured"},
    config<&C::warmup_cycles>);
  v({"config.measure", "measure", at_least(0), "measured cycles"},
    config<&C::measure_cycles>);
  v({"config.drain", "drain", at_least(0), "max cycles to drain"},
    config<&C::drain_cycles>);
  v({"config.stall", nullptr, kAny, "stall watchdog cycles"},
    config<&C::stall_cycles>);
  v({"config.seed", "seed", kAny, "simulation seed"}, config<&C::seed>);
  v({"config.engine", "engine", kAny, "router visit policy, same results"},
    config<&C::engine>);
  v({"config.telemetry.enabled", "telemetry", kAny,
     "latency percentiles, link and VC load"},
    telemetry<&T::enabled>);
  v({"config.telemetry.window", "telemetry-window", at_least(1),
     "telemetry series window in cycles"},
    telemetry<&T::window_cycles>);
  v({"config.telemetry.max_windows", nullptr, at_least(1),
     "max windows per series"},
    telemetry<&T::max_windows>);
  v({"config.telemetry.top_links", nullptr, at_least(0),
     "hot links reported per point"},
    telemetry<&T::top_links>);
  v({nullptr, "trace-sample", {0.0, 1.0}, "share of packets --trace logs"},
    telemetry<&T::trace_sample>);
  v({nullptr, "trace-seed", kAny, "seed of the --trace sampler"},
    telemetry<&T::trace_seed>);
  v({"pattern_seed", nullptr, kAny, "pattern seed; 0 = config.seed"},
    member<&SuiteCase::spec, &ScenarioSpec::pattern_seed>);
  v({"ugal_threshold", "ugal-threshold", kAny,
     "UGAL gate; negative = paper value (UGAL 0, UGALPF 2/3)"},
    member<&SuiteCase::spec, &ScenarioSpec::routing_options,
           &RoutingOptions::ugal_threshold>);
  v({"saturation_search.lo", "sat-lo", at_least(0.0), "lowest load probed"},
    member<&SuiteCase::sat_lo>);
  v({"saturation_search.hi", "sat-hi", at_least(0.0), "highest load probed"},
    member<&SuiteCase::sat_hi>);
  v({"saturation_search.tol", "sat-tol", at_least(0.0),
     "stable while accepted is within tol of offered"},
    member<&SuiteCase::sat_tol>);
  v({"saturation_search.iters", "sat-iters", at_least(1),
     "max probes after the bracket"},
    member<&SuiteCase::sat_iters>);
  v({"timeout_seconds", nullptr, at_least(0.0), "per-case budget; 0 = none"},
    member<&SuiteCase::timeout_seconds>);
}

enum class Kind { Int, Uint64, Real, Bool, Engine };

/// A setting's kind, from its member's type.
template <class M>
constexpr Kind kind_of() {
  static_assert(std::is_same_v<M, int> || std::is_same_v<M, std::uint64_t> ||
                std::is_same_v<M, double> || std::is_same_v<M, bool> ||
                std::is_same_v<M, sim::SimEngine>);
  return std::is_same_v<M, int>             ? Kind::Int
         : std::is_same_v<M, std::uint64_t> ? Kind::Uint64
         : std::is_same_v<M, double>        ? Kind::Real
         : std::is_same_v<M, bool>          ? Kind::Bool
                                            : Kind::Engine;
}

/// What a setting accepts, as errors, help and docs print it:
/// "[1, 2147483647]", "[0, inf)", "event, cycle".
std::string range_text(Kind kind, const Range& range);

/// A value as errors, help and docs print it.
std::string value_text(int value);
std::string value_text(std::uint64_t value);
std::string value_text(double value);
std::string value_text(bool value);
std::string value_text(sim::SimEngine value);

/// "" when `value` is finite and in `range`; otherwise
/// " = <value> out of range <range>", to follow the value's name.
std::string refusal(const Range& range, double value);

/// Reads `value` into the setting whose key path is `key`; false when no
/// setting has that key. Throws util::JsonError leading with `path`.
bool read_json(const std::string& key, const util::JsonValue& value,
               const std::string& path, SuiteCase& c);

/// Reads every setting flag `args` holds into `c` (only those in `flags`,
/// when given), through read_json's checks: a flag's text is the JSON its
/// key would hold, the engine unquoted, and a bool flag means true.
/// Throws util::CliError naming the flag.
void read_cli(const util::CliArgs& args, SuiteCase& c,
              const std::vector<std::string>& flags = {});

/// Every setting flag with its help line, its default in `defaults` and
/// its range.
void print_help(std::FILE* out, const SuiteCase& defaults);

}  // namespace pf::exp::settings
