// The polarfly-run/1 field table. One visit_fields() per record struct
// names every JSON key once, in document order, with its kind and its
// presence rule. The three visitors that instantiate the tables are the
// writer and the checked reader (results.cpp) and the trajectory
// comparator behind `pf_sim diff` (diff.cpp), so a field added here is
// written, read back range-checked and compared with no other edit.
// docs/schemas.md describes the same table, and a test holds every key
// to it.
//
// Entries are member pointers, not references, so the comparator can
// walk a baseline and a candidate object in lockstep. A visitor `v` over
// objects of type T implements:
//   v.field(key, &T::member, spec)  one JSON member. The member's type
//       picks the JSON type: string, bool, integer, double (null <-> NaN),
//       a tabled struct (a nested object) or a vector of any of these
//       (an array whose elements follow the same spec).
//   v.derived(key, &T::fn)          write-only: fn()'s value is written,
//       the key is accepted and ignored on read, never compared.
//   v.block(key, &T::has_x, table)  a nested object holding more fields
//       of T itself, present exactly when the bool member is set.
//   v.group(&T::pred, table)        more fields of T, inline, written
//       only (all of them) when pred() holds.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/engine.hpp"
#include "exp/results.hpp"

namespace pf::exp::fields {

/// What a field is; decides whether and how `pf_sim diff` compares it.
enum class Kind {
  Identity,  ///< names the experiment (record_key); never compared
  Exact,     ///< integer in [lo, hi]; compared exactly, read range-checked
  Flag,      ///< bool; compared exactly
  Metric,    ///< double measurement; compared within rtol/atol
  Text,      ///< string measurement; compared exactly
  Perf,      ///< machine-dependent (wall-clock); never compared
  Nested,    ///< tabled struct(s); compared field by field
};

/// When a field is in the document.
enum class Presence {
  Always,       ///< always written, always compared
  OmitDefault,  ///< written only when not the type's default value;
                ///< compared only when either side has it
  Flagged,      ///< nested object written only when its `present` flag
                ///< is set; compared, `.present` first, when either
                ///< side has it
};

struct Spec {
  Kind kind;
  Presence presence = Presence::Always;
  std::int64_t lo = 0;  ///< Exact: accepted range on read
  std::int64_t hi = 0;
};

inline constexpr std::int64_t kInt = std::numeric_limits<int>::max();
inline constexpr std::int64_t kInt64 =
    std::numeric_limits<std::int64_t>::max();

constexpr Spec identity(Presence p = Presence::Always) {
  return {Kind::Identity, p};
}
constexpr Spec exact(std::int64_t lo, std::int64_t hi) {
  return {Kind::Exact, Presence::Always, lo, hi};
}
constexpr Spec flag(Presence p = Presence::Always) { return {Kind::Flag, p}; }
constexpr Spec metric(Presence p = Presence::Always) {
  return {Kind::Metric, p};
}
constexpr Spec text(Presence p = Presence::Always) { return {Kind::Text, p}; }
constexpr Spec perf() { return {Kind::Perf}; }
constexpr Spec nested(Presence p = Presence::Always) {
  return {Kind::Nested, p};
}

template <class T>
inline constexpr bool is_vector = false;
template <class T>
inline constexpr bool is_vector<std::vector<T>> = true;

/// Whether `value` is in the document under `presence`.
template <class M>
bool is_written(const M& value, Presence presence) {
  if constexpr (requires { value.present; }) {
    if (presence == Presence::Flagged) return value.present;
  } else if constexpr (std::is_scalar_v<M> ||
                       std::is_same_v<M, std::string>) {
    if (presence == Presence::OmitDefault) return !(value == M{});
  }
  return true;
}

/// Selects a struct's table: visit_fields(v, Of<RunRecord>{}).
template <class T>
struct Of {};

template <class V>
void visit_fields(V& v, Of<RunDocument>) {
  v.field("schema", &RunDocument::schema, identity());
  v.field("tool", &RunDocument::tool, identity());
  v.field("records", &RunDocument::records, nested());
}

template <class V>
void visit_fields(V& v, Of<RunRecord>) {
  v.field("label", &RunRecord::label, identity());
  v.field("topology", &RunRecord::topology, identity());
  v.field("routing", &RunRecord::routing, identity());
  v.field("pattern", &RunRecord::pattern, identity());
  v.field("routers", &RunRecord::routers, exact(0, kInt));
  v.field("terminals", &RunRecord::terminals, exact(0, kInt));
  v.field("seed", &RunRecord::seed, identity());
  v.field("pattern_seed", &RunRecord::pattern_seed,
          identity(Presence::OmitDefault));
  v.field("status", &RunRecord::status, text(Presence::OmitDefault));
  v.derived("saturation", &RunRecord::saturation);
  v.field("saturation_estimate", &RunRecord::saturation_estimate,
          metric(Presence::OmitDefault));
  v.field("points", &RunRecord::points, nested());
  v.field("telemetry", &RunRecord::telemetry, nested(Presence::Flagged));
  v.field("perf", &RunRecord::perf, nested());
}

template <class V>
void visit_fields(V& v, Of<RunPoint>) {
  v.field("offered", &RunPoint::offered, metric());
  v.field("accepted", &RunPoint::accepted, metric());
  v.field("avg_latency", &RunPoint::avg_latency, metric());
  v.field("p99_latency", &RunPoint::p99_latency, metric());
  v.field("converged", &RunPoint::converged, flag());
  v.field("mean_hops", &RunPoint::mean_hops, metric());
  v.field("cycles", &RunPoint::cycles, exact(0, kInt64));
  v.field("stalled", &RunPoint::stalled, flag(Presence::OmitDefault));
  v.block("degradation", &RunPoint::has_degradation, [](auto& b) {
    b.field("dropped", &RunPoint::dropped, exact(0, kInt64));
    b.field("reinjected", &RunPoint::reinjected, exact(0, kInt64));
    b.field("rerouted", &RunPoint::rerouted, exact(0, kInt64));
    b.field("unreachable_dropped", &RunPoint::unreachable_dropped,
            exact(0, kInt64));
    b.field("unreachable_pairs", &RunPoint::unreachable_pairs,
            exact(0, kInt64));
    b.field("reconvergence", &RunPoint::reconvergence, exact(-1, kInt64));
  });
  v.block("workload", &RunPoint::has_workload, [](auto& b) {
    b.field("done", &RunPoint::workload_done, flag());
    b.field("completion_cycles", &RunPoint::workload_completion,
            exact(0, kInt64));
    b.field("lost", &RunPoint::workload_lost, exact(0, kInt64));
    b.field("phase_cycles", &RunPoint::workload_phase_cycles,
            exact(-1, kInt64));
  });
  v.field("telemetry", &RunPoint::telemetry, nested(Presence::Flagged));
}

template <class V>
void visit_fields(V& v, Of<sim::PointTelemetry>) {
  using T = sim::PointTelemetry;
  v.field("window", &T::window, exact(0, kInt));
  v.field("latency_p50", &T::latency_p50, exact(0, kInt64));
  v.field("latency_p99", &T::latency_p99, exact(0, kInt64));
  v.field("latency_p999", &T::latency_p999, exact(0, kInt64));
  v.field("latency_max", &T::latency_max, exact(0, kInt64));
  v.field("latency_hist", &T::latency_hist, exact(0, kInt64));
  v.field("hops_hist", &T::hops_hist, exact(0, kInt64));
  v.field("link_util_mean", &T::link_util_mean, metric());
  v.field("link_util_max", &T::link_util_max, metric());
  v.field("hot_links", &T::hot_links, nested());
  v.field("vc_occupancy", &T::vc_occupancy, metric());
  v.field("peak_backlog", &T::peak_backlog, exact(0, kInt));
  v.field("peak_backlog_router", &T::peak_backlog_router, exact(-1, kInt));
}

template <class V>
void visit_fields(V& v, Of<sim::LinkTelemetry>) {
  v.field("u", &sim::LinkTelemetry::u, exact(0, kInt));
  v.field("v", &sim::LinkTelemetry::v, exact(0, kInt));
  v.field("util", &sim::LinkTelemetry::util, metric());
  v.field("series", &sim::LinkTelemetry::series, metric());
}

template <class V>
void visit_fields(V& v, Of<sim::RecordTelemetry>) {
  using T = sim::RecordTelemetry;
  v.field("latency_hist", &T::latency_hist, exact(0, kInt64));
  v.field("hops_hist", &T::hops_hist, exact(0, kInt64));
  v.field("latency_max", &T::latency_max, exact(0, kInt64));
  v.field("peak_backlog", &T::peak_backlog, exact(0, kInt));
  v.field("peak_backlog_router", &T::peak_backlog_router, exact(-1, kInt));
}

template <class V>
void visit_fields(V& v, Of<PerfCounters>) {
  v.field("sim_cycles", &PerfCounters::sim_cycles, exact(0, kInt64));
  v.field("wall_seconds", &PerfCounters::wall_seconds, perf());
  v.field("cycles_per_sec", &PerfCounters::cycles_per_sec, perf());
  v.field("mean_hop_count", &PerfCounters::mean_hop_count, metric());
  v.field("peak_vc_occupancy", &PerfCounters::peak_vc_occupancy,
          exact(0, kInt));
  // Omitted whole from placeholder records that simulated nothing, so
  // skip/resume skeletons and older journals stay byte-stable.
  v.group(&PerfCounters::phase_timed, [](auto& g) {
    g.field("setup_seconds", &PerfCounters::setup_seconds, perf());
    g.field("reset_seconds", &PerfCounters::reset_seconds, perf());
    g.field("warmup_seconds", &PerfCounters::warmup_seconds, perf());
    g.field("measure_seconds", &PerfCounters::measure_seconds, perf());
    g.field("drain_seconds", &PerfCounters::drain_seconds, perf());
  });
}

}  // namespace pf::exp::fields
