// Live fault injection: FailureSchedule compilation, mid-run link/router
// kills, graceful degradation accounting (drop vs reinject policies,
// reroutes, reconvergence), the progress watchdog, the traced paths of a
// faulted run, and the apply_failures edge cases (duplicate links,
// isolation == explicit router kill).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/engine.hpp"
#include "exp/scenario.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "sim/telemetry.hpp"
#include "util/json.hpp"

namespace {

using namespace pf;

sim::SimConfig small_config() {
  sim::SimConfig config;
  config.warmup_cycles = 100;
  config.measure_cycles = 200;
  config.drain_cycles = 800;
  config.seed = 7;
  return config;
}

exp::RunRecord run_case(const exp::ScenarioSpec& spec, double load = 0.3) {
  return exp::run_sweep(exp::ScenarioRegistry::shared().make(spec), {load});
}

/// The two global links that tie dragonfly(2,1,p) group 0 = {0, 1} to the
/// rest of the network; killing both splits the graph without isolating
/// any router.
std::vector<exp::FailureSchedule::Event> dragonfly_group_cut(
    std::int64_t at) {
  const exp::NetSetup setup =
      *exp::ScenarioRegistry::shared().topology("df:a=2,h=1,p=2");
  std::vector<exp::FailureSchedule::Event> cut;
  for (const int u : {0, 1}) {
    const auto row = setup.graph.neighbors(u);
    for (std::size_t k = 0; k < static_cast<std::size_t>(row.size()); ++k) {
      const std::int32_t v = row[k];
      if (v <= 1) continue;
      exp::FailureSchedule::Event event;
      event.kind = "link_down";
      event.at = at;
      event.link = {static_cast<std::int32_t>(u), v};
      cut.push_back(event);
    }
  }
  return cut;
}

// ---- FailureSchedule::compile --------------------------------------------

TEST(FailureSchedule, CompileValidatesAgainstTheGraph) {
  const graph::Graph ring =
      graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});

  exp::FailureSchedule empty;
  EXPECT_TRUE(empty.compile(ring).empty());

  exp::FailureSchedule bad_link;
  bad_link.events.push_back({"link_down", 10, {0, 2}, -1});  // chord: no edge
  EXPECT_THROW(bad_link.compile(ring), std::invalid_argument);

  exp::FailureSchedule bad_router;
  bad_router.events.push_back({"router_down", 10, {-1, -1}, 9});
  EXPECT_THROW(bad_router.compile(ring), std::invalid_argument);

  exp::FailureSchedule bad_kind;
  bad_kind.events.push_back({"link_sideways", 10, {0, 1}, -1});
  EXPECT_THROW(bad_kind.compile(ring), std::invalid_argument);

  exp::FailureSchedule bad_policy;
  bad_policy.policy = "bogus";
  bad_policy.events.push_back({"link_down", 10, {0, 1}, -1});
  EXPECT_THROW(bad_policy.compile(ring), std::invalid_argument);
}

TEST(FailureSchedule, FlapsExpandDeterministically) {
  const graph::Graph ring =
      graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});

  exp::FailureSchedule schedule;
  exp::FailureSchedule::Flap flap;
  flap.rate = 0.5;  // 2 of the 4 ring links
  flap.seed = 99;
  flap.down_at = 10;
  flap.up_after = 5;
  flap.period = 20;
  flap.repeats = 2;
  schedule.flaps.push_back(flap);

  const sim::FaultTimeline timeline = schedule.compile(ring);
  // 2 links x 2 repeats x (down + up), sorted by cycle.
  ASSERT_EQ(timeline.events.size(), 8u);
  for (std::size_t i = 1; i < timeline.events.size(); ++i) {
    EXPECT_LE(timeline.events[i - 1].cycle, timeline.events[i].cycle);
  }
  // Same seed -> same expansion, event for event.
  const sim::FaultTimeline again = schedule.compile(ring);
  ASSERT_EQ(again.events.size(), timeline.events.size());
  for (std::size_t i = 0; i < timeline.events.size(); ++i) {
    EXPECT_EQ(again.events[i].cycle, timeline.events[i].cycle);
    EXPECT_EQ(again.events[i].u, timeline.events[i].u);
    EXPECT_EQ(again.events[i].v, timeline.events[i].v);
  }
  EXPECT_FALSE(schedule.canonical().empty());
  EXPECT_NE(schedule.canonical().find("flap"), std::string::npos);
}

/// The message compile() throws for a schedule with this one flap.
std::string flap_refusal(const exp::FailureSchedule::Flap& flap) {
  const exp::NetSetup setup =
      *exp::ScenarioRegistry::shared().topology("pf:q=3,p=1");
  exp::FailureSchedule schedule;
  schedule.flaps.push_back(flap);
  try {
    schedule.compile(setup.graph);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "(accepted)";
}

TEST(FailureSchedule, OversizedFlapIsRefusedBeforeExpanding) {
  // One link x 2e9 repeats x (down + up) = 4e9 events: refused by the
  // 2^26 cap before a single event is allocated.
  exp::FailureSchedule::Flap flap;
  flap.count = 1;
  flap.down_at = 10;
  flap.up_after = 5;
  flap.period = 20;
  flap.repeats = 2000000000;
  EXPECT_NE(flap_refusal(flap).find("1 link(s) x 4000000000 events, which "
                                    "exceeds 2^26"),
            std::string::npos)
      << flap_refusal(flap);
}

TEST(FailureSchedule, FlapCycleOverflowIsRefused) {
  exp::FailureSchedule::Flap flap;
  flap.count = 1;
  flap.down_at = 9223372036854775000;
  flap.up_after = 9223372036854775000;
  flap.period = 9223372036854775000;
  flap.repeats = 3;
  EXPECT_NE(flap_refusal(flap).find("overflows int64 at repeat 0"),
            std::string::npos)
      << flap_refusal(flap);
  flap.up_after = 0;  // the down events alone overflow one repeat later
  EXPECT_NE(flap_refusal(flap).find("overflows int64 at repeat 1"),
            std::string::npos)
      << flap_refusal(flap);
}

// ---- live injection ------------------------------------------------------

TEST(LiveFaults, NeverFiringTimelineIsBitIdentical) {
  // A timeline whose only event lies beyond the end of the run arms the
  // whole fault path (per-cycle checks, route vetting) but never changes
  // the topology: every statistic must match the plain run bit for bit.
  exp::ScenarioSpec plain;
  plain.topology = "pf:q=5,p=3";
  plain.routing = "UGALPF";
  plain.config = small_config();
  const exp::RunRecord baseline = run_case(plain);

  const auto setup = exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  exp::ScenarioSpec armed = plain;
  armed.schedule.events.push_back(
      {"link_down", 1000000, {0, setup->graph.neighbors(0)[0]}, -1});
  const exp::RunRecord shadowed = run_case(armed);

  ASSERT_EQ(shadowed.points.size(), 1u);
  const exp::RunPoint& b = baseline.points[0];
  const exp::RunPoint& s = shadowed.points[0];
  EXPECT_EQ(s.accepted, b.accepted);
  EXPECT_EQ(s.avg_latency, b.avg_latency);
  EXPECT_EQ(s.p99_latency, b.p99_latency);
  EXPECT_EQ(s.mean_hops, b.mean_hops);
  EXPECT_EQ(s.cycles, b.cycles);
  // The fault path accounts (all zero) and the unfired event reads -1.
  EXPECT_TRUE(s.has_degradation);
  EXPECT_EQ(s.dropped, 0);
  EXPECT_EQ(s.rerouted, 0);
  EXPECT_EQ(s.unreachable_dropped, 0);
  ASSERT_EQ(s.reconvergence.size(), 1u);
  EXPECT_EQ(s.reconvergence[0], -1);
}

TEST(LiveFaults, MinRecordsUnreachableDropsOnPartition) {
  // Splitting a dragonfly group off mid-run under MIN + drop policy:
  // cross-partition packets are dropped and accounted, the drain stays
  // bounded, and the point still completes.
  exp::ScenarioSpec spec;
  spec.topology = "df:a=2,h=1,p=2";
  spec.routing = "MIN";
  spec.config = small_config();
  spec.schedule.events = dragonfly_group_cut(150);
  const exp::RunRecord record = run_case(spec);

  ASSERT_EQ(record.points.size(), 1u);
  const exp::RunPoint& point = record.points[0];
  EXPECT_TRUE(point.has_degradation);
  EXPECT_GT(point.unreachable_dropped, 0);
  EXPECT_GT(point.unreachable_pairs, 0);
  EXPECT_FALSE(point.stalled);
  EXPECT_LE(point.cycles, 100 + 200 + 800);
}

TEST(LiveFaults, AdaptiveRoutingRidesOutALostLink) {
  // UGALPF re-picks paths on the degraded graph: one dead link must not
  // cost a single packet under the reinject policy.
  const auto setup = exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  exp::ScenarioSpec spec;
  spec.topology = "pf:q=5,p=3";
  spec.routing = "UGALPF";
  spec.config = small_config();
  spec.schedule.policy = "reinject";
  spec.schedule.events.push_back(
      {"link_down", 150, {0, setup->graph.neighbors(0)[0]}, -1});
  const exp::RunRecord record = run_case(spec);

  ASSERT_EQ(record.points.size(), 1u);
  const exp::RunPoint& point = record.points[0];
  EXPECT_TRUE(record.status.empty());
  EXPECT_FALSE(point.stalled);
  EXPECT_EQ(point.dropped, 0);
  EXPECT_EQ(point.unreachable_dropped, 0);
  EXPECT_GT(point.accepted, 0.25);
  // PolarFly shrugs off one link: throughput recovers within the band.
  ASSERT_EQ(point.reconvergence.size(), 1u);
  EXPECT_GE(point.reconvergence[0], 0);
}

TEST(LiveFaults, WatchdogTerminatesStalledDrain) {
  // Reinject policy + a permanent partition livelocks the drain: the
  // stranded packets can never route. The watchdog must terminate the
  // point in bounded time with an explicit stalled status instead of
  // burning the full 20000-cycle drain.
  exp::ScenarioSpec spec;
  spec.topology = "df:a=2,h=1,p=2";
  spec.routing = "MIN";
  spec.config = small_config();
  spec.config.drain_cycles = 20000;
  spec.config.stall_cycles = 150;
  spec.schedule.policy = "reinject";
  spec.schedule.events = dragonfly_group_cut(150);
  const exp::RunRecord record = run_case(spec);

  ASSERT_EQ(record.points.size(), 1u);
  EXPECT_TRUE(record.points[0].stalled);
  EXPECT_EQ(record.status, "stalled");
  EXPECT_LT(record.points[0].cycles, 2000);
}

TEST(LiveFaults, LinkUpHealsAReinjectPartition) {
  // The same partition, but the links come back: stranded packets are
  // reinjected and delivered, so the drain completes without a stall and
  // both down events report a reconvergence time.
  exp::ScenarioSpec spec;
  spec.topology = "df:a=2,h=1,p=2";
  spec.routing = "MIN";
  spec.config = small_config();
  spec.config.drain_cycles = 20000;
  spec.config.stall_cycles = 600;
  spec.schedule.policy = "reinject";
  spec.schedule.events = dragonfly_group_cut(150);
  for (auto event : dragonfly_group_cut(400)) {
    event.kind = "link_up";
    spec.schedule.events.push_back(event);
  }
  const exp::RunRecord record = run_case(spec);

  ASSERT_EQ(record.points.size(), 1u);
  const exp::RunPoint& point = record.points[0];
  EXPECT_TRUE(record.status.empty());
  EXPECT_FALSE(point.stalled);
  EXPECT_EQ(point.dropped, 0);
  EXPECT_EQ(point.unreachable_dropped, 0);
  EXPECT_GT(point.reinjected, 0);
  EXPECT_GT(point.unreachable_pairs, 0);  // pairs seen stranded, not lost
  ASSERT_EQ(point.reconvergence.size(), 2u);
  EXPECT_GE(point.reconvergence[0], 0);
  EXPECT_GE(point.reconvergence[1], 0);
}

TEST(LiveFaults, EventEngineMatchesCycleOnFaultedRun) {
  // The richest fault scenario (reinject policy, a full partition, then
  // healing link_up events) run under both engines: every statistic and
  // every degradation counter must match bit for bit. This exercises the
  // event core's fault wake-all, requeue wakes, and the recovery-window
  // telemetry across skipped spans.
  exp::ScenarioSpec spec;
  spec.topology = "df:a=2,h=1,p=2";
  spec.routing = "MIN";
  spec.config = small_config();
  spec.config.drain_cycles = 20000;
  spec.config.stall_cycles = 600;
  spec.schedule.policy = "reinject";
  spec.schedule.events = dragonfly_group_cut(150);
  for (auto event : dragonfly_group_cut(400)) {
    event.kind = "link_up";
    spec.schedule.events.push_back(event);
  }

  spec.config.engine = sim::SimEngine::Cycle;
  const exp::RunRecord cycle_record = run_case(spec);
  spec.config.engine = sim::SimEngine::Event;
  const exp::RunRecord event_record = run_case(spec);

  ASSERT_EQ(cycle_record.points.size(), 1u);
  ASSERT_EQ(event_record.points.size(), 1u);
  const exp::RunPoint& c = cycle_record.points[0];
  const exp::RunPoint& e = event_record.points[0];
  EXPECT_EQ(e.accepted, c.accepted);
  EXPECT_EQ(e.avg_latency, c.avg_latency);
  EXPECT_EQ(e.p99_latency, c.p99_latency);
  EXPECT_EQ(e.mean_hops, c.mean_hops);
  EXPECT_EQ(e.cycles, c.cycles);
  EXPECT_EQ(e.stalled, c.stalled);
  EXPECT_EQ(e.dropped, c.dropped);
  EXPECT_EQ(e.reinjected, c.reinjected);
  EXPECT_EQ(e.rerouted, c.rerouted);
  EXPECT_EQ(e.unreachable_dropped, c.unreachable_dropped);
  EXPECT_EQ(e.unreachable_pairs, c.unreachable_pairs);
  EXPECT_EQ(e.reconvergence, c.reconvergence);
  EXPECT_GT(e.reinjected, 0);  // the scenario actually fired
}

TEST(LiveFaults, WatchdogFiresAcrossSkippedSpan) {
  // A permanent partition under reinject livelocks the drain with only
  // stranded packets left — exactly the state where the event core
  // skips to its stall horizon in one jump. The watchdog must fire at
  // the same cycle as under the cycle core, which steps there one
  // no-progress cycle at a time.
  exp::ScenarioSpec spec;
  spec.topology = "df:a=2,h=1,p=2";
  spec.routing = "MIN";
  spec.config = small_config();
  spec.config.drain_cycles = 20000;
  spec.config.stall_cycles = 150;
  spec.schedule.policy = "reinject";
  spec.schedule.events = dragonfly_group_cut(150);

  spec.config.engine = sim::SimEngine::Cycle;
  const exp::RunRecord cycle_record = run_case(spec);
  spec.config.engine = sim::SimEngine::Event;
  const exp::RunRecord event_record = run_case(spec);

  ASSERT_EQ(cycle_record.points.size(), 1u);
  ASSERT_EQ(event_record.points.size(), 1u);
  EXPECT_TRUE(event_record.points[0].stalled);
  EXPECT_EQ(event_record.status, "stalled");
  EXPECT_EQ(event_record.points[0].cycles, cycle_record.points[0].cycles);
  EXPECT_LT(event_record.points[0].cycles, 2000);
}

// ---- traced paths under live faults --------------------------------------

/// The full trace (every packet sampled) of PF q=5 under UGAL-PF at load
/// 0.9 while three links each of routers 0 and 10 go down at cycles 150,
/// 250 and 350 and come back 50 cycles later.
std::string live_fault_trace(const std::string& policy,
                             const graph::Graph& g) {
  exp::ScenarioSpec spec;
  spec.topology = "pf:q=5,p=3";
  spec.routing = "UGALPF";
  spec.config = small_config();
  spec.schedule.policy = policy;
  exp::FailureSchedule::Event event;
  for (const std::int64_t down : {150, 250, 350}) {
    for (const int u : {0, 10}) {
      for (std::size_t k = 0; k < 3; ++k) {
        event.link = {u, g.neighbors(u)[k]};
        event.kind = "link_down";
        event.at = down;
        spec.schedule.events.push_back(event);
        event.kind = "link_up";
        event.at = down + 50;
        spec.schedule.events.push_back(event);
      }
    }
  }
  const exp::Scenario scenario = exp::ScenarioRegistry::shared().make(spec);
  sim::TraceSink sink;
  sim::SimConfig config = scenario.config;
  config.telemetry.enabled = true;
  config.telemetry.trace = &sink;
  config.telemetry.trace_sample = 1.0;
  sim::Network net(scenario.setup->graph, scenario.setup->endpoints,
                   *scenario.routing, *scenario.pattern, config, 0.9);
  net.run_phases();
  return sink.memory();
}

TEST(LiveFaultPaths, TracedRoutesAreLiveWalksToTheDestination) {
  const auto setup = exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const graph::Graph& g = setup->graph;
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over both traces
  for (const std::string policy : {"drop", "reinject"}) {
    SCOPED_TRACE(policy);
    const std::string trace = live_fault_trace(policy, g);
    for (const char byte : trace) {
      hash ^= static_cast<unsigned char>(byte);
      hash *= 0x100000001b3ULL;
    }
    // packet -> its source and destination router
    std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> ends;
    int routes = 0, reroutes = 0;
    std::istringstream lines(trace);
    for (std::string line; std::getline(lines, line);) {
      const util::JsonValue event = util::json_parse(line);
      const std::string& kind = event.at("event").as_string();
      const std::int64_t packet = event.at("packet").as_int();
      if (kind == "inject") {
        ends[packet] = {event.at("src").as_int(), event.at("dst").as_int()};
      }
      if (kind != "route" && kind != "reroute") continue;
      ++(kind == "route" ? routes : reroutes);
      const auto& path = event.at("path").items();
      ASSERT_GE(path.size(), 2u) << line;
      for (std::size_t h = 1; h < path.size(); ++h) {
        EXPECT_TRUE(g.has_edge(static_cast<int>(path[h - 1].as_int()),
                               static_cast<int>(path[h].as_int())))
            << line;
      }
      ASSERT_EQ(ends.count(packet), 1u) << line;
      EXPECT_EQ(path.front().as_int(), ends[packet].first) << line;
      EXPECT_EQ(path.back().as_int(), ends[packet].second) << line;
    }
    EXPECT_GT(routes, 0);
    EXPECT_GT(reroutes, 0);
  }
  // Pins the trace bytes: paths are kept as link ids but printed as the
  // routers they visit.
  EXPECT_EQ(hash, 0xa7dd386e7d79d44dULL);
}

// ---- apply_failures edge cases -------------------------------------------

TEST(ApplyFailures, DuplicateExplicitLinksCollapse) {
  const auto setup = exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const graph::Graph& g = setup->graph;
  const std::int32_t n0 = g.neighbors(0)[0];

  exp::FailureSpec once;
  once.links = {{0, n0}};
  exp::FailureSpec thrice;  // duplicated and direction-flipped
  thrice.links = {{0, n0}, {n0, 0}, {0, n0}};

  const graph::Graph a = exp::apply_failures(g, once);
  const graph::Graph b = exp::apply_failures(g, thrice);
  EXPECT_EQ(a.edge_list(), b.edge_list());
  EXPECT_EQ(a.num_edges(), g.num_edges() - 1);
}

TEST(ApplyFailures, IsolationMatchesExplicitRouterKill) {
  // Killing every link of router 0 must behave exactly like routers=[0]:
  // same damaged graph, same dead-router marks — and through the
  // registry, the same endpoint placement and the same simulation.
  const auto setup = exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const graph::Graph& g = setup->graph;

  exp::FailureSpec by_links;
  const auto row = g.neighbors(0);
  for (std::size_t k = 0; k < static_cast<std::size_t>(row.size()); ++k) {
    by_links.links.push_back({0, row[k]});
  }
  exp::FailureSpec by_router;
  by_router.routers = {0};

  std::vector<char> dead_links, dead_router;
  const graph::Graph a = exp::apply_failures(g, by_links, &dead_links);
  const graph::Graph b = exp::apply_failures(g, by_router, &dead_router);
  EXPECT_EQ(a.edge_list(), b.edge_list());
  EXPECT_EQ(dead_links, dead_router);
  ASSERT_FALSE(dead_links.empty());
  EXPECT_TRUE(dead_links[0]);

  exp::ScenarioSpec spec_links, spec_router;
  spec_links.topology = spec_router.topology = "pf:q=5,p=3";
  spec_links.config = spec_router.config = small_config();
  spec_links.failure = by_links;
  spec_router.failure = by_router;
  const exp::Scenario via_links =
      exp::ScenarioRegistry::shared().make(spec_links);
  const exp::Scenario via_router =
      exp::ScenarioRegistry::shared().make(spec_router);
  EXPECT_EQ(via_links.setup->endpoints, via_router.setup->endpoints);
  EXPECT_EQ(via_links.setup->endpoints[0], 0);  // isolated router retired

  const exp::RunRecord ran_links = exp::run_sweep(via_links, {0.3});
  const exp::RunRecord ran_router = exp::run_sweep(via_router, {0.3});
  ASSERT_EQ(ran_links.points.size(), 1u);
  EXPECT_EQ(ran_links.points[0].accepted, ran_router.points[0].accepted);
  EXPECT_EQ(ran_links.points[0].avg_latency,
            ran_router.points[0].avg_latency);
  EXPECT_EQ(ran_links.points[0].mean_hops, ran_router.points[0].mean_hops);
}

}  // namespace
