// Experiment engine: scenario registry caching, routing/pattern factory
// errors, engine sweeps vs a fresh Network per point (bit-identical), the
// adaptive saturation search, and JSON emission.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <stdexcept>

#include "exp/engine.hpp"
#include "exp/results.hpp"
#include "exp/scenario.hpp"
#include "sim/network.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace pf;

sim::SimConfig quick_config() {
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 400;
  config.drain_cycles = 1200;
  config.seed = 0xbe5c0ULL;
  return config;
}

TEST(ScenarioRegistry, CachesTopologiesAndOracles) {
  auto& registry = exp::ScenarioRegistry::shared();
  const auto a = registry.topology("pf:q=5,p=3");
  const auto b = registry.topology("polarfly:q=5,p=3");  // alias, same key
  EXPECT_EQ(a.get(), b.get());
  ASSERT_NE(a->oracle, nullptr);
  EXPECT_EQ(a->oracle->diameter(), 2);
  EXPECT_NE(a->polarfly, nullptr);

  // The oracle is keyed by the graph alone: a setup that differs only in
  // endpoints per router shares it, another graph does not.
  const auto p2 = registry.topology("pf:q=5,p=2");
  EXPECT_NE(p2.get(), a.get());
  EXPECT_EQ(p2->oracle.get(), a->oracle.get());
  EXPECT_NE(registry.topology("pf:q=7,p=3")->oracle.get(), a->oracle.get());

  EXPECT_THROW(registry.topology("pf:q=banana"), std::invalid_argument);
  EXPECT_THROW(registry.topology("nosuchfamily:q=3"),
               std::invalid_argument);
}

TEST(ScenarioRegistry, OnlyIntactPolarFlyRoutesFromTheAlgebra) {
  auto& registry = exp::ScenarioRegistry::shared();
  // Paper scale: the q=47 setup holds no distance matrix.
  const auto pf47 = registry.topology("pf:q=47,p=24");
  EXPECT_EQ(pf47->oracle->matrix_bytes(), 0u);
  EXPECT_EQ(pf47->oracle->diameter(), 2);
  // Damaged PolarFly, expanded PolarFly and every other family keep the
  // all-pairs BFS matrix.
  exp::FailureSpec failure;
  failure.link_rate = 0.05;
  failure.seed = 7;
  for (const auto& setup :
       {registry.topology("pf:q=7,p=4", failure),
        registry.topology("pfx:q=5,n=1,quadric=1,p=3"),
        registry.topology("sf:q=5,p=4")}) {
    EXPECT_GT(setup->oracle->matrix_bytes(), 0u) << setup->name;
  }
}

TEST(ScenarioRegistry, MakeResolvesSpecs) {
  exp::ScenarioSpec spec;
  spec.topology = "pf:q=5,p=3";
  spec.routing = "UGALPF";
  spec.pattern = "uniform";
  spec.config = quick_config();
  const auto scenario = exp::ScenarioRegistry::shared().make(spec);
  EXPECT_EQ(scenario.routing->name(), "UGAL-PF");
  EXPECT_EQ(scenario.pattern->name(), "uniform");
  EXPECT_EQ(scenario.label, "PolarFly ER_5 / UGAL-PF / uniform");
  EXPECT_EQ(scenario.setup->graph.num_vertices(), 31);
}

TEST(ScenarioFactories, RoutingErrorsNameTheKnownKinds) {
  const auto setup = *exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  try {
    exp::make_routing(setup, "BOGUS");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("BOGUS"), std::string::npos);
    for (const auto& kind : exp::routing_kinds()) {
      EXPECT_NE(what.find(kind), std::string::npos) << kind;
    }
  }
  // NCA needs the fat-tree handle.
  EXPECT_THROW(exp::make_routing(setup, "NCA"), std::invalid_argument);
  // ALG works on a PolarFly setup.
  EXPECT_EQ(exp::make_routing(setup, "ALG")->name(), "ALG");
  EXPECT_THROW(exp::make_pattern(setup, "BOGUS", 1),
               std::invalid_argument);
}

TEST(ScenarioFactories, UgalThresholdIsParameterized) {
  const auto setup = *exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const auto pattern = exp::make_pattern(setup, "uniform", 0);
  const auto config = quick_config();
  const auto point = [&](const sim::RoutingAlgorithm& routing) {
    return exp::run_sweep(setup, routing, *pattern, config, {0.3}, "thr")
        .points[0];
  };
  // The default UGALPF threshold is the paper's 2/3 — passing it
  // explicitly must be indistinguishable.
  const auto by_default = point(*exp::make_routing(setup, "UGALPF"));
  const auto explicit_23 =
      point(*exp::make_routing(setup, "UGALPF", {2.0 / 3.0}));
  EXPECT_EQ(by_default.accepted, explicit_23.accepted);
  EXPECT_EQ(by_default.avg_latency, explicit_23.avg_latency);
  // Any threshold > 1 disables adaptation entirely, so two such values
  // must agree bit-for-bit.
  const auto never_a = point(*exp::make_routing(setup, "UGALPF", {1.5}));
  const auto never_b = point(*exp::make_routing(setup, "UGALPF", {1.01}));
  EXPECT_EQ(never_a.accepted, never_b.accepted);
  EXPECT_EQ(never_a.avg_latency, never_b.avg_latency);
}

TEST(Engine, SweepMatchesFreshNetworkPerPointBitExactly) {
  const auto setup = *exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const auto routing = exp::make_routing(setup, "UGALPF");
  const auto pattern = exp::make_pattern(setup, "uniform", 0);
  const auto config = quick_config();
  const auto loads = util::load_steps(0.2, 0.8, 4);

  const auto run =
      exp::run_sweep(setup, *routing, *pattern, config, loads, "engine");
  ASSERT_EQ(run.points.size(), loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    // The reference: a Network freshly constructed at this point's load.
    sim::Network fresh(setup.graph, setup.endpoints, *routing, *pattern,
                       config, loads[i]);
    fresh.run_phases();
    EXPECT_EQ(run.points[i].offered, loads[i]);
    EXPECT_EQ(run.points[i].accepted, fresh.accepted_load());
    EXPECT_EQ(run.points[i].avg_latency, fresh.avg_latency());
    EXPECT_EQ(run.points[i].p99_latency, fresh.p99_latency());
    EXPECT_EQ(run.points[i].converged, fresh.converged());
  }
  EXPECT_GT(run.perf.sim_cycles, 0);
  EXPECT_GT(run.perf.cycles_per_sec, 0.0);
  EXPECT_GT(run.perf.mean_hop_count, 0.9);
  EXPECT_GT(run.perf.peak_vc_occupancy, 0);
}

TEST(Engine, SaturationSearchBracketsThePlateau) {
  const auto setup = *exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const auto routing = exp::make_routing(setup, "MIN");
  const auto pattern = exp::make_pattern(setup, "uniform", 0);
  const auto run = exp::saturation_search(setup, *routing, *pattern,
                                          quick_config(), "sat", 0.05, 1.0,
                                          0.02, 8);
  EXPECT_LE(static_cast<int>(run.points.size()), 10);
  EXPECT_GT(run.saturation_estimate, 0.3);
  EXPECT_LE(run.saturation_estimate, 1.05);
  // The estimate is consistent with the best accepted load actually seen.
  EXPECT_LE(run.saturation_estimate, run.saturation() + 0.02 + 1e-9);
}

TEST(Engine, SaturationSearchHugeTimeoutIsNoTimeout) {
  // A budget of 1e300 s used to overflow the deadline's integer clock
  // ticks, so the search stopped after its first probe as "timeout".
  const auto setup = *exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const auto routing = exp::make_routing(setup, "MIN");
  const auto pattern = exp::make_pattern(setup, "uniform", 0);
  const auto search = [&](double timeout_seconds) {
    return exp::saturation_search(setup, *routing, *pattern, quick_config(),
                                  "sat", 0.05, 1.0, 0.02, 4,
                                  timeout_seconds);
  };
  const exp::RunRecord unlimited = search(0.0);
  const exp::RunRecord huge = search(1e300);
  EXPECT_EQ(huge.status, "");
  EXPECT_EQ(huge.status, unlimited.status);
  EXPECT_EQ(huge.saturation_estimate, unlimited.saturation_estimate);
  ASSERT_EQ(huge.points.size(), unlimited.points.size());
  EXPECT_GT(huge.points.size(), 1u);
  for (std::size_t i = 0; i < huge.points.size(); ++i) {
    EXPECT_EQ(huge.points[i].offered, unlimited.points[i].offered);
    EXPECT_EQ(huge.points[i].accepted, unlimited.points[i].accepted);
  }
}

TEST(Results, JsonIsStructurallySound) {
  const auto setup = *exp::ScenarioRegistry::shared().topology("pf:q=5,p=3");
  const auto routing = exp::make_routing(setup, "MIN");
  const auto pattern = exp::make_pattern(setup, "uniform", 0);
  auto run = exp::run_sweep(setup, *routing, *pattern, quick_config(),
                            {0.2, 0.4}, "json test \"quoted\"");
  const std::string json = exp::to_json({run}, "test_exp");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* needle :
       {"\"schema\": \"polarfly-run/1\"", "\"tool\": \"test_exp\"",
        "\"records\"", "\"points\"", "\"offered\"", "\"cycles_per_sec\"",
        "\"peak_vc_occupancy\"", "\\\"quoted\\\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Balanced braces outside strings.
  long depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  const std::string path = ::testing::TempDir() + "pf_test_exp.json";
  ASSERT_TRUE(exp::write_json(path, {run}, "test_exp"));
  std::string readback;
  ASSERT_TRUE(util::read_text_file(path, readback));
  EXPECT_EQ(readback, json + "\n");
  std::remove(path.c_str());
}

TEST(JsonWriter, EscapesAndNestsCorrectly) {
  util::JsonWriter json(0);
  json.begin_object();
  json.key("s").value("a\"b\\c\nd");
  json.key("n").value(static_cast<std::int64_t>(-7));
  json.key("d").value(0.5);
  json.key("t").value(true);
  json.key("z").value(std::numeric_limits<double>::quiet_NaN());
  json.key("arr").begin_array().value(1).value(2).end_array();
  json.end_object();
  EXPECT_TRUE(json.complete());
  EXPECT_EQ(json.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"n\":-7,\"d\":0.5,\"t\":true,"
            "\"z\":null,\"arr\":[1,2]}");
  EXPECT_THROW(util::JsonWriter(0).end_object(), std::logic_error);
  EXPECT_THROW(util::JsonWriter(0).key("x"), std::logic_error);
}

}  // namespace
