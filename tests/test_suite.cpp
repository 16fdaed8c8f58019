// Scenario suites and the JSON reader: parse round-trips, cross-product
// expansion, failure-spec determinism and the shared damage pass,
// suite-runner vs direct-engine bit-equality on suites/smoke.json, and
// malformed-input behavior of util::json_parse.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "core/polarfly.hpp"
#include "exp/diff.hpp"
#include "exp/engine.hpp"
#include "exp/results.hpp"
#include "exp/scenario.hpp"
#include "exp/suite.hpp"
#include "graph/algos.hpp"
#include "topo/registry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace pf;

/// A committed suites/ file, read and parsed as `pf_sim suite` does.
exp::Suite committed_suite(const std::string& file) {
  std::string text;
  if (!util::read_text_file(std::string(PF_SUITE_DIR) + "/" + file, text)) {
    throw std::runtime_error("cannot read suite file " + file);
  }
  return exp::parse_suite(text);
}

// ---- util::json_parse ----------------------------------------------------

TEST(JsonReader, ParsesTypedValues) {
  const auto v = util::json_parse(
      "{\"s\": \"a\\\"b\\\\c\\nd\\u0041\", \"i\": -7, \"u\": "
      "18446744073709551615, \"d\": 0.5, \"e\": 2e3, \"t\": true, "
      "\"z\": null, \"arr\": [1, 2, 3], \"o\": {\"nested\": []}}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\ndA");
  EXPECT_EQ(v.at("i").as_int(), -7);
  EXPECT_EQ(v.at("u").as_uint(), 18446744073709551615ULL);
  EXPECT_EQ(v.at("d").as_double(), 0.5);
  EXPECT_EQ(v.at("e").as_double(), 2000.0);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_TRUE(v.at("z").is_null());
  ASSERT_EQ(v.at("arr").size(), 3u);
  EXPECT_EQ(v.at("arr").items()[2].as_int(), 3);
  EXPECT_TRUE(v.at("o").at("nested").is_array());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), util::JsonError);
  // Type mismatches throw instead of coercing.
  EXPECT_THROW(v.at("s").as_int(), util::JsonError);
  EXPECT_THROW(v.at("d").as_int(), util::JsonError);       // non-integral
  EXPECT_THROW(v.at("u").as_int(), util::JsonError);       // uint64-only
  EXPECT_THROW(v.at("i").as_uint(), util::JsonError);      // negative
  EXPECT_THROW(v.at("arr").as_string(), util::JsonError);
}

TEST(JsonReader, RejectsMalformedInput) {
  const char* bad[] = {
      "",                        // empty
      "{",                       // truncated object
      "[1,",                     // truncated array
      "[1,]",                    // trailing comma
      "{\"a\":}",                // missing value
      "{a: 1}",                  // unquoted key
      "{\"a\" 1}",               // missing colon
      "tru",                     // bad literal
      "truex",                   // literal with trailing junk
      "01",                      // leading zero
      "1.",                      // missing fraction digits
      "1e",                      // missing exponent digits
      "-",                       // bare sign
      "\"abc",                   // unterminated string
      "\"\\x\"",                 // invalid escape
      "\"\\u12g4\"",             // non-hex \u escape
      "\"\\ud800\"",             // unpaired surrogate
      "\"\tab\"",                // raw control char in string
      "{\"a\": 1} 2",            // trailing content
      "[1 2]",                   // missing comma
      "nan",                     // not JSON
  };
  for (const char* text : bad) {
    EXPECT_THROW(util::json_parse(text), util::JsonError) << text;
  }
  // Parse errors carry a position.
  try {
    util::json_parse("{\"a\":\n  bogus}");
    FAIL() << "expected JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  // Nesting depth is capped, not stack-crashing.
  EXPECT_THROW(util::json_parse(std::string(200, '[')), util::JsonError);
  // Surviving edge cases.
  EXPECT_EQ(util::json_parse("  42  ").as_int(), 42);
  EXPECT_EQ(util::json_parse("\"\\ud83d\\ude00\"").as_string().size(), 4u);
}

TEST(JsonReader, WriteRoundTripsDocuments) {
  const std::string text =
      "{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":true,\"d\":null},"
      "\"e\":18446744073709551615,\"f\":-3}";
  const auto parsed = util::json_parse(text);
  util::JsonWriter out(0);
  parsed.write(out);
  EXPECT_EQ(out.str(), text);
  // And the re-emission parses back identically.
  EXPECT_EQ(util::json_parse(out.str()).at("a").items()[1].as_double(), 2.5);
}

// ---- suite parsing and expansion -----------------------------------------

const char* kSuiteDoc = R"({
  "schema": "polarfly-suite/1",
  "name": "parse-test",
  "defaults": {
    "routing": "MIN",
    "loads": {"lo": 0.2, "hi": 0.8, "count": 4},
    "config": {"warmup": 100, "measure": 200, "drain": 400, "seed": 7}
  },
  "scenarios": [
    {"name": "grid",
     "topology": ["pf:q=5,p=3", "pf:q=7,p=4"],
     "routing": ["MIN", "UGALPF"],
     "failures": [{}, {"link_rate": 0.1, "seed": 11}, {"routers": [3]}]},
    {"name": "sat", "topology": "pf:q=5,p=3",
     "saturation_search": {"lo": 0.1, "hi": 0.9, "tol": 0.05, "iters": 6},
     "pattern": "randperm", "pattern_seed": 99,
     "config": {"vcs": 8}, "ugal_threshold": 0.5}
  ]
})";

TEST(SuiteParse, ExpandsTheCrossProduct) {
  const exp::Suite suite = exp::parse_suite(kSuiteDoc);
  EXPECT_EQ(suite.name, "parse-test");
  // 2 topologies x 2 routings x 1 pattern x 3 failures + 1.
  ASSERT_EQ(suite.cases.size(), 13u);

  // Expansion is topology-major with failures innermost.
  EXPECT_EQ(suite.cases[0].spec.topology, "pf:q=5,p=3");
  EXPECT_EQ(suite.cases[0].spec.routing, "MIN");
  EXPECT_TRUE(suite.cases[0].spec.failure.empty());
  EXPECT_EQ(suite.cases[1].spec.failure.link_rate, 0.1);
  EXPECT_EQ(suite.cases[1].spec.failure.seed, 11u);
  EXPECT_EQ(suite.cases[2].spec.failure.routers, std::vector<int>{3});
  EXPECT_EQ(suite.cases[3].spec.routing, "UGALPF");
  EXPECT_EQ(suite.cases[6].spec.topology, "pf:q=7,p=4");

  // Names discriminate exactly the varying axes.
  EXPECT_EQ(suite.cases[0].spec.name, "grid [pf:q=5,p=3 MIN intact]");
  EXPECT_EQ(suite.cases[1].spec.name,
            "grid [pf:q=5,p=3 MIN kill=0.1@11]");
  EXPECT_EQ(suite.cases[12].spec.name, "sat");

  // Defaults merge: loads grid equals load_steps, config carries over
  // with per-entry overrides layered on top.
  EXPECT_EQ(suite.cases[0].loads, util::load_steps(0.2, 0.8, 4));
  EXPECT_EQ(suite.cases[0].spec.config.warmup_cycles, 100);
  EXPECT_EQ(suite.cases[0].spec.config.seed, 7u);
  EXPECT_FALSE(suite.cases[0].saturation);

  const exp::SuiteCase& sat = suite.cases[12];
  EXPECT_TRUE(sat.saturation);
  EXPECT_EQ(sat.sat_lo, 0.1);
  EXPECT_EQ(sat.sat_hi, 0.9);
  EXPECT_EQ(sat.sat_tol, 0.05);
  EXPECT_EQ(sat.sat_iters, 6);
  EXPECT_EQ(sat.spec.config.vcs, 8);
  EXPECT_EQ(sat.spec.config.warmup_cycles, 100);  // still from defaults
  EXPECT_EQ(sat.spec.pattern, "randperm");
  EXPECT_EQ(sat.spec.pattern_seed, 99u);
  EXPECT_EQ(sat.spec.routing_options.ugal_threshold, 0.5);
}

TEST(SuiteParse, SchemaViolationsNameTheOffender) {
  const auto expect_error = [](const std::string& doc,
                               const std::string& needle) {
    try {
      exp::parse_suite(doc);
      FAIL() << "expected std::invalid_argument for " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    } catch (const util::JsonError& e) {
      FAIL() << "JsonError instead of schema error: " << e.what();
    }
  };
  expect_error("{\"schema\": \"bogus/9\", \"scenarios\": [{}]}", "bogus/9");
  expect_error("{\"schema\": \"polarfly-suite/1\"}", "scenarios");
  expect_error("{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
               "[{\"topology\": \"pf:q=5\", \"loads\": [0.5], "
               "\"typo_key\": 1}]}",
               "typo_key");
  expect_error("{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
               "[{\"loads\": [0.5]}]}",
               "no topology");
  expect_error("{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
               "[{\"topology\": \"pf:q=5\"}]}",
               "loads");
  expect_error("{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
               "[{\"topology\": \"pf:q=5\", \"loads\": [0.5], "
               "\"failures\": [{\"link_rate\": 1.5}]}]}",
               "link_rate");
  expect_error("{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
               "[{\"topology\": \"pf:q=5\", \"loads\": [0.5], "
               "\"failures\": [{\"links\": [[1]]}]}]}",
               "[u, v]");
  // The scenarios[i] index is part of the context.
  expect_error("{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
               "[{\"topology\": \"pf:q=5\", \"loads\": [0.5]}, "
               "{\"topology\": \"pf:q=5\", \"loads\": []}]}",
               "scenarios[1]");
  // Type errors inside a block name the full key path, not the block.
  const auto entry = [](const std::string& members) {
    return "{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
           "[{\"topology\": \"pf:q=5\", \"loads\": [0.5], " +
           members + "}]}";
  };
  expect_error(entry("\"config\": {\"telemetry\": {\"enabled\": 3}}"),
               "suite scenarios[0].config.telemetry.enabled: expected bool");
  expect_error(entry("\"config\": {\"engine\": 5}"),
               "suite scenarios[0].config.engine: expected string");
  expect_error(entry("\"config\": {\"engine\": \"warp\"}"),
               "suite scenarios[0].config.engine: unknown engine 'warp'");
  expect_error(entry("\"config\": {\"seed\": -1}"),
               "suite scenarios[0].config.seed: expected unsigned integer");
  expect_error(entry("\"saturation_search\": {\"lo\": \"a\"}"),
               "suite scenarios[0].saturation_search.lo: expected number");
  expect_error(entry("\"config\": {\"telemetry.window\": 8}"),
               "suite scenarios[0].config: unknown key 'telemetry.window'");
  expect_error(entry("\"failures\": [{}, {\"link_rate\": \"x\"}]"),
               "suite scenarios[0].failures[1].link_rate: expected number");
  expect_error(entry("\"failures\": [{\"seed\": -3}]"),
               "suite scenarios[0].failures[0].seed: expected unsigned "
               "integer");
  expect_error(
      "{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
      "[{\"topology\": \"pf:q=5\", \"loads\": [0.5, \"x\"]}]}",
      "suite scenarios[0].loads[1]: expected number");
}

TEST(SuiteParse, NarrowedIntegersAreRangeChecked) {
  // A suite integer that does not fit its field is refused, naming the
  // key path, instead of wrapping: 4294967496 used to run as warmup 200,
  // and 99999999999 as a 1.2e9-cycle warmup.
  const auto suite_with_warmup = [](const std::string& warmup) {
    return "{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
           "[{\"topology\": \"pf:q=5\", \"loads\": [0.5], "
           "\"config\": {\"warmup\": " + warmup + "}}]}";
  };
  for (const char* warmup : {"4294967496", "99999999999", "-1",
                             "18446744073709551615", "2.5"}) {
    try {
      exp::parse_suite(suite_with_warmup(warmup));
      FAIL() << "expected std::invalid_argument for warmup " << warmup;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("scenarios[0].config.warmup"),
                std::string::npos)
          << e.what();
    }
  }
  const auto suite = exp::parse_suite(suite_with_warmup("2147483647"));
  EXPECT_EQ(suite.cases[0].spec.config.warmup_cycles, 2147483647);
  // A range error names its key path once, not prefixed by its block's.
  try {
    exp::parse_suite(suite_with_warmup("-1"));
    FAIL() << "expected std::invalid_argument for warmup -1";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "suite scenarios[0].config.warmup = -1 out of range "
                 "[0, 2147483647]");
  }

  const auto v = util::json_parse("{\"n\": 7}");
  EXPECT_EQ(v.at("n").as_int_in("n", 0, 7), 7);
  try {
    v.at("n").as_int_in("a.b.n", 0, 6);
    FAIL() << "expected util::JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_STREQ(e.what(), "a.b.n = 7 out of range [0, 6]");
  }
}

TEST(SuiteParse, CommittedPaperSuiteResolvesEverywhere) {
  // The shipped paper matrix must parse, expand, and name only
  // constructible topologies/routings/patterns — a committed-but-broken
  // suite is exactly the drift this file exists to catch. (Parsing
  // builds nothing; resolving builds each topology + oracle once via
  // the shared registry.)
  const exp::Suite suite = committed_suite("paper_figs.json");
  EXPECT_EQ(suite.name, "paper_figs");
  // It is also the only definition of the Figs. 8-11 sweeps and the
  // traffic ablations, so the matrix is pinned case for case: a dropped
  // axis value or a widened cross product fails here.
  EXPECT_EQ(suite.cases.size(), 86u);
  // Cases per experiment, keyed by entry-name prefix (case names are the
  // entry name plus a bracketed suffix for the axes that vary).
  const std::map<std::string, std::size_t> expected = {
      {"fig08", 27},
      {"fig09", 6},
      {"fig10", 8},
      {"fig11-", 9},
      {"ablation-classic", 4},
      {"ablation-ugal-thr-", 12},
      {"ablation-vcs", 8},
      {"ablation-failed-links", 10},
      {"ablation-polarity-quotient", 2}};
  std::map<std::string, std::size_t> counted;
  std::size_t damaged = 0;
  auto& registry = exp::ScenarioRegistry::shared();
  for (const auto& cs : suite.cases) {
    ASSERT_FALSE(cs.loads.empty() && !cs.saturation) << cs.spec.name;
    const exp::Scenario scenario = registry.make(cs.spec);
    EXPECT_TRUE(exp::serves_all_terminals(*scenario.setup)) << cs.spec.name;

    std::string experiment;
    for (const auto& entry : expected) {
      if (cs.spec.name.rfind(entry.first, 0) == 0) experiment = entry.first;
    }
    EXPECT_FALSE(experiment.empty()) << "unexpected case " << cs.spec.name;
    ++counted[experiment];

    // The link-failure ablation kills the sets of seed 0xdead11 + pct,
    // the same construction FailureSpecReproducesHandRolledDamage checks.
    if (experiment == "ablation-failed-links" && !cs.spec.failure.empty()) {
      ++damaged;
      const long pct = std::lround(cs.spec.failure.link_rate * 100.0);
      EXPECT_TRUE(pct == 5 || pct == 10 || pct == 20 || pct == 30)
          << cs.spec.name;
      EXPECT_EQ(cs.spec.failure.seed,
                0xdead11ULL + static_cast<std::uint64_t>(pct))
          << cs.spec.name;
    }
  }
  EXPECT_EQ(counted, expected);
  EXPECT_EQ(damaged, 8u);
}

TEST(SuiteParse, CommittedFullScaleSuiteResolvesEverywhere) {
  // paper_figs_full.json is the Tab. V-scale companion: PF q=31/q=47 vs
  // the iso-radix SF/DF/JF setups. Every topology must construct, every
  // case must carry a wall-clock budget (these runs are hours, not
  // seconds), and no paper-scale oracle may hold an int16 matrix: intact
  // PolarFly routes from ER_q's algebra with no matrix at all, and every
  // other graph's diameter fits an int8 cell.
  const exp::Suite suite = committed_suite("paper_figs_full.json");
  EXPECT_EQ(suite.name, "paper_figs_full");
  EXPECT_GE(suite.cases.size(), 30u);
  auto& registry = exp::ScenarioRegistry::shared();
  for (const auto& cs : suite.cases) {
    ASSERT_FALSE(cs.loads.empty() && !cs.saturation) << cs.spec.name;
    EXPECT_GT(cs.timeout_seconds, 0.0) << cs.spec.name;
    const exp::Scenario scenario = registry.make(cs.spec);
    EXPECT_TRUE(exp::serves_all_terminals(*scenario.setup)) << cs.spec.name;
    if (topo::parse_topology_spec(cs.spec.topology).family == "polarfly") {
      EXPECT_NE(scenario.setup->polarfly, nullptr) << cs.spec.name;
      EXPECT_EQ(scenario.setup->oracle->matrix_bytes(), 0u) << cs.spec.name;
    } else {
      // Tab. V scale: every matrix holds one int8 cell per router pair.
      const auto n =
          static_cast<std::size_t>(scenario.setup->graph.num_vertices());
      EXPECT_EQ(scenario.setup->oracle->matrix_bytes(), n * n)
          << cs.spec.name;
    }
  }
}

// ---- failure specs -------------------------------------------------------

TEST(FailureSpec, SameSeedSameDamage) {
  const core::PolarFly pf(7);
  exp::FailureSpec spec;
  spec.link_rate = 0.1;
  spec.seed = 0xdeadULL;
  const graph::Graph a = exp::apply_failures(pf.graph(), spec);
  const graph::Graph b = exp::apply_failures(pf.graph(), spec);
  EXPECT_EQ(a.edge_list(), b.edge_list());
  EXPECT_LT(a.num_edges(), pf.graph().num_edges());

  // The kill count is the integer-percent count of the original benches.
  const auto total = static_cast<std::size_t>(pf.graph().num_edges());
  EXPECT_EQ(static_cast<std::size_t>(a.num_edges()),
            total - total * 10 / 100);

  // A different seed kills a different set (overwhelmingly likely).
  spec.seed = 0xbeefULL;
  EXPECT_NE(exp::apply_failures(pf.graph(), spec).edge_list(),
            a.edge_list());

  // Same seed, higher rate: kill sets are nested (prefix property), so
  // the higher-rate survivor set is a subset.
  spec.seed = 0xdeadULL;
  spec.link_rate = 0.2;
  const graph::Graph c = exp::apply_failures(pf.graph(), spec);
  for (const auto& edge : c.edge_list()) {
    EXPECT_TRUE(a.has_edge(edge.first, edge.second));
  }
}

TEST(FailureSpec, ExplicitLinksAndRouters) {
  const core::PolarFly pf(5);
  exp::FailureSpec spec;
  spec.links = {{0, 1}};
  spec.routers = {4};
  std::vector<char> dead;
  const graph::Graph damaged = exp::apply_failures(pf.graph(), spec, &dead);
  EXPECT_FALSE(damaged.has_edge(0, 1));
  EXPECT_EQ(damaged.degree(4), 0);
  ASSERT_EQ(dead.size(), static_cast<std::size_t>(pf.num_vertices()));
  EXPECT_TRUE(dead[4]);
  EXPECT_FALSE(dead[0]);
  EXPECT_EQ(spec.canonical(), "links=0-1,routers=4");

  // Out-of-range specs throw and name the spec.
  exp::FailureSpec bad;
  bad.routers = {10000};
  EXPECT_THROW(exp::apply_failures(pf.graph(), bad), std::invalid_argument);
}

TEST(ScenarioRegistry, FailureSpecIsPartOfTheCacheKey) {
  auto& registry = exp::ScenarioRegistry::shared();
  exp::FailureSpec kill;
  kill.link_rate = 0.05;
  kill.seed = 21;

  const auto intact = registry.topology("pf:q=5,p=3");
  const auto damaged = registry.topology("pf:q=5,p=3", kill);
  EXPECT_NE(intact.get(), damaged.get());
  EXPECT_NE(intact->oracle.get(), damaged->oracle.get());
  EXPECT_LT(damaged->graph.num_edges(), intact->graph.num_edges());
  // Structural handles are dropped on damaged setups: ALG must refuse.
  EXPECT_EQ(damaged->polarfly, nullptr);
  EXPECT_THROW(exp::make_routing(*damaged, "ALG"), std::invalid_argument);

  // Same failure: cached. Different failure: distinct entry.
  EXPECT_EQ(registry.topology("pf:q=5,p=3", kill).get(), damaged.get());
  exp::FailureSpec other = kill;
  other.seed = 22;
  EXPECT_NE(registry.topology("pf:q=5,p=3", other).get(), damaged.get());

  // Eviction clears damaged entries only.
  EXPECT_GE(registry.evict_damaged(), 2u);
  EXPECT_EQ(registry.topology("pf:q=5,p=3").get(), intact.get());
  EXPECT_NE(registry.topology("pf:q=5,p=3", kill).get(), damaged.get());
}

TEST(ScenarioRegistry, CompilesEachWorkloadOnce) {
  exp::ScenarioRegistry registry;
  exp::ScenarioSpec spec;
  spec.topology = "pf:q=5,p=1";
  spec.workload = "alltoall";
  spec.routing = "MIN";
  const exp::Scenario min = registry.make(spec);
  spec.routing = "UGALPF";
  const exp::Scenario ugalpf = registry.make(spec);
  ASSERT_NE(min.workload, nullptr);
  EXPECT_EQ(min.workload.get(), ugalpf.workload.get());
  // alltoall ignores its seed, so another seed shares the same table.
  spec.pattern_seed = 99;
  EXPECT_EQ(registry.make(spec).workload.get(), min.workload.get());

  // bursty draws from its seed: one instance per seed.
  spec.workload = "bursty";
  spec.pattern_seed = 1;
  const exp::Scenario first = registry.make(spec);
  spec.pattern_seed = 2;
  const exp::Scenario second = registry.make(spec);
  EXPECT_NE(first.workload.get(), second.workload.get());
  EXPECT_NE(first.workload->to_trace(), second.workload->to_trace());
  spec.pattern_seed = 1;
  EXPECT_EQ(registry.make(spec).workload.get(), first.workload.get());
}

TEST(ScenarioRegistry, ReReadsTraceWorkloadsOnEveryMake) {
  // A trace file may change between two resolutions; the second must see
  // the new contents, never a cached compile of the old ones.
  const std::string path = "test_suite_registry_trace.jsonl";
  const int ranks = 31;  // pf:q=5,p=1
  exp::ScenarioRegistry registry;
  exp::ScenarioSpec spec;
  spec.topology = "pf:q=5,p=1";
  spec.workload = "trace:file=" + path;
  ASSERT_TRUE(util::write_text_file(
      path, sim::Workload::make("alltoall", ranks, 0)->to_trace()));
  const exp::Scenario before = registry.make(spec);
  ASSERT_TRUE(util::write_text_file(
      path, sim::Workload::make("ring_allreduce", ranks, 0)->to_trace()));
  const exp::Scenario after = registry.make(spec);
  EXPECT_EQ(before.workload->name(), "alltoall");
  EXPECT_EQ(after.workload->name(), "ring_allreduce");
  EXPECT_EQ(after.workload->num_phases(), 2 * (ranks - 1));
  std::remove(path.c_str());
}

// ---- suite runner --------------------------------------------------------

sim::SimConfig quick_config() {
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 400;
  config.drain_cycles = 1200;
  config.seed = 0xbe5c0ULL;
  return config;
}

TEST(SuiteRunner, MatchesDirectEngineOnSmokeSuite) {
  const exp::Suite suite = committed_suite("smoke.json");
  ASSERT_EQ(suite.cases.size(), 7u);

  exp::ResultLog log;
  exp::SuiteRunner runner;
  const std::size_t skipped = runner.run(suite, log);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(log.records().size(), suite.cases.size());

  auto& registry = exp::ScenarioRegistry::shared();
  for (std::size_t i = 0; i < suite.cases.size(); ++i) {
    const exp::SuiteCase& cs = suite.cases[i];
    const exp::Scenario scenario = registry.make(cs.spec);
    const exp::RunRecord direct =
        cs.saturation
            ? exp::saturation_search(scenario, cs.sat_lo, cs.sat_hi,
                                     cs.sat_tol, cs.sat_iters)
            : exp::run_sweep(scenario, cs.loads);
    const exp::RunRecord& suite_record = log.records()[i];
    EXPECT_EQ(suite_record.label, direct.label);
    ASSERT_EQ(suite_record.points.size(), direct.points.size())
        << direct.label;
    for (std::size_t k = 0; k < direct.points.size(); ++k) {
      EXPECT_EQ(suite_record.points[k].offered, direct.points[k].offered);
      EXPECT_EQ(suite_record.points[k].accepted, direct.points[k].accepted);
      EXPECT_EQ(suite_record.points[k].avg_latency,
                direct.points[k].avg_latency);
      EXPECT_EQ(suite_record.points[k].p99_latency,
                direct.points[k].p99_latency);
      EXPECT_EQ(suite_record.points[k].converged,
                direct.points[k].converged);
      EXPECT_EQ(suite_record.points[k].mean_hops,
                direct.points[k].mean_hops);
    }
    EXPECT_EQ(suite_record.saturation_estimate, direct.saturation_estimate);
  }

  // The emitted document parses back with every field intact.
  const std::string json = exp::to_json(log.records(), "test_suite");
  const exp::RunDocument doc = exp::parse_records_document(json);
  EXPECT_EQ(doc.tool, "test_suite");
  ASSERT_EQ(doc.records.size(), log.records().size());
  for (std::size_t i = 0; i < doc.records.size(); ++i) {
    EXPECT_EQ(exp::record_key(doc.records[i]),
              exp::record_key(log.records()[i]));
    EXPECT_EQ(doc.records[i].points.size(), log.records()[i].points.size());
  }
  // The randperm case records its pattern seed for replay.
  bool saw_randperm = false;
  for (const auto& record : doc.records) {
    if (record.pattern == "randperm") {
      saw_randperm = true;
      EXPECT_EQ(record.pattern_seed, 65261u);
    }
  }
  EXPECT_TRUE(saw_randperm);
}

TEST(SuiteRunner, FailureSpecReproducesHandRolledDamage) {
  // The damage the ablation-failed-links entry of suites/paper_figs.json
  // declares (link_rate pct/100, seed 0xdead11 + pct), built by hand ...
  const std::uint32_t q = 7;
  const int p = 4;
  const int pct = 10;
  const core::PolarFly pf(q);
  auto edges = pf.graph().edge_list();
  util::Rng rng(0xdead11ULL + pct);
  util::shuffle(edges, rng);
  edges.resize(edges.size() * static_cast<std::size_t>(pct) / 100);
  const graph::Graph damaged = pf.graph().without_edges(edges);
  ASSERT_TRUE(graph::is_connected(damaged));
  exp::NetSetup hand;
  hand.name = "PF-hand";
  hand.graph = damaged;
  hand.endpoints = sim::uniform_endpoints(damaged.num_vertices(), p);
  hand.oracle = std::make_shared<sim::DistanceOracle>(hand.graph);
  const auto config = quick_config();
  const auto loads = util::load_steps(0.3, 0.9, 4);

  // ... must be bit-identical to the declarative failure-spec path.
  exp::ScenarioSpec spec;
  spec.topology = "pf:q=7,p=4";
  spec.failure.link_rate = pct / 100.0;
  spec.failure.seed = 0xdead11ULL + pct;
  spec.config = config;
  for (const char* kind : {"MIN", "UGALPF"}) {
    spec.routing = kind;
    const exp::Scenario scenario =
        exp::ScenarioRegistry::shared().make(spec);
    EXPECT_EQ(scenario.setup->graph.edge_list(), damaged.edge_list());

    const auto pattern = exp::make_pattern(hand, "uniform", 0);
    const auto routing = exp::make_routing(hand, kind);
    const auto direct = exp::run_sweep(hand, *routing, *pattern, config,
                                       loads, "hand");
    const auto ported = exp::run_sweep(scenario, loads);
    ASSERT_EQ(ported.points.size(), direct.points.size());
    for (std::size_t k = 0; k < direct.points.size(); ++k) {
      EXPECT_EQ(ported.points[k].accepted, direct.points[k].accepted);
      EXPECT_EQ(ported.points[k].avg_latency, direct.points[k].avg_latency);
      EXPECT_EQ(ported.points[k].p99_latency, direct.points[k].p99_latency);
      EXPECT_EQ(ported.points[k].mean_hops, direct.points[k].mean_hops);
    }
  }
}

TEST(SuiteRunner, SkipsDisconnectedDamage) {
  // A *router* kill removes the router's endpoints with it, so the rest
  // of the network still serves all terminals and the case runs...
  std::string doc =
      "{\"schema\": \"polarfly-suite/1\", \"scenarios\": ["
      "{\"topology\": \"pf:q=5,p=3\", \"loads\": [0.2],"
      " \"config\": {\"warmup\": 50, \"measure\": 100, \"drain\": 200},"
      " \"failures\": [{\"routers\": [0]}]}]}";
  exp::ResultLog ran;
  exp::SuiteRunner runner;
  EXPECT_EQ(runner.run(exp::parse_suite(doc), ran), 0u);
  EXPECT_EQ(ran.records().size(), 1u);

  // ... and stripping every *link* off router 0 is handled identically:
  // the damage pass detects the isolation and retires the router —
  // endpoints included — exactly like an explicit routers=[0] kill, so
  // the rest of the network still runs.
  const core::PolarFly pf(5);
  std::string links;
  for (const std::int32_t u : pf.graph().neighbors(0)) {
    if (!links.empty()) links += ", ";
    links += "[0, " + std::to_string(u) + "]";
  }
  doc = "{\"schema\": \"polarfly-suite/1\", \"scenarios\": ["
        "{\"topology\": \"pf:q=5,p=3\", \"loads\": [0.2],"
        " \"config\": {\"warmup\": 50, \"measure\": 100, \"drain\": 200},"
        " \"failures\": [{\"links\": [" + links + "]}]}]}";
  exp::ResultLog log;
  EXPECT_EQ(runner.run(exp::parse_suite(doc), log), 0u);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_TRUE(log.records()[0].status.empty());

  // A genuinely split network cannot run: cut a dragonfly group off from
  // every other group (no router is isolated, both sides keep endpoint
  // routers). The case is skipped, reported via the return count, AND
  // still emits a placeholder record carrying its identity and status so
  // key/diff gates see every case.
  const exp::NetSetup df =
      *exp::ScenarioRegistry::shared().topology("df:a=2,h=1,p=2");
  std::string cut;
  for (const int u : {0, 1}) {
    for (const std::int32_t v : df.graph.neighbors(u)) {
      if (v <= 1) continue;  // keep the intra-group link
      if (!cut.empty()) cut += ", ";
      cut += '[';
      cut += std::to_string(u) + ", " + std::to_string(v) + "]";
    }
  }
  doc = "{\"schema\": \"polarfly-suite/1\", \"scenarios\": ["
        "{\"name\": \"split\", \"topology\": \"df:a=2,h=1,p=2\","
        " \"loads\": [0.2],"
        " \"config\": {\"warmup\": 50, \"measure\": 100, \"drain\": 200},"
        " \"failures\": [{\"links\": [" + cut + "]}]}]}";
  exp::ResultLog skipped;
  EXPECT_EQ(runner.run(exp::parse_suite(doc), skipped), 1u);
  ASSERT_EQ(skipped.records().size(), 1u);
  EXPECT_EQ(skipped.records()[0].status, "skipped-disconnected");
  EXPECT_EQ(skipped.records()[0].label, "split");
  // The placeholder keeps the case's load-grid identity (and key).
  ASSERT_EQ(skipped.records()[0].points.size(), 1u);
  EXPECT_EQ(skipped.records()[0].points[0].offered, 0.2);
  EXPECT_EQ(skipped.records()[0].points[0].cycles, 0);
}

TEST(SuiteRunner, EveryRoutingRunsAroundAKilledRouter) {
  // A static router kill leaves the router in the graph with no links.
  // Valiant-style detours must never pick it as their intermediate: no
  // minimal path leads there.
  const char* doc = R"({
    "schema": "polarfly-suite/1",
    "scenarios": [
      {"topology": "pf:q=7,p=4",
       "routing": ["MIN", "VAL", "CVAL", "UGAL", "UGALPF"],
       "loads": [0.3],
       "config": {"warmup": 100, "measure": 200, "drain": 600},
       "failures": [{"routers": [3]}]}
    ]
  })";
  exp::ResultLog log;
  exp::SuiteRunner runner;
  std::size_t skipped = 1;
  ASSERT_NO_THROW(skipped = runner.run(exp::parse_suite(doc), log));
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(log.records().size(), 5u);
  for (const exp::RunRecord& record : log.records()) {
    EXPECT_TRUE(record.status.empty()) << record.routing << ": "
                                       << record.status;
    ASSERT_EQ(record.points.size(), 1u);
    EXPECT_GT(record.points[0].accepted, 0.0) << record.routing;
    EXPECT_GT(record.points[0].mean_hops, 0.0) << record.routing;
  }
}

TEST(SuiteRunner, ParallelSchedulerIsBitIdenticalToSerial) {
  // The case scheduler's core guarantee: however cases are sliced into
  // units and interleaved on the pool, the ResultLog is bit-identical to
  // the serial runner — same order, same values. Only wall_seconds /
  // cycles_per_sec may differ, and the diff comparator excludes exactly
  // those, so a zero-tolerance diff is the right equality check.
  const exp::Suite suite = committed_suite("smoke.json");

  exp::ScheduleOptions serial;
  serial.parallel = false;
  exp::ResultLog serial_log;
  exp::SuiteRunner(exp::ScenarioRegistry::shared(), serial)
      .run(suite, serial_log);
  ASSERT_EQ(serial_log.records().size(), suite.cases.size());

  exp::DiffOptions exact;
  exact.rtol = 0.0;
  exact.atol = 0.0;
  exp::ScheduleOptions parallel;
  exp::ResultLog log;
  std::vector<std::size_t> callback_order;
  exp::SuiteRunner(exp::ScenarioRegistry::shared(), parallel)
      .run(suite, log,
           [&callback_order, &suite](const exp::RunRecord&,
                                     std::size_t index,
                                     std::size_t total) {
             EXPECT_EQ(total, suite.cases.size());
             callback_order.push_back(index);
           });
  // Callbacks fire in document order even when completion interleaves.
  ASSERT_EQ(callback_order.size(), suite.cases.size());
  for (std::size_t i = 0; i < callback_order.size(); ++i) {
    EXPECT_EQ(callback_order[i], i);
  }

  exp::RunDocument serial_doc, parallel_doc;
  serial_doc.records = serial_log.records();
  parallel_doc.records = log.records();
  const exp::DiffReport report =
      exp::diff_documents(serial_doc, parallel_doc, exact);
  EXPECT_TRUE(report.clean())
      << (report.drifts.empty() ? "record set mismatch"
                                : report.drifts[0].field);
  // Labels and order, belt and braces on top of the key matching.
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    EXPECT_EQ(log.records()[i].label, serial_log.records()[i].label);
    EXPECT_EQ(log.records()[i].seed, serial_log.records()[i].seed);
    EXPECT_EQ(log.records()[i].pattern_seed,
              serial_log.records()[i].pattern_seed);
  }
}

TEST(SuiteRunner, ParallelSchedulerSkipsAndKeepsOrder) {
  // Case 1 disconnects a whole dragonfly group (skip); cases 0 and 2
  // run. The parallel scheduler must keep document order, report one
  // skip, and emit the skipped case's placeholder in its slot.
  const exp::NetSetup df =
      *exp::ScenarioRegistry::shared().topology("df:a=2,h=1,p=2");
  std::string cut;
  for (const int u : {0, 1}) {
    for (const std::int32_t v : df.graph.neighbors(u)) {
      if (v <= 1) continue;
      if (!cut.empty()) cut += ", ";
      cut += '[';
      cut += std::to_string(u) + ", " + std::to_string(v) + "]";
    }
  }
  const std::string doc =
      "{\"schema\": \"polarfly-suite/1\", \"scenarios\": ["
      "{\"name\": \"first\", \"topology\": \"pf:q=5,p=3\","
      " \"loads\": [0.2],"
      " \"config\": {\"warmup\": 50, \"measure\": 100, \"drain\": 200}},"
      "{\"name\": \"stranded\", \"topology\": \"df:a=2,h=1,p=2\","
      " \"loads\": [0.2],"
      " \"config\": {\"warmup\": 50, \"measure\": 100, \"drain\": 200},"
      " \"failures\": [{\"links\": [" + cut + "]}]},"
      "{\"name\": \"last\", \"topology\": \"pf:q=5,p=3\","
      " \"loads\": [0.2, 0.4],"
      " \"config\": {\"warmup\": 50, \"measure\": 100, \"drain\": 200}}]}";
  exp::ResultLog log;
  exp::SuiteRunner runner;  // default: parallel scheduler
  EXPECT_EQ(runner.run(exp::parse_suite(doc), log), 1u);
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records()[0].label, "first");
  EXPECT_EQ(log.records()[1].label, "stranded");
  EXPECT_EQ(log.records()[1].status, "skipped-disconnected");
  EXPECT_EQ(log.records()[2].label, "last");
}

TEST(SuiteParse, SchedulesExpandAsAnAxis) {
  // "schedules" is a first-class expansion axis like "failures": one
  // case per schedule, labels discriminated by the canonical schedule
  // name ("static" for the empty schedule), with the per-case timeout
  // and the watchdog config key carried through.
  const char* doc = R"({
    "schema": "polarfly-suite/1",
    "scenarios": [
      {"name": "s", "topology": "pf:q=5,p=3", "loads": [0.2],
       "timeout_seconds": 12.5,
       "config": {"warmup": 50, "measure": 100, "drain": 200, "stall": 75},
       "schedules": [
         {},
         {"name": "flap", "policy": "reinject",
          "events": [{"at": 60, "link_down": [0, 1]}],
          "flaps": [{"count": 2, "seed": 5, "down_at": 80,
                     "up_after": 40}]}]}]})";
  const exp::Suite suite = exp::parse_suite(doc);
  ASSERT_EQ(suite.cases.size(), 2u);
  EXPECT_EQ(suite.cases[0].spec.name, "s [static]");
  EXPECT_TRUE(suite.cases[0].spec.schedule.empty());
  EXPECT_EQ(suite.cases[1].spec.name, "s [flap]");
  const exp::FailureSchedule& schedule = suite.cases[1].spec.schedule;
  EXPECT_EQ(schedule.policy, "reinject");
  ASSERT_EQ(schedule.events.size(), 1u);
  EXPECT_EQ(schedule.events[0].kind, "link_down");
  EXPECT_EQ(schedule.events[0].at, 60);
  ASSERT_EQ(schedule.flaps.size(), 1u);
  EXPECT_EQ(schedule.flaps[0].count, 2);
  EXPECT_EQ(schedule.flaps[0].up_after, 40);
  for (const auto& cs : suite.cases) {
    EXPECT_EQ(cs.timeout_seconds, 12.5);
    EXPECT_EQ(cs.spec.config.stall_cycles, 75);
  }
}

TEST(SuiteParse, ScheduleSchemaViolationsNameTheOffender) {
  const auto expect_error = [](const std::string& body,
                               const std::string& needle) {
    const std::string doc =
        "{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
        "[{\"topology\": \"pf:q=5,p=3\", \"loads\": [0.2], " + body + "}]}";
    try {
      exp::parse_suite(doc);
      FAIL() << "expected std::invalid_argument for " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("\"schedules\": [{\"typo\": 1}]", "typo");
  expect_error("\"schedules\": [{\"policy\": \"explode\"}]",
               "must be 'drop' or 'reinject'");
  expect_error("\"schedules\": [{\"events\": [{\"at\": 5}]}]",
               "link_down, link_up or router_down");
  expect_error("\"schedules\": [{\"events\": [{\"at\": 5, "
               "\"link_down\": [0, 1], \"router_down\": 2}]}]",
               "more than one action");
  expect_error("\"schedules\": [{\"events\": [{\"at\": -1, "
               "\"link_down\": [0, 1]}]}]",
               "at");
  expect_error("\"timeout_seconds\": -3",
               "timeout_seconds = -3 out of range [0, inf)");
  // Type errors name the full key path, not just the schedules axis.
  expect_error("\"schedules\": [{\"events\": [{\"at\": \"x\", "
               "\"link_down\": [0, 1]}]}]",
               "suite scenarios[0].schedules[0].events[0].at: expected "
               "integer");
  expect_error("\"schedules\": [{}, {\"flaps\": [{\"rate\": \"x\"}]}]",
               "suite scenarios[0].schedules[1].flaps[0].rate: expected "
               "number");
  expect_error("\"schedules\": [{\"flaps\": [{\"seed\": 1.5}]}]",
               "suite scenarios[0].schedules[0].flaps[0].seed: expected "
               "unsigned integer");
  expect_error("\"schedules\": [{\"flaps\": [{}, {\"down_at\": 2.5}]}]",
               "suite scenarios[0].schedules[0].flaps[1].down_at: expected "
               "integer");
  expect_error("\"schedules\": [{\"flaps\": [{\"up_after\": true}]}]",
               "suite scenarios[0].schedules[0].flaps[0].up_after: expected "
               "integer");
  expect_error("\"schedules\": [{\"flaps\": [{\"period\": \"p\"}]}]",
               "suite scenarios[0].schedules[0].flaps[0].period: expected "
               "integer");
}

TEST(SuiteParse, WorkloadsExpandAsAnAxis) {
  // "workloads" is a first-class expansion axis: one case per workload
  // spec, innermost of topology/routing (schedules aside), labels
  // discriminated by the spec string, and the resolved scenario carries
  // the spec through to the compiled sim::Workload.
  const char* doc = R"({
    "schema": "polarfly-suite/1",
    "scenarios": [
      {"name": "w", "topology": "pf:q=5,p=1",
       "routing": ["MIN", "UGALPF"],
       "workloads": ["alltoall", "stencil2d:iters=2"],
       "loads": [0.5],
       "config": {"warmup": 100, "measure": 200, "drain": 2000}}]})";
  const exp::Suite suite = exp::parse_suite(doc);
  ASSERT_EQ(suite.cases.size(), 4u);
  EXPECT_EQ(suite.cases[0].spec.name, "w [MIN alltoall]");
  EXPECT_EQ(suite.cases[0].spec.workload, "alltoall");
  EXPECT_EQ(suite.cases[1].spec.name, "w [MIN stencil2d:iters=2]");
  EXPECT_EQ(suite.cases[1].spec.workload, "stencil2d:iters=2");
  EXPECT_EQ(suite.cases[2].spec.routing, "UGALPF");
  EXPECT_EQ(suite.cases[2].spec.workload, "alltoall");
  // The resolved scenario compiles the workload at the topology's rank
  // count and stamps the canonical name into the record identity.
  const exp::Scenario scenario =
      exp::ScenarioRegistry::shared().make(suite.cases[1].spec);
  ASSERT_NE(scenario.workload, nullptr);
  EXPECT_EQ(scenario.workload->name(), "stencil2d:iters=2");
  EXPECT_EQ(scenario.workload->num_ranks(), 31);  // pf:q=5, p=1
}

TEST(SuiteParse, WorkloadSchemaViolationsNameTheOffender) {
  const auto expect_error = [](const std::string& body,
                               const std::string& needle) {
    const std::string doc =
        "{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
        "[{\"topology\": \"pf:q=5,p=1\", \"loads\": [0.5], " + body + "}]}";
    try {
      exp::parse_suite(doc);
      FAIL() << "expected std::invalid_argument for " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("scenarios[0]"),
                std::string::npos)
          << e.what();
    }
  };
  // The workload defines the traffic; an explicit pattern alongside it
  // is a contradiction, not a merge.
  expect_error("\"workloads\": \"alltoall\", \"pattern\": \"uniform\"",
               "mutually exclusive");
  expect_error("\"workloads\": [\"alltoall\", \"\"]", "workloads");
  // A workload completes at any load — there is no saturation plateau.
  try {
    exp::parse_suite(
        "{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
        "[{\"topology\": \"pf:q=5,p=1\", \"workloads\": \"alltoall\", "
        "\"saturation_search\": {\"lo\": 0.1, \"hi\": 1.0}}]}");
    FAIL() << "expected saturation_search rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("saturation_search"),
              std::string::npos)
        << e.what();
  }
  // The engine-level guard matches: a resolved workload scenario refuses
  // saturation_search outright.
  exp::ScenarioSpec spec;
  spec.topology = "pf:q=5,p=1";
  spec.routing = "MIN";
  spec.workload = "alltoall";
  spec.config = quick_config();
  const exp::Scenario scenario = exp::ScenarioRegistry::shared().make(spec);
  EXPECT_THROW(exp::saturation_search(scenario, 0.1, 1.0, 0.05, 4),
               std::invalid_argument);
}

TEST(SuiteRunner, ParallelSchedulerMatchesSerialOnWorkloads) {
  // The claim-cursor scheduler must be invisible to workload cases too:
  // serial and parallel runs of a workload matrix are bit-identical at
  // rtol 0, including the per-workload completion block. A perturbed
  // completion_cycles must drift even under a sloppy tolerance — the
  // workload block is integer-exact by contract, rtol never applies.
  const char* doc = R"({
    "schema": "polarfly-suite/1",
    "name": "wl-sched",
    "scenarios": [
      {"name": "w", "topology": "pf:q=5,p=1",
       "routing": ["MIN", "UGALPF"],
       "workloads": ["alltoall", "rd_allreduce", "bursty:bursts=2"],
       "loads": [0.5],
       "config": {"warmup": 100, "measure": 200, "drain": 20000,
                  "seed": 779712}}]})";
  const exp::Suite suite = exp::parse_suite(doc);
  ASSERT_EQ(suite.cases.size(), 6u);

  exp::ScheduleOptions serial;
  serial.parallel = false;
  exp::ResultLog serial_log;
  exp::SuiteRunner(exp::ScenarioRegistry::shared(), serial)
      .run(suite, serial_log);
  ASSERT_EQ(serial_log.records().size(), suite.cases.size());
  for (const auto& record : serial_log.records()) {
    ASSERT_EQ(record.points.size(), 1u);
    EXPECT_TRUE(record.points[0].has_workload) << record.label;
    EXPECT_TRUE(record.points[0].workload_done) << record.label;
  }
  // The workload's canonical name is the record's pattern identity.
  EXPECT_EQ(serial_log.records()[0].pattern, "alltoall");

  exp::ResultLog parallel_log;
  exp::SuiteRunner(exp::ScenarioRegistry::shared(), exp::ScheduleOptions{})
      .run(suite, parallel_log);
  exp::DiffOptions exact;
  exact.rtol = 0.0;
  exact.atol = 0.0;
  exp::RunDocument serial_doc, parallel_doc;
  serial_doc.records = serial_log.records();
  parallel_doc.records = parallel_log.records();
  const exp::DiffReport report =
      exp::diff_documents(serial_doc, parallel_doc, exact);
  EXPECT_TRUE(report.clean())
      << (report.drifts.empty() ? "record set mismatch"
                                : report.drifts[0].field);

  // Integer-exact completion accounting: a +1 nudge drifts at any rtol.
  exp::RunDocument nudged;
  nudged.records = serial_log.records();
  nudged.records[0].points[0].workload_completion += 1;
  exp::DiffOptions sloppy;
  sloppy.rtol = 0.5;
  sloppy.atol = 100.0;
  const exp::DiffReport caught =
      exp::diff_documents(serial_doc, nudged, sloppy);
  ASSERT_FALSE(caught.clean());
  EXPECT_NE(caught.drifts[0].field.find("workload.completion_cycles"),
            std::string::npos)
      << caught.drifts[0].field;
}

TEST(SuiteRunner, ResumeReplaysTheJournalBitIdentically) {
  // The library-level resume contract behind `pf_sim suite --resume`:
  // records already present in the checkpoint journal are replayed into
  // their document slots without re-simulation, and the assembled log is
  // bit-identical to the uninterrupted run.
  const exp::Suite suite = committed_suite("smoke.json");
  exp::ResultLog full;
  exp::SuiteRunner().run(suite, full);
  ASSERT_EQ(full.records().size(), suite.cases.size());

  // A journal holding the first three records, as if killed mid-suite.
  const std::vector<exp::RunRecord> journal(full.records().begin(),
                                            full.records().begin() + 3);
  exp::ScheduleOptions options;
  options.resume = &journal;
  exp::ResultLog resumed;
  exp::SuiteRunner(exp::ScenarioRegistry::shared(), options)
      .run(suite, resumed);
  ASSERT_EQ(resumed.records().size(), full.records().size());

  exp::DiffOptions exact;
  exact.rtol = 0.0;
  exact.atol = 0.0;
  exp::RunDocument full_doc, resumed_doc;
  full_doc.records = full.records();
  resumed_doc.records = resumed.records();
  const exp::DiffReport report =
      exp::diff_documents(full_doc, resumed_doc, exact);
  EXPECT_TRUE(report.clean())
      << (report.drifts.empty() ? "record set mismatch"
                                : report.drifts[0].field);
  EXPECT_EQ(report.records_matched, full.records().size());
}

TEST(Results, RecordKeyIsStableAcrossReruns) {
  exp::RunRecord record;
  record.label = "fig08a [PF MIN]";
  record.topology = "PolarFly ER_13";
  record.routing = "MIN";
  record.pattern = "uniform";
  record.seed = 42;
  const auto point = [](double offered, double accepted, double avg_latency,
                         double p99_latency) {
    exp::RunPoint p;
    p.offered = offered;
    p.accepted = accepted;
    p.avg_latency = avg_latency;
    p.p99_latency = p99_latency;
    p.converged = true;
    p.mean_hops = 2.0;
    p.cycles = 1234;
    return p;
  };
  record.points.push_back(point(0.3, 0.29, 20.0, 40.0));
  record.points.push_back(point(0.6, 0.55, 31.0, 60.0));
  const std::string key = exp::record_key(record);
  EXPECT_NE(key.find("loads=0.3..0.6/2"), std::string::npos) << key;

  // Measured values do not contribute to identity — a rerun with
  // different latencies/throughput keys identically ...
  exp::RunRecord rerun = record;
  rerun.points[1].accepted = 0.61;
  rerun.points[1].avg_latency = 28.5;
  rerun.perf.sim_cycles = 999;
  EXPECT_EQ(exp::record_key(rerun), key);

  // ... but the experiment axes do: a different load grid, pattern seed,
  // or a saturation search must not collapse onto the same key.
  exp::RunRecord other_grid = record;
  other_grid.points.resize(1);
  EXPECT_NE(exp::record_key(other_grid), key);
  exp::RunRecord seeded = record;
  seeded.pattern_seed = 7;
  EXPECT_NE(exp::record_key(seeded), key);
  exp::RunRecord sat = record;
  sat.saturation_estimate = 0.8;
  EXPECT_NE(exp::record_key(sat), key);
  EXPECT_NE(exp::record_key(sat).find("sat-search"), std::string::npos);
}

}  // namespace
