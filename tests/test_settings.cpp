// The run settings table (exp/settings.hpp) and its two readers: a flag
// and its suite key read the same value into the same SuiteCase and
// refuse the same values, errors name the flag or the full key path,
// seeds span 0..2^64-1 on both surfaces, and docs/suite-format.md gives
// every key the table's default and range.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/settings.hpp"
#include "exp/suite.hpp"
#include "sim/network.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace pf;
namespace settings = exp::settings;

util::CliArgs cli(std::vector<std::string> argv) {
  argv.insert(argv.begin(), "pf_sim");
  std::vector<char*> pointers;
  for (std::string& arg : argv) pointers.push_back(arg.data());
  return util::CliArgs::parse(static_cast<int>(pointers.size()),
                              pointers.data());
}

/// `"a": {"b": value}` for the key path "a.b".
std::string nest(const std::string& key, const std::string& value) {
  const std::size_t dot = key.find('.');
  if (dot == std::string::npos) return "\"" + key + "\": " + value;
  return "\"" + key.substr(0, dot) + "\": {" +
         nest(key.substr(dot + 1), value) + "}";
}

/// The one case of a one-entry suite that adds `members` to a minimal
/// runnable entry.
exp::SuiteCase suite_case(const std::string& members) {
  return exp::parse_suite(
             "{\"schema\": \"polarfly-suite/1\", \"scenarios\": "
             "[{\"topology\": \"pf:q=5\", \"loads\": [0.5], " +
             members + "}]}")
      .cases.at(0);
}

exp::SuiteCase cli_case(const std::vector<std::string>& argv) {
  exp::SuiteCase c;
  const util::CliArgs args = cli(argv);
  settings::read_cli(args, c);
  EXPECT_TRUE(args.unused_keys().empty());
  return c;
}

/// The first table setting on which `a` and `b` differ, or "".
std::string first_difference(exp::SuiteCase a, exp::SuiteCase b) {
  std::string differs;
  const auto compare = [&](const settings::Setting& s, auto get) {
    if (differs.empty() && !(get(a) == get(b))) {
      differs = s.key != nullptr ? s.key : s.flag;
    }
  };
  settings::visit_settings(compare);
  return differs;
}

std::string number(double value) {
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

/// What a reader should store for an accepted probe's flag text.
template <class M>
M parsed(const std::string& text) {
  constexpr settings::Kind kind = settings::kind_of<M>();
  if constexpr (kind == settings::Kind::Int) return std::stoi(text);
  if constexpr (kind == settings::Kind::Uint64) return std::stoull(text);
  if constexpr (kind == settings::Kind::Real) return std::stod(text);
  if constexpr (kind == settings::Kind::Bool) return true;
  if constexpr (kind == settings::Kind::Engine) {
    sim::SimEngine engine{};
    EXPECT_TRUE(sim::parse_engine(text, engine));
    return engine;
  }
}

/// One value to feed both surfaces: its flag text, its JSON text, and
/// whether it lies in the setting's range.
struct Probe {
  std::string flag_text;
  std::string json_text;
  bool in_range;
};

template <class M>
std::vector<Probe> probes(const settings::Range& range) {
  constexpr settings::Kind kind = settings::kind_of<M>();
  if constexpr (kind == settings::Kind::Int) {
    const std::int64_t lo =
        std::max<double>(range.lo, std::numeric_limits<int>::min());
    const std::int64_t hi =
        std::min<double>(range.hi, std::numeric_limits<int>::max());
    std::vector<Probe> out;
    for (const std::int64_t v : {lo, lo + 1, hi, lo - 1, hi + 1}) {
      out.push_back({std::to_string(v), std::to_string(v), v >= lo && v <= hi});
    }
    return out;
  } else if constexpr (kind == settings::Kind::Uint64) {
    return {{"0", "0", true},
            {"12345", "12345", true},
            {"18446744073709551615", "18446744073709551615", true},
            {"18446744073709551616", "18446744073709551616", false},
            {"-1", "-1", false}};
  } else if constexpr (kind == settings::Kind::Real) {
    const double lo = std::isinf(range.lo) ? -1e300 : range.lo;
    const double hi = std::isinf(range.hi) ? 1e300 : range.hi;
    const double interior = !std::isinf(range.lo) && !std::isinf(range.hi)
                                ? (lo + hi) / 2
                                : std::isinf(range.lo) ? 0.25 : lo + 0.5;
    std::vector<Probe> out;
    for (const double v : {lo, interior, hi}) {
      out.push_back({number(v), number(v), true});
    }
    if (!std::isinf(range.lo)) {
      out.push_back({number(lo - 1), number(lo - 1), false});
    }
    if (!std::isinf(range.hi)) {
      out.push_back({number(hi + 1), number(hi + 1), false});
    }
    out.push_back({"inf", "1e999", false});
    out.push_back({"-inf", "-1e999", false});
    return out;
  } else if constexpr (kind == settings::Kind::Engine) {
    return {{"event", "\"event\"", true},
            {"cycle", "\"cycle\"", true},
            {"bogus", "\"bogus\"", false}};
  } else {
    return {{"", "true", true}};  // a bool flag can only say true
  }
}

TEST(Settings, CliAndSuiteReadTheSameCase) {
  int checked = 0;
  const auto check = [&](const settings::Setting& s, auto get) {
    if (s.key == nullptr || s.flag == nullptr) return;
    exp::SuiteCase defaults;
    using M = std::remove_cvref_t<decltype(get(defaults))>;
    const std::string key = s.key;
    const std::string flag = std::string("--") + s.flag;
    for (const Probe& probe : probes<M>(s.range)) {
      SCOPED_TRACE(flag + " " + probe.flag_text);
      std::vector<std::string> argv = {flag};
      if (!probe.flag_text.empty()) argv.push_back(probe.flag_text);
      // Writing a telemetry block turns telemetry on; the flags say so.
      if (key.rfind("config.telemetry.", 0) == 0) argv.push_back("--telemetry");
      exp::SuiteCase from_cli, from_suite;
      std::string cli_error, suite_error;
      try {
        from_cli = cli_case(argv);
      } catch (const util::CliError& e) {
        cli_error = e.what();
      }
      try {
        from_suite = suite_case(nest(key, probe.json_text));
      } catch (const std::invalid_argument& e) {
        suite_error = e.what();
      }
      // The one rule across settings: a search bracket needs lo <= hi.
      const bool bracket_ok =
          (key != "saturation_search.lo" ||
           std::stod(probe.flag_text) <= defaults.sat_hi) &&
          (key != "saturation_search.hi" ||
           std::stod(probe.flag_text) >= defaults.sat_lo);
      EXPECT_EQ(cli_error.empty(), probe.in_range && bracket_ok) << cli_error;
      EXPECT_EQ(suite_error.empty(), probe.in_range && bracket_ok)
          << suite_error;
      if (cli_error.empty() && suite_error.empty()) {
        EXPECT_EQ(first_difference(from_cli, from_suite), "");
        EXPECT_TRUE(get(from_cli) == parsed<M>(probe.flag_text));
      }
      if (!probe.in_range) {
        EXPECT_NE(cli_error.find("option " + flag), std::string::npos)
            << cli_error;
        // The full key path, exactly once.
        const std::string path = "scenarios[0]." + key;
        const std::size_t at = suite_error.find(path);
        EXPECT_NE(at, std::string::npos) << suite_error;
        EXPECT_EQ(suite_error.find("scenarios[0]", at + 1), std::string::npos)
            << suite_error;
      }
      ++checked;
    }
  };
  settings::visit_settings(check);
  EXPECT_GE(checked, 60);
}

TEST(Settings, RealValuesAreFiniteAndInRangeOnBothSurfaces) {
  const auto suite_error = [](const std::string& members) {
    try {
      suite_case(members);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(suite_error("\"loads\": [0.2, -0.5]"),
            "suite scenarios[0].loads[1] = -0.5 out of range [0, inf)");
  EXPECT_EQ(suite_error("\"loads\": {\"lo\": 0.1, \"hi\": 1e999, "
                        "\"count\": 3}"),
            "suite scenarios[0].loads.hi = inf out of range [0, inf)");
  EXPECT_EQ(suite_error("\"saturation_search\": {\"hi\": 1e999}"),
            "suite scenarios[0].saturation_search.hi = inf out of range "
            "[0, inf)");
  EXPECT_EQ(suite_error("\"saturation_search\": {\"lo\": 0.9, \"hi\": 0.5}"),
            "suite scenarios[0].saturation_search: lo 0.9 exceeds hi 0.5");
  EXPECT_EQ(suite_error("\"timeout_seconds\": -1"),
            "suite scenarios[0].timeout_seconds = -1 out of range [0, inf)");
  EXPECT_EQ(suite_error("\"ugal_threshold\": -1e999"),
            "suite scenarios[0].ugal_threshold = -inf out of range "
            "(-inf, inf)");
  EXPECT_EQ(suite_error("\"timeout_seconds\": 1e300"), "accepted");

  const auto cli_error = [](const std::vector<std::string>& argv) {
    try {
      cli_case(argv);
    } catch (const util::CliError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(cli_error({"--sat-hi", "1e999"}),
            "option --sat-hi = inf out of range [0, inf)");
  EXPECT_EQ(cli_error({"--sat-hi", "nan"}),
            "option --sat-hi expects a number, got 'nan'");
  EXPECT_EQ(cli_error({"--sat-tol", "-0.01"}),
            "option --sat-tol = -0.01 out of range [0, inf)");
  EXPECT_EQ(cli_error({"--sat-lo", "0.9", "--sat-hi", "0.5"}),
            "option --sat-lo = 0.9 exceeds --sat-hi = 0.5");
  EXPECT_EQ(cli_error({"--trace-sample", "1.5"}),
            "option --trace-sample = 1.5 out of range [0, 1]");
  EXPECT_EQ(cli_error({"--ugal-threshold", "-1e999"}),
            "option --ugal-threshold = -inf out of range (-inf, inf)");
  EXPECT_EQ(cli_error({"--engine", "warp"}),
            "option --engine: unknown engine 'warp' (event/cycle)");
  EXPECT_EQ(cli_error({"--seed", "-1"}),
            "option --seed: expected unsigned integer, got non-integral or "
            "negative number");
  EXPECT_EQ(cli_error({"--vcs"}), "option --vcs needs a value");
  EXPECT_EQ(cli_error({"--ugal-threshold", "-1", "--trace-sample", "0"}),
            "accepted");
}

TEST(Settings, LoadRangeIsReadWhole) {
  // --loads lo:hi:count is the suite's {lo, hi, count} grid, and every
  // field must be a number consumed whole: "2x" used to run as 2.
  EXPECT_EQ(util::parse_range("0.1:0.3:2"), util::load_steps(0.1, 0.3, 2));
  EXPECT_EQ(util::parse_range("0.2:1:5"), util::load_steps(0.2, 1.0, 5));
  EXPECT_EQ(util::parse_range("0.4:0.9:1"), std::vector<double>{0.4});
  for (const char* spec : {"0.1:0.3:2x", "0.1abc:0.3:2", "0.1:0.3x:2",
                           "0.1:0.3:2:5", "0.1:0.3:2.5", "0.1:0.3:",
                           ":0.3:2", "0.1:0.3"}) {
    try {
      util::parse_range(spec);
      ADD_FAILURE() << spec << " accepted";
    } catch (const util::CliError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("range must be lo:hi:count, got '") + spec + "'");
    }
  }
  EXPECT_THROW(util::parse_range("0.1:0.3:0"), util::CliError);
  EXPECT_THROW(util::parse_range("0.1:0.3:2147483648"), util::CliError);
}

TEST(Settings, SeedsSpanTheFullUnsignedRange) {
  // config.seed is covered on both surfaces above; these are the seeds
  // only one surface spells.
  EXPECT_EQ(cli_case({"--trace-seed", "18446744073709551615"})
                .spec.config.telemetry.trace_seed,
            UINT64_MAX);
  EXPECT_EQ(suite_case("\"pattern_seed\": 18446744073709551615")
                .spec.pattern_seed,
            UINT64_MAX);
  for (const char* refused : {"18446744073709551616", "-1"}) {
    EXPECT_THROW(cli_case({"--trace-seed", refused}), util::CliError);
    EXPECT_THROW(suite_case(std::string("\"pattern_seed\": ") + refused),
                 std::invalid_argument);
  }
}

/// docs/suite-format.md's table rows, by the key in their first cell:
/// column name -> cell, with backticks and quotes dropped.
std::map<std::string, std::vector<std::map<std::string, std::string>>>
documented_rows(const std::string& text) {
  const auto cells = [](const std::string& line) {
    std::vector<std::string> out;
    std::size_t start = 1;
    for (std::size_t bar; (bar = line.find(" |", start)) != std::string::npos;
         start = bar + 2) {
      std::string cell;
      for (const char ch : line.substr(start, bar - start)) {
        if (ch != '`' && ch != '"') cell += ch;
      }
      const std::size_t first = cell.find_first_not_of(' ');
      out.push_back(first == std::string::npos ? "" : cell.substr(first));
    }
    return out;
  };
  std::map<std::string, std::vector<std::map<std::string, std::string>>> rows;
  std::vector<std::string> header;
  bool in_table = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("|", 0) != 0) {
      in_table = false;
      continue;
    }
    if (line.rfind("|-", 0) == 0) continue;
    if (!in_table) {
      header = cells(line);
      in_table = true;
      continue;
    }
    const std::vector<std::string> row = cells(line);
    std::map<std::string, std::string> by_column;
    for (std::size_t i = 0; i < row.size() && i < header.size(); ++i) {
      by_column[header[i]] = row[i];
    }
    rows[row.at(0)].push_back(by_column);
  }
  return rows;
}

TEST(Settings, SuiteFormatDocumentsEveryKey) {
  std::string text;
  ASSERT_TRUE(util::read_text_file(PF_DOCS_DIR "/suite-format.md", text));
  const auto rows = documented_rows(text);
  std::set<std::string> keys;
  const auto check = [&](const settings::Setting& s, auto get) {
    if (s.key == nullptr) return;
    keys.insert(s.key);
    SCOPED_TRACE(s.key);
    const auto it = rows.find(s.key);
    ASSERT_NE(it, rows.end()) << "docs/suite-format.md has no row";
    ASSERT_EQ(it->second.size(), 1u);
    const auto& row = it->second.front();
    exp::SuiteCase defaults;
    const auto& value = get(defaults);
    using M = std::remove_cvref_t<decltype(value)>;
    EXPECT_EQ(row.at("default"), settings::value_text(value));
    EXPECT_EQ(row.at("range"),
              settings::range_text(settings::kind_of<M>(), s.range));
    if (row.count("flag") != 0) {
      EXPECT_EQ(row.at("flag"),
                s.flag != nullptr ? std::string("--") + s.flag : "—");
    }
  };
  settings::visit_settings(check);
  EXPECT_GE(keys.size(), 20u);
  // No documented config or search key outlives the table.
  for (const auto& [key, documented] : rows) {
    if (key.rfind("config.", 0) == 0 ||
        key.rfind("saturation_search.", 0) == 0) {
      EXPECT_TRUE(keys.count(key) != 0 || key == "config.telemetry")
          << "docs/suite-format.md documents `" << key
          << "`, which is not a setting";
    }
  }
}

}  // namespace
