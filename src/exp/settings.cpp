#include "exp/settings.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pf::exp::settings {
namespace {

/// An int setting's range, narrowed to what its int can hold.
std::pair<int, int> int_bounds(const Range& range) {
  constexpr double kMin = std::numeric_limits<int>::min();
  constexpr double kMax = std::numeric_limits<int>::max();
  return {static_cast<int>(std::max(range.lo, kMin)),
          static_cast<int>(std::min(range.hi, kMax))};
}

/// Stores `value` in setting `s`'s member `m`: the one conversion and
/// check behind both surfaces. Throws util::JsonError leading with `name`.
template <class M>
void assign(M& m, const Setting& s, const util::JsonValue& value,
            const std::string& name) {
  try {
    if constexpr (kind_of<M>() == Kind::Int) {
      const auto [lo, hi] = int_bounds(s.range);
      m = value.as_int_in(name, lo, hi);
    } else if constexpr (kind_of<M>() == Kind::Uint64) {
      m = value.as_uint();
    } else if constexpr (kind_of<M>() == Kind::Real) {
      const std::string why = refusal(s.range, value.as_double());
      if (!why.empty()) throw util::JsonError(name + why);
      m = value.as_double();
    } else if constexpr (kind_of<M>() == Kind::Bool) {
      m = value.as_bool();
    } else if (!sim::parse_engine(value.as_string(), m)) {
      throw util::JsonError(name + ": unknown engine '" + value.as_string() +
                            "' (event/cycle)");
    }
  } catch (const util::JsonError& e) {
    // Type errors name no key; range errors lead with it already.
    if (std::string(e.what()).rfind(name, 0) == 0) throw;
    throw util::JsonError(name + ": " + e.what());
  }
}

/// The JSON a flag's text stands for: true for a bool flag, a string for
/// the engine, the text itself otherwise.
template <class M>
util::JsonValue flag_json(const util::CliArgs& args, const char* flag) {
  if constexpr (kind_of<M>() == Kind::Bool) return util::json_parse("true");
  std::string json = args.str(flag);
  if constexpr (kind_of<M>() == Kind::Engine) {
    json = std::string(1, '"') + util::JsonWriter::escape(json) + '"';
  }
  try {
    return util::json_parse(json);
  } catch (const util::JsonError&) {
    throw util::CliError(std::string("option --") + flag +
                         " expects a number, got '" + args.str(flag) + "'");
  }
}

}  // namespace

std::string range_text(Kind kind, const Range& range) {
  switch (kind) {
    case Kind::Bool:
      return "true, false";
    case Kind::Engine:
      return "event, cycle";
    case Kind::Uint64:
      return std::string("[0, ") +
             value_text(std::numeric_limits<std::uint64_t>::max()) + "]";
    case Kind::Int: {
      const auto [lo, hi] = int_bounds(range);
      return std::string("[") + value_text(lo) + ", " + value_text(hi) + "]";
    }
    case Kind::Real:
      break;
  }
  return std::string(std::isinf(range.lo) ? "(" : "[") +
         value_text(range.lo) + ", " + value_text(range.hi) +
         (std::isinf(range.hi) ? ")" : "]");
}

std::string value_text(int value) { return std::to_string(value); }
std::string value_text(std::uint64_t value) { return std::to_string(value); }
std::string value_text(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", value);
  return text;
}
std::string value_text(bool value) { return value ? "true" : "false"; }
std::string value_text(sim::SimEngine value) { return sim::engine_name(value); }

std::string refusal(const Range& range, double value) {
  if (std::isfinite(value) && value >= range.lo && value <= range.hi) {
    return "";
  }
  return " = " + value_text(value) + " out of range " +
         range_text(Kind::Real, range);
}

bool read_json(const std::string& key, const util::JsonValue& value,
               const std::string& path, SuiteCase& c) {
  bool found = false;
  const auto read = [&](const Setting& s, auto get) {
    if (found || s.key == nullptr || key != s.key) return;
    found = true;
    assign(get(c), s, value, path);
  };
  visit_settings(read);
  return found;
}

void read_cli(const util::CliArgs& args, SuiteCase& c,
              const std::vector<std::string>& flags) {
  const auto read = [&](const Setting& s, auto get) {
    // Filter before has(): has() marks a flag used, and a flag outside
    // `flags` must stay an unknown option.
    if (s.flag == nullptr ||
        (!flags.empty() &&
         std::find(flags.begin(), flags.end(), s.flag) == flags.end()) ||
        !args.has(s.flag)) {
      return;
    }
    auto& m = get(c);
    using M = std::remove_reference_t<decltype(m)>;
    try {
      assign(m, s, flag_json<M>(args, s.flag),
             std::string("option --") + s.flag);
    } catch (const util::JsonError& e) {
      throw util::CliError(e.what());
    }
  };
  visit_settings(read);
  if (c.sat_lo > c.sat_hi) {
    throw util::CliError("option --sat-lo = " + value_text(c.sat_lo) +
                         " exceeds --sat-hi = " + value_text(c.sat_hi));
  }
}

void print_help(std::FILE* out, const SuiteCase& defaults) {
  SuiteCase c = defaults;
  const auto print = [&](const Setting& s, auto get) {
    if (s.flag == nullptr) return;
    const auto& m = get(c);
    constexpr Kind kind = kind_of<std::remove_cvref_t<decltype(m)>>();
    const std::string option =
        std::string("--") + s.flag +
        (kind == Kind::Bool     ? ""
         : kind == Kind::Engine ? " E"
         : kind == Kind::Real   ? " X"
                                : " N");
    const std::string range =
        kind == Kind::Bool ? "" : "; " + range_text(kind, s.range);
    std::fprintf(out, "  %-22s %s (default %s%s)\n", option.c_str(), s.help,
                 value_text(m).c_str(), range.c_str());
  };
  visit_settings(print);
}

}  // namespace pf::exp::settings
