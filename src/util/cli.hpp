// Minimal command-line parsing for the pf_* apps: one optional leading
// subcommand, positional operands (bare tokens, e.g. the suite file of
// `pf_sim suite <file>`), and --key value / --key flags. Typed accessors
// throw CliError with a user-facing message (a value option given bare
// too); queried keys are tracked so the apps can refuse options that were
// never read.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace pf::util {

class CliError : public std::runtime_error {
 public:
  explicit CliError(const std::string& what) : std::runtime_error(what) {}
};

class CliArgs {
 public:
  static CliArgs parse(int argc, char** argv) {
    CliArgs args;
    int i = 1;
    if (i < argc && argv[i][0] != '-') {
      args.command_ = argv[i];
      ++i;
    }
    for (; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0 || token.size() <= 2) {
        args.positionals_.push_back(std::move(token));
        continue;
      }
      const std::string key = token.substr(2);
      if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
        args.values_[key] = argv[++i];
      } else {
        args.values_[key] = "";  // boolean flag
      }
    }
    return args;
  }

  const std::string& command() const { return command_; }

  /// Bare operands after the subcommand, in order (option values are
  /// consumed by their --key and never land here).
  const std::vector<std::string>& positionals() const { return positionals_; }

  /// The single required operand of a subcommand, by position.
  std::string positional(std::size_t index, const std::string& what) const {
    if (index >= positionals_.size()) {
      throw CliError("missing " + what + " operand");
    }
    used_positionals_ = std::max(used_positionals_, index + 1);
    return positionals_[index];
  }

  /// Operands beyond what the app consumed via positional() — stray
  /// arguments, usually (a forgotten --key in front of a value). Apps
  /// that take no operands get all of them back here.
  std::vector<std::string> unused_positionals() const {
    return {positionals_.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min(used_positionals_, positionals_.size())),
            positionals_.end()};
  }

  bool has(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return false;
    used_.insert(key);
    return true;
  }

  /// A flag given with no value, such as `--progress` before another
  /// option or at the end of the line.
  bool bare(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() && it->second.empty();
  }

  std::string str(const std::string& key) const {
    const std::string* value = value_of(key);
    if (value == nullptr) throw CliError("missing required option --" + key);
    return *value;
  }

  std::string str_or(const std::string& key, const std::string& fallback) const {
    const std::string* value = value_of(key);
    return value == nullptr ? fallback : *value;
  }

  std::int64_t integer(const std::string& key) const {
    return to_integer(key, str(key));
  }

  std::int64_t integer_or(const std::string& key, std::int64_t fallback) const {
    const std::string* value = value_of(key);
    return value == nullptr ? fallback : to_integer(key, *value);
  }

  /// integer_or / integer checked to lie in [lo, hi] before it is
  /// narrowed to T (int or std::int64_t); throws CliError naming --key and
  /// the range, so an out-of-range value never wraps into a valid one.
  template <class T>
  T integer_in(const std::string& key, T fallback, T lo, T hi) const {
    return in_range(key, integer_or(key, fallback), lo, hi);
  }
  template <class T>
  T integer_in(const std::string& key, T lo, T hi) const {
    return in_range(key, integer(key), lo, hi);
  }

  double real(const std::string& key) const { return to_real(key, str(key)); }

  double real_or(const std::string& key, double fallback) const {
    const std::string* value = value_of(key);
    return value == nullptr ? fallback : to_real(key, *value);
  }

  /// Keys that were provided but never queried — typos, usually.
  std::vector<std::string> unused_keys() const {
    std::vector<std::string> keys;
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) keys.push_back(key);
    }
    return keys;
  }

 private:
  /// The value of --key, or nullptr when it was not given. A value
  /// option given bare is a bad invocation, not an unknown option.
  const std::string* value_of(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return nullptr;
    if (it->second.empty()) {
      throw CliError("option --" + key + " needs a value");
    }
    used_.insert(key);
    return &it->second;
  }

  static bool looks_like_flag(const std::string& token) {
    if (token.rfind("--", 0) != 0) return false;
    // "--2" is a (negative-free) value, "--foo" is a flag.
    return token.size() > 2 && !std::isdigit(static_cast<unsigned char>(token[2]));
  }

  static std::int64_t to_integer(const std::string& key, const std::string& s) {
    try {
      std::size_t pos = 0;
      const std::int64_t value = std::stoll(s, &pos);
      if (pos != s.size()) throw std::invalid_argument(s);
      return value;
    } catch (const std::exception&) {
      throw CliError("option --" + key + " expects an integer, got '" + s + "'");
    }
  }

  template <class T>
  static T in_range(const std::string& key, std::int64_t value, T lo, T hi) {
    if (value < lo || value > hi) {
      throw CliError("option --" + key + " = " + std::to_string(value) +
                     " out of range [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
    }
    return static_cast<T>(value);
  }

  static double to_real(const std::string& key, const std::string& s) {
    try {
      std::size_t pos = 0;
      const double value = std::stod(s, &pos);
      if (pos != s.size()) throw std::invalid_argument(s);
      return value;
    } catch (const std::exception&) {
      throw CliError("option --" + key + " expects a number, got '" + s + "'");
    }
  }

  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
  mutable std::size_t used_positionals_ = 0;
};

/// `count` evenly spaced loads from lo to hi inclusive (count 1 yields
/// just lo): the one load grid behind `--loads` and a suite's
/// {lo, hi, count}.
std::vector<double> load_steps(double lo, double hi, int count);

/// Parses "lo:hi:count" into load_steps(lo, hi, count). Each field must
/// be a number consumed whole, and count an integer in [1, INT_MAX].
std::vector<double> parse_range(const std::string& spec);

}  // namespace pf::util
