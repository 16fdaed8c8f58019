// Bench-local conveniences for the analytic figure/table benches: the
// reduced/full scale switch and the Tab. V configuration set. The
// sweep-driven figures and ablations are entries of
// suites/paper_figs.json, run with `pf_sim suite`.
//
// Set PF_BENCH_FULL=1 to run the paper-scale configurations.
#pragma once

#include <cstdlib>
#include <vector>

#include "exp/scenario.hpp"

namespace pf::bench {

inline bool full_scale() {
  const char* env = std::getenv("PF_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// The Tab. V configuration set (or its reduced-scale twin).
inline std::vector<exp::NetSetup> make_table5_setups() {
  return exp::make_table5_setups(full_scale());
}

}  // namespace pf::bench
