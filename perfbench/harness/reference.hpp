// Quality references for the solve workloads. They are computed outside
// every timed region: the proven MKP optimum from exact::solve_mkp_bnb,
// and for QKP the heuristics::greedy_qkp profit (exact QKP at n = 100 is
// out of reach, so that reference is labelled a heuristic).
#pragma once

#include <string>

#include "problems/mkp.hpp"
#include "problems/qkp.hpp"

namespace perfbench {

struct Reference {
  double profit = 0.0;
  std::string kind;  ///< "optimum" or "heuristic"
  bool proven = false;
};

/// Branch-and-bound optimum, searched anew on every run (0.2-3 s per
/// instance at n = 100, outside every timed region).
Reference mkp_reference(const saim::problems::MkpInstance& instance);

/// Greedy profit (a lower bound on the optimum).
Reference qkp_reference(const saim::problems::QkpInstance& instance);

/// Checks the reference path against exact::exhaustive_minimize on small
/// instances (a 16-item MKP: B&B must match the enumerated optimum; a
/// 16-item QKP: greedy must be feasible and no better than it). Returns
/// an empty string on success, else what disagreed.
std::string reference_selftest();

}  // namespace perfbench
