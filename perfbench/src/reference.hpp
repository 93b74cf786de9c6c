// reference.hpp -- the single-thread direct path every output is checked
// against.
//
// It calls the pipeline's free functions (DetectionDb::build,
// analyze_worst_case, run_procedure1, partitioned_worst_case) on one
// thread, never through AnalysisSession, its memo or its shared pool, so
// it does not share the timed path.  Every stage is a deterministic
// function of its inputs at every thread count, so its JSON must equal the
// timed path's byte for byte.

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/detection_db.hpp"
#include "core/partition.hpp"
#include "core/procedure1.hpp"
#include "core/worst_case.hpp"
#include "netlist/circuit.hpp"

namespace perfbench {

class DirectCircuit {
 public:
  explicit DirectCircuit(const ndet::Circuit& circuit);

  const ndet::DetectionDb& db() const { return db_; }
  const ndet::WorstCaseResult& worst_case() const { return worst_; }
  /// Untargeted faults with nmin(g) > nmax.
  std::vector<std::size_t> monitored(int nmax) const;
  /// to_json of Procedure 1 over monitored(config.nmax), on one thread.
  std::string average_json(ndet::Procedure1Config config) const;
  /// The partition result as ndetd serializes it: a JSON array of cones.
  std::string partition_json(const ndet::PartitionOptions& options) const;

 private:
  ndet::Circuit circuit_;
  ndet::DetectionDb db_;
  ndet::WorstCaseResult worst_;
};

/// JSON array of cone reports, the format of ndetd's partition result.
std::string cones_json(const std::vector<ndet::ConeReport>& cones);

}  // namespace perfbench
