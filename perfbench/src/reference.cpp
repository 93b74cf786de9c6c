#include "reference.hpp"

#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

ndet::DetectionDb build_single_thread(const ndet::Circuit& circuit) {
  ndet::DetectionDbOptions options;
  options.num_threads = 1;
  return ndet::DetectionDb::build(circuit, options);
}

}  // namespace

DirectCircuit::DirectCircuit(const ndet::Circuit& circuit)
    : circuit_(circuit),
      db_(build_single_thread(circuit)),
      worst_(ndet::analyze_worst_case(db_, ndet::AnalysisOptions{1})) {}

std::vector<std::size_t> DirectCircuit::monitored(int nmax) const {
  return worst_.indices_at_least(static_cast<std::uint64_t>(nmax) + 1);
}

std::string DirectCircuit::average_json(ndet::Procedure1Config config) const {
  config.num_threads = 1;
  config.batch_width = 0;  // the default grouping, whatever the timed path used
  return ndet::to_json(ndet::run_procedure1(db_, monitored(config.nmax), config));
}

std::string DirectCircuit::partition_json(
    const ndet::PartitionOptions& options) const {
  const ndet::ThreadPool pool(1);
  return cones_json(ndet::partitioned_worst_case(circuit_, options, pool));
}

std::string cones_json(const std::vector<ndet::ConeReport>& cones) {
  ndet::JsonWriter w;
  w.begin_array();
  for (const ndet::ConeReport& cone : cones) w.raw(ndet::to_json(cone));
  w.end_array();
  return w.str();
}

}  // namespace perfbench
