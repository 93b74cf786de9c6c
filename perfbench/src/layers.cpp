#include "bench.hpp"
#include "core/detection_db.hpp"

namespace perfbench {

void WorkCounts::add_db(const ndet::DetectionDb& db) {
  const double faults =
      static_cast<double>(db.targets().size() + db.enumerated_untargeted());
  faults_simulated += faults;
  fault_vectors += faults * static_cast<double>(db.vector_count());
  pairs += static_cast<double>(db.untargeted().size()) *
           static_cast<double>(db.detectable_target_count());
  db_set_bytes += static_cast<double>(db.set_memory_bytes());
}

void set_layer_metrics(Result& result, const std::map<std::string, double>& self,
                       const WorkCounts& counts) {
  auto seconds = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  auto per_unit_ns = [&](const char* span, double units) {
    return units > 0 ? seconds(span) * 1e9 / units : 0.0;
  };
  result.set("sim.db_build_s", seconds("sim.db_build"), "s");
  result.set("core.worst_case_s", seconds("core.worst_case"), "s");
  result.set("core.procedure1_def1_s", seconds("core.procedure1_def1"), "s");
  result.set("core.procedure1_def2_s", seconds("core.procedure1_def2"), "s");
  result.set("core.partition_s", seconds("core.partition"), "s");
  result.set("session.self_s", seconds("session"), "s");
  result.set("sim.ns_per_fault_vector", per_unit_ns("sim.db_build", counts.fault_vectors),
             "ns");
  result.set("core.ns_per_pair", per_unit_ns("core.worst_case", counts.pairs), "ns");
  result.set("core.ns_per_test", per_unit_ns("core.procedure1_def1", counts.tests_def1), "ns");
  result.set("sim.def2_ns_per_query",
             per_unit_ns("core.procedure1_def2", counts.def2_queries), "ns");
  result.set("sim.def2_verdict_hit_ratio",
             counts.def2_verdict_lookups > 0
                 ? counts.def2_verdict_hits / counts.def2_verdict_lookups
                 : 0.0,
             "share");
  result.set("core.partition_cones", counts.cones, "count");
  result.set("count.faults_simulated", counts.faults_simulated, "count");
  result.set("count.pairs", counts.pairs, "count");
  result.set("count.tests_added", counts.tests_def1 + counts.tests_def2, "count");
  result.set("count.def2_queries", counts.def2_queries, "count");
  result.set("count.db_set_bytes", counts.db_set_bytes, "count");
}

}  // namespace perfbench
