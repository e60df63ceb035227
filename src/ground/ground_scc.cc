#include "ground/ground_scc.h"

#include <algorithm>

namespace tiebreak {

SccResult ComputeGroundScc(const GroundGraph& graph) {
  TIEBREAK_CHECK(graph.finalized());
  return ComputeSccOver(GroundAdjacency{&graph});
}

SccSchedule BuildSccSchedule(const GroundGraph& graph) {
  SccSchedule schedule;
  schedule.scc = ComputeGroundScc(graph);
  const SccResult& scc = schedule.scc;
  schedule.wave.assign(scc.num_components, 0);
  if (scc.num_components == 0) {
    schedule.wave_offset.assign(1, 0);
    return schedule;
  }

  // Longest-path leveling in one pass: component ids descending is a
  // topological order (cross edges go from larger to smaller ids), so by
  // the time a component is processed every edge *into* it has been
  // relaxed and its wave is final; relaxing its out-edges then finalizes
  // successors-to-be. Cross edges only — internal edges stay inside one
  // wave by definition.
  int32_t num_waves = 1;
  const GroundAdjacency adj{&graph};
  for (int32_t comp = scc.num_components - 1; comp >= 0; --comp) {
    const int32_t next_wave = schedule.wave[comp] + 1;
    for (int32_t node : scc.Members(comp)) {
      GroundAdjacency::Cursor cursor = adj.FirstEdge(node);
      int32_t w;
      while ((w = adj.NextNeighbor(node, cursor)) >= 0) {
        const int32_t to_comp = scc.component[w];
        if (to_comp == comp) continue;
        if (schedule.wave[to_comp] < next_wave) {
          schedule.wave[to_comp] = next_wave;
          num_waves = std::max(num_waves, next_wave + 1);
        }
      }
    }
  }

  // Bucket components by wave, descending id within each wave (the serial
  // reference order; see header).
  schedule.wave_offset.assign(num_waves + 1, 0);
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    ++schedule.wave_offset[schedule.wave[comp] + 1];
  }
  for (int32_t w = 0; w < num_waves; ++w) {
    schedule.wave_offset[w + 1] += schedule.wave_offset[w];
  }
  schedule.order.resize(scc.num_components);
  std::vector<int32_t> cursor(schedule.wave_offset.begin(),
                              schedule.wave_offset.end() - 1);
  for (int32_t comp = scc.num_components - 1; comp >= 0; --comp) {
    schedule.order[cursor[schedule.wave[comp]]++] = comp;
  }
  return schedule;
}

}  // namespace tiebreak
