#include "ground/ground_scc.h"

#include <algorithm>

namespace tiebreak {

SccResult ComputeGroundScc(const GroundGraph& graph,
                           const GroundLiveness& live) {
  TIEBREAK_CHECK(graph.finalized());
  return ComputeSccOver(GroundAdjacency{&graph, live});
}

namespace {

// Enumerates the live edges of the (restricted) ground graph once:
// fn(from_node, to_node) per edge, rule nodes offset by num_atoms. Same
// edge multiset as the materialized live graph (duplicate body occurrences
// included), which keeps external_in_degree counts identical.
template <typename Fn>
void ForEachLiveEdge(const GroundGraph& graph, const GroundLiveness& live,
                     Fn&& fn) {
  const int32_t num_atoms = graph.num_atoms();
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    if (!live.RuleAlive(r)) continue;
    const int32_t rule_node = num_atoms + r;
    for (AtomId a : graph.PositiveBody(r)) {
      if (live.AtomLive(a)) fn(a, rule_node);
    }
    for (AtomId a : graph.NegativeBody(r)) {
      if (live.AtomLive(a)) fn(a, rule_node);
    }
    const AtomId head = graph.HeadOf(r);
    if (live.AtomLive(head)) fn(rule_node, head);
  }
}

}  // namespace

Condensation CondenseGroundScc(const GroundGraph& graph, const SccResult& scc,
                               const GroundLiveness& live) {
  Condensation cond;
  cond.external_in_degree.assign(scc.num_components, 0);
  cond.has_internal_edge.assign(scc.num_components, 0);
  ForEachLiveEdge(graph, live, [&](int32_t from, int32_t to) {
    const int32_t from_comp = scc.component[from];
    const int32_t to_comp = scc.component[to];
    if (from_comp == to_comp) {
      cond.has_internal_edge[to_comp] = 1;
    } else {
      ++cond.external_in_degree[to_comp];
    }
  });
  return cond;
}

SccSchedule BuildSccSchedule(const GroundGraph& graph,
                             const GroundLiveness& live) {
  SccSchedule schedule;
  schedule.scc = ComputeGroundScc(graph, live);
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
  const GroundAdjacency adj{&graph, live};
  for (int32_t comp = scc.num_components - 1; comp >= 0; --comp) {
    const int32_t next_wave = schedule.wave[comp] + 1;
    for (int32_t node : scc.Members(comp)) {
      GroundAdjacency::Cursor cursor = adj.FirstEdge(node);
      bool negative = false;
      int32_t w;
      while ((w = adj.NextNeighbor(node, cursor, &negative)) >= 0) {
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

bool CheckGroundTie(const GroundGraph& graph, const SccResult& scc,
                    int32_t comp) {
  // Dead nodes carry component -1, so a same-component test also filters
  // liveness.
  const int32_t num_atoms = graph.num_atoms();
  const std::vector<int32_t>& component = scc.component;
  const std::vector<char>& parity = scc.parity;
  for (int32_t v : scc.Members(comp)) {
    if (v < num_atoms) {
      for (int32_t r : graph.PositiveConsumers(v)) {
        const int32_t w = num_atoms + r;
        if (component[w] == comp && parity[w] != parity[v]) return false;
      }
      for (int32_t r : graph.NegativeConsumers(v)) {
        const int32_t w = num_atoms + r;
        if (component[w] == comp && parity[w] == parity[v]) return false;
      }
    } else {
      const AtomId head = graph.HeadOf(v - num_atoms);
      if (component[head] == comp && parity[head] != parity[v]) return false;
    }
  }
  return true;
}

}  // namespace tiebreak
