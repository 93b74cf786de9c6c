#include "sim/batch_fault_sim.hpp"

#include <algorithm>

#include "logic/eval.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

BatchFaultSimulator::BatchFaultSimulator(const ExhaustiveSimulator& good,
                                         const LineModel& lines,
                                         BatchFaultSimOptions options)
    : good_(&good), lines_(&lines), graph_(good.circuit()), cones_(graph_) {
  require(&good.circuit() == &lines.circuit(),
          "BatchFaultSimulator: simulator and line model refer to different "
          "circuits");
  num_threads_ = resolve_thread_count(options.num_threads);
  const Circuit& circuit = good.circuit();
  for (GateId g = 0; g < circuit.gate_count(); ++g)
    max_fanin_ = std::max(max_fanin_, circuit.gate(g).fanins.size());
}

BatchFaultSimulator::BatchFaultSimulator(const ExhaustiveSimulator& good,
                                         const LineModel& lines,
                                         const ThreadPool& pool)
    : BatchFaultSimulator(good, lines,
                          BatchFaultSimOptions{pool.thread_count()}) {
  shared_pool_ = &pool;
}

std::span<const GateId> BatchFaultSimulator::cone_gates(GateId root) const {
  return cones_.cone_gates(root);
}

std::span<const GateId> BatchFaultSimulator::cone_outputs(GateId root) const {
  return cones_.cone_outputs(root);
}

BatchFaultSimulator::Scratch BatchFaultSimulator::make_scratch() const {
  Scratch scratch;
  const std::size_t gate_count = good_->circuit().gate_count();
  scratch.faulty.assign(gate_count, 0);
  scratch.fanins.assign(std::max<std::size_t>(max_fanin_, 1), 0);
  scratch.changed.assign(gate_count, 0);
  scratch.obs.assign(good_->word_count(), 0);
  return scratch;
}

BatchFaultSimulator::Activation BatchFaultSimulator::activation(
    const StuckAtFault& fault) const {
  // The line differs from its fault-free value where good(driver) != c.
  return {lines_->line(fault.line).driver, !fault.stuck_value};
}

void BatchFaultSimulator::observe(LineId site, Scratch& scratch,
                                  std::uint64_t* const obs) const {
  const Circuit& circuit = good_->circuit();
  const Line& line = lines_->line(site);
  const bool branch = line.kind == LineKind::kBranch;
  const GateId root = branch ? line.sink : line.driver;
  const std::span<const GateId> cone = cone_gates(root);
  const std::span<const GateId> outputs = cone_outputs(root);
  const std::size_t word_count = good_->word_count();
  std::fill(obs, obs + word_count, 0);
  if (outputs.empty()) return;  // the site reaches no output

  std::uint64_t* const faulty = scratch.faulty.data();
  std::uint64_t* const fanin_words = scratch.fanins.data();
  std::uint8_t* const changed = scratch.changed.data();
  const Gate& root_gate = circuit.gate(root);

  for (std::size_t w = 0; w < word_count; ++w) {
    // Flip the site.  A stem flips its driver's output on every vector; a
    // branch flips one fanin slot of its sink, which the sink may absorb.
    std::uint64_t root_value;
    if (!branch) {
      root_value = ~good_->good_word(root, w);
    } else {
      const std::size_t fanin_count = root_gate.fanins.size();
      for (std::size_t s = 0; s < fanin_count; ++s)
        fanin_words[s] = good_->good_word(root_gate.fanins[s], w);
      fanin_words[line.sink_slot] = ~fanin_words[line.sink_slot];
      root_value =
          eval_gate_words(root_gate.type, {fanin_words, fanin_count});
      if (root_value == good_->good_word(root, w)) continue;
    }
    faulty[root] = root_value;
    changed[root] = 1;

    // Event-driven sweep over the rest of the cone: a gate whose fanins all
    // kept their fault-free values would reproduce its fault-free output,
    // so only gates downstream of an actual change are re-evaluated.
    for (const GateId g : cone.subspan(1)) {
      const Gate& gate = circuit.gate(g);
      const std::size_t fanin_count = gate.fanins.size();
      bool active = false;
      for (std::size_t s = 0; s < fanin_count; ++s) {
        if (changed[gate.fanins[s]]) {
          active = true;
          break;
        }
      }
      if (!active) {
        changed[g] = 0;
        continue;
      }
      for (std::size_t s = 0; s < fanin_count; ++s) {
        const GateId fi = gate.fanins[s];
        fanin_words[s] = changed[fi] ? faulty[fi] : good_->good_word(fi, w);
      }
      const std::uint64_t value =
          eval_gate_words(gate.type, {fanin_words, fanin_count});
      faulty[g] = value;
      changed[g] = value != good_->good_word(g, w) ? 1 : 0;
    }
    std::uint64_t diff = 0;
    for (const GateId po : outputs)
      if (changed[po]) diff |= good_->good_word(po, w) ^ faulty[po];
    obs[w] = diff;
  }
  obs[word_count - 1] &= good_->last_word_mask();
  // Restore the invariant: no stale change flags outside the next cone.
  for (const GateId g : cone) changed[g] = 0;
}

void BatchFaultSimulator::mask_into(const Activation& act,
                                    std::span<const std::uint64_t> obs,
                                    Bitset& set) const {
  std::uint64_t* const out = set.words();
  // [good(g) == value] is good(g) when value = 1 and ~good(g) when 0.
  const std::span<const std::uint64_t> a = good_->good_words(act.gate);
  const std::uint64_t flip = act.value ? 0 : ~std::uint64_t{0};
  for (std::size_t w = 0; w < obs.size(); ++w) out[w] = obs[w] & (a[w] ^ flip);
}

void BatchFaultSimulator::for_each_site(
    std::size_t sites, const std::function<void(std::size_t, Scratch&)>& body,
    const CancelToken* cancel) const {
  const ThreadPool local(num_threads_);
  const ThreadPool& pool = shared_pool_ ? *shared_pool_ : local;
  // One scratch arena per worker, reused across all its sites: workers
  // allocate nothing.
  std::vector<Scratch> scratch(pool.workers_for(sites));
  for (Scratch& s : scratch) s = make_scratch();
  pool.for_each_index(
      sites, [&](std::size_t k, unsigned worker) { body(k, scratch[worker]); },
      cancel);
  // Workers drained without throwing; surface the cancellation here, where
  // the stage is known.
  check_cancel(cancel, "fault_sim");
}

std::vector<Bitset> BatchFaultSimulator::detection_sets(
    std::span<const StuckAtFault> faults, const CancelToken* cancel) const {
  check_cancel(cancel, "fault_sim");
  // Every result is allocated here, on the calling thread, which also frees
  // them: workers only fill words, so no set crosses allocator arenas.
  const std::size_t count = faults.size();
  std::vector<Bitset> sets(count, Bitset(good_->vector_count()));
  if (count == 0) return sets;

  // Group the faults by site (a counting sort over line ids): begin[s] ..
  // begin[s + 1] indexes the faults on site s inside `order`.
  std::vector<std::uint32_t> begin(lines_->line_count() + 1, 0);
  for (const StuckAtFault& fault : faults) ++begin[fault.line + 1];
  std::vector<LineId> sites;
  for (LineId s = 0; s < lines_->line_count(); ++s) {
    if (begin[s + 1] != 0) sites.push_back(s);
    begin[s + 1] += begin[s];
  }
  std::vector<std::uint32_t> order(count);
  {
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < count; ++i)
      order[next[faults[i].line]++] = static_cast<std::uint32_t>(i);
  }

  for_each_site(
      sites.size(),
      [&](std::size_t k, Scratch& arena) {
        const LineId site = sites[k];
        observe(site, arena, arena.obs.data());
        for (std::uint32_t j = begin[site]; j < begin[site + 1]; ++j)
          mask_into(activation(faults[order[j]]), arena.obs, sets[order[j]]);
      },
      cancel);
  return sets;
}

Bitset BatchFaultSimulator::detection_set(const StuckAtFault& fault) const {
  Scratch scratch = make_scratch();
  observe(fault.line, scratch, scratch.obs.data());
  Bitset set(good_->vector_count());
  mask_into(activation(fault), scratch.obs, set);
  return set;
}

std::vector<Bitset::word_type> BatchFaultSimulator::observability(
    std::span<const LineId> sites, const CancelToken* cancel) const {
  check_cancel(cancel, "fault_sim");
  const std::size_t words = good_->word_count();
  std::vector<Bitset::word_type> rows(sites.size() * words);
  for (const LineId site : sites)
    require(site < lines_->line_count(),
            "BatchFaultSimulator::observability: site out of range");
  for_each_site(
      sites.size(),
      [&](std::size_t k, Scratch& arena) {
        observe(sites[k], arena, rows.data() + k * words);
      },
      cancel);
  return rows;
}

}  // namespace ndet
