#include "ground/ground_graph.h"

#include "util/thread_pool.h"

namespace tiebreak {

uint64_t GroundAtomStore::KeyOf(const ConstId* args, int32_t arity) {
  // Arity ≤ 2 packs exactly (ConstIds are nonnegative 31-bit values).
  // Cross-arity key collisions inside one predicate's table are handled by
  // the arity compare in AtomEquals / the find loops.
  if (arity == 0) return 0x9E3779B97F4A7C15ULL;
  if (arity == 1) return static_cast<uint64_t>(args[0]);
  if (arity == 2) {
    return static_cast<uint64_t>(args[0]) << 31 |
           static_cast<uint64_t>(args[1]);
  }
  // FNV-1a over the constants.
  uint64_t h = 1469598103934665603ULL;
  for (int32_t i = 0; i < arity; ++i) {
    h ^= static_cast<uint64_t>(args[i]) + 0x9E3779B9ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

void GroundAtomStore::Rehash(PredTable* table, size_t capacity) const {
  std::vector<Slot> old = std::move(table->slots);
  table->slots.assign(capacity, Slot{});
  table->used = 0;
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.atom < 0) continue;
    // Only a predicate with a dense table reads the atom's arguments: a
    // plain hash-table growth touches the slots alone.
    if (!table->dense.empty()) {
      const ConstId* args = args_.data() + offset_[slot.atom];
      if (InDenseRange(*table, args, ArityOf(slot.atom))) {
        table->dense[args[0]] = slot.atom;
        continue;
      }
    }
    size_t at = MixSlot(slot.key) & mask;
    while (table->slots[at].atom >= 0) at = (at + 1) & mask;
    table->slots[at] = slot;
    ++table->used;
  }
}

AtomId GroundAtomStore::Intern(PredId predicate, const ConstId* args,
                               int32_t arity) {
  return InternHashed(predicate, args, arity, KeyOf(args, arity));
}

AtomId GroundAtomStore::InternHashed(PredId predicate, const ConstId* args,
                                     int32_t arity, uint64_t key) {
  TIEBREAK_CHECK_GE(predicate, 0);
  if (predicate >= static_cast<PredId>(tables_.size())) {
    tables_.resize(predicate + 1);
  }
  PredTable& table = tables_[predicate];
  if (InDenseRange(table, args, arity)) {
    AtomId& entry = table.dense[args[0]];
    if (entry < 0) entry = Append(predicate, args, arity);
    return entry;
  }
  if (table.used * 2 >= static_cast<int32_t>(table.slots.size())) {
    Rehash(&table, table.slots.empty() ? 16 : table.slots.size() * 2);
  }
  const bool exact = ExactKeys(arity);
  const size_t mask = table.slots.size() - 1;
  size_t at = MixSlot(key) & mask;
  while (true) {
    Slot& slot = table.slots[at];
    if (slot.atom < 0) {
      slot.key = key;
      slot.atom = Append(predicate, args, arity);
      ++table.used;
      return slot.atom;
    }
    if (slot.key == key &&
        (exact ? ArityOf(slot.atom) == arity
               : AtomEquals(slot.atom, args, arity))) {
      return slot.atom;
    }
    at = (at + 1) & mask;
  }
}

AtomId GroundAtomStore::Lookup(PredId predicate, const ConstId* args,
                               int32_t arity) const {
  TIEBREAK_CHECK_GE(predicate, 0);
  if (predicate >= static_cast<PredId>(tables_.size())) return -1;
  const PredTable& table = tables_[predicate];
  if (InDenseRange(table, args, arity)) return table.dense[args[0]];
  if (table.slots.empty()) return -1;
  const uint64_t key = KeyOf(args, arity);
  const bool exact = ExactKeys(arity);
  const size_t mask = table.slots.size() - 1;
  size_t at = MixSlot(key) & mask;
  while (true) {
    const Slot& slot = table.slots[at];
    if (slot.atom < 0) return -1;
    if (slot.key == key &&
        (exact ? ArityOf(slot.atom) == arity
               : AtomEquals(slot.atom, args, arity))) {
      return slot.atom;
    }
    at = (at + 1) & mask;
  }
}

void GroundAtomStore::BuildPredicateIndex() {
  const int32_t atoms = size();
  PredId max_pred = -1;
  for (const PredId p : pred_) max_pred = p > max_pred ? p : max_pred;
  by_pred_offset_.assign(static_cast<size_t>(max_pred + 1) + 1, 0);
  for (const PredId p : pred_) ++by_pred_offset_[p + 1];
  for (size_t p = 1; p < by_pred_offset_.size(); ++p) {
    by_pred_offset_[p] += by_pred_offset_[p - 1];
  }
  by_pred_atoms_.resize(static_cast<size_t>(atoms));
  // Scatter with the offsets as cursors, then shift back (the same
  // no-temporary trick as GroundGraph::Finalize).
  for (AtomId a = 0; a < atoms; ++a) {
    by_pred_atoms_[by_pred_offset_[pred_[a]]++] = a;
  }
  for (size_t p = by_pred_offset_.size() - 1; p > 0; --p) {
    by_pred_offset_[p] = by_pred_offset_[p - 1];
  }
  by_pred_offset_[0] = 0;
  by_pred_atom_count_ = atoms;
}

void GroundAtomStore::Reserve(int64_t num_atoms, int64_t num_args) {
  pred_.reserve(static_cast<size_t>(num_atoms));
  offset_.reserve(static_cast<size_t>(num_atoms) + 1);
  args_.reserve(static_cast<size_t>(num_args));
}

void GroundAtomStore::ReserveDense(PredId predicate, int32_t range) {
  TIEBREAK_CHECK_GE(predicate, 0);
  if (predicate >= static_cast<PredId>(tables_.size())) {
    tables_.resize(predicate + 1);
  }
  PredTable& table = tables_[predicate];
  if (range <= static_cast<int32_t>(table.dense.size())) return;
  table.dense.resize(static_cast<size_t>(range), -1);
  // Unary atoms the hash table holds that now fall inside the range move
  // to the dense table; the rest are re-placed at the same capacity.
  if (table.used > 0) Rehash(&table, table.slots.size());
}

Result<GroundAtomStore> GroundAtomStore::FromArenas(Span<PredId> preds,
                                                    Span<int64_t> offsets,
                                                    Span<ConstId> args,
                                                    int32_t num_predicates,
                                                    int32_t num_constants) {
  const size_t atoms = preds.size();
  if (atoms > static_cast<size_t>(INT32_MAX)) {
    return Status::DataLoss("atom count overflows int32");
  }
  if (offsets.size() != atoms + 1) {
    return Status::DataLoss("atom offset array has " +
                            std::to_string(offsets.size()) +
                            " entries, expected " + std::to_string(atoms + 1));
  }
  if (offsets[0] != 0) {
    return Status::DataLoss("atom offsets do not start at 0");
  }
  for (size_t a = 0; a < atoms; ++a) {
    if (offsets[a + 1] < offsets[a]) {
      return Status::DataLoss("atom offsets not monotone at atom " +
                              std::to_string(a));
    }
  }
  if (offsets[atoms] != static_cast<int64_t>(args.size())) {
    return Status::DataLoss("atom offsets end at " +
                            std::to_string(offsets[atoms]) +
                            ", argument arena holds " +
                            std::to_string(args.size()));
  }
  for (size_t a = 0; a < atoms; ++a) {
    if (preds[a] < 0 || preds[a] >= num_predicates) {
      return Status::DataLoss("atom " + std::to_string(a) + ": predicate " +
                              std::to_string(preds[a]) + " outside [0, " +
                              std::to_string(num_predicates) + ")");
    }
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] < 0 || args[i] >= num_constants) {
      return Status::DataLoss("atom argument " + std::to_string(i) + ": " +
                              std::to_string(args[i]) + " outside [0, " +
                              std::to_string(num_constants) + ")");
    }
  }
  // Re-intern in id order: rebuilds the arenas and dedupe tables exactly
  // as the original interning sequence did (ids are assigned densely in
  // call order). An intern that returns an id below its position names an
  // atom the file stored twice — corrupt, since interning dedupes.
  GroundAtomStore store;
  store.Reserve(static_cast<int64_t>(atoms),
                static_cast<int64_t>(args.size()));
  for (size_t a = 0; a < atoms; ++a) {
    const int32_t arity = static_cast<int32_t>(offsets[a + 1] - offsets[a]);
    const AtomId id =
        store.Intern(preds[a], args.data() + offsets[a], arity);
    if (id != static_cast<AtomId>(a)) {
      return Status::DataLoss("duplicate interned atom at id " +
                              std::to_string(a));
    }
  }
  return store;
}

Result<GroundGraph> GroundGraph::FromArenas(GroundAtomStore atoms,
                                            Span<int32_t> rule_indices,
                                            Span<AtomId> heads,
                                            Span<int64_t> pos_ends,
                                            Span<int64_t> body_offsets,
                                            Span<AtomId> body,
                                            Span<int64_t> binding_offsets,
                                            Span<ConstId> bindings,
                                            int32_t num_constants,
                                            int32_t num_program_rules) {
  const size_t rules = rule_indices.size();
  if (rules > static_cast<size_t>(INT32_MAX)) {
    return Status::DataLoss("rule count overflows int32");
  }
  if (heads.size() != rules || pos_ends.size() != rules) {
    return Status::DataLoss("per-rule arrays disagree on rule count");
  }
  if (body_offsets.size() != rules + 1 ||
      binding_offsets.size() != rules + 1) {
    return Status::DataLoss("rule offset arrays disagree on rule count");
  }
  if (body_offsets[0] != 0 || binding_offsets[0] != 0) {
    return Status::DataLoss("rule offsets do not start at 0");
  }
  if (body_offsets[rules] != static_cast<int64_t>(body.size())) {
    return Status::DataLoss("body offsets end at " +
                            std::to_string(body_offsets[rules]) +
                            ", body arena holds " +
                            std::to_string(body.size()));
  }
  if (binding_offsets[rules] != static_cast<int64_t>(bindings.size())) {
    return Status::DataLoss("binding offsets end at " +
                            std::to_string(binding_offsets[rules]) +
                            ", binding arena holds " +
                            std::to_string(bindings.size()));
  }
  const int32_t num_atoms = atoms.size();
  for (size_t r = 0; r < rules; ++r) {
    const std::string where = "rule instance " + std::to_string(r);
    if (body_offsets[r + 1] < body_offsets[r] ||
        binding_offsets[r + 1] < binding_offsets[r]) {
      return Status::DataLoss(where + ": offsets not monotone");
    }
    if (pos_ends[r] < body_offsets[r] || pos_ends[r] > body_offsets[r + 1]) {
      return Status::DataLoss(where + ": positive split " +
                              std::to_string(pos_ends[r]) +
                              " outside body range");
    }
    if (rule_indices[r] < 0 ||
        (num_program_rules >= 0 && rule_indices[r] >= num_program_rules)) {
      return Status::DataLoss(where + ": program rule index " +
                              std::to_string(rule_indices[r]) +
                              " out of range");
    }
    if (heads[r] < 0 || heads[r] >= num_atoms) {
      return Status::DataLoss(where + ": head atom " +
                              std::to_string(heads[r]) + " outside [0, " +
                              std::to_string(num_atoms) + ")");
    }
  }
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i] < 0 || body[i] >= num_atoms) {
      return Status::DataLoss("body occurrence " + std::to_string(i) +
                              ": atom " + std::to_string(body[i]) +
                              " outside [0, " + std::to_string(num_atoms) +
                              ")");
    }
  }
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (bindings[i] < 0 || bindings[i] >= num_constants) {
      return Status::DataLoss("binding entry " + std::to_string(i) + ": " +
                              std::to_string(bindings[i]) + " outside [0, " +
                              std::to_string(num_constants) + ")");
    }
  }
  GroundGraph graph;
  graph.atoms_ = std::move(atoms);
  graph.rule_index_.assign(rule_indices.begin(), rule_indices.end());
  graph.head_.assign(heads.begin(), heads.end());
  graph.pos_end_.assign(pos_ends.begin(), pos_ends.end());
  graph.body_offset_.assign(body_offsets.begin(), body_offsets.end());
  graph.body_.assign(body.begin(), body.end());
  graph.binding_offset_.assign(binding_offsets.begin(),
                               binding_offsets.end());
  graph.binding_.assign(bindings.begin(), bindings.end());
  graph.Finalize();
  return graph;
}

void GroundGraph::AppendRule(int32_t rule_index, AtomId head,
                             const AtomId* pos, int32_t num_pos,
                             const AtomId* neg, int32_t num_neg,
                             const ConstId* binding, int32_t num_binding) {
  TIEBREAK_CHECK(!finalized_);
  rule_index_.push_back(rule_index);
  head_.push_back(head);
  if (num_pos > 0) body_.insert(body_.end(), pos, pos + num_pos);
  pos_end_.push_back(static_cast<int64_t>(body_.size()));
  if (num_neg > 0) body_.insert(body_.end(), neg, neg + num_neg);
  body_offset_.push_back(static_cast<int64_t>(body_.size()));
  if (num_binding > 0) {
    binding_.insert(binding_.end(), binding, binding + num_binding);
  }
  binding_offset_.push_back(static_cast<int64_t>(binding_.size()));
}

void GroundGraph::ReserveRules(int64_t rules, int64_t body_atoms) {
  rule_index_.reserve(static_cast<size_t>(rules));
  head_.reserve(static_cast<size_t>(rules));
  pos_end_.reserve(static_cast<size_t>(rules));
  body_offset_.reserve(static_cast<size_t>(rules) + 1);
  binding_offset_.reserve(static_cast<size_t>(rules) + 1);
  body_.reserve(static_cast<size_t>(body_atoms));
}

void GroundGraph::MergeFrom(const GroundGraph& shard) {
  TIEBREAK_CHECK(!finalized_);
  TIEBREAK_CHECK(!shard.finalized_);
  const int32_t shard_atoms = shard.atoms_.size();
  const int32_t shard_rules = shard.num_rules();
  // Remap pass: intern every shard atom into the global store. Atoms the
  // shards duplicated (or that were pre-seeded from Δ) collapse to one id.
  atoms_.Reserve(atoms_.size() + shard_atoms,
                 atoms_.num_args() + shard.atoms_.num_args());
  std::vector<AtomId> remap(static_cast<size_t>(shard_atoms));
  for (AtomId a = 0; a < shard_atoms; ++a) {
    const IdSpan args = shard.atoms_.ArgsOf(a);
    remap[a] = atoms_.Intern(shard.atoms_.PredicateOf(a), args.data(),
                             static_cast<int32_t>(args.size()));
  }
  // Append the rule arenas wholesale: atom ids go through the remap,
  // offsets shift by this graph's current arena sizes, bindings (global
  // ConstIds already) copy verbatim.
  const int64_t body_base = static_cast<int64_t>(body_.size());
  const int64_t binding_base = static_cast<int64_t>(binding_.size());
  rule_index_.insert(rule_index_.end(), shard.rule_index_.begin(),
                     shard.rule_index_.end());
  head_.reserve(head_.size() + shard.head_.size());
  for (const AtomId head : shard.head_) head_.push_back(remap[head]);
  body_.reserve(body_.size() + shard.body_.size());
  for (const AtomId atom : shard.body_) body_.push_back(remap[atom]);
  pos_end_.reserve(pos_end_.size() + shard.pos_end_.size());
  for (const int64_t end : shard.pos_end_) pos_end_.push_back(body_base + end);
  body_offset_.reserve(body_offset_.size() + shard_rules);
  binding_offset_.reserve(binding_offset_.size() + shard_rules);
  for (int32_t r = 1; r <= shard_rules; ++r) {
    body_offset_.push_back(body_base + shard.body_offset_[r]);
    binding_offset_.push_back(binding_base + shard.binding_offset_[r]);
  }
  binding_.insert(binding_.end(), shard.binding_.begin(),
                  shard.binding_.end());
}

void GroundGraph::Finalize(ThreadPool* pool) {
  TIEBREAK_CHECK(!finalized_);
  const int32_t atoms = num_atoms();
  const int32_t rules = num_rules();
  for (int32_t r = 0; r < rules; ++r) {
    TIEBREAK_CHECK_GE(head_[r], 0);
    TIEBREAK_CHECK_LT(head_[r], atoms);
  }
  // Each inverse index builds independently (count per-atom degrees,
  // prefix-sum into offsets, scatter rule ids) and touches only its own
  // offset/adjacency arrays, so the three builds run as one task each on
  // the pool when one is supplied; without a pool the serial path below
  // fuses all three into one counting pass and one scatter pass — the
  // split builds re-read the rule arenas and measure 2-5% slower on the
  // million-node serial groundings, which is why the fused copy is kept
  // despite restating the same logic. Both orders produce identical
  // indexes (tested across thread counts). The scatter
  // reuses the offset arrays themselves as cursors (each entry advances to
  // the next atom's start), then shifts them back — no temporary cursor
  // arrays the size of the atom set. Rule ids land ascending per atom
  // because rules are visited in order.
  auto build = [&](std::vector<int64_t>* offsets,
                   std::vector<int32_t>* adjacency, auto&& visit) {
    offsets->assign(atoms + 1, 0);
    for (int32_t r = 0; r < rules; ++r) {
      visit(r, [&](AtomId a) { ++(*offsets)[a + 1]; });
    }
    for (int32_t a = 0; a < atoms; ++a) {
      (*offsets)[a + 1] += (*offsets)[a];
    }
    adjacency->resize(static_cast<size_t>((*offsets)[atoms]));
    for (int32_t r = 0; r < rules; ++r) {
      visit(r, [&](AtomId a) { (*adjacency)[(*offsets)[a]++] = r; });
    }
    for (int32_t a = atoms; a > 0; --a) {
      (*offsets)[a] = (*offsets)[a - 1];
    }
    (*offsets)[0] = 0;
  };
  auto build_one = [&](int32_t which) {
    switch (which) {
      case 0:
        build(&sup_offset_, &supporters_,
              [&](int32_t r, auto&& emit) { emit(head_[r]); });
        break;
      case 1:
        build(&pos_offset_, &pos_consumers_, [&](int32_t r, auto&& emit) {
          for (int64_t i = body_offset_[r]; i < pos_end_[r]; ++i) {
            emit(body_[i]);
          }
        });
        break;
      default:
        build(&neg_offset_, &neg_consumers_, [&](int32_t r, auto&& emit) {
          for (int64_t i = pos_end_[r]; i < body_offset_[r + 1]; ++i) {
            emit(body_[i]);
          }
        });
        break;
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(3, [&](int32_t task, int32_t) { build_one(task); });
  } else {
    sup_offset_.assign(atoms + 1, 0);
    pos_offset_.assign(atoms + 1, 0);
    neg_offset_.assign(atoms + 1, 0);
    for (int32_t r = 0; r < rules; ++r) {
      ++sup_offset_[head_[r] + 1];
      for (int64_t i = body_offset_[r]; i < pos_end_[r]; ++i) {
        ++pos_offset_[body_[i] + 1];
      }
      for (int64_t i = pos_end_[r]; i < body_offset_[r + 1]; ++i) {
        ++neg_offset_[body_[i] + 1];
      }
    }
    for (int32_t a = 0; a < atoms; ++a) {
      sup_offset_[a + 1] += sup_offset_[a];
      pos_offset_[a + 1] += pos_offset_[a];
      neg_offset_[a + 1] += neg_offset_[a];
    }
    supporters_.resize(static_cast<size_t>(sup_offset_[atoms]));
    pos_consumers_.resize(static_cast<size_t>(pos_offset_[atoms]));
    neg_consumers_.resize(static_cast<size_t>(neg_offset_[atoms]));
    for (int32_t r = 0; r < rules; ++r) {
      supporters_[sup_offset_[head_[r]]++] = r;
      for (int64_t i = body_offset_[r]; i < pos_end_[r]; ++i) {
        pos_consumers_[pos_offset_[body_[i]]++] = r;
      }
      for (int64_t i = pos_end_[r]; i < body_offset_[r + 1]; ++i) {
        neg_consumers_[neg_offset_[body_[i]]++] = r;
      }
    }
    for (int32_t a = atoms; a > 0; --a) {
      sup_offset_[a] = sup_offset_[a - 1];
      pos_offset_[a] = pos_offset_[a - 1];
      neg_offset_[a] = neg_offset_[a - 1];
    }
    sup_offset_[0] = 0;
    pos_offset_[0] = 0;
    neg_offset_[0] = 0;
  }
  atoms_.BuildPredicateIndex();
  finalized_ = true;
}

std::vector<char> DeltaAtomMask(const Database& database,
                                const GroundAtomStore& atoms) {
  std::vector<char> mask(atoms.size(), 0);
  // An indexed store tells which predicates have atoms at all; reduced
  // grounding interns no EDB atom, so this skips Δ's EDB relations.
  const bool indexed = atoms.has_predicate_index();
  for (PredId p = 0; p < database.num_predicates(); ++p) {
    if (indexed && atoms.AtomsOfPredicate(p).empty()) continue;
    const int32_t arity = database.arity(p);
    const int64_t facts = database.NumFacts(p);
    const ConstId* data = database.FactData(p);
    for (int64_t row = 0; row < facts; ++row) {
      const AtomId a = atoms.Lookup(p, data + row * arity, arity);
      if (a >= 0) mask[a] = 1;
    }
  }
  return mask;
}

}  // namespace tiebreak
