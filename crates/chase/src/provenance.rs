//! Derivation graphs: stable fact identity and the provenance of every
//! chase derivation.
//!
//! When [`crate::ChaseConfig::track_provenance`] is set, the engine assigns
//! every fact a stable [`FactId`] and records one [`DerivationEdge`] per
//! retired trigger key: a **fired edge** remembers which rule fired and
//! which premise facts supported the firing, and — under the restricted
//! variant — a **witness edge** remembers the head image that satisfied a
//! trigger which therefore never fired. Witness edges look redundant but are
//! load-bearing for deletion: they are the alternative derivations the
//! restricted chase silently skipped, exactly what delete-and-rederive
//! ([`crate::chase_retract`]) must consult to decide whether a fact survives
//! the loss of one of its derivations.
//!
//! The graph is **persistent and layered** (see [`crate::layered`]): facts
//! and edges live in flat arenas inside immutable, `Arc`-shared frozen
//! layers plus one small mutable top layer, so continuing from a finished
//! chase clones the graph in O(#layers) and shares everything the base
//! recorded. A later run never writes into a frozen layer: tombstones,
//! `base` flips and re-elected supports for older facts go into the top
//! layer's overlay, and a freeze folds overlays into the layers they patch
//! whenever the size-tiered merge combines them. Every frozen layer carries
//! the two adjacency indexes maintenance needs — fact → edges using it as a
//! premise, fact → edges concluding it — and the trigger-key index of its
//! edges, which doubles as the run's retired-key set.
//!
//! Every fact records its **supporting edge** when it is first derived. The
//! edge's premises existed before the fact did, so following supports is
//! well-founded by construction and [`DerivationGraph::why`] is a pointer
//! walk down to base facts; only a retraction re-elects supports, and only
//! inside the region it overdeleted. [`explain_absent`] reports, for an
//! absent fact, which rules could produce it and which body premises block
//! them.

use crate::layered::{tuple_hash, Layer, Layered, Tuples};
use crate::trigger::TriggerKey;
use ontorew_model::prelude::*;
use ontorew_telemetry::span;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The stable identity of a fact within one derivation graph. Ids are never
/// reused: a deleted fact keeps its id as a tombstone, so edges recorded
/// before a retraction stay valid afterwards.
pub type FactId = u32;

/// The stable identity of a recorded edge. Like fact ids, edge ids are dense
/// and never reused; a pruned edge stays behind as a tombstone.
pub type EdgeId = u32;

/// "No supporting edge": the support of base facts and of facts that lost
/// theirs.
const NO_EDGE: EdgeId = EdgeId::MAX;

/// One recorded derivation step, borrowed from the graph's arenas: rule
/// `rule` with premises `premises` produced (or, for a witness edge, was
/// satisfied by) `conclusions`.
#[derive(Clone, Copy, Debug)]
pub struct DerivationEdge<'a> {
    /// Index of the rule in the program.
    pub rule: usize,
    /// The image of the rule's frontier under the trigger — with `rule`, the
    /// trigger key whose verdict this edge records.
    pub frontier_image: &'a [Term],
    /// The facts the rule body matched.
    pub premises: &'a [FactId],
    /// The facts the firing produced, or the satisfying head image of a
    /// witness edge.
    pub conclusions: &'a [FactId],
    /// `false` for a fired edge; `true` for a witness edge (restricted
    /// variant, head already satisfied — the trigger never fired).
    pub satisfied: bool,
}

impl DerivationEdge<'_> {
    /// The trigger key this edge retired.
    pub fn key(&self) -> TriggerKey {
        TriggerKey {
            rule_index: self.rule,
            frontier_image: self.frontier_image.to_vec(),
        }
    }
}

/// One step of a [`DerivationGraph::why`] explanation.
#[derive(Clone, Debug)]
pub struct WhyStep {
    /// The fact being explained.
    pub fact: Atom,
    /// The rule that produced it (`None` for a base fact).
    pub rule: Option<usize>,
    /// True when the fact is supported through a witness edge: the rule's
    /// head was already satisfied by this fact rather than firing for it.
    pub satisfied: bool,
    /// The premise facts of the supporting derivation (empty for base facts).
    pub premises: Vec<Atom>,
}

/// Why an absent fact is absent: per candidate rule, the body premises that
/// have no match (see [`explain_absent`]).
#[derive(Clone, Debug, Default)]
pub struct WhyNot {
    /// Rules whose head unifies with the fact, with their blocked premises.
    pub candidates: Vec<WhyNotCandidate>,
}

/// One rule that could in principle produce an absent fact, and what blocks
/// it.
#[derive(Clone, Debug)]
pub struct WhyNotCandidate {
    /// Index of the rule in the program.
    pub rule: usize,
    /// The rule body under the head unifier (remaining variables unbound).
    pub body: Vec<Atom>,
    /// Body atoms with no matching fact in the instance — the blocked
    /// premises. Empty when every body atom matches in isolation (the body
    /// may still have no joint match, or the head may need an invented
    /// value).
    pub missing: Vec<Atom>,
    /// True when some head position unified an existential variable with a
    /// term of the fact: the chase would invent a fresh null there, so this
    /// exact fact can never be derived by this rule.
    pub needs_invented_value: bool,
}

/// The mutable part of a fact: whether it is in the model, whether it is
/// asserted, and which edge supports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FactState {
    /// False for facts removed by a retraction (tombstones).
    pub(crate) alive: bool,
    /// True for facts of the input database (asserted, not only derived).
    pub(crate) base: bool,
    /// The edge the fact was first derived by (or re-elected to by a
    /// retraction); `NO_EDGE` for facts that were asserted before any rule
    /// produced them.
    support: EdgeId,
}

/// The fixed-size part of an own edge of a layer.
#[derive(Clone, Copy, Debug)]
struct EdgeMeta {
    /// Ends of the edge's premise run and conclusion run in `links` (the
    /// premises start where the previous edge's conclusions end).
    premises_end: u32,
    conclusions_end: u32,
    /// Witness edge (see [`DerivationEdge::satisfied`]).
    satisfied: bool,
    /// Pruned before this layer was last merged.
    dead: bool,
}

/// One layer of the graph: the facts and edges a run (or a merge of runs)
/// added, and what that run changed about older layers.
#[derive(Clone, Debug, Default)]
struct GraphLayer {
    /// Global id of this layer's first fact / first edge.
    fact_start: FactId,
    edge_start: EdgeId,
    /// Own facts: `predicate(terms)` by local id, plus their state as of the
    /// layer's last write (newer layers' overlays supersede it).
    facts: Tuples<Predicate>,
    states: Vec<FactState>,
    /// Own edges by local id: the trigger key (`rule`, frontier image) — the
    /// index of `keys` is the retired-key set — plus the edge's flags and its
    /// premise and conclusion runs in `links`.
    keys: Tuples<usize>,
    edges: Vec<EdgeMeta>,
    links: Vec<FactId>,
    /// Overlay on older layers: the current state of facts, and the pruned
    /// edges, that live below this layer.
    fact_overlay: HashMap<FactId, FactState>,
    dead_edges: HashSet<EdgeId>,
    /// Adjacency of the own live edges, built when the layer is sealed:
    /// `fact << 32 | edge`, sorted, for premises and for conclusions.
    uses: Vec<u64>,
    derivers: Vec<u64>,
}

impl GraphLayer {
    fn edge(&self, local: u32) -> DerivationEdge<'_> {
        let start = match local {
            0 => 0,
            _ => self.edges[local as usize - 1].conclusions_end,
        };
        let meta = self.edges[local as usize];
        DerivationEdge {
            rule: self.keys.head(local),
            frontier_image: self.keys.terms(local),
            premises: &self.links[start as usize..meta.premises_end as usize],
            conclusions: &self.links[meta.premises_end as usize..meta.conclusions_end as usize],
            satisfied: meta.satisfied,
        }
    }
}

impl Layer for GraphLayer {
    fn weight(&self) -> usize {
        self.facts.len() + self.keys.len() + self.fact_overlay.len() + self.dead_edges.len()
    }

    fn successor(&self) -> Self {
        GraphLayer {
            fact_start: self.fact_start + self.facts.len() as FactId,
            edge_start: self.edge_start + self.keys.len() as EdgeId,
            ..GraphLayer::default()
        }
    }

    fn absorb(&mut self, newer: Self) {
        debug_assert_eq!(
            newer.fact_start as usize,
            self.fact_start as usize + self.facts.len()
        );
        debug_assert_eq!(
            newer.edge_start as usize,
            self.edge_start as usize + self.keys.len()
        );
        // Facts: append, then let the newer overlay settle on the facts that
        // are now own; what it says about still-older layers stays overlay.
        self.facts.append(&newer.facts, |_| true);
        self.states.extend(newer.states);
        for (id, state) in newer.fact_overlay {
            match id.checked_sub(self.fact_start) {
                Some(local) => self.states[local as usize] = state,
                None => {
                    self.fact_overlay.insert(id, state);
                }
            }
        }
        // Edges: own edges the newer layer pruned leave the key index first,
        // so a key re-recorded by a newer edge is indexed exactly once.
        for edge in newer.dead_edges {
            match edge.checked_sub(self.edge_start) {
                Some(local) => {
                    self.edges[local as usize].dead = true;
                    self.keys.unindex(local);
                }
                None => {
                    self.dead_edges.insert(edge);
                }
            }
        }
        self.keys
            .append(&newer.keys, |local| !newer.edges[local as usize].dead);
        let shift = self.links.len() as u32;
        self.edges.extend(newer.edges.iter().map(|meta| EdgeMeta {
            premises_end: meta.premises_end + shift,
            conclusions_end: meta.conclusions_end + shift,
            ..*meta
        }));
        self.links.extend(newer.links);
    }

    fn seal(&mut self) {
        let (mut uses, mut derivers) = (Vec::new(), Vec::new());
        for local in 0..self.keys.len() as u32 {
            if self.edges[local as usize].dead {
                continue;
            }
            let id = u64::from(self.edge_start + local);
            let edge = self.edge(local);
            uses.extend(edge.premises.iter().map(|&fact| u64::from(fact) << 32 | id));
            derivers.extend(
                edge.conclusions
                    .iter()
                    .map(|&fact| u64::from(fact) << 32 | id),
            );
        }
        uses.sort_unstable();
        derivers.sort_unstable();
        self.uses = uses;
        self.derivers = derivers;
    }
}

/// The edges a sorted `fact << 32 | edge` list holds for `fact`.
fn postings(list: &[u64], fact: FactId) -> impl Iterator<Item = EdgeId> + '_ {
    let from = list.partition_point(|&entry| entry < u64::from(fact) << 32);
    list[from..]
        .iter()
        .take_while(move |&&entry| (entry >> 32) as FactId == fact)
        .map(|&entry| entry as EdgeId)
}

/// The derivation graph of one chase run (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct DerivationGraph {
    layers: Layered<GraphLayer>,
    /// Live counters, maintained by every mutation so the serving layer's
    /// gauges and the planner's guards never scan the graph.
    live_nodes: usize,
    base_nodes: usize,
    live_edges: usize,
    bytes: usize,
    /// Scratch buffer for the premise rows `record_edge` instantiates.
    row: Vec<Term>,
}

impl DerivationGraph {
    /// A graph seeded with every fact of `database` as a base fact.
    pub fn seeded(database: &Instance) -> Self {
        let mut graph = DerivationGraph::default();
        for predicate in database.predicates() {
            for row in database.tuples(predicate) {
                graph.intern(predicate, row, true, NO_EDGE);
            }
        }
        graph
    }

    /// The id of `predicate(terms)`, tombstones included.
    fn lookup(&self, hash: u64, predicate: Predicate, terms: &[Term]) -> Option<FactId> {
        self.layers.newest_first().find_map(|layer| {
            layer
                .facts
                .find(hash, predicate, terms)
                .map(|local| layer.fact_start + local)
        })
    }

    /// The current state of a fact: the newest overlay entry above its home
    /// layer, or what the home layer recorded.
    pub(crate) fn state(&self, id: FactId) -> FactState {
        for layer in self.layers.newest_first() {
            if let Some(local) = id.checked_sub(layer.fact_start) {
                return layer.states[local as usize];
            }
            if let Some(state) = layer.fact_overlay.get(&id) {
                return *state;
            }
        }
        unreachable!("the oldest layer starts at fact 0")
    }

    fn set_state(&mut self, id: FactId, state: FactState) {
        let top = &mut self.layers.top;
        match id.checked_sub(top.fact_start) {
            Some(local) => top.states[local as usize] = state,
            None => {
                top.fact_overlay.insert(id, state);
            }
        }
    }

    /// Intern `predicate(terms)`, returning its stable id. A tombstoned fact
    /// is revived. `base` marks the fact as asserted (sticky: a derived fact
    /// later asserted explicitly becomes a base fact, never the other way
    /// around); `support` is recorded only when the call brings the fact
    /// into the model — the first derivation is the well-founded one.
    fn intern(
        &mut self,
        predicate: Predicate,
        terms: &[Term],
        base: bool,
        support: EdgeId,
    ) -> FactId {
        let hash = tuple_hash(predicate, terms);
        let fresh = FactState {
            alive: true,
            base,
            support,
        };
        let id = match self.lookup(hash, predicate, terms) {
            Some(id) => {
                let state = self.state(id);
                if state.alive {
                    if base && !state.base {
                        self.base_nodes += 1;
                        self.set_state(id, FactState { base, ..state });
                    }
                    return id;
                }
                self.set_state(id, fresh);
                id
            }
            None => {
                let top = &mut self.layers.top;
                top.states.push(fresh);
                self.bytes += Tuples::<Predicate>::bytes_per_tuple(terms.len())
                    + std::mem::size_of::<FactState>();
                top.fact_start + top.facts.push(hash, predicate, terms, true)
            }
        };
        self.live_nodes += 1;
        self.base_nodes += usize::from(base);
        id
    }

    /// Assert `atom` as a base fact (interning or reviving it).
    pub(crate) fn assert_base(&mut self, atom: &Atom) -> FactId {
        self.intern(atom.predicate, &atom.terms, true, NO_EDGE)
    }

    /// True if the trigger key `(rule, frontier_image)` has a live edge,
    /// i.e. its verdict (fired or satisfied) stands.
    pub(crate) fn has_key(&self, rule: usize, frontier_image: &[Term]) -> bool {
        let hash = tuple_hash(rule, frontier_image);
        self.layers.newest_first().any(|layer| {
            layer
                .keys
                .find(hash, rule, frontier_image)
                .is_some_and(|local| !self.edge_dead(layer.edge_start + local))
        })
    }

    /// Record the verdict of one trigger: rule `rule` matched its `body`
    /// under `homomorphism` (frontier image `frontier_image`) and produced —
    /// or, with `satisfied`, was already satisfied by — `conclusions`.
    /// Conclusions new to the model take the edge as their support.
    pub(crate) fn record_edge(
        &mut self,
        rule: usize,
        frontier_image: &[Term],
        body: &[Atom],
        homomorphism: &Substitution,
        conclusions: &[Atom],
        satisfied: bool,
    ) {
        let edge = self.layers.top.edge_start + self.layers.top.keys.len() as EdgeId;
        let support = if satisfied { NO_EDGE } else { edge };
        // Premise and conclusion ids go straight into the top layer's link
        // arena; interning only ever touches the fact side of the layer.
        let mut row = std::mem::take(&mut self.row);
        for atom in body {
            row.clear();
            row.extend(atom.terms.iter().map(|t| homomorphism.apply_term(*t)));
            let id = self.intern(atom.predicate, &row, false, NO_EDGE);
            self.layers.top.links.push(id);
        }
        self.row = row;
        let premises_end = self.layers.top.links.len() as u32;
        for atom in conclusions {
            let id = self.intern(atom.predicate, &atom.terms, false, support);
            self.layers.top.links.push(id);
        }
        self.live_edges += 1;
        self.bytes += Tuples::<usize>::bytes_per_tuple(frontier_image.len())
            + 10
            + 12 * (body.len() + conclusions.len());
        let top = &mut self.layers.top;
        top.keys
            .push(tuple_hash(rule, frontier_image), rule, frontier_image, true);
        top.edges.push(EdgeMeta {
            premises_end,
            conclusions_end: top.links.len() as u32,
            satisfied,
            dead: false,
        });
    }

    /// The id of a live fact, if the graph knows it.
    pub fn id_of(&self, atom: &Atom) -> Option<FactId> {
        self.lookup(
            tuple_hash(atom.predicate, &atom.terms),
            atom.predicate,
            &atom.terms,
        )
        .filter(|&id| self.state(id).alive)
    }

    /// The atom with the given id (tombstones included).
    pub fn atom(&self, id: FactId) -> Atom {
        let layer = self
            .layers
            .newest_first()
            .find(|layer| id >= layer.fact_start)
            .expect("the oldest layer starts at fact 0");
        let local = id - layer.fact_start;
        Atom {
            predicate: layer.facts.head(local),
            terms: layer.facts.terms(local).to_vec(),
        }
    }

    /// True if the fact is a live base (asserted) fact.
    pub fn is_base(&self, id: FactId) -> bool {
        let state = self.state(id);
        state.base && state.alive
    }

    /// Number of live facts in the graph. O(1).
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live recorded edges. O(1).
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Number of live base (asserted) facts. O(1).
    pub fn base_fact_count(&self) -> usize {
        self.base_nodes
    }

    /// A rough estimate of the graph's heap footprint in bytes (tombstones
    /// included), accumulated as facts and edges are recorded. O(1).
    pub fn bytes_estimate(&self) -> usize {
        self.bytes
    }

    /// The live recorded edges (fired and witness), newest layer first.
    pub fn edges(&self) -> impl Iterator<Item = DerivationEdge<'_>> + '_ {
        self.layers.newest_first().flat_map(move |layer| {
            (0..layer.keys.len() as u32)
                .filter(move |&local| !self.edge_dead(layer.edge_start + local))
                .map(move |local| layer.edge(local))
        })
    }

    /// The live base (asserted) facts.
    pub fn base_facts(&self) -> impl Iterator<Item = Atom> + '_ {
        self.layers.newest_first().flat_map(move |layer| {
            (0..layer.facts.len() as FactId)
                .map(move |local| layer.fact_start + local)
                .filter(move |&id| self.is_base(id))
                .map(move |id| self.atom(id))
        })
    }

    /// Publish everything recorded since the last freeze as an immutable
    /// layer (size-tiered merge, see [`crate::layered`]) and build its
    /// adjacency indexes. Afterwards `clone()` shares the whole graph. The
    /// chase entry points freeze the graphs they return.
    pub fn freeze(&mut self) {
        self.layers.freeze();
    }

    /// Number of layers; logarithmic in the graph size.
    pub fn layer_count(&self) -> usize {
        self.layers.layer_count()
    }

    /// True if every frozen layer of `other` is shared by reference with
    /// `self` (in the style of `IndexedRelation::shares_segments_with`):
    /// `self` continues `other` without having copied any of it.
    pub fn shares_layers_with(&self, other: &DerivationGraph) -> bool {
        self.layers.shares_layers_with(&other.layers)
    }

    // --- maintenance primitives of `chase_retract` -----------------------

    pub(crate) fn edge(&self, id: EdgeId) -> DerivationEdge<'_> {
        let layer = self
            .layers
            .newest_first()
            .find(|layer| id >= layer.edge_start)
            .expect("the oldest layer starts at edge 0");
        layer.edge(id - layer.edge_start)
    }

    fn edge_dead(&self, id: EdgeId) -> bool {
        for layer in self.layers.newest_first() {
            if let Some(local) = id.checked_sub(layer.edge_start) {
                return layer.edges[local as usize].dead;
            }
            if layer.dead_edges.contains(&id) {
                return true;
            }
        }
        unreachable!("the oldest layer starts at edge 0")
    }

    /// The live edges found for `fact` in the per-layer adjacency lists
    /// `pick` selects. Only frozen layers carry adjacency, and only the
    /// fact's home layer and the ones above it can mention the fact.
    fn adjacent<'a>(
        &'a self,
        fact: FactId,
        pick: fn(&GraphLayer) -> &[u64],
    ) -> impl Iterator<Item = EdgeId> + 'a {
        debug_assert_eq!(self.layers.top.keys.len(), 0, "freeze before walking edges");
        let mut below_home = false;
        self.layers
            .frozen_newest_first()
            .take_while(move |layer| !std::mem::replace(&mut below_home, fact >= layer.fact_start))
            .flat_map(move |layer| postings(pick(layer), fact))
            .filter(move |&edge| !self.edge_dead(edge))
    }

    /// The live edges that use `fact` as a premise (frozen graphs only).
    pub(crate) fn uses(&self, fact: FactId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adjacent(fact, |layer| &layer.uses)
    }

    /// The live edges that conclude `fact` (frozen graphs only).
    pub(crate) fn derivers(&self, fact: FactId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adjacent(fact, |layer| &layer.derivers)
    }

    /// Withdraw the assertion of a live base fact; returns `false` (and
    /// changes nothing) if the fact is not one.
    pub(crate) fn withdraw(&mut self, id: FactId) -> bool {
        let state = self.state(id);
        if !(state.alive && state.base) {
            return false;
        }
        self.base_nodes -= 1;
        self.set_state(
            id,
            FactState {
                base: false,
                ..state
            },
        );
        true
    }

    /// Re-elect the supporting edge of a live fact.
    pub(crate) fn set_support(&mut self, id: FactId, support: EdgeId) {
        let state = self.state(id);
        self.set_state(id, FactState { support, ..state });
    }

    /// Tombstone a live, no longer asserted fact.
    pub(crate) fn kill_fact(&mut self, id: FactId) {
        let state = self.state(id);
        debug_assert!(state.alive && !state.base);
        self.live_nodes -= 1;
        self.set_state(
            id,
            FactState {
                alive: false,
                support: NO_EDGE,
                ..state
            },
        );
    }

    /// Tombstone an edge of a frozen layer: its key's verdict is dropped and
    /// it leaves every adjacency walk. Returns `false` if it was dead.
    pub(crate) fn kill_edge(&mut self, id: EdgeId) -> bool {
        assert!(
            id < self.layers.top.edge_start,
            "only edges of frozen layers are pruned (freeze first)"
        );
        if self.edge_dead(id) {
            return false;
        }
        self.layers.top.dead_edges.insert(id);
        self.live_edges -= 1;
        true
    }

    /// A well-founded derivation of `fact` down to base facts: the returned
    /// steps list the fact itself first, followed by every supporting
    /// derivation in reverse-dependency order (premises appear after the
    /// facts they support). Returns `None` when the fact is not a live node
    /// of the graph or has no support (it should have been retracted — a
    /// graph invariant violation). The walk follows the support pointers
    /// recorded at derivation time; it computes nothing.
    pub fn why(&self, fact: &Atom) -> Option<Vec<WhyStep>> {
        let _why_span = span("provenance.why");
        let target = self.id_of(fact)?;
        let mut steps = Vec::new();
        let mut visited: BTreeSet<FactId> = BTreeSet::new();
        let mut stack = vec![target];
        while let Some(id) = stack.pop() {
            if !visited.insert(id) {
                continue;
            }
            let state = self.state(id);
            if state.base || state.support == NO_EDGE {
                if id == target && !state.base {
                    return None;
                }
                steps.push(WhyStep {
                    fact: self.atom(id),
                    rule: None,
                    satisfied: false,
                    premises: Vec::new(),
                });
                continue;
            }
            let edge = self.edge(state.support);
            steps.push(WhyStep {
                fact: self.atom(id),
                rule: Some(edge.rule),
                satisfied: edge.satisfied,
                premises: edge.premises.iter().map(|&p| self.atom(p)).collect(),
            });
            stack.extend(edge.premises.iter().copied());
        }
        Some(steps)
    }
}

/// Explain why `fact` is **not** derivable: for every rule whose head
/// unifies with it, report the rule body under the head unifier and the
/// body atoms with no matching fact in `instance` (the blocked premises).
/// An empty `candidates` list means no rule head can produce the
/// predicate at all.
pub fn explain_absent(program: &TgdProgram, instance: &Instance, fact: &Atom) -> WhyNot {
    let mut report = WhyNot::default();
    for (rule_index, rule) in program.iter().enumerate() {
        let existentials = rule.existential_head_variables();
        for head_atom in &rule.head {
            if head_atom.predicate != fact.predicate {
                continue;
            }
            // Unify the head atom with the ground fact position by position.
            let mut unifier = Substitution::new();
            let mut ok = true;
            let mut needs_invented_value = false;
            for (head_term, ground) in head_atom.terms.iter().zip(fact.terms.iter()) {
                match head_term {
                    Term::Variable(v) => {
                        let bound = unifier.apply_term(Term::Variable(*v));
                        if bound == Term::Variable(*v) {
                            unifier.bind(*v, *ground);
                            if existentials.contains(v) {
                                needs_invented_value = true;
                            }
                        } else if bound != *ground {
                            ok = false;
                            break;
                        }
                    }
                    other => {
                        if other != ground {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                continue;
            }
            let body = unifier.apply_atoms(&rule.body);
            let missing: Vec<Atom> = body
                .iter()
                .filter(|atom| {
                    ontorew_unify::find_homomorphism(
                        std::slice::from_ref(*atom),
                        instance,
                        &Substitution::new(),
                    )
                    .is_none()
                })
                .cloned()
                .collect();
            report.candidates.push(WhyNotCandidate {
                rule: rule_index,
                body,
                missing,
                needs_invented_value,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, chase_incremental, ChaseConfig};
    use crate::retract::chase_retract;
    use ontorew_model::parse_program;

    fn closure_program() -> TgdProgram {
        parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap()
    }

    fn tracked() -> ChaseConfig {
        ChaseConfig::default().with_provenance(true)
    }

    #[test]
    fn seeded_graphs_hold_base_facts() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a"]);
        db.insert_fact("s", &["b"]);
        let graph = DerivationGraph::seeded(&db);
        assert_eq!(graph.node_count(), 2);
        assert_eq!(graph.edge_count(), 0);
        assert_eq!(graph.base_facts().count(), 2);
        assert_eq!(graph.base_fact_count(), 2);
        assert!(graph.bytes_estimate() > 0);
        let id = graph.id_of(&Atom::fact("r", &["a"])).unwrap();
        assert!(graph.is_base(id));
        assert_eq!(graph.atom(id), Atom::fact("r", &["a"]));
        assert!(graph.id_of(&Atom::fact("r", &["zzz"])).is_none());
    }

    #[test]
    fn why_walks_a_derivation_to_base_facts() {
        let p = closure_program();
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["b", "c"]);
        let result = chase(&p, &db, &tracked());
        let graph = result.provenance.as_ref().expect("provenance recorded");
        let steps = graph.why(&Atom::fact("path", &["a", "c"])).unwrap();
        // Target first, derived via R2 from path(a,b) and edge(b,c).
        assert_eq!(steps[0].fact, Atom::fact("path", &["a", "c"]));
        assert_eq!(steps[0].rule, Some(1));
        assert!(steps[0].premises.contains(&Atom::fact("path", &["a", "b"])));
        assert!(steps[0].premises.contains(&Atom::fact("edge", &["b", "c"])));
        // Base facts appear as rule-less steps.
        assert!(steps
            .iter()
            .any(|s| s.rule.is_none() && s.fact == Atom::fact("edge", &["a", "b"])));
        // A base fact explains itself.
        let base_steps = graph.why(&Atom::fact("edge", &["a", "b"])).unwrap();
        assert_eq!(base_steps.len(), 1);
        assert_eq!(base_steps[0].rule, None);
        // Absent facts have no why.
        assert!(graph.why(&Atom::fact("path", &["c", "a"])).is_none());
    }

    #[test]
    fn edges_expose_keys_premises_and_conclusions() {
        let p = closure_program();
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        let result = chase(&p, &db, &tracked());
        let graph = result.provenance.as_ref().unwrap();
        let edges: Vec<_> = graph.edges().collect();
        assert_eq!(edges.len(), graph.edge_count());
        let r1 = edges.iter().find(|e| e.rule == 0).expect("R1 fired");
        assert!(!r1.satisfied);
        assert_eq!(r1.key().rule_index, 0);
        assert_eq!(
            r1.key().frontier_image,
            vec![Term::constant("a"), Term::constant("b")]
        );
        assert_eq!(graph.atom(r1.premises[0]), Atom::fact("edge", &["a", "b"]));
        assert_eq!(
            graph.atom(r1.conclusions[0]),
            Atom::fact("path", &["a", "b"])
        );
        assert!(graph.has_key(0, &r1.key().frontier_image));
        assert!(!graph.has_key(1, &r1.key().frontier_image));
    }

    #[test]
    fn chase_results_come_frozen_and_continuations_share_their_layers() {
        let p = closure_program();
        let mut db = Instance::new();
        for i in 0..20u32 {
            db.insert_fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        let base = chase(&p, &db, &tracked());
        let graph = base.provenance.as_ref().unwrap();
        assert_eq!(graph.layer_count(), 1, "one frozen layer, empty top");
        assert!(graph.clone().shares_layers_with(graph));

        let mut delta = Instance::new();
        delta.insert_fact("edge", &["m0", "m1"]);
        let extended = chase_incremental(&p, &base, &delta, &tracked()).result;
        let extended_graph = extended.provenance.as_ref().unwrap();
        assert!(extended_graph.shares_layers_with(graph));
        assert_eq!(extended_graph.layer_count(), 2);
        assert_eq!(extended_graph.node_count(), graph.node_count() + 2);

        let gone = Instance::from_atoms([Atom::fact("edge", &["n3", "n4"])]);
        let retracted = chase_retract(&p, &base, &gone, &tracked()).result;
        let retracted_graph = retracted.provenance.as_ref().unwrap();
        assert!(retracted_graph.shares_layers_with(graph));
        assert_eq!(retracted_graph.node_count(), retracted.instance.len());
        // The base is a persistent value: neither continuation touched it.
        assert_eq!(graph.node_count(), base.instance.len());
        assert!(graph.why(&Atom::fact("path", &["n0", "n20"])).is_some());
        assert!(graph.id_of(&Atom::fact("edge", &["m0", "m1"])).is_none());
    }

    #[test]
    fn merges_fold_overlays_and_keep_every_answer() {
        // A chain of one-fact commits and retractions over one graph: the
        // size-tiered merges must fold tombstones, base flips and re-keyed
        // edges into the layers they patch without changing any answer.
        let p = closure_program();
        let mut db = Instance::new();
        db.insert_fact("edge", &["n0", "n1"]);
        let mut state = chase(&p, &db, &tracked());
        for i in 1..40u32 {
            let fact = Atom::fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]);
            db.insert(fact.clone());
            state = chase_incremental(&p, &state, &Instance::from_atoms([fact]), &tracked()).result;
            if i % 3 == 0 {
                let gone = Atom::fact("edge", &[&format!("n{}", i - 1), &format!("n{i}")]);
                db.remove(&gone);
                state = chase_retract(&p, &state, &Instance::from_atoms([gone]), &tracked()).result;
            }
            let graph = state.provenance.as_ref().unwrap();
            assert!(graph.layer_count() <= 12, "{} layers", graph.layer_count());
        }
        let oracle = chase(&p, &db, &tracked());
        assert_eq!(state.instance, oracle.instance);
        let graph = state.provenance.as_ref().unwrap();
        let fresh = oracle.provenance.as_ref().unwrap();
        assert_eq!(graph.node_count(), fresh.node_count());
        assert_eq!(graph.edge_count(), fresh.edge_count());
        assert_eq!(graph.base_fact_count(), db.len());
        assert_eq!(graph.base_facts().count(), db.len());
        assert_eq!(graph.edges().count(), graph.edge_count());
        for atom in state.instance.atoms() {
            assert!(graph.why(&atom).is_some(), "no why for {atom}");
        }
        // Every live edge connects live facts and is found by its key.
        for edge in graph.edges() {
            assert!(graph.has_key(edge.rule, edge.frontier_image));
            for &id in edge.premises.iter().chain(edge.conclusions) {
                assert!(graph.state(id).alive);
            }
        }
    }

    #[test]
    fn explain_absent_reports_blocked_premises() {
        let p = parse_program(
            "[R1] student(X), enrolled(X, C) -> attends(X, C).\n\
             [R2] person(X) -> hasParent(X, Y).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("student", &["zoe"]);
        let report = explain_absent(&p, &db, &Atom::fact("attends", &["zoe", "db101"]));
        assert_eq!(report.candidates.len(), 1);
        let c = &report.candidates[0];
        assert_eq!(c.rule, 0);
        assert!(!c.needs_invented_value);
        assert_eq!(c.missing, vec![Atom::fact("enrolled", &["zoe", "db101"])]);
        // An existential head position can never produce a named constant.
        let report = explain_absent(&p, &db, &Atom::fact("hasParent", &["zoe", "max"]));
        assert_eq!(report.candidates.len(), 1);
        assert!(report.candidates[0].needs_invented_value);
        // No rule produces the predicate at all.
        let report = explain_absent(&p, &db, &Atom::fact("teaches", &["zoe", "db101"]));
        assert!(report.candidates.is_empty());
    }
}
